"""Volatility regime detection with quantum-reservoir, echo-state and raw
embeddings over windowed stock returns."""

__version__ = "0.1.0"

from .quantum import (
    FeatureVector,
    build_hamiltonian,
    evolve,
    measure_features,
    quantum_embed,
)
from .pipeline import (
    PriceSeries,
    WindowedDataset,
    load_prices,
    log_returns,
    normalize_and_label,
    prepare_dataset,
    rolling_volatility,
    windowize,
)
from .embeddings import EmbeddedDataset, EmbeddingConfig, embed_dataset
from .readout import (
    EvalResult,
    LinearModel,
    average_precision,
    evaluate,
    fit_logistic,
    fit_ridge,
    predict_scores,
)
from .harness import (
    ExperimentReport,
    GridSpec,
    emit_report,
    run_grid,
    synth_regime_series,
)
