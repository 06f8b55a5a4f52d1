"""What benchmarks/run.py and benchmarks/tracing.py bind in the package.

The tracer replaces these names on the qrcvol modules and reads the
arguments it notes by name; run.py reads embedding caches back
through them.  A change that breaks one fails here, in tier 1, and not
only in the benchmark's own self-test.
"""

import inspect
import os

import numpy as np

from qrcvol import cli, embeddings, harness, pipeline, quantum, readout
from qrcvol.embeddings import EmbeddingConfig

# name on harness -> the module that defines it
HARNESS_BOUND = {
    "embed_dataset": embeddings,
    "write_embedded": embeddings,
    "read_embedded": embeddings,
    "fit_logistic": readout,
    "fit_ridge": readout,
    "predict_scores": readout,
    "evaluate": readout,
}


# module -> the other names the tracer wraps on it
TRACED = {
    pipeline: ("load_prices", "prepare_dataset"),
    harness: ("load_grid_config", "run_grid", "emit_report"),
    readout: ("average_precision",),
    quantum: ("build_hamiltonian", "evolve", "measure_features"),
}


def parameters(fn) -> set:
    return set(inspect.signature(fn).parameters)


def test_harness_binds_the_traced_names():
    for name, module in HARNESS_BOUND.items():
        assert getattr(harness, name) is getattr(module, name), name


def test_main_dispatches_through_the_module_names(monkeypatch):
    # the tracer replaces cmd_prepare and cmd_run on cli: main must look them up when it runs
    called = []
    for name in ("cmd_prepare", "cmd_run"):
        monkeypatch.setattr(cli, name, lambda args, name=name: called.append(name) or cli.EXIT_OK)
    assert cli.main(["prepare", "--prices", "prices.csv", "--out", "data"]) == cli.EXIT_OK
    assert cli.main(["run", "--data", "data", "--config", "grid.json", "--out", "out"]) == cli.EXIT_OK
    assert called == ["cmd_prepare", "cmd_run"]
    for module, names in TRACED.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_traced_arguments_keep_their_names():
    assert "cfg" in parameters(harness.embed_dataset)
    assert {"ticker", "cfg", "directory"} <= parameters(harness.read_embedded)
    for fn in (pipeline.write_dataset, pipeline.read_dataset):
        assert "path" in parameters(fn)


def test_embedding_cache_round_trip_through_the_bound_names(tmp_path):
    cfg = EmbeddingConfig.make("classical_esn", reservoir_size=20)
    rows = np.arange(6.0).reshape(3, 2)
    path = harness.write_embedded("T", cfg, tmp_path, "sha", rows)
    assert path == os.path.join(str(tmp_path), embeddings.cache_filename("T", cfg))
    assert os.path.getsize(path) > 0
    assert np.array_equal(harness.read_embedded("T", cfg, str(tmp_path)).features, rows)


def test_logistic_fit_reports_what_the_tracer_counts():
    model = harness.fit_logistic(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 0, 1, 1]), 1.0)
    assert model.converged in (True, False) and model.degenerate in (True, False)


def test_quantum_embed_of_one_window():
    window = np.linspace(-0.02, 0.02, 9)
    params = {"a_x": 1.0, "a_z": 1.0, "a_zz": 0.5, "t": 1.0}
    values = quantum.quantum_embed(window, **params).values
    assert values.shape == (45,)
    assert np.array_equal(values, quantum.quantum_embed(window[None], **params).values[0])
