"""Grid search over embeddings and readouts with per-ticker evaluation.

Every (embedding config x readout config x ticker) cell embeds the
ticker's windows, fits the readout on the chronological training rows
only, and evaluates accuracy / average precision on the test rows.
Per-ticker results are averaged into the Table-style comparison; the
best cell per (embedding kind, readout kind) is selected by mean test
accuracy with deterministic tie-breaks (then mean AP, then the
lexicographic parameter encoding).
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime
import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .embeddings import (
    KINDS,
    EmbeddingConfig,
    dataset_sha256,
    embed_dataset,
    read_embedded,
    write_embedded,
)
from .errors import ConfigError
from .pipeline import PriceSeries
from .readout import fit_logistic, fit_ridge, predict_scores, evaluate

READOUT_KINDS = ("logistic", "ridge")

# Default grid; kept deliberately small enough for desk-scale runs.
DEFAULT_GRID_EMBEDDINGS = [
    {"kind": "quantum", "a_x": [0.5, 1.0, 2.0], "a_z": [0.5, 1.0, 2.0],
     "a_zz": [0.25, 0.5, 1.0], "t": [0.5, 1.0, 2.0]},
    {"kind": "classical_esn", "reservoir_size": [50],
     "spectral_radius": [0.7, 0.9, 1.1], "leak_rate": [0.3, 1.0],
     "input_scaling": [1.0], "seed": [0]},
    {"kind": "raw"},
]
DEFAULT_GRID_READOUTS = [
    {"kind": "logistic", "regularization": [1e-4, 1e-2, 1.0]},
    {"kind": "ridge", "regularization": [1e-2, 1.0, 100.0]},
]


@dataclass
class GridSpec:
    embeddings: list  # templates: {"kind": ..., param: [values...]}
    readouts: list  # templates: {"kind": ..., "regularization": [values...]}
    # the window, lambda and stride every dataset must have been
    # prepared with; None accepts any value
    w: int = None
    lam: float = None
    stride: int = None
    seed: int = 0
    workers: int = 1

    def validate(self) -> None:
        problems = []
        if not self.embeddings:
            problems.append("grid has no embedding templates")
        if not self.readouts:
            problems.append("grid has no readout templates")
        for tpl in self.embeddings:
            kind = tpl.get("kind")
            if kind not in KINDS:
                problems.append(f"unknown embedding kind {kind!r}")
        for tpl in self.readouts:
            kind = tpl.get("kind")
            if kind not in READOUT_KINDS:
                problems.append(f"unknown readout kind {kind!r}")
            regs = tpl.get("regularization", [])
            if not regs:
                problems.append(f"readout {kind!r} has no regularization values")
            if kind == "ridge" and any(r <= 0 for r in regs):
                problems.append("ridge regularization values must be > 0")
        if self.w is not None and self.w < 2:
            problems.append("window size must be >= 2")
        if self.stride is not None and self.stride < 1:
            problems.append("stride must be >= 1")
        if self.workers < 1:
            problems.append("workers must be >= 1")
        if problems:
            raise ConfigError("; ".join(problems))

    def expand_embeddings(self) -> list:
        configs = []
        for tpl in self.embeddings:
            kind = tpl["kind"]
            if kind == "raw":
                configs.append(EmbeddingConfig.make("raw"))
                continue
            params = {k: v for k, v in tpl.items() if k != "kind"}
            keys = sorted(params)
            for combo in itertools.product(*(params[k] for k in keys)):
                configs.append(EmbeddingConfig.make(kind, **dict(zip(keys, combo))))
        return configs

    def expand_readouts(self) -> list:
        out = []
        for tpl in self.readouts:
            for reg in tpl["regularization"]:
                out.append((tpl["kind"], float(reg)))
        return out


@dataclass
class GridCell:
    embedding: EmbeddingConfig
    readout_kind: str
    regularization: float
    per_ticker: dict  # ticker -> EvalResult
    mean_accuracy: float
    mean_average_precision: float

    def sort_key(self):
        params = json.dumps(self.embedding.to_dict(), sort_keys=True)
        return (
            -self.mean_accuracy,
            -self.mean_average_precision,
            params,
            self.regularization,
        )


@dataclass
class ExperimentReport:
    cells: list  # [GridCell]
    excluded: dict  # ticker -> reason
    best: dict = field(default_factory=dict)  # (embed_kind, readout_kind) -> cell

    def select_best(self) -> None:
        groups = {}
        for cell in self.cells:
            groups.setdefault((cell.embedding.kind, cell.readout_kind), []).append(cell)
        self.best = {
            key: min(cells, key=GridCell.sort_key) for key, cells in groups.items()
        }


def _fit(kind: str, reg: float, x, y):
    if kind == "logistic":
        return fit_logistic(x, y, l2=reg)
    return fit_ridge(x, y, alpha=reg)


def _chunks(items: list, n: int) -> list:
    """items split into at most n contiguous, non-empty chunks of near-equal size."""
    k = min(n, len(items))
    bounds = [len(items) * i // k for i in range(k + 1)] if k else []
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def run_grid(datasets: dict, grid: GridSpec, cache_dir=None) -> ExperimentReport:
    """Evaluate every grid cell on every usable ticker.

    datasets maps ticker -> WindowedDataset.  A dataset whose window,
    lambda or stride differs from one the grid sets is a ConfigError.
    Tickers with fewer than 2 training or 1 test windows are excluded
    with a diagnostic.  Fitting only ever sees training rows.
    """
    grid.validate()
    if not datasets:
        raise ConfigError("no tickers to evaluate")
    mismatches = [
        f"ticker {ticker}: dataset {key} {have} differs from config {key} {want}"
        for ticker, ds in sorted(datasets.items())
        for key, want, have in (("window", grid.w, ds.w), ("lambda", grid.lam, ds.lam),
                                ("stride", grid.stride, ds.stride))
        if want is not None and have != want
    ]
    if mismatches:
        raise ConfigError("; ".join(mismatches))
    usable = {}
    excluded = {}
    for ticker in sorted(datasets):
        ds = datasets[ticker]
        n_train = ds.split_index
        n_test = len(ds.labels) - ds.split_index
        if n_train < 2 or n_test < 1:
            excluded[ticker] = (
                f"needs >= 2 train and >= 1 test windows, has {n_train}/{n_test}"
            )
        else:
            # cache files are named after the key, whatever ds.ticker says
            usable[ticker] = dataclasses.replace(ds, ticker=ticker)
    if not usable:
        raise ConfigError("every ticker is degenerate: " + "; ".join(excluded.values()))

    embed_cfgs = grid.expand_embeddings()
    readouts = grid.expand_readouts()

    # embed each (config, ticker) once and reuse across readout cells; a
    # cache file embedded from other dataset contents is a miss.  The
    # missing tickers of one config are embedded in at most `workers`
    # batches; rows do not depend on the batch, so any split gives the
    # same bytes.
    fingerprints = {ticker: dataset_sha256(ds) for ticker, ds in usable.items()}
    embedded = {}
    jobs = []  # (cfg, tickers)
    for cfg in embed_cfgs:
        missing = []
        for ticker in usable:
            cached = read_embedded(ticker, cfg, cache_dir) if cache_dir else None
            if cached is not None and cached.dataset_sha256 == fingerprints[ticker]:
                embedded[(cfg.cfg_hash(), ticker)] = cached
            else:
                missing.append(ticker)
        jobs += [(cfg, chunk) for chunk in _chunks(missing, grid.workers)]
    batches = ([usable[t] for t in chunk] for _, chunk in jobs)
    cfgs = [cfg for cfg, _ in jobs]
    pool = None
    if grid.workers > 1 and len(jobs) > 1:
        pool = ProcessPoolExecutor(max_workers=min(grid.workers, len(jobs)))
    with pool or contextlib.nullcontext():
        results = (pool.map if pool else map)(embed_dataset, batches, cfgs)
        for (cfg, chunk), batch in zip(jobs, results):
            for ticker, emb in zip(chunk, batch):
                embedded[(cfg.cfg_hash(), ticker)] = emb
                if cache_dir:
                    write_embedded(emb, cache_dir)

    cells = []
    for cfg in embed_cfgs:
        for kind, reg in readouts:
            per_ticker = {}
            for ticker in usable:
                emb = embedded[(cfg.cfg_hash(), ticker)]
                x_tr, y_tr = emb.train_rows()
                x_te, y_te = emb.test_rows()
                model = _fit(kind, reg, x_tr, y_tr)
                scores = predict_scores(model, x_te)
                per_ticker[ticker] = evaluate(scores, y_te, model.threshold)
            accs = [r.accuracy for r in per_ticker.values()]
            aps = [r.average_precision for r in per_ticker.values()]
            cells.append(
                GridCell(
                    embedding=cfg,
                    readout_kind=kind,
                    regularization=reg,
                    per_ticker=per_ticker,
                    mean_accuracy=float(np.mean(accs)),
                    mean_average_precision=float(np.mean(aps)),
                )
            )
    report = ExperimentReport(cells=cells, excluded=excluded)
    report.select_best()
    return report


def synth_regime_series(
    regimes, seed, ticker="SYNTH", start_price=100.0, start_date="2015-01-02"
) -> PriceSeries:
    """Geometric random walk whose log-return std follows a regime schedule.

    regimes is a list of (length, sigma) segments; the series has
    sum(lengths) returns and one extra initial price row.
    """
    if not regimes:
        raise ConfigError("empty regime schedule")
    for k, (length, sigma) in enumerate(regimes):
        if int(length) < 1:
            raise ConfigError(f"regime {k}: length must be >= 1, got {length}")
        if not np.isfinite(sigma) or sigma < 0:
            raise ConfigError(f"regime {k}: sigma must be finite and >= 0")
    rng = np.random.default_rng(seed)
    rets = np.concatenate(
        [rng.normal(0.0, sigma, size=int(length)) for length, sigma in regimes]
    )
    log_prices = np.log(start_price) + np.concatenate([[0.0], np.cumsum(rets)])
    day0 = datetime.date.fromisoformat(start_date)
    dates = [(day0 + datetime.timedelta(days=k)).isoformat() for k in range(len(log_prices))]
    return PriceSeries(ticker, dates, np.exp(log_prices))


def parse_regime_spec(spec: str):
    """Parse `len:sigma[,len:sigma]*` into a regime schedule."""
    regimes = []
    for pos, chunk in enumerate(spec.split(","), start=1):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ConfigError(f"regime segment {pos} ({chunk!r}): expected len:sigma")
        try:
            length = int(parts[0])
            sigma = float(parts[1])
        except ValueError as exc:
            raise ConfigError(f"regime segment {pos} ({chunk!r}): {exc}") from exc
        if length < 1:
            raise ConfigError(f"regime segment {pos}: length must be >= 1")
        if sigma < 0:
            raise ConfigError(f"regime segment {pos}: sigma must be >= 0")
        regimes.append((length, sigma))
    return regimes


CSV_COLUMNS = [
    "embedding_kind",
    "embedding_params",
    "readout_kind",
    "regularization",
    "n_tickers",
    "mean_accuracy",
    "mean_average_precision",
]


def _params_json(cfg: EmbeddingConfig) -> str:
    d = cfg.to_dict()
    d.pop("kind")
    return json.dumps(d, sort_keys=True)


def emit_report(report: ExperimentReport, out_dir) -> dict:
    """Write cells.csv, per_ticker.csv and report.txt; returns the paths.

    Output is deterministic: identical reports serialize byte-identically.
    """
    if not report.cells:
        raise ConfigError("report has no cells")
    os.makedirs(out_dir, exist_ok=True)
    cells_path = os.path.join(str(out_dir), "cells.csv")
    per_ticker_path = os.path.join(str(out_dir), "per_ticker.csv")
    text_path = os.path.join(str(out_dir), "report.txt")

    ordered = sorted(report.cells, key=GridCell.sort_key)
    with open(cells_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for cell in ordered:
            fh.write(
                ",".join(
                    [
                        cell.embedding.kind,
                        '"' + _params_json(cell.embedding).replace('"', '""') + '"',
                        cell.readout_kind,
                        f"{cell.regularization:.17g}",
                        str(len(cell.per_ticker)),
                        f"{cell.mean_accuracy:.6f}",
                        f"{cell.mean_average_precision:.6f}",
                    ]
                )
                + "\n"
            )
    with open(per_ticker_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(
            "embedding_kind,embedding_params,readout_kind,regularization,"
            "ticker,accuracy,average_precision,tp,fp,tn,fn\n"
        )
        for cell in ordered:
            for ticker in sorted(cell.per_ticker):
                res = cell.per_ticker[ticker]
                tp, fp, tn, fn = res.confusion
                fh.write(
                    ",".join(
                        [
                            cell.embedding.kind,
                            '"' + _params_json(cell.embedding).replace('"', '""') + '"',
                            cell.readout_kind,
                            f"{cell.regularization:.17g}",
                            ticker,
                            f"{res.accuracy:.6f}",
                            f"{res.average_precision:.6f}",
                            str(tp),
                            str(fp),
                            str(tn),
                            str(fn),
                        ]
                    )
                    + "\n"
                )

    lines = ["Embedding comparison (mean over tickers, test split)", ""]
    for kind in KINDS:
        group = [c for c in ordered if c.embedding.kind == kind]
        if not group:
            continue
        lines.append(f"== {kind} ==")
        lines.append(f"{'readout':<10} {'reg':>10} {'accuracy':>10} {'avg_prec':>10}  params")
        for cell in group:
            lines.append(
                f"{cell.readout_kind:<10} {cell.regularization:>10.4g} "
                f"{cell.mean_accuracy:>10.6f} {cell.mean_average_precision:>10.6f}  "
                f"{_params_json(cell.embedding)}"
            )
        lines.append("")
    if report.excluded:
        lines.append("Excluded tickers:")
        for ticker in sorted(report.excluded):
            lines.append(f"  {ticker}: {report.excluded[ticker]}")
        lines.append("")
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    return {"cells": cells_path, "per_ticker": per_ticker_path, "text": text_path}


def load_grid_config(path) -> GridSpec:
    """Read a GridSpec from a JSON config file, reporting all problems."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    problems = []
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known = {"embeddings", "readouts", "window", "lambda", "stride", "seed", "workers"}
    for key in raw:
        if key not in known:
            problems.append(f"unknown config key {key!r}")
    grid = GridSpec(
        embeddings=raw.get("embeddings", DEFAULT_GRID_EMBEDDINGS),
        readouts=raw.get("readouts", DEFAULT_GRID_READOUTS),
        w=int(raw["window"]) if "window" in raw else None,
        lam=float(raw["lambda"]) if "lambda" in raw else None,
        stride=int(raw["stride"]) if "stride" in raw else None,
        seed=int(raw.get("seed", 0)),
        workers=int(raw.get("workers", 1)),
    )
    try:
        grid.validate()
    except ConfigError as exc:
        problems.append(str(exc))
    if problems:
        raise ConfigError("; ".join(problems))
    return grid
