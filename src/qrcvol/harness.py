"""Grid search over embeddings and readouts with per-ticker evaluation.

Every (embedding config x readout config x ticker) cell embeds the
ticker's windows, fits the readout on the chronological training rows
only, and evaluates accuracy / average precision on the test rows.
Per-ticker results are averaged into the Table-style comparison, which
emit_report lists best first (GridCell.sort_key): by mean test accuracy
with deterministic tie-breaks (then mean AP, then the lexicographic
parameter encoding, then the regularization).

A run keeps the results of each (ticker, embedding config) pair, not its
feature rows.  A pair served by its `.emb.npz` is fitted right after the
read.  Every other pair that its `.fit.npz` does not serve is streamed
into its `.emb.npz` as it is embedded, by a pool at workers > 1, and
fitted from that file once every embedding job is done, whatever the
workers value: a fit while the workers embed leaves the parent's BLAS
threads spinning on the workers' cores.  So a run holds the feature rows
of one pair at a time.
"""

from __future__ import annotations

import contextlib
import copy
import datetime
import itertools
import json
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import quantum
# embed_dataset and write_embedded stay bound here, although a run calls
# neither: benchmarks/tracing.py wraps them by their names in this module
from .embeddings import (
    _PARAM_TYPES,
    KINDS,
    EmbeddingConfig,
    _is_a,
    _template_problems,
    cache_filename,
    cached_rows,
    dataset_sha256,
    embed_dataset,
    read_embedded,
    read_fit,
    stream_embedded,
    write_embedded,
    write_fit,
)
from .errors import ConfigError, IngestionError
from .pipeline import PriceSeries, replacing, write_csv
# fit_logistic, fit_ridge, predict_scores and evaluate stay bound here:
# benchmarks/tracing.py wraps the readout functions by their names in
# this module
from .readout import (
    evaluate,
    evaluate_path,
    fit_logistic,
    fit_logistic_path,
    fit_ridge,
    fit_ridge_path,
    predict_scores,
)

log = logging.getLogger(__name__)

# each readout kind fits a whole regularization path in one call
FIT_PATH = {"logistic": fit_logistic_path, "ridge": fit_ridge_path}

# most tickers per embedding job: a job holds each of its tickers'
# `.emb.npz` files open until its rows are written
MAX_BATCH = 256

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


@dataclass(frozen=True)
class GridSpec:
    """A grid, checked when it is made: an invalid one is a ConfigError
    that lists every problem.  No field can be assigned once it is made,
    and its templates are its own copies, so no caller's list can change it."""
    embeddings: list  # templates: {"kind": ..., param: [values...]}
    readouts: list  # templates: {"kind": ..., "regularization": [values...]}
    # the window, lambda and stride every dataset must have been
    # prepared with; None accepts any value
    w: int = None
    lam: float = None
    stride: int = None
    workers: int = 1
    configs: list = field(init=False)  # each distinct EmbeddingConfig once, in first-seen order
    # (kind, [regularization values]) of each readout template, each (kind, value) once
    # in first-seen order; a template left with no value drops out
    paths: list = field(init=False)

    def __post_init__(self):
        problems = []
        for name, templates in (("embedding", self.embeddings), ("readout", self.readouts)):
            if not isinstance(templates, list) or not all(isinstance(t, dict) for t in templates):
                raise ConfigError(f"{name} templates must be a list of objects")
            if not templates:
                problems.append(f"grid has no {name} templates")
            object.__setattr__(self, name + "s", copy.deepcopy(templates))
        for tpl in self.embeddings:
            kind = tpl.get("kind")
            if kind not in KINDS:
                problems.append(f"unknown embedding kind {kind!r}")
            else:
                problems += _template_problems(tpl, _PARAM_TYPES[kind], f"embedding {kind!r}")
        for tpl in self.readouts:
            kind = tpl.get("kind")
            if kind not in list(FIT_PATH):  # a JSON list or object kind cannot be hashed
                problems.append(f"unknown readout kind {kind!r}")
            found = _template_problems(tpl, {"regularization": (int, float)}, f"readout {kind!r}")
            problems += found
            if "regularization" not in tpl:
                problems.append(f"readout {kind!r} has no regularization values")
            elif kind == "ridge" and not found and any(r <= 0 for r in tpl["regularization"]):
                problems.append("ridge regularization values must be > 0")
            elif kind == "logistic" and not found and any(r < 0 for r in tpl["regularization"]):
                problems.append("logistic regularization values must be >= 0")
        for key, value, least in (("window", self.w, 2), ("stride", self.stride, 1)):
            if value is not None and not (_is_a(int, value) and value >= least):
                problems.append(f"{key} must be an integer >= {least}, got {value!r}")
        if self.lam is not None and not _is_a((int, float), self.lam):
            problems.append(f"lambda must be a finite number, got {self.lam!r}")
        if not (_is_a(int, self.workers) and self.workers >= 1):
            problems.append(f"workers must be an integer >= 1, got {self.workers!r}")
        if problems:
            raise ConfigError("; ".join(problems))
        configs = {}
        for tpl in self.embeddings:
            params = {k: v for k, v in tpl.items() if k != "kind"}
            keys = sorted(params)
            for combo in itertools.product(*(params[k] for k in keys)):
                configs.setdefault(EmbeddingConfig.make(tpl["kind"], **dict(zip(keys, combo))))
        seen = set()
        paths = []
        for tpl in self.readouts:
            regs = [float(reg) for reg in tpl["regularization"]]
            regs = [reg for reg in dict.fromkeys(regs) if (tpl["kind"], reg) not in seen]
            seen.update((tpl["kind"], reg) for reg in regs)
            if regs:
                paths.append((tpl["kind"], regs))
        object.__setattr__(self, "configs", list(configs))
        object.__setattr__(self, "paths", paths)


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
    # "embeddings" and "readout results" -> (reused from the cache, recomputed)
    cache_counts: dict


def _chunks(items: list, n: int) -> list:
    """items split into at most n contiguous, non-empty chunks of near-equal size."""
    k = min(n, len(items))
    bounds = [len(items) * i // k for i in range(k + 1)] if k else []
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def ProcessPoolExecutor(max_workers):
    """concurrent.futures.ProcessPoolExecutor, imported on first use: the
    import pulls in multiprocessing, which a run at workers=1 never needs."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def preflight(datasets: dict, grid: GridSpec):
    """Every check of a run that needs no file, past the grid's own: (usable, excluded).

    datasets maps ticker -> WindowedDataset.  A dataset whose window,
    lambda or stride differs from one the grid sets is a ConfigError.
    Tickers with fewer than 2 training or 1 test windows are excluded
    with a diagnostic.  A config that cannot embed some usable dataset is
    a ConfigError: an ESN reservoir smaller than its window, or a quantum
    config whose window exceeds quantum.MAX_QUBITS or whose
    quantum.radius_bound times |t| exceeds quantum.MAX_PHASE.
    """
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
            usable[ticker] = ds
    if not usable:
        raise ConfigError("every ticker is degenerate: " + "; ".join(excluded.values()))
    for cfg in grid.configs:
        e, q = cfg.esn, cfg.quantum
        for ticker, ds in usable.items():
            if e is not None and e.reservoir_size < ds.w:
                raise ConfigError(f"ticker {ticker}: reservoir_size {e.reservoir_size} < window size {ds.w}")
            if q is None:
                continue
            if ds.w > quantum.MAX_QUBITS:
                raise ConfigError(f"ticker {ticker}: window size {ds.w} needs {ds.w} qubits, above the "
                                  f"{quantum.MAX_QUBITS}-qubit guard of the quantum embedding")
            phase = quantum.radius_bound(ds.windows, q.a_x, q.a_z, q.a_zz) * abs(q.t)
            if phase > quantum.MAX_PHASE:
                raise ConfigError(
                    f"ticker {ticker}: quantum params a_x {q.a_x}, a_z {q.a_z}, a_zz {q.a_zz} and t {q.t}: "
                    f"spectral radius times |t| may reach {phase:.6g}, above the {quantum.MAX_PHASE} guard")
    return usable, excluded


def run_grid(datasets: dict, grid: GridSpec, cache_dir) -> ExperimentReport:
    """Evaluate every cell of grid.configs x grid.paths on every usable ticker (see preflight).

    Fitting only ever sees training rows.  cache_dir holds the embedding
    and fit files, and is created once preflight passes; an empty one
    makes every lookup a miss.
    """
    usable, excluded = preflight(datasets, grid)
    os.makedirs(cache_dir, exist_ok=True)
    embed_cfgs, paths = grid.configs, grid.paths
    readouts = [(kind, reg) for kind, regs in paths for reg in regs]  # one per cell

    fingerprints = {ticker: dataset_sha256(ds) for ticker, ds in usable.items()}
    evals = {}  # (cfg, ticker) -> EvalResults in cell order

    def fit(cfg, ticker) -> bool:
        """Evaluate every readout cell on the rows of a pair's `.emb.npz`
        into evals and its fit file, or return False when that file does
        not hold the pair's dataset; each readout template fits and
        evaluates its whole path as one batch."""
        ds = usable[ticker]
        rows = cached_rows(read_embedded(ticker, cfg, cache_dir), ticker, cfg, cache_dir, fingerprints[ticker], ds)
        if rows is None:
            return False
        k = ds.split_index
        evals[cfg, ticker] = [
            res
            for kind, regs in paths
            for res in evaluate_path(FIT_PATH[kind](rows[:k], ds.labels[:k], regs), rows[k:], ds.labels[k:])
        ]
        write_fit(ticker, cfg, cache_dir, fingerprints[ticker], paths, evals[cfg, ticker])
        return True

    # one lookup per pair in the cache files of embeddings: a matching fit
    # file serves its results, else a matching embedding file is read and
    # fitted, else the pair is embedded, so a warm run opens no `.emb.npz`.
    # The missing tickers of one config are embedded in at most `workers`
    # batches of at most MAX_BATCH; rows do not depend on the batch, so any
    # split gives the same bytes.
    jobs = []  # (cfg, tickers)
    fits_reused = 0
    for cfg in embed_cfgs:
        missing = []
        for ticker, ds in usable.items():
            served = read_fit(ticker, cfg, cache_dir, fingerprints[ticker], paths,
                              len(ds.labels) - ds.split_index)
            if served is not None:
                evals[cfg, ticker] = served
                fits_reused += 1
            elif not fit(cfg, ticker):
                missing.append(ticker)
        batches = max(grid.workers, math.ceil(len(missing) / MAX_BATCH))
        jobs += [(cfg, chunk) for chunk in _chunks(missing, batches)]
    pool = None
    if grid.workers > 1 and len(jobs) > 1:
        pool = ProcessPoolExecutor(max_workers=min(grid.workers, len(jobs)))
    with pool or contextlib.nullcontext():
        # a job writes its tickers' `.emb.npz` files and returns nothing
        for _ in (pool.map if pool else map)(
                stream_embedded, [[(t, usable[t], fingerprints[t]) for t in chunk] for _, chunk in jobs],
                [cfg for cfg, _ in jobs], [cache_dir] * len(jobs)):
            pass
    # the fits start once every job is done: fitting while the workers
    # embed leaves the parent's BLAS threads spinning on their cores
    for cfg, chunk in jobs:
        for ticker in chunk:
            if not fit(cfg, ticker):
                raise IngestionError(f"{os.path.join(str(cache_dir), cache_filename(ticker, cfg))}: "
                                     "overwritten for other dataset contents while this run used it")

    cells = []
    for cfg in embed_cfgs:
        for i, (kind, reg) in enumerate(readouts):
            per_ticker = {ticker: evals[cfg, ticker][i] for ticker in usable}
            cells.append(GridCell(
                embedding=cfg, readout_kind=kind, regularization=reg, per_ticker=per_ticker,
                mean_accuracy=float(np.mean([r.accuracy for r in per_ticker.values()])),
                mean_average_precision=float(np.mean([r.average_precision for r in per_ticker.values()]))))
    for ticker in sorted({ticker for (_, ticker), results in evals.items() if not results[0].ap_defined}):
        log.warning("ticker %s has no positive label in its test split: "
                    "its average precision counts as 0 in every mean", ticker)
    pairs = len(embed_cfgs) * len(usable)
    embedded = sum(len(chunk) for _, chunk in jobs)  # a pair that no job embeds reuses its cache files
    return ExperimentReport(cells=cells, excluded=excluded, cache_counts={
        "embeddings": (pairs - embedded, embedded),
        "readout results": (fits_reused, pairs - fits_reused),
    })


def _check_regimes(regimes) -> None:
    """ConfigError unless every segment has an integer length >= 1 and a finite sigma >= 0."""
    if not regimes:
        raise ConfigError("empty regime schedule")
    for pos, (length, sigma) in enumerate(regimes, start=1):
        if not (_is_a(int, length) and length >= 1):
            raise ConfigError(f"regime segment {pos}: length must be an integer >= 1, got {length!r}")
        if not np.isfinite(sigma) or sigma < 0:
            raise ConfigError(f"regime segment {pos}: sigma must be finite and >= 0, got {sigma}")


def synth_regime_series(regimes, seed, ticker="SYNTH", start_price=100.0) -> PriceSeries:
    """Geometric random walk whose log-return std follows a regime schedule.

    regimes is a list of (length, sigma) segments; the series has
    sum(lengths) returns and one extra initial price row, dated daily
    from 2015-01-02.  A walk whose log-price leaves the range on which
    np.exp gives a finite, positive, normal float is a ConfigError.
    """
    if not (math.isfinite(start_price) and start_price > 0):
        raise ConfigError(f"start price must be finite and > 0, got {start_price}")
    if not (_is_a(int, seed) and seed >= 0):
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    _check_regimes(regimes)
    rng = np.random.default_rng(seed)
    rets = np.concatenate(
        [rng.normal(0.0, sigma, size=length) for length, sigma in regimes]
    )
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN sum fails the check below
        log_prices = np.log(start_price) + np.concatenate([[0.0], np.cumsum(rets)])
    lo, hi = np.log(np.finfo(float).tiny), np.log(np.finfo(float).max)
    outside = ~((log_prices >= lo) & (log_prices <= hi))  # NaN fails both
    if outside.any():
        k = int(np.argmax(outside))
        raise ConfigError(f"regime schedule takes the log-price to {log_prices[k]:.6g} after {k} "
                          f"returns, outside [{lo:.6g}, {hi:.6g}] where prices are finite and positive")
    day0 = datetime.date(2015, 1, 2)
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
        regimes.append((length, sigma))
    _check_regimes(regimes)
    return regimes


# leading columns of cells.csv and per_ticker.csv: the grid cell
CELL_COLUMNS = ["embedding_kind", "embedding_params", "readout_kind", "regularization"]


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
    # params JSON is always quoted, "{}" too, so csv.writer would not match
    prefixes = [
        [cell.embedding.kind, '"' + _params_json(cell.embedding).replace('"', '""') + '"',
         cell.readout_kind, f"{cell.regularization:.17g}"]
        for cell in ordered
    ]
    write_csv(
        cells_path,
        CELL_COLUMNS + ["n_tickers", "mean_accuracy", "mean_average_precision"],
        (prefix + [str(len(cell.per_ticker)), f"{cell.mean_accuracy:.6f}",
                   f"{cell.mean_average_precision:.6f}"]
         for prefix, cell in zip(prefixes, ordered)),
    )
    write_csv(
        per_ticker_path,
        CELL_COLUMNS + ["ticker", "accuracy", "average_precision", "tp", "fp", "tn", "fn"],
        (prefix + [ticker, f"{res.accuracy:.6f}", f"{res.average_precision:.6f}",
                   *map(str, res.confusion)]
         for prefix, cell in zip(prefixes, ordered)
         for ticker, res in sorted(cell.per_ticker.items())),
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
        excluded = [f"  {ticker}: {reason}" for ticker, reason in sorted(report.excluded.items())]
        lines += ["Excluded tickers:", *excluded, ""]
    with replacing(text_path, encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    return {"cells": cells_path, "per_ticker": per_ticker_path, "text": text_path}


def load_grid_config(path) -> GridSpec:
    """The GridSpec of a JSON config file: its unknown keys and the
    problems the GridSpec finds are listed in one ConfigError."""
    try:
        with open(path, encoding="utf-8-sig") as fh:  # with or without a BOM
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON is UTF-8 text
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known = {"embeddings", "readouts", "window", "lambda", "stride", "seed", "workers"}
    problems = [f"unknown config key {key!r}" for key in raw if key not in known]
    if "seed" in raw:
        log.warning("config key 'seed' is ignored: ESN seeds come from the embedding templates")
    try:
        grid = GridSpec(embeddings=raw.get("embeddings", DEFAULT_GRID_EMBEDDINGS),
                        readouts=raw.get("readouts", DEFAULT_GRID_READOUTS), w=raw.get("window"),
                        lam=raw.get("lambda"), stride=raw.get("stride"), workers=raw.get("workers", 1))
    except ConfigError as exc:
        problems.append(str(exc))
    if problems:
        raise ConfigError("; ".join(problems))
    return grid
