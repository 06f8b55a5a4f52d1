"""Window embeddings: quantum reservoir, classical echo-state, raw.

All three backends map each window of a WindowedDataset to one
fixed-length real feature row, in row order.  The embedding is that
(m, d) array alone: the dataset stays the one source of its ticker,
labels, split index and fingerprint.  One core, embed_blocks, gives the
rows block by block, so a run can stream them into their cache files
without holding any dataset's rows whole.

* quantum: each window is encoded independently from |0...0> (stateless
  across windows) and measured into n + n(n-1)/2 Z/ZZ expectations.
* classical_esn: windows are run in chronological order through one
  stateful leaky-tanh reservoir; the feature row is the reservoir state
  after the window's last element.  The datasets of one call are
  stepped together, each with its own state: one stacked matrix-vector
  product per time step for all of them.
* raw: the window itself, as a read-only view.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import quantum
from .errors import ConfigError, IngestionError
from .pipeline import WindowedDataset, load_arrays, npz_writer, save_arrays
from .readout import EvalResult

KINDS = ("quantum", "classical_esn", "raw")


@dataclass(frozen=True)
class QuantumParams:
    a_x: float = 1.0
    a_z: float = 1.0
    a_zz: float = 0.5
    t: float = 1.0


@dataclass(frozen=True)
class EsnParams:
    reservoir_size: int = 50
    spectral_radius: float = 0.9
    leak_rate: float = 0.3
    input_scaling: float = 1.0
    seed: int = 0


def _is_a(types, value) -> bool:
    """isinstance(value, types) for a finite value; false for a bool, which
    JSON keeps apart from numbers."""
    return isinstance(value, types) and not isinstance(value, bool) and abs(value) < math.inf


# the parameters each embedding kind takes, with the type of their values;
# make and grid templates accept these alone
_PARAM_TYPES = {
    kind: {f.name: int if f.type in (int, "int") else (int, float) for f in fields(params)}
    for kind, params in (("quantum", QuantumParams), ("classical_esn", EsnParams))
}
_PARAM_TYPES["raw"] = {}

# the domain of each parameter that has one: (test, description)
_RANGES = {
    "reservoir_size": (lambda v: v >= 1, ">= 1"),
    "spectral_radius": (lambda v: 0 < v < 1.5, "in (0, 1.5)"),
    "leak_rate": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "seed": (lambda v: v >= 0, ">= 0"),
}


def _template_problems(tpl: dict, types: dict, where: str) -> list:
    """Problems of a template's parameters: each must be named in types and
    hold a non-empty list of values of its type, inside its _RANGES domain."""
    problems = []
    for name, values in tpl.items():
        if name == "kind":
            continue
        if name not in types:
            problems.append(f"{where} takes no parameter {name!r}")
        elif not isinstance(values, list) or not values:
            problems.append(f"{where} {name} must be a non-empty list")
        elif not all(_is_a(types[name], v) for v in values):
            what = "integers" if types[name] is int else "finite numbers"
            problems.append(f"{where} {name} values must be {what}, got {values!r}")
        elif name in _RANGES and not all(_RANGES[name][0](v) for v in values):
            problems.append(f"{where} {name} values must be {_RANGES[name][1]}, got {values!r}")
    return problems


@dataclass(frozen=True)
class EmbeddingConfig:
    kind: str
    quantum: QuantumParams = None
    esn: EsnParams = None

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.quantum is not None:
            d["quantum"] = asdict(self.quantum)
        if self.esn is not None:
            d["esn"] = asdict(self.esn)
        return d

    def cfg_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @classmethod
    def make(cls, kind: str, **kwargs) -> "EmbeddingConfig":
        """The config of kind; each parameter must be one _PARAM_TYPES gives
        kind, with a finite value of its type inside its _RANGES domain.  A
        float parameter given as an int is stored as a float, so 1 and 1.0
        make one config with one cfg_hash.  Whether it can embed a dataset's
        windows is harness.preflight's check."""
        if kind not in KINDS:
            raise ConfigError(f"unknown embedding kind {kind!r}")
        types = _PARAM_TYPES[kind]
        problems = _template_problems({k: [v] for k, v in kwargs.items()}, types, f"embedding {kind!r}")
        if problems:
            raise ConfigError("; ".join(problems))
        params = {k: v if types[k] is int else float(v) for k, v in kwargs.items()}
        if kind == "quantum":
            return cls(kind, quantum=QuantumParams(**params))
        if kind == "classical_esn":
            return cls(kind, esn=EsnParams(**params))
        return cls(kind)


@dataclass
class EmbeddedDataset:
    """The entries of one `.emb.npz` file: feature rows and the fingerprint of their dataset."""

    features: np.ndarray  # (m, d)
    dataset_sha256: str  # dataset_sha256() of the source dataset


def reservoir_weights(params: EsnParams):
    """(W, W_in) of a dense leaky-tanh reservoir, both drawn from
    default_rng(seed) in that order: W entries uniform in [-0.5, 0.5],
    rescaled so the spectral radius matches the configured value; W_in
    uniform in [-0.5, 0.5]."""
    rng = np.random.default_rng(params.seed)
    size = params.reservoir_size
    w = rng.uniform(-0.5, 0.5, (size, size))
    radius = float(np.max(np.abs(np.linalg.eigvals(w))))
    if radius < 1e-12:
        raise ConfigError("reservoir matrix has zero spectral radius")
    return w * (params.spectral_radius / radius), rng.uniform(-0.5, 0.5, size)


# time steps of ESN rows per block: a block's drive and rows are
# (datasets, ESN_CHUNK, ...) arrays, whatever the datasets' lengths
ESN_CHUNK = 64


def reservoir_blocks(params: EsnParams, windows: list):
    """(j, rows) for each (m_j, w_j) array of windows: the reservoir state
    after each window's last element, in blocks of at most ESN_CHUNK rows,
    each array's blocks in row order.

    Each array runs through its own state from zero.  Arrays of equal
    w are stepped together: their states form a (T, size) stack, and
    np.matmul(W[None], S[:, :, None]) does for every row the same gemv
    as `W @ state` (a plain S @ W.T gemm does not), so each row equals
    stepping the array alone bit for bit.  Each block is a fresh array.
    """
    weights, w_in = reservoir_weights(params)
    leak, size = params.leak_rate, params.reservoir_size
    groups = {}
    for j, win in enumerate(windows):
        groups.setdefault(win.shape[1], []).append(j)
    for w, members in groups.items():
        # longest first, so the arrays still running are a leading slice
        members.sort(key=lambda j: -len(windows[j]))
        lengths = [len(windows[j]) for j in members]
        state = np.zeros((len(members), size))
        pre = np.empty_like(state)
        drive = np.empty((len(members), w, size))
        active = len(members)
        for start in range(0, lengths[0], ESN_CHUNK):
            while lengths[active - 1] <= start:
                active -= 1
            steps = min(ESN_CHUNK, lengths[0] - start)
            drive_in = np.zeros((active, steps, w))
            for pos, j in enumerate(members[:active]):
                chunk = windows[j][start : start + steps]
                drive_in[pos, : len(chunk)] = chunk
            drive_in *= params.input_scaling
            out = np.empty((active, steps, size))
            running = active
            for i in range(steps):
                while lengths[running - 1] <= start + i:
                    running -= 1
                s, pre_s, drive_s = state[:running], pre[:running], drive[:running]
                np.multiply(drive_in[:running, i, :, None], w_in, out=drive_s)
                for k in range(w):
                    np.matmul(weights[None], s[:, :, None], out=pre_s[:, :, None])
                    pre_s += drive_s[:, k]
                    np.tanh(pre_s, out=pre_s)
                    pre_s *= leak
                    s *= 1.0 - leak
                    s += pre_s
                out[:running, i] = s
            for pos, j in enumerate(members[:active]):
                yield j, out[pos, : min(lengths[pos] - start, steps)]


def feature_width(cfg: EmbeddingConfig, w: int) -> int:
    """Columns of cfg's feature rows of windows of width w."""
    if cfg.kind == "quantum":
        return w * (w + 1) // 2
    return cfg.esn.reservoir_size if cfg.kind == "classical_esn" else w


def embed_blocks(datasets: list, cfg: EmbeddingConfig):
    """The one embedding core: (j, rows) for each dataset j, its (k, d)
    feature rows in blocks, each dataset's blocks in row order.

    A dataset's rows do not depend on which datasets share the call or
    on the blocks: ESN rows come ESN_CHUNK time steps at a time (see
    reservoir_blocks), quantum rows quantum.BLOCK windows per
    quantum_embed call (a window's features do not depend on its block)
    and raw rows as one read-only view of the dataset's windows.
    """
    if any(len(d.labels) == 0 for d in datasets):
        raise ConfigError("cannot embed an empty dataset")
    if cfg.kind == "classical_esn":
        yield from reservoir_blocks(cfg.esn, [d.windows for d in datasets])
    elif cfg.kind == "raw":
        for j, d in enumerate(datasets):
            view = d.windows.view()
            view.flags.writeable = False
            yield j, view
    else:
        q = cfg.quantum
        for j, d in enumerate(datasets):
            for start in range(0, len(d.windows), quantum.BLOCK):
                yield j, quantum.quantum_embed(d.windows[start : start + quantum.BLOCK], q.a_x, q.a_z, q.a_zz,
                                               q.t).values


def embed_dataset(datasets: list, cfg: EmbeddingConfig) -> list:
    """The (m, d) feature rows of each dataset, in order, one row per window.

    A dataset's rows do not depend on which datasets share the call.  Raw
    rows are read-only views of the dataset's windows, not copies.
    """
    blocks = [[] for _ in datasets]
    for j, rows in embed_blocks(datasets, cfg):
        blocks[j].append(rows)
    return [rows[0] if len(rows) == 1 else np.concatenate(rows) for rows in blocks]


# --- cache: two pipeline.npz_writer files per (ticker, embedding config) ---
# `<ticker>__<cfg hash>.emb.npz` holds the feature rows, written whole by
# write_embedded or block by block by stream_embedded; `.fit.npz` holds
# the results of every readout cell on them (acc, AP, tp, fp, tn, fn, in
# cell order) and the readout paths as JSON.  Both record the
# dataset_sha256 of their dataset.  A missing file, another FORMAT_VERSION,
# other dataset contents or other readout paths is a miss; a file that
# cannot be read, holds a malformed entry or features of another shape
# than its dataset and config give raises IngestionError naming it.  A
# change that alters features or results must change FORMAT_VERSION.

def dataset_sha256(ds: WindowedDataset) -> str:
    """SHA-256 of a dataset's window shape and values, labels and split index."""
    digest = hashlib.sha256(f"{ds.windows.shape} {ds.split_index}\n".encode())
    digest.update(np.ascontiguousarray(ds.windows, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(ds.labels, dtype=np.int64).tobytes())
    return digest.hexdigest()


def _cache_path(directory, ticker: str, cfg: EmbeddingConfig, suffix: str) -> str:
    return os.path.join(str(directory), f"{ticker}__{cfg.cfg_hash()}{suffix}")


def cache_filename(ticker: str, cfg: EmbeddingConfig) -> str:
    return _cache_path("", ticker, cfg, ".emb.npz")


def _floats(value) -> bool:
    """True for a finite 2-D float array."""
    return (isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype.kind == "f"
            and bool(np.isfinite(value).all()))


# what each cache entry must hold: (check, description)
_ENTRIES = {
    "features": (_floats, "a finite 2-D float array"),
    "dataset_sha256": (lambda v: isinstance(v, str), "a str"),
    "readouts": (lambda v: isinstance(v, str), "a str"),
    "results": (lambda v: _floats(v) and v.shape[1] == 6, "a finite (n, 6) float array"),
    "ap_defined": (lambda v: isinstance(v, bool), "a bool"),
}


def _load(path, names: tuple):
    """The named entries of the cache file at path, in order, or None when
    there is no file of this format version.  A file that cannot be read
    or whose entry is missing or malformed raises IngestionError naming path."""
    arrays = load_arrays(path) if os.path.exists(path) else None
    if arrays is None:
        return None
    for name in names:
        check, what = _ENTRIES[name]
        if name not in arrays:
            raise IngestionError(f"{path}: no {name} entry")
        if not check(arrays[name]):
            raise IngestionError(f"{path}: {name} must be {what}")
    return [arrays[name] for name in names]


def write_embedded(ticker: str, cfg: EmbeddingConfig, directory, sha: str, features) -> str:
    """Cache the feature rows of the dataset of dataset_sha256 sha; returns the file's path."""
    path = _cache_path(directory, ticker, cfg, ".emb.npz")
    save_arrays(path, features=features, dataset_sha256=sha)
    return path


@contextlib.contextmanager
def _embedding_file(ticker: str, cfg: EmbeddingConfig, directory, ds: WindowedDataset, sha: str):
    """Yields put(rows), which streams ds's feature rows into the
    `.emb.npz` of ticker and cfg; the file ends as write_embedded would
    write it for all of them, byte for byte."""
    with npz_writer(_cache_path(directory, ticker, cfg, ".emb.npz")) as out:
        with out.rows("features", (len(ds.labels), feature_width(cfg, ds.w))) as put:
            yield put
        out.array("dataset_sha256", sha)


def stream_embedded(batch: list, cfg: EmbeddingConfig, directory) -> None:
    """Embed each (ticker, dataset, sha) of batch into its `.emb.npz`.

    The rows go from embed_blocks into the open files block by block, so
    no dataset's rows are held whole.  An embedding that raises writes
    none of the batch's files and leaves no `.tmp` behind (npz_writer).
    """
    with contextlib.ExitStack() as files:
        puts = [files.enter_context(_embedding_file(ticker, cfg, directory, ds, sha))
                for ticker, ds, sha in batch]
        for j, rows in embed_blocks([ds for _, ds, _ in batch], cfg):
            puts[j](rows)


def read_embedded(ticker: str, cfg: EmbeddingConfig, directory) -> EmbeddedDataset:
    """The cached embedding, or None when there is no file of this format version.

    Files of earlier versions also hold the dataset's labels and split
    index, which are not read.
    """
    entries = _load(_cache_path(directory, ticker, cfg, ".emb.npz"), ("features", "dataset_sha256"))
    return None if entries is None else EmbeddedDataset(*entries)


def cached_rows(cached: EmbeddedDataset, ticker: str, cfg: EmbeddingConfig, directory, sha: str,
                shape: tuple):
    """The features of the read_embedded record of ticker and cfg, when it
    holds the dataset of dataset_sha256 sha, or None.  Features of that
    dataset whose shape is not (rows of the dataset, feature_width of cfg)
    raise IngestionError naming the file."""
    if cached is None or cached.dataset_sha256 != sha:
        return None
    have = cached.features.shape
    if have != tuple(shape):
        path = _cache_path(directory, ticker, cfg, ".emb.npz")
        raise IngestionError(f"{path}: {have[0]} feature rows of {have[1]} columns, "
                             f"its dataset and config give {shape[0]} of {shape[1]}")
    return cached.features


def write_fit(ticker: str, cfg: EmbeddingConfig, directory, sha: str, paths: list, evals: list) -> None:
    """Cache the EvalResults of a pair's readout cells, in cell order, as
    computed on the dataset of dataset_sha256 sha with these readout paths."""
    results = [[r.accuracy, r.average_precision, *r.confusion] for r in evals]
    save_arrays(_cache_path(directory, ticker, cfg, ".fit.npz"), dataset_sha256=sha,
                readouts=json.dumps(paths), results=np.array(results, dtype=np.float64),
                ap_defined=evals[0].ap_defined)


def read_fit(ticker: str, cfg: EmbeddingConfig, directory, sha: str, paths: list, n_test: int):
    """The EvalResults write_fit cached for the same dataset and readout
    paths, in cell order, or None.  Results that no evaluation on n_test
    test rows can give raise IngestionError naming the file: an AP outside
    [0, 1], counts that are not non-negative integers summing to n_test,
    or an accuracy other than (tp + tn) / n_test, which keeps it in [0, 1]."""
    path = _cache_path(directory, ticker, cfg, ".fit.npz")
    entries = _load(path, ("dataset_sha256", "readouts", "results", "ap_defined"))
    if entries is None or entries[:2] != [sha, json.dumps(paths)]:
        return None
    results, defined = entries[2:]
    cells = sum(len(regs) for _, regs in paths)
    if len(results) != cells:
        raise IngestionError(f"{path}: results of {len(results)} cells, expected {cells}")
    acc, ap, tp, _, tn, _ = results.T
    counts = results[:, 2:]
    if not ((0 <= ap) & (ap <= 1) & (counts >= 0).all(axis=1) & (counts == np.floor(counts)).all(axis=1)
            & (counts.sum(axis=1) == n_test) & (acc == (tp + tn) / n_test)).all():
        raise IngestionError(f"{path}: results that no evaluation on {n_test} test rows gives")
    return [EvalResult(acc, ap, (int(tp), int(fp), int(tn), int(fn)), defined)
            for acc, ap, tp, fp, tn, fn in results.tolist()]
