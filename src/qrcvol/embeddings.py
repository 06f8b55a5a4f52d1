"""Window embeddings: quantum reservoir, classical echo-state, raw.

All three backends map each window of a WindowedDataset to one
fixed-length real feature row, in row order.  The embedding is that
(m, d) array alone: the dataset stays the one source of its ticker,
labels, split index and fingerprint.

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

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import quantum
from .errors import ConfigError, IngestionError
from .pipeline import WindowedDataset, load_arrays, save_arrays
from .readout import EvalResult

KINDS = ("quantum", "classical_esn", "raw")


def _store_floats(params) -> None:
    """Store an int given for a float-typed field as a float, so that 1 and
    1.0 make one config with one cfg_hash."""
    for f in fields(params):
        value = getattr(params, f.name)
        if f.type in (float, "float") and isinstance(value, int) and not isinstance(value, bool):
            object.__setattr__(params, f.name, float(value))


@dataclass(frozen=True)
class QuantumParams:
    a_x: float = 1.0
    a_z: float = 1.0
    a_zz: float = 0.5
    t: float = 1.0

    def __post_init__(self):
        _store_floats(self)


@dataclass(frozen=True)
class EsnParams:
    reservoir_size: int = 50
    spectral_radius: float = 0.9
    leak_rate: float = 0.3
    input_scaling: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _store_floats(self)


@dataclass(frozen=True)
class EmbeddingConfig:
    kind: str
    quantum: QuantumParams = None
    esn: EsnParams = None

    def validate(self, w: int = None) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown embedding kind {self.kind!r}")
        active = [p is not None for p in (self.quantum, self.esn)]
        if self.kind == "quantum":
            if self.quantum is None or self.esn is not None:
                raise ConfigError("quantum embedding needs exactly quantum params")
            for name, val in asdict(self.quantum).items():
                if not math.isfinite(val):
                    raise ConfigError(f"quantum param {name} is not finite")
            if w is not None:
                q = self.quantum
                # the spectral radius r of every window's H is at least w |a_x|
                least_phase = w * abs(q.a_x) * abs(q.t)
                if w > quantum.MAX_QUBITS:
                    raise ConfigError(f"window size {w} needs {w} qubits, above the "
                                      f"{quantum.MAX_QUBITS}-qubit guard of the quantum embedding")
                if least_phase > quantum.MAX_PHASE:
                    raise ConfigError(
                        f"quantum params a_x {q.a_x} and t {q.t} at window size {w}: spectral radius "
                        f"times |t| is at least {least_phase}, above the {quantum.MAX_PHASE} guard")
        elif self.kind == "classical_esn":
            if self.esn is None or self.quantum is not None:
                raise ConfigError("classical_esn embedding needs exactly esn params")
            e = self.esn
            if e.reservoir_size < 1:
                raise ConfigError("reservoir_size must be positive")
            if w is not None and e.reservoir_size < w:
                raise ConfigError(
                    f"reservoir_size {e.reservoir_size} < window size {w}"
                )
            if not 0 < e.spectral_radius < 1.5:
                raise ConfigError("spectral_radius must be in (0, 1.5)")
            if not 0 < e.leak_rate <= 1:
                raise ConfigError("leak_rate must be in (0, 1]")
            if e.seed < 0:
                raise ConfigError(f"seed must be >= 0, got {e.seed}")
        else:  # raw
            if any(active):
                raise ConfigError("raw embedding takes no backend params")

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
        if kind == "quantum":
            cfg = cls(kind, quantum=QuantumParams(**kwargs))
        elif kind == "classical_esn":
            cfg = cls(kind, esn=EsnParams(**kwargs))
        else:
            cfg = cls(kind)
        cfg.validate()
        return cfg


@dataclass
class EmbeddedDataset:
    """One embedding cache record: a dataset's feature rows under a config."""

    ticker: str
    features: np.ndarray  # (m, d)
    config: EmbeddingConfig
    dataset_sha256: str  # dataset_sha256() of the source dataset


class EchoStateReservoir:
    """Dense leaky-tanh reservoir with seeded random weights.

    W entries uniform in [-0.5, 0.5], rescaled so the spectral radius
    matches the configured value; W_in uniform in [-0.5, 0.5].
    """

    def __init__(self, params: EsnParams):
        self.params = params
        rng = np.random.default_rng(params.seed)
        size = params.reservoir_size
        w = rng.uniform(-0.5, 0.5, (size, size))
        radius = float(np.max(np.abs(np.linalg.eigvals(w))))
        if radius < 1e-12:
            raise ConfigError("reservoir matrix has zero spectral radius")
        self.w = w * (params.spectral_radius / radius)
        self.w_in = rng.uniform(-0.5, 0.5, size)

    def window_states(self, windows: list) -> list:
        """The state after each window's last element, for each (m_j, w_j) array.

        Each array runs through its own state from zero.  Arrays of equal
        w are stepped together: their states form a (T, size) stack, and
        np.matmul(W[None], S[:, :, None]) does for every row the same gemv
        as `W @ state` (a plain S @ W.T gemm does not), so each row equals
        stepping the array alone bit for bit.  Array j's
        rows are a C-contiguous view into one (T, m_max, size) block.
        """
        p = self.params
        leak = p.leak_rate
        states = [None] * len(windows)
        groups = {}
        for j, win in enumerate(windows):
            groups.setdefault(win.shape[1], []).append(j)
        for w, members in groups.items():
            # longest first, so the arrays still running are a leading slice
            members.sort(key=lambda j: -len(windows[j]))
            lengths = [len(windows[j]) for j in members]
            drive_in = np.zeros((len(members), lengths[0], w))
            for pos, j in enumerate(members):
                drive_in[pos, : lengths[pos]] = windows[j]
            drive_in *= p.input_scaling
            out = np.empty((len(members), lengths[0], p.reservoir_size))
            state = np.zeros((len(members), p.reservoir_size))
            pre = np.empty_like(state)
            drive = np.empty((len(members), w, p.reservoir_size))
            active = len(members)
            for i in range(lengths[0]):
                while lengths[active - 1] <= i:
                    active -= 1
                s, pre_s, drive_s = state[:active], pre[:active], drive[:active]
                np.multiply(drive_in[:active, i, :, None], self.w_in, out=drive_s)
                for k in range(w):
                    np.matmul(self.w[None], s[:, :, None], out=pre_s[:, :, None])
                    pre_s += drive_s[:, k]
                    np.tanh(pre_s, out=pre_s)
                    pre_s *= leak
                    s *= 1.0 - leak
                    s += pre_s
                out[:active, i] = s
            for pos, j in enumerate(members):
                states[j] = out[pos, : lengths[pos]]
        return states


def embed_dataset(datasets: list, cfg: EmbeddingConfig) -> list:
    """The (m, d) feature rows of each dataset, in order, one row per window.

    A dataset's rows do not depend on which datasets share the call.  Raw
    rows are read-only views of the dataset's windows, not copies.
    """
    for d in datasets:
        cfg.validate(w=d.w)
        if len(d.labels) == 0:
            raise ConfigError("cannot embed an empty dataset")
    if cfg.kind == "raw":
        views = [d.windows.view() for d in datasets]
        for view in views:
            view.flags.writeable = False
        return views
    if cfg.kind == "quantum":
        q = cfg.quantum
        return [quantum.quantum_embed(d.windows, q.a_x, q.a_z, q.a_zz, q.t).values
                for d in datasets]
    return EchoStateReservoir(cfg.esn).window_states([d.windows for d in datasets])


# --- cache: two pipeline.save_arrays files per (ticker, embedding config) ---
# `<ticker>__<cfg hash>.emb.npz` holds the feature rows; `.fit.npz` holds
# the results of every readout cell on them (acc, AP, tp, fp, tn, fn, in
# cell order) and the readout paths as JSON.  Both record the
# dataset_sha256 of their dataset.  A missing file, another FORMAT_VERSION,
# other dataset contents or other readout paths is a miss; a file that
# cannot be read or holds a malformed entry raises IngestionError naming
# it.  A change that alters features or results must change FORMAT_VERSION.

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


def write_embedded(emb: EmbeddedDataset, directory) -> str:
    path = _cache_path(directory, emb.ticker, emb.config, ".emb.npz")
    save_arrays(path, features=emb.features, dataset_sha256=emb.dataset_sha256)
    return path


def read_embedded(ticker: str, cfg: EmbeddingConfig, directory) -> EmbeddedDataset:
    """The cached embedding, or None when there is no file of this format version.

    Files of earlier versions also hold the dataset's labels and split
    index, which are not read.
    """
    entries = _load(_cache_path(directory, ticker, cfg, ".emb.npz"), ("features", "dataset_sha256"))
    return None if entries is None else EmbeddedDataset(ticker, entries[0], cfg, entries[1])


def cached_rows(cached: EmbeddedDataset, sha: str, n_rows: int, directory):
    """The features of a read_embedded record of the dataset of
    dataset_sha256 sha, which has n_rows rows, or None; features of that
    dataset with another row count raise IngestionError."""
    if cached is None or cached.dataset_sha256 != sha:
        return None
    if len(cached.features) != n_rows:
        path = _cache_path(directory, cached.ticker, cached.config, ".emb.npz")
        raise IngestionError(f"{path}: {len(cached.features)} feature rows, its dataset has {n_rows}")
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
