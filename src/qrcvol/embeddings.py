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
* raw: the window itself.
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
        a loop of esn_step over the array alone bit for bit.  Array j's
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


def esn_step(state, value, w, w_in, params: EsnParams) -> np.ndarray:
    """Leaky echo-state update:
    state' = (1 - leak) * state + leak * tanh(W state + W_in * u * scaling).
    """
    leak = params.leak_rate
    pre = w @ state + w_in * (value * params.input_scaling)
    return (1.0 - leak) * state + leak * np.tanh(pre)


def embed_dataset(datasets: list, cfg: EmbeddingConfig) -> list:
    """The (m, d) feature rows of each dataset, in order, one row per window.

    A dataset's rows do not depend on which datasets share the call.
    """
    for d in datasets:
        cfg.validate(w=d.w)
        if len(d.labels) == 0:
            raise ConfigError("cannot embed an empty dataset")
    if cfg.kind == "raw":
        return [d.windows.copy() for d in datasets]
    if cfg.kind == "quantum":
        q = cfg.quantum
        return [quantum.quantum_embed(d.windows, q.a_x, q.a_z, q.a_zz, q.t).values
                for d in datasets]
    return EchoStateReservoir(cfg.esn).window_states([d.windows for d in datasets])


# --- embedding cache: one pipeline.save_arrays file per (ticker, cfg hash) ---
# Each file also records the dataset_sha256 of the dataset it embeds, so a
# reader can tell a file written for other contents under the same ticker.

def dataset_sha256(ds: WindowedDataset) -> str:
    """SHA-256 of a dataset's window shape and values, labels and split index."""
    digest = hashlib.sha256(f"{ds.windows.shape} {ds.split_index}\n".encode())
    digest.update(np.ascontiguousarray(ds.windows, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(ds.labels, dtype=np.int64).tobytes())
    return digest.hexdigest()


def cache_filename(ticker: str, cfg: EmbeddingConfig) -> str:
    return f"{ticker}__{cfg.cfg_hash()}.emb.npz"


def write_embedded(emb: EmbeddedDataset, directory) -> str:
    path = os.path.join(str(directory), cache_filename(emb.ticker, emb.config))
    save_arrays(path, features=emb.features, dataset_sha256=emb.dataset_sha256)
    return path


def read_embedded(ticker: str, cfg: EmbeddingConfig, directory) -> EmbeddedDataset:
    """The cached embedding, or None when there is no file of this format version.

    Only the features and dataset_sha256 entries are read; files of
    earlier versions also hold the dataset's labels and split index.
    """
    path = os.path.join(str(directory), cache_filename(ticker, cfg))
    arrays = load_arrays(path) if os.path.exists(path) else None
    if arrays is None:
        return None
    if "features" not in arrays or "dataset_sha256" not in arrays:
        raise IngestionError(f"{path}: not an embedding cache file: no features or dataset_sha256")
    return EmbeddedDataset(ticker, arrays["features"], cfg, arrays["dataset_sha256"])
