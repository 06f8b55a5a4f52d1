"""Price ingestion, log returns, rolling volatility, labels, windows and their `.npz` storage.

The labeling pipeline is:
  prices -> log returns r_t -> rolling sample std sigma_t^w ->
  z-normalized sigma~_t -> threshold tau = mu~ + lambda * std~ ->
  binary regime label c_t = [sigma~_t > tau].

Because the normalization is an exact z-score, tau equals lambda and the
label rule is identical to "raw z-score > lambda"; both forms are kept
and tested as an invariant.
"""

from __future__ import annotations

import csv
import logging
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import IngestionError, InsufficientDataError, InputShapeError

log = logging.getLogger(__name__)

DEGENERATE_SCALE = 1e-12
TRAIN_FRACTION = 0.8  # leading share of a ticker's windows used for training


@dataclass
class PriceSeries:
    ticker: str
    dates: list  # ISO-8601 strings, strictly increasing
    prices: np.ndarray  # strictly positive

    def __post_init__(self):
        self.prices = np.asarray(self.prices, dtype=float)
        if len(self.dates) != len(self.prices):
            raise InputShapeError("dates and prices differ in length")
        if np.any(self.prices <= 0):
            raise InputShapeError("prices must be strictly positive")
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise InputShapeError("dates must be strictly increasing")


@dataclass
class ReturnSeries:
    ticker: str
    returns: np.ndarray


@dataclass
class VolatilitySeries:
    """Rolling vols; raw[k] belongs to return index start_index + k."""

    raw: np.ndarray
    start_index: int
    normalized: np.ndarray = None


@dataclass
class WindowedDataset:
    ticker: str
    windows: np.ndarray  # (m, w) return windows ending at t_index[k]
    labels: np.ndarray  # (m,) in {0, 1}
    t_index: np.ndarray  # (m,) return index of each window's last element
    split_index: int  # first test row
    threshold: float
    lam: float
    stride: int = 1

    @property
    def w(self) -> int:
        return self.windows.shape[1]


def plain_ticker(ticker: str) -> bool:
    """True if ticker can name a file and stand unquoted in a CSV field."""
    return ticker not in ("", ".", "..") and not any(c in ticker for c in '/\\,"\r\n')


def load_prices(path, tickers=None) -> list:
    """Read a `date,ticker,adj_close` CSV into per-ticker series.

    Rows with missing fields, non-positive/unparseable prices or a ticker
    that fails plain_ticker (it names output files and fills CSV fields)
    are rejected with a logged row-level diagnostic.  Out-of-order dates
    are sorted with a warning.
    """
    wanted = set(tickers) if tickers else None
    rows_by_ticker = {}
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"date", "ticker", "adj_close"} <= set(
            reader.fieldnames
        ):
            raise IngestionError(
                f"{path}: expected header date,ticker,adj_close, got {reader.fieldnames}"
            )
        for lineno, row in enumerate(reader, start=2):
            date = (row.get("date") or "").strip()
            ticker = (row.get("ticker") or "").strip()
            raw_price = (row.get("adj_close") or "").strip()
            if not date or not ticker or not raw_price:
                log.warning("%s row %d: missing field, row rejected", path, lineno)
                continue
            if not plain_ticker(ticker):
                log.warning("%s row %d: ticker %r cannot name a file or CSV field, row rejected",
                            path, lineno, ticker)
                continue
            if wanted is not None and ticker not in wanted:
                continue
            try:
                price = float(raw_price)
            except ValueError:
                log.warning("%s row %d: unparseable price %r, row rejected", path, lineno, raw_price)
                continue
            if not np.isfinite(price) or price <= 0:
                log.warning("%s row %d: non-positive price %s, row rejected", path, lineno, price)
                continue
            rows_by_ticker.setdefault(ticker, []).append((date, price))
    if not rows_by_ticker:
        raise IngestionError(f"{path}: no usable rows")

    series = []
    for ticker in sorted(rows_by_ticker):
        rows = rows_by_ticker[ticker]
        if any(a[0] >= b[0] for a, b in zip(rows, rows[1:])):
            log.warning("ticker %s: dates out of order, sorting", ticker)
            rows.sort(key=lambda r: r[0])
        dupes = {d for (d, _), (d2, _) in zip(rows, rows[1:]) if d == d2}
        if dupes:
            raise IngestionError(f"ticker {ticker}: duplicate dates {sorted(dupes)}")
        series.append(
            PriceSeries(ticker, [d for d, _ in rows], np.array([p for _, p in rows]))
        )
    return series


def log_returns(p: PriceSeries) -> ReturnSeries:
    """r_t = ln(p_t / p_{t-1})."""
    if len(p.prices) < 2:
        raise InsufficientDataError(f"ticker {p.ticker}: need >= 2 prices")
    return ReturnSeries(p.ticker, np.diff(np.log(p.prices)))


def rolling_volatility(r: ReturnSeries, w: int) -> VolatilitySeries:
    """Sample std (divisor w-1) of each trailing window of size w."""
    if w < 2:
        raise InputShapeError("window size must be >= 2")
    m = len(r.returns)
    if m < w:
        raise InsufficientDataError(
            f"ticker {r.ticker}: {m} returns < window size {w}"
        )
    # sliding windows: raw[k] covers returns[k : k+w], ending at index k+w-1
    strided = np.lib.stride_tricks.sliding_window_view(r.returns, w)
    raw = strided.std(axis=1, ddof=1)
    return VolatilitySeries(raw=raw, start_index=w - 1)


def normalize_and_label(v: VolatilitySeries, lam: float):
    """Z-normalize rolling vols and threshold at tau = mu~ + lam * std~.

    Returns (labels, tau).  Fills v.normalized in place.
    A degenerate series (scale below 1e-12) yields all-zero normalized
    values and all-zero labels rather than an exception.
    """
    raw = np.asarray(v.raw, dtype=float)
    mu = float(raw.mean())
    scale = float(raw.std(ddof=1)) if len(raw) > 1 else 0.0
    if scale < DEGENERATE_SCALE:
        v.normalized = np.zeros_like(raw)
        return np.zeros(len(raw), dtype=int), float(lam)
    norm = (raw - mu) / scale
    mu_n = float(norm.mean())
    std_n = float(norm.std(ddof=1))
    tau = mu_n + lam * std_n
    labels = (norm > tau).astype(int)
    v.normalized = norm
    return labels, float(tau)


def windowize(
    r: ReturnSeries,
    labels: np.ndarray,
    w: int,
    stride: int = 1,
    threshold: float = None,
    lam: float = 1.0,
) -> WindowedDataset:
    """Pair each return window with the regime label at its final index.

    labels[k] must correspond to return index w-1+k (where rolling vol is
    defined).  The chronological split index is floor(TRAIN_FRACTION * m)
    over the m emitted windows.
    """
    if stride < 1:
        raise InputShapeError("stride must be >= 1")
    m_ret = len(r.returns)
    if len(labels) != m_ret - w + 1:
        raise InputShapeError(
            f"expected {m_ret - w + 1} labels for {m_ret} returns at w={w}, got {len(labels)}"
        )
    t_index = np.arange(w - 1, m_ret, stride)
    if len(t_index) == 0:
        raise InsufficientDataError("no complete windows")
    windows = np.stack([r.returns[t - w + 1 : t + 1] for t in t_index])
    lab = labels[t_index - (w - 1)]
    split = int(np.floor(TRAIN_FRACTION * len(t_index)))
    return WindowedDataset(
        ticker=r.ticker,
        windows=windows,
        labels=lab,
        t_index=t_index,
        split_index=split,
        threshold=float(lam) if threshold is None else float(threshold),
        lam=float(lam),
        stride=stride,
    )


def prepare_dataset(p: PriceSeries, w: int = 9, lam: float = 1.0, stride: int = 1) -> WindowedDataset:
    """Full pipeline: prices -> labeled, chronologically split windows."""
    r = log_returns(p)
    v = rolling_volatility(r, w)
    labels, tau = normalize_and_label(v, lam)
    return windowize(r, labels, w, stride=stride, threshold=tau, lam=lam)


# --- storage: one deterministic .npz format for datasets and caches -----

FORMAT_VERSION = 1
# Every zip entry carries this date, so equal arrays give equal bytes
# whatever the clock reads and whatever date numpy or zipfile default to.
_ZIP_DATE = (1980, 1, 1, 0, 0, 0)


def save_arrays(path, **arrays) -> None:
    """Write arrays and FORMAT_VERSION as an uncompressed `.npz` at path.

    The file is written next to path and renamed into place, so path
    never holds a partial file.
    """
    tmp = f"{path}.tmp"
    with zipfile.ZipFile(tmp, "w") as zf:
        for name, value in {"format": FORMAT_VERSION, **arrays}.items():
            with zf.open(zipfile.ZipInfo(name + ".npy", _ZIP_DATE), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, np.asarray(value, order="C"), allow_pickle=False)
    os.replace(tmp, path)


def load_arrays(path):
    """Arrays of a file written by save_arrays by name, 0-d ones as Python scalars.

    Returns None for a file of another format version; a file that is
    not a readable `.npz` raises IngestionError naming path.
    """
    try:
        with open(path, "rb") as fh, np.lib.npyio.NpzFile(fh, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    if not np.array_equal(arrays.pop("format", None), FORMAT_VERSION):
        return None
    return {name: a.item() if a.ndim == 0 else a for name, a in arrays.items()}


def write_dataset(ds: WindowedDataset, path) -> None:
    """Write a dataset file holding every field of ds at path."""
    save_arrays(path, **vars(ds))


def read_dataset(path) -> WindowedDataset:
    """Read a dataset file written by write_dataset; its stored ticker
    must pass plain_ticker, since it names cache files and CSV fields."""
    arrays = load_arrays(path)
    if arrays is None:
        raise IngestionError(f"{path}: dataset file of another format version, run prepare again")
    try:
        ds = WindowedDataset(**arrays)
    except TypeError as exc:
        raise IngestionError(f"{path}: not a dataset file: {exc}") from exc
    if not (isinstance(ds.ticker, str) and plain_ticker(ds.ticker)):
        raise IngestionError(f"{path}: stored ticker {ds.ticker!r} cannot name a file or CSV field")
    return ds
