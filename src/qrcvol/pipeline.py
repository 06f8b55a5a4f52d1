"""Price ingestion, log returns, rolling volatility, labels, windows and their `.npz` storage.

The labeling pipeline passes plain arrays from stage to stage:
  prices -> log returns r_t (log_returns) -> rolling sample std
  sigma_t^w, one per return index w-1 .. (rolling_volatility) ->
  z-normalized sigma~_t -> threshold tau = mu~ + lambda * std~ ->
  binary regime label c_t = [sigma~_t > tau] (normalize_and_label) ->
  labeled, chronologically split windows (windowize).
prepare_dataset runs them in that order on one ticker's PriceSeries.

Because the normalization is a z-score, tau equals lambda up to rounding
(|tau - lambda| is of order 1e-15) and the label rule is "raw z-score >
lambda" up to rounding; both forms are kept and tested as an invariant.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import functools
import io
import logging
import math
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
    prices: np.ndarray  # finite and strictly positive

    def __post_init__(self):
        self.prices = np.asarray(self.prices, dtype=float)
        if len(self.dates) != len(self.prices):
            raise InputShapeError("dates and prices differ in length")
        if not np.all((self.prices > 0) & (self.prices < np.inf)):  # NaN fails both
            raise InputShapeError("prices must be finite and strictly positive")
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise InputShapeError("dates must be strictly increasing")


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


def iso_date(text: str) -> bool:
    """True if text is a calendar date written YYYY-MM-DD."""
    try:
        return datetime.date.fromisoformat(text).isoformat() == text
    except ValueError:
        return False


def load_prices(path, tickers=None) -> list:
    """Read a `date,ticker,adj_close` CSV into per-ticker series.

    Rows with missing fields, a date that is not a YYYY-MM-DD calendar
    date, non-finite, non-positive or unparseable prices, or a ticker that
    fails plain_ticker (it names output files and fills CSV fields), are
    rejected with a logged row-level diagnostic.  Out-of-order dates are
    sorted with a warning; as YYYY-MM-DD strings they sort by day.
    """
    wanted = set(tickers) if tickers else None
    rows_by_ticker = {}
    plain = {}  # ticker -> plain_ticker(ticker), checked once per distinct ticker
    iso = {}  # date -> iso_date(date), checked once per distinct date
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
            if ticker not in plain:
                plain[ticker] = plain_ticker(ticker)
            if not plain[ticker]:
                log.warning("%s row %d: ticker %r cannot name a file or CSV field, row rejected",
                            path, lineno, ticker)
                continue
            if wanted is not None and ticker not in wanted:
                continue
            if date not in iso:
                iso[date] = iso_date(date)
            if not iso[date]:
                log.warning("%s row %d: date %r is not a YYYY-MM-DD calendar date, row rejected",
                            path, lineno, date)
                continue
            try:
                price = float(raw_price)
            except ValueError:
                log.warning("%s row %d: unparseable price %r, row rejected", path, lineno, raw_price)
                continue
            if not math.isfinite(price) or price <= 0:
                log.warning("%s row %d: non-finite or non-positive price %s, row rejected",
                            path, lineno, price)
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


def log_returns(prices: np.ndarray) -> np.ndarray:
    """r_t = ln(p_t / p_{t-1})."""
    if len(prices) < 2:
        raise InsufficientDataError("need >= 2 prices")
    return np.diff(np.log(prices))


def rolling_volatility(returns: np.ndarray, w: int) -> np.ndarray:
    """Sample std (divisor w-1) of each trailing window of size w: entry k
    covers returns[k : k+w] and belongs to return index k+w-1."""
    if w < 2:
        raise InputShapeError("window size must be >= 2")
    if len(returns) < w:
        raise InsufficientDataError(f"{len(returns)} returns < window size {w}")
    return np.lib.stride_tricks.sliding_window_view(returns, w).std(axis=1, ddof=1)


def normalize_and_label(raw: np.ndarray, lam: float):
    """Z-normalize rolling vols and threshold at tau = mu~ + lam * std~.

    Returns (labels, tau).  A degenerate series (scale below 1e-12) yields
    all-zero labels rather than an exception.
    """
    raw = np.asarray(raw, dtype=float)
    mu = float(raw.mean())
    scale = float(raw.std(ddof=1)) if len(raw) > 1 else 0.0
    if scale < DEGENERATE_SCALE:
        return np.zeros(len(raw), dtype=int), float(lam)
    norm = (raw - mu) / scale
    mu_n = float(norm.mean())
    std_n = float(norm.std(ddof=1))
    tau = mu_n + lam * std_n
    labels = (norm > tau).astype(int)
    return labels, float(tau)


def windowize(ticker: str, returns: np.ndarray, labels: np.ndarray, w: int, stride: int,
              tau: float, lam: float) -> WindowedDataset:
    """Pair each return window with the regime label at its final index.

    labels[k] must correspond to return index w-1+k (where rolling vol is
    defined).  The chronological split index is floor(TRAIN_FRACTION * m)
    over the m emitted windows.
    """
    if stride < 1:
        raise InputShapeError("stride must be >= 1")
    m_ret = len(returns)
    if len(labels) != m_ret - w + 1:
        raise InputShapeError(
            f"expected {m_ret - w + 1} labels for {m_ret} returns at w={w}, got {len(labels)}"
        )
    t_index = np.arange(w - 1, m_ret, stride)
    if len(t_index) == 0:
        raise InsufficientDataError("no complete windows")
    windows = np.lib.stride_tricks.sliding_window_view(returns, w)[::stride].copy()
    return WindowedDataset(
        ticker=ticker,
        windows=windows,
        labels=labels[t_index - (w - 1)],
        t_index=t_index,
        split_index=int(np.floor(TRAIN_FRACTION * len(t_index))),
        threshold=float(tau),
        lam=float(lam),
        stride=stride,
    )


def prepare_dataset(p: PriceSeries, w: int = 9, lam: float = 1.0, stride: int = 1) -> WindowedDataset:
    """Full pipeline: prices -> labeled, chronologically split windows.

    A series too short for one window raises InsufficientDataError
    naming the ticker."""
    try:
        r = log_returns(p.prices)
        labels, tau = normalize_and_label(rolling_volatility(r, w), lam)
    except InsufficientDataError as exc:
        raise InsufficientDataError(f"ticker {p.ticker}: {exc}") from None
    return windowize(p.ticker, r, labels, w, stride, tau, lam)


# --- storage: one deterministic .npz format for datasets and caches -----

FORMAT_VERSION = 1
# Every zip entry carries this date, so equal arrays give equal bytes
# whatever the clock reads and whatever date numpy or zipfile default to.
_ZIP_DATE = (1980, 1, 1, 0, 0, 0)


class _NpzEntries:
    """The entries of one npz_writer file, added in order: each an
    uncompressed `.npy` with a 1.0 header, C-ordered data and the date
    _ZIP_DATE, so equal arrays give equal bytes."""

    def __init__(self, zf: zipfile.ZipFile):
        self._zf = zf

    @contextlib.contextmanager
    def _entry(self, name: str, shape: tuple, dtype: np.dtype):
        if dtype.hasobject:
            raise ValueError("Object arrays cannot be saved when allow_pickle=False")
        with self._zf.open(zipfile.ZipInfo(name + ".npy", _ZIP_DATE), "w", force_zip64=True) as fh:
            np.lib.format.write_array_header_1_0(fh, {
                "descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": shape})
            yield fh

    def array(self, name: str, value) -> None:
        """Add value as one whole array."""
        value = np.asarray(value, order="C")
        with self._entry(name, value.shape, value.dtype) as fh:
            fh.write(value.tobytes())

    @contextlib.contextmanager
    def rows(self, name: str, shape: tuple, dtype=np.float64):
        """Add an array of this shape and dtype from row blocks: yields
        put(block), which appends the rows of a (k, *shape[1:]) block of
        dtype.  A block that does not fit, or fewer than shape[0] rows in
        all, raises ValueError."""
        dtype, shape = np.dtype(dtype), tuple(shape)
        written = 0

        def put(block):
            nonlocal written
            block = np.asarray(block)
            if block.dtype != dtype or block.shape[1:] != shape[1:] or written + len(block) > shape[0]:
                raise ValueError(f"entry {name!r} of {dtype} {shape}: a {block.dtype} block of shape "
                                 f"{block.shape} does not fit after {written} rows")
            fh.write(np.ascontiguousarray(block).tobytes())
            written += len(block)

        with self._entry(name, shape, dtype) as fh:
            yield put
            if written != shape[0]:
                raise ValueError(f"entry {name!r} of {dtype} {shape}: {written} rows written")


@contextlib.contextmanager
def npz_writer(path):
    """The one `.npz` writer: yields the entries of an uncompressed `.npz`
    for path, which starts with FORMAT_VERSION and gains an entry per
    array or rows call.

    The file is built at `<path>.tmp` and renamed into place when the
    block ends, so path never holds a partial file; a block that raises
    closes and removes it.
    """
    tmp = f"{path}.tmp"
    try:
        with zipfile.ZipFile(tmp, "w") as zf:
            entries = _NpzEntries(zf)
            entries.array("format", FORMAT_VERSION)
            yield entries
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_arrays(path, **arrays) -> None:
    """Write arrays and FORMAT_VERSION as an uncompressed `.npz` at path (see npz_writer)."""
    with npz_writer(path) as out:
        for name, value in arrays.items():
            out.array(name, value)


# the `.npy` header versions save_arrays and np.savez write, by reader
_HEADER_READERS = {(1, 0): np.lib.format.read_array_header_1_0,
                   (2, 0): np.lib.format.read_array_header_2_0}


@functools.lru_cache(maxsize=1024)
def _npy_header(header: bytes):
    """(shape, fortran_order, dtype) of a `.npy` header: magic, version,
    length and dict.  Files of one kind repeat a few headers, so each
    distinct one is parsed once."""
    fp = io.BytesIO(header)
    read = _HEADER_READERS.get(np.lib.format.read_magic(fp))
    if read is None:
        raise ValueError("unsupported .npy format version")
    return read(fp)


def _npy_array(data: bytes) -> np.ndarray:
    """The writable array of one `.npy` entry's bytes, as np.load gives it
    with allow_pickle=False."""
    if not data.startswith(np.lib.format.MAGIC_PREFIX):
        raise ValueError("not a .npy entry")
    size = 2 if data[6:7] == b"\x01" else 4  # of the header length field
    end = 8 + size + int.from_bytes(data[8 : 8 + size], "little")
    shape, fortran_order, dtype = _npy_header(data[:end])
    if dtype.hasobject:
        raise ValueError("object arrays cannot be loaded when allow_pickle=False")
    count = math.prod(shape)
    if len(data) - end < count * dtype.itemsize:
        raise ValueError(f"array data of {len(data) - end} bytes, expected {count * dtype.itemsize}")
    flat = np.frombuffer(data, dtype, count, end).copy()
    return flat.reshape(shape[::-1]).T if fortran_order else flat.reshape(shape)


def load_arrays(path):
    """Arrays of a file written by save_arrays by name, 0-d ones as Python scalars.

    The file is read in one call, each entry is built with np.frombuffer,
    and its header is parsed by numpy's np.lib.format readers, once per
    distinct header.

    Returns None for a file of another format version; a file that is
    not a readable `.npz` of `.npy` entries (a bad zip, a CRC error, an
    object array, short array data) raises IngestionError naming path.
    """
    try:
        with open(path, "rb") as fh, zipfile.ZipFile(io.BytesIO(fh.read())) as zf:
            arrays = {info.filename.removesuffix(".npy"): _npy_array(zf.read(info))
                      for info in zf.infolist()}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    if not np.array_equal(arrays.pop("format", None), FORMAT_VERSION):
        return None
    return {name: a.item() if a.ndim == 0 else a for name, a in arrays.items()}


def write_dataset(ds: WindowedDataset, path) -> None:
    """Write a dataset file holding every field of ds at path."""
    save_arrays(path, **vars(ds))


def read_dataset(path) -> WindowedDataset:
    """Read a dataset file written by write_dataset, checking the shape and
    type of every field; the windows must be at least 2 wide and the stride
    at least 1, as prepare writes them, and the stored ticker must pass
    plain_ticker, since it names cache files and CSV fields.  Each failed
    check raises IngestionError naming path and the field."""
    arrays = load_arrays(path)
    if arrays is None:
        raise IngestionError(f"{path}: dataset file of another format version, run prepare again")
    try:
        ds = WindowedDataset(**arrays)
    except TypeError as exc:
        raise IngestionError(f"{path}: not a dataset file: {exc}") from exc
    windows = np.asarray(ds.windows)
    if windows.ndim != 2 or windows.dtype.kind != "f":
        raise IngestionError(
            f"{path}: windows must be a 2-D float array, got {windows.dtype} of shape {windows.shape}")
    if not np.isfinite(windows).all():
        raise IngestionError(f"{path}: windows must be finite")
    if ds.w < 2:
        raise IngestionError(f"{path}: windows of width {ds.w}, expected >= 2")
    rows = len(windows)
    for name in ("labels", "t_index"):
        if np.shape(getattr(ds, name)) != (rows,):
            raise IngestionError(f"{path}: {name} of shape {np.shape(getattr(ds, name))}, expected ({rows},)")
    if not np.isin(ds.labels, (0, 1)).all():
        raise IngestionError(f"{path}: labels must be 0 or 1")
    for name, types in (("split_index", int), ("stride", int), ("lam", float), ("threshold", float)):
        value = getattr(ds, name)
        if not isinstance(value, types) or isinstance(value, bool):
            raise IngestionError(f"{path}: {name} must be {types.__name__}, got {value!r}")
        if not math.isfinite(value):
            raise IngestionError(f"{path}: {name} must be finite, got {value!r}")
    if ds.stride < 1:
        raise IngestionError(f"{path}: stride {ds.stride}, expected >= 1")
    if not 0 <= ds.split_index <= rows:
        raise IngestionError(f"{path}: split_index {ds.split_index} outside [0, {rows}]")
    if not (isinstance(ds.ticker, str) and plain_ticker(ds.ticker)):
        raise IngestionError(f"{path}: stored ticker {ds.ticker!r} cannot name a file or CSV field")
    return ds
