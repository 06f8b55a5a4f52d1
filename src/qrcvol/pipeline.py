"""Price ingestion, log returns, rolling volatility, labels, windows, and file storage.

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
import struct
import zipfile
import zlib
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


@dataclass(frozen=True)
class WindowedDataset:
    """One ticker's labeled windows.  A field that breaks the rule of __post_init__ raises
    InputShapeError naming it, whoever makes the dataset: windowize, read_dataset or a caller.
    No field can then be assigned, and every array is read-only and the dataset's own: windows that
    overlap as those of one series, bit for bit, are one view of a copy of it, so each return is
    held once; any other windows, labels and t_index are C-ordered copies.  The rule: finite
    2-D float64 windows at least 2 wide, one 0/1 label and one t_index per window, an int
    split_index in [0, rows], an int stride >= 1, finite float threshold and lam, and a ticker
    that passes plain_ticker."""

    ticker: str
    windows: np.ndarray  # (m, w) float64 return windows ending at t_index[k]
    labels: np.ndarray  # (m,) in {0, 1}
    t_index: np.ndarray  # (m,) return index of each window's last element
    split_index: int  # first test row
    threshold: float
    lam: float
    stride: int = 1

    def __post_init__(self):
        windows = np.asarray(self.windows)
        if windows.ndim != 2 or windows.dtype != np.float64 or windows.shape[1] < 2:
            raise InputShapeError("windows must be a 2-D float64 array at least 2 wide, "
                                  f"got {windows.dtype} of shape {windows.shape}")
        if not np.isfinite(windows).all():
            raise InputShapeError("windows must be finite")
        rows, w = windows.shape
        labels, t_index = np.array(self.labels), np.array(self.t_index)  # copies, so no caller's array
        for name, value in (("labels", labels), ("t_index", t_index)):
            if value.shape != (rows,):
                raise InputShapeError(f"{name} of shape {value.shape}, expected ({rows},)")
        if not np.isin(labels, (0, 1)).all():
            raise InputShapeError("labels must be 0 or 1")
        split_index = _integer("split_index", self.split_index, 0, rows)
        stride = _integer("stride", self.stride, 1)
        for name, value in (("lam", self.lam), ("threshold", self.threshold)):
            if not (isinstance(value, float) and math.isfinite(value)):
                raise InputShapeError(f"{name} must be a finite float, got {value!r}")
        if not (isinstance(self.ticker, str) and plain_ticker(self.ticker)):
            raise InputShapeError(f"ticker {self.ticker!r} cannot name a file or CSV field")
        view = None
        if rows and stride < w:  # the first row, then each later row's last stride values, give their series
            series = np.concatenate((windows[0], windows[1:, w - stride :].ravel()))
            view = _windows_view(series, w, stride)
        # the view only if it gives the windows bit for bit, so -0.0 is not 0.0
        if view is None or not np.array_equal(view.view(np.int64), windows.view(np.int64)):
            series = view = np.array(windows, order="C")
        for array in (series, labels, t_index):
            array.setflags(write=False)
        for name, value in (("windows", view), ("labels", labels), ("t_index", t_index),
                            ("split_index", split_index), ("stride", stride)):
            object.__setattr__(self, name, value)

    @property
    def w(self) -> int:
        return self.windows.shape[1]


def _integer(name: str, value, least: int, most=math.inf) -> int:
    """value, an integer in [least, most] (a numpy one too, not a bool), as an int; else InputShapeError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputShapeError(f"{name} must be int, got {value!r}")
    if not least <= value <= most:
        raise InputShapeError(f"{name} {value} outside [{least}, {most}]")
    return int(value)


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
        with open(path, newline="", encoding="utf-8-sig") as fh:  # Excel's "CSV UTF-8" starts with a BOM
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
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise IngestionError(f"{path} line {reader.reader.line_num}: not readable as CSV: {exc}") from exc
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


def _windows_view(series: np.ndarray, w: int, stride: int) -> np.ndarray:
    """The (m, w) windows series[k*stride : k*stride + w], as one
    read-only view of series, so each value is held once."""
    return np.lib.stride_tricks.sliding_window_view(series, w)[::stride]


def windowize(ticker: str, returns: np.ndarray, labels: np.ndarray, w: int, stride: int,
              tau: float, lam: float) -> WindowedDataset:
    """Pair each return window with the regime label at its final index.

    labels[k] must correspond to return index w-1+k (where rolling vol is
    defined).  The chronological split index is floor(TRAIN_FRACTION * m)
    over the m emitted windows, which the dataset holds as its rule says.
    """
    stride = _integer("stride", stride, 1)  # before the windows are cut at it
    m_ret = len(returns)
    if len(labels) != m_ret - w + 1:
        raise InputShapeError(
            f"expected {m_ret - w + 1} labels for {m_ret} returns at w={w}, got {len(labels)}"
        )
    t_index = np.arange(w - 1, m_ret, stride)
    if len(t_index) == 0:
        raise InsufficientDataError("no complete windows")
    return WindowedDataset(
        ticker=ticker,
        windows=_windows_view(returns, w, stride),
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


# --- storage: one file writer (replacing), one deterministic .npz format --

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
            fh.write(value)  # through the buffer protocol, not as a bytes copy

    @contextlib.contextmanager
    def rows(self, name: str, shape: tuple):
        """Add a float64 array of this shape from row blocks: yields
        put(block), which appends the rows of a (k, *shape[1:]) float64
        block.  A block that does not fit, or fewer than shape[0] rows in
        all, raises ValueError."""
        dtype, shape = np.dtype(np.float64), tuple(shape)
        written = 0

        def put(block):
            nonlocal written
            block = np.asarray(block)
            if block.dtype != dtype or block.shape[1:] != shape[1:] or written + len(block) > shape[0]:
                raise ValueError(f"entry {name!r} of {dtype} {shape}: a {block.dtype} block of shape "
                                 f"{block.shape} does not fit after {written} rows")
            fh.write(np.ascontiguousarray(block))
            written += len(block)

        with self._entry(name, shape, dtype) as fh:
            yield put
            if written != shape[0]:
                raise ValueError(f"entry {name!r} of {dtype} {shape}: {written} rows written")


@contextlib.contextmanager
def replacing(path, mode="w", **open_kwargs):
    """The one way qrcvol puts a file in place: yields the file
    `<path>.tmp`, opened with mode and open_kwargs, and renames it onto
    path when the block ends, so path never holds a partial file; a
    block that raises closes and removes it."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, columns: list, rows) -> None:
    """The one CSV writer, of the synth CSV and both reports: a header and
    rows of formatted fields, joined by commas, at path (see replacing)."""
    with replacing(path, newline="", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


@contextlib.contextmanager
def npz_writer(path):
    """The one `.npz` writer: yields the entries of an uncompressed `.npz`
    for path (see replacing), which starts with FORMAT_VERSION and gains
    an entry per array or rows call."""
    with replacing(path, "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
        entries = _NpzEntries(zf)
        entries.array("format", FORMAT_VERSION)
        yield entries


def save_arrays(path, **arrays) -> None:
    """Write arrays and FORMAT_VERSION as an uncompressed `.npz` at path (see npz_writer)."""
    with npz_writer(path) as out:
        for name, value in arrays.items():
            out.array(name, value)


@functools.lru_cache(maxsize=1024)
def _npy_header(header: bytes):
    """(shape, dtype) of a 1.0 `.npy` header (magic, version, length and
    dict) of a C-ordered array of no object dtype; any other raises
    ValueError.  Files of one kind repeat a few headers, so each distinct
    one is parsed once."""
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(io.BytesIO(header[8:]))
    if fortran_order or dtype.hasobject:
        raise ValueError("Fortran-ordered array" if fortran_order else "object array")
    return shape, dtype


# a zip entry's local header: signature, 22 bytes of fields the central
# directory repeats, then the sizes of the name and extra fields that
# come before the entry's data
_LOCAL_HEADER = struct.Struct("<4s22xHH")


def _read_entry(fh, info: zipfile.ZipInfo, file_size: int) -> np.ndarray:
    """The writable, C-ordered array of one entry of the zip in fh, which
    must be as _NpzEntries writes it: stored, a `.npy` of a header that
    _npy_header accepts and array data that fills the rest of the entry,
    read straight into the array and checked against the entry's CRC-32.
    Any other entry (compressed, a 2.0 or 3.0 header, Fortran order, an
    object array, bytes after the array data) raises ValueError."""
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(f"entry {info.filename!r} is compressed")
    fh.seek(info.header_offset)
    local = fh.read(_LOCAL_HEADER.size)
    if len(local) != _LOCAL_HEADER.size or not local.startswith(b"PK\x03\x04"):
        raise ValueError(f"entry {info.filename!r} has no local header")
    _, name_size, extra_size = _LOCAL_HEADER.unpack(local)
    start = info.header_offset + _LOCAL_HEADER.size + name_size + extra_size
    if start + info.file_size > file_size:
        raise ValueError(f"entry {info.filename!r} runs past the end of the file")
    fh.seek(start)
    head = fh.read(10)  # magic, version 1.0 and the 2-byte header length
    if not head.startswith(np.lib.format.MAGIC_PREFIX):
        raise ValueError("not a .npy entry")
    if head[6:8] != b"\x01\x00":
        raise ValueError("unsupported .npy format version")
    end = 10 + int.from_bytes(head[8:10], "little")
    if end > info.file_size:
        raise ValueError(f"entry {info.filename!r} ends inside its .npy header")
    header = head + fh.read(end - len(head))
    shape, dtype = _npy_header(header)
    count = math.prod(shape)
    if info.file_size - end != count * dtype.itemsize:
        raise ValueError(f"array data of {info.file_size - end} bytes, expected {count * dtype.itemsize}")
    flat = np.empty(count, dtype)
    data = flat.view(np.uint8)
    if fh.readinto(data) != data.nbytes:
        raise ValueError(f"entry {info.filename!r} is short")
    if zlib.crc32(data, zlib.crc32(header)) != info.CRC:
        raise ValueError(f"bad CRC-32 for entry {info.filename!r}")
    return flat.reshape(shape)


def load_arrays(path):
    """Arrays of a file written by save_arrays by name, 0-d ones as Python scalars.

    The zip is opened on the file, and each entry's data is read into
    its array, so a read holds each array once.  Returns None for a file
    of another format version.  Only the layout npz_writer writes is read
    (see _read_entry): any other file, or one that is damaged, raises
    IngestionError naming path.
    """
    try:
        with open(path, "rb") as fh, zipfile.ZipFile(fh) as zf:
            file_size = os.fstat(fh.fileno()).st_size
            arrays = {info.filename.removesuffix(".npy"): _read_entry(fh, info, file_size)
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
    """Read a dataset file written by write_dataset.  A file without the
    dataset fields, or whose fields break WindowedDataset's rule, raises
    IngestionError naming path and the field.  The loaded arrays are held
    as WindowedDataset's rule says."""
    arrays = load_arrays(path)
    if arrays is None:
        raise IngestionError(f"{path}: dataset file of another format version, run prepare again")
    try:
        return WindowedDataset(**arrays)
    except TypeError as exc:
        raise IngestionError(f"{path}: not a dataset file: {exc}") from exc
    except InputShapeError as exc:
        raise IngestionError(f"{path}: {exc}") from exc
