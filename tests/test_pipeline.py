import ast
import csv
import dataclasses
import io
import itertools
import logging
import os
import re
import time
import tracemalloc
import zipfile

import numpy as np
import pytest

from qrcvol import pipeline
from qrcvol.errors import IngestionError, InputShapeError, InsufficientDataError
from qrcvol.pipeline import (
    FORMAT_VERSION,
    PriceSeries,
    WindowedDataset,
    load_arrays,
    load_prices,
    log_returns,
    normalize_and_label,
    npz_writer,
    prepare_dataset,
    read_dataset,
    rolling_volatility,
    save_arrays,
    windowize,
    write_dataset,
)

from conftest import reference_save_arrays


def random_walk_dataset():
    rng = np.random.default_rng(21)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=60)))
    dates = [f"2020-{1 + d // 28:02d}-{1 + d % 28:02d}" for d in range(60)]
    return prepare_dataset(PriceSeries("T", dates, prices), w=9, lam=1.0)


def dataset_fields():
    """The fields of a valid 5-window dataset, each array new."""
    return {"ticker": "T", "windows": np.zeros((5, 9)), "labels": np.array([0, 1, 0, 1, 1]),
            "t_index": np.arange(8, 13), "split_index": 3, "threshold": 1.0, "lam": 1.0}


def make_csv(tmp_path, rows, header="date,ticker,adj_close"):
    path = tmp_path / "prices.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


class TestLoadPrices:
    def test_minimal_file(self, tmp_path):
        path = make_csv(tmp_path, ["2020-01-01,A,100", "2020-01-02,A,110"])
        series = load_prices(path)
        assert len(series) == 1
        assert series[0].ticker == "A"
        assert np.array_equal(series[0].prices, [100.0, 110.0])

    def test_field_the_csv_module_rejects_names_its_line(self, tmp_path):
        path = make_csv(tmp_path, ["2020-01-01,A,100", "2020-01-02,A," + "1" * 200000])
        with pytest.raises(IngestionError, match=re.escape(f"{path} line 3: not readable as CSV: ")):
            load_prices(path)

    def test_out_of_order_dates_sorted_with_warning(self, tmp_path, caplog):
        path = make_csv(tmp_path, ["2020-01-02,A,110", "2020-01-01,A,100"])
        with caplog.at_level(logging.WARNING):
            series = load_prices(path)
        assert series[0].dates == ["2020-01-01", "2020-01-02"]
        assert any("out of order" in r.message for r in caplog.records)

    def test_nonpositive_price_rejected_with_row_diagnostic(self, tmp_path, caplog):
        path = make_csv(
            tmp_path, ["2020-01-01,A,100", "2020-01-02,A,0", "2020-01-03,A,101"]
        )
        with caplog.at_level(logging.WARNING):
            series = load_prices(path)
        assert len(series[0].prices) == 2
        assert any("row 3" in r.getMessage() for r in caplog.records)

    def test_path_escaping_tickers_rejected_with_row_diagnostic(self, tmp_path, caplog):
        bad = ["../../escaped", "a/b", "a\\b", ".", ".."]
        rows = [f"2020-01-01,{t},100" for t in bad] + ["2020-01-01,A.B,100"]
        path = make_csv(tmp_path, rows)
        with caplog.at_level(logging.WARNING):
            series = load_prices(path)
        assert [s.ticker for s in series] == ["A.B"]
        for lineno in range(2, 2 + len(bad)):
            assert any(f"row {lineno}:" in r.getMessage() for r in caplog.records)

    def test_repeated_bad_ticker_warned_on_every_row(self, tmp_path, caplog):
        rows = ["2020-01-01,a/b,100", "2020-01-01,A,100", "2020-01-02,a/b,101", "2020-01-03,a/b,102"]
        path = make_csv(tmp_path, rows)
        with caplog.at_level(logging.WARNING):
            series = load_prices(path)
        assert [s.ticker for s in series] == ["A"]
        rejected = [r.getMessage() for r in caplog.records if "'a/b'" in r.getMessage()]
        assert len(rejected) == 3
        for message, lineno in zip(rejected, (2, 4, 5)):
            assert f" row {lineno}: " in message

    def test_csv_breaking_tickers_rejected_with_row_diagnostic(self, tmp_path, caplog):
        bad = ["A,B", 'A"B', "A\nB", "A\rB"]
        path = tmp_path / "prices.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "ticker", "adj_close"])
            writer.writerows([["2020-01-01", t, "100"] for t in bad + ["AB"]])
        with caplog.at_level(logging.WARNING):
            series = load_prices(path)
        assert [s.ticker for s in series] == ["AB"]
        assert sum("row rejected" in r.getMessage() for r in caplog.records) == len(bad)

    @pytest.mark.parametrize("row, words", [
        ("2020-01-02,A,", "row 3: missing field"),
        ("2020-01-02,,100", "row 3: missing field"),
        ("2020-01-02,A,abc", "row 3: unparseable price 'abc'"),
        ("2020-01-02,A,1e400", "row 3: non-finite or non-positive price inf"),
        ("2020-01-02,A,nan", "row 3: non-finite or non-positive price nan"),
        ("1/2/2020,A,100", "row 3: date '1/2/2020' is not a YYYY-MM-DD calendar date"),
        ("2020-1-2,A,100", "row 3: date '2020-1-2' is not a YYYY-MM-DD calendar date"),
        ("20200102,A,100", "row 3: date '20200102' is not a YYYY-MM-DD calendar date"),
        ("2020-02-30,A,100", "row 3: date '2020-02-30' is not a YYYY-MM-DD calendar date"),
    ])
    def test_unusable_row_rejected_with_row_diagnostic(self, tmp_path, caplog, row, words):
        path = make_csv(tmp_path, ["2020-01-01,A,100", row, "2020-01-03,A,101"])
        with caplog.at_level(logging.WARNING):
            series = load_prices(path)
        assert series[0].dates == ["2020-01-01", "2020-01-03"]
        assert [r.getMessage() for r in caplog.records] == [f"{path} {words}, row rejected"]

    def test_duplicate_dates_rejected(self, tmp_path):
        path = make_csv(tmp_path, ["2020-01-01,A,100", "2020-01-02,A,101", "2020-01-02,A,102"])
        with pytest.raises(IngestionError, match=r"ticker A: duplicate dates \['2020-01-02'\]"):
            load_prices(path)

    def test_no_usable_row(self, tmp_path):
        path = make_csv(tmp_path, ["2020-01-01,A,-1", "2020-01-02,A,x"])
        with pytest.raises(IngestionError, match="no usable rows"):
            load_prices(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError):
            load_prices(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        path = make_csv(tmp_path, ["2020-01-01,A,1"], header="a,b,c")
        with pytest.raises(IngestionError):
            load_prices(path)

    def test_ticker_filter(self, tmp_path):
        path = make_csv(
            tmp_path,
            ["2020-01-01,A,1", "2020-01-01,B,2", "2020-01-02,A,1", "2020-01-02,B,2"],
        )
        series = load_prices(path, tickers=["B"])
        assert [s.ticker for s in series] == ["B"]


@pytest.mark.parametrize("price", [np.nan, np.inf, 0.0, -1.0])
def test_price_series_rejects_non_finite_or_non_positive_prices(price):
    with pytest.raises(InputShapeError, match="finite and strictly positive"):
        PriceSeries("T", ["2020-01-01", "2020-01-02"], [100.0, price])


@pytest.mark.parametrize("dates, words", [
    (["2020-01-01"], "differ in length"),
    (["2020-01-02", "2020-01-01"], "strictly increasing"),
    (["2020-01-01", "2020-01-01"], "strictly increasing"),
])
def test_price_series_rejects_dates_that_do_not_fit_prices(dates, words):
    with pytest.raises(InputShapeError, match=words):
        PriceSeries("T", dates, [100.0, 101.0])


class TestLogReturns:
    def test_exact_logs(self):
        r = log_returns(np.array([1.0, np.e, np.e**2]))
        assert np.max(np.abs(r - 1.0)) < 1e-12

    def test_constant_prices(self):
        assert np.array_equal(log_returns(np.array([5.0, 5.0, 5.0])), [0.0, 0.0])

    def test_ten_percent(self):
        assert abs(log_returns(np.array([100.0, 110.0]))[0] - 0.0953102) < 1e-6

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            log_returns(np.array([1.0]))


class TestRollingVolatility:
    def test_constant_returns(self):
        v = rolling_volatility(np.full(10, 0.3), w=3)
        assert np.max(np.abs(v)) < 1e-15

    def test_one_two_three(self):
        v = rolling_volatility(np.array([1.0, 2.0, 3.0]), w=3)
        assert abs(v[0] - 1.0) < 1e-12

    def test_zero_zero_two(self):
        v = rolling_volatility(np.array([0.0, 0.0, 2.0]), w=3)
        assert abs(v[0] - 2.0 / np.sqrt(3.0)) < 1e-12

    def test_alignment(self):
        # entry k covers returns[k : k+3], so it belongs to return index k+2
        returns = np.array([0.0, 1.0, 5.0, 2.0, 8.0, 3.0])
        v = rolling_volatility(returns, w=3)
        assert len(v) == 4
        assert np.array_equal(v, [np.std(returns[k : k + 3], ddof=1) for k in range(4)])

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            rolling_volatility(np.array([1.0, 2.0]), w=3)

    def test_w_below_two(self):
        with pytest.raises(InputShapeError):
            rolling_volatility(np.arange(5.0), w=1)


class TestNormalizeAndLabel:
    def test_degenerate_all_equal(self):
        v = rolling_volatility(np.full(10, 0.1), w=3)
        labels, _ = normalize_and_label(v, lam=1.0)
        assert np.array_equal(labels, np.zeros(8, dtype=int))

    def test_single_outlier_labeled(self):
        labels, tau = normalize_and_label(np.array([1.0, 1.0, 1.0, 1.0, 5.0]), lam=1.0)
        # z-score of the outlier is 3.2/sqrt(3.2) ~ 1.789 > tau = 1
        assert np.array_equal(labels, [0, 0, 0, 0, 1])
        assert abs(tau - 1.0) < 1e-12

    def test_huge_lambda_all_zero(self):
        labels, _ = normalize_and_label(np.array([1.0, 2.0, 3.0, 9.0]), lam=1e9)
        assert labels.sum() == 0

    def test_tau_equals_lambda_identity(self):
        # threshold rule on normalized vols == z-score rule on raw vols
        rng = np.random.default_rng(9)
        for _ in range(100):
            raw = np.abs(rng.normal(size=int(rng.integers(5, 80))))
            lam = float(rng.uniform(0.2, 2.5))
            labels, tau = normalize_and_label(raw.copy(), lam)
            z = (raw - raw.mean()) / raw.std(ddof=1)
            assert abs(tau - lam) < 1e-8
            assert np.array_equal(labels, (z > lam).astype(int))


class TestWindowize:
    def test_two_windows_split_one(self):
        labels = np.array([0, 1])
        ds = windowize("T", np.arange(10.0), labels, 9, 1, 1.0, 1.0)
        assert len(ds.labels) == 2
        assert ds.split_index == 1
        assert np.array_equal(ds.windows[0], np.arange(9.0))
        assert np.array_equal(ds.windows[1], np.arange(1.0, 10.0))
        assert np.array_equal(ds.labels, [0, 1])

    def test_stride_equals_w_disjoint(self):
        labels = np.zeros(18, dtype=int)
        ds = windowize("T", np.arange(20.0), labels, 3, 3, 1.0, 1.0)
        assert np.array_equal(ds.t_index, [2, 5, 8, 11, 14, 17])
        starts = ds.t_index - 2
        assert np.array_equal(starts, [0, 3, 6, 9, 12, 15])

    def test_window_width_is_w(self):
        ds = windowize("T", np.arange(30.0), np.zeros(22, dtype=int), 9, 1, 1.0, 1.0)
        assert ds.windows.shape[1] == 9

    def test_label_count_mismatch(self):
        with pytest.raises(InputShapeError):
            windowize("T", np.arange(10.0), np.zeros(5, dtype=int), 9, 1, 1.0, 1.0)

    def test_one_return_fewer_than_the_window(self):
        with pytest.raises(InsufficientDataError, match="no complete windows"):
            windowize("T", np.arange(8.0), np.zeros(0, dtype=int), 9, 1, 1.0, 1.0)

    def test_windows_are_a_read_only_view_of_returns(self):
        returns = np.arange(40.0)
        ds = windowize("T", returns, np.zeros(32, dtype=int), 9, 2, 1.0, 1.0)
        # a view of the dataset's own series of (m-1)*stride + w values, the returns they cover
        series = owner(ds.windows)
        assert not ds.windows.flags.writeable and not series.flags.writeable and span(ds.windows) == len(series)
        assert np.array_equal(series, returns[: (len(ds.labels) - 1) * 2 + 9])
        assert np.array_equal(ds.windows, [returns[k : k + 9] for k in range(0, 32, 2)])

    @pytest.mark.parametrize("stride, rows", [(18, 56), (36, 28)])
    def test_disjoint_windows_hold_only_their_own_values(self, stride, rows):
        # 1000 returns at w = 9: 504 window values at stride 18, 252 at stride 36
        prices = 100.0 * np.exp(np.cumsum(np.random.default_rng(8).normal(0, 0.01, size=1001)))
        series = PriceSeries("T", [f"{k:04d}" for k in range(1001)], prices)
        ds = prepare_dataset(series, w=9, lam=1.0, stride=stride)
        returns = log_returns(prices)
        assert np.array_equal(ds.windows, [returns[k : k + 9] for k in range(0, 992, stride)])
        assert ds.windows.shape == (rows, 9) and not ds.windows.flags.writeable
        assert owner(ds.windows).nbytes == ds.windows.nbytes  # not the 1000 returns a view would keep

    def test_chronological_split_no_leakage(self):
        ds = windowize("T", np.arange(40.0), np.zeros(32, dtype=int), 9, 1, 1.0, 1.0)
        train_t = ds.t_index[: ds.split_index]
        test_t = ds.t_index[ds.split_index :]
        assert train_t.max() < test_t.min()

    def test_numpy_integer_stride_taken_as_int(self):
        ds = windowize("T", np.arange(40.0), np.zeros(32, dtype=int), 9, np.int64(2), 1.0, 1.0)
        assert type(ds.stride) is int and ds.stride == 2 and np.array_equal(ds.t_index, np.arange(8, 40, 2))
        for stride in (2.5, True, 0):
            with pytest.raises(InputShapeError, match="stride"):
                windowize("T", np.arange(40.0), np.zeros(32, dtype=int), 9, stride, 1.0, 1.0)


class TestWindowedDataset:
    """A dataset checks its own fields when it is made, however it is made."""

    @pytest.mark.parametrize("field, value", [
        ("windows", np.full((5, 9), np.nan)),
        ("windows", np.zeros((5, 1))),
        ("windows", np.zeros((5, 9), dtype=int)),
        ("labels", np.array([0, 1, 2, 0, 1])),
        ("t_index", np.arange(4)),
        ("split_index", 6),
        ("split_index", 2.0),
        ("stride", 0),
        ("stride", 2.5),
        ("stride", True),
        ("lam", float("nan")),
        ("threshold", float("inf")),
        ("threshold", 1),
        ("ticker", "a/b"),
    ])
    def test_invalid_field_raises_when_made(self, field, value):
        fields = dataset_fields()
        WindowedDataset(**fields)
        with pytest.raises(InputShapeError, match=field):
            WindowedDataset(**{**fields, field: value})

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, ">f8"])
    def test_windows_must_be_float64(self, dtype):
        windows = np.zeros((5, 9), dtype=dtype)
        with pytest.raises(InputShapeError, match=re.escape(
                f"windows must be a 2-D float64 array at least 2 wide, got {windows.dtype} of shape (5, 9)")):
            WindowedDataset(**{**dataset_fields(), "windows": windows})

    def test_fields_cannot_be_assigned(self):
        ds = WindowedDataset(**dataset_fields())
        for field in dataclasses.fields(ds):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ds, field.name, getattr(ds, field.name))

    # zero windows are the windows of one series, held as a view of the dataset's copy of it
    @pytest.mark.parametrize("windows", [np.zeros((5, 9)), np.arange(45.0).reshape(5, 9)],
                             ids=["overlapping", "other"])
    def test_a_callers_arrays_cannot_change_the_dataset(self, windows):
        fields = {**dataset_fields(), "windows": windows}
        ds = WindowedDataset(**fields)
        for name in ("windows", "labels", "t_index"):
            held = getattr(ds, name)
            kept = held.copy()
            fields[name][...] = 7
            assert not held.flags.writeable and not owner(held).flags.writeable
            assert np.array_equal(held, kept) and not np.shares_memory(held, fields[name])

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_prepare_rejects_a_lambda_its_file_could_not_hold(self, lam):
        rng = np.random.default_rng(21)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=60)))
        series = PriceSeries("T", [f"2020-{1 + d // 28:02d}-{1 + d % 28:02d}" for d in range(60)], prices)
        with pytest.raises(InputShapeError, match="lam"):
            prepare_dataset(series, w=9, lam=lam)


class TestPrepareDataset:
    def test_nonlinearity_witness(self):
        # two windows with identical means but different labels
        w = 4
        quiet = [0.01, -0.01] * 2
        wild = [0.5, -0.5] * 2
        returns = np.array(quiet * 6 + wild)
        prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))
        dates = [f"2020-01-{d:02d}" for d in range(1, len(prices) + 1)]
        ds = prepare_dataset(PriceSeries("T", dates, prices), w=w, lam=1.0)
        means = ds.windows.mean(axis=1)
        same_mean = [
            (i, j)
            for i in range(len(means))
            for j in range(i + 1, len(means))
            if abs(means[i] - means[j]) < 1e-12 and ds.labels[i] != ds.labels[j]
        ]
        assert same_mean, "expected equal-mean windows with different labels"

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.7])
    def test_labels_are_window_vol_z_scores_above_threshold(self, lam):
        # at stride 1 the labels follow from the windows alone
        for seed in range(40):
            rng = np.random.default_rng(seed)
            returns = np.concatenate([rng.normal(0, sigma, 60) for sigma in (0.005, 0.05, 0.005)])
            prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))
            dates = [f"2020-{1 + d // 28:02d}-{1 + d % 28:02d}" for d in range(len(prices))]
            ds = prepare_dataset(PriceSeries("T", dates, prices), w=9, lam=lam)
            s = ds.windows.std(axis=1, ddof=1)
            z = (s - s.mean()) / s.std(ddof=1)
            assert np.array_equal(ds.labels, z > ds.threshold), seed

    def test_cache_roundtrip(self, tmp_path):
        ds = random_walk_dataset()
        path = tmp_path / "T.dataset.npz"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert back.ticker == ds.ticker
        assert back.split_index == ds.split_index
        assert back.lam == ds.lam
        assert np.array_equal(back.windows, ds.windows)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.t_index, ds.t_index)
        assert back.threshold == ds.threshold and back.stride == ds.stride
        assert back.labels.dtype == ds.labels.dtype and back.t_index.dtype == ds.t_index.dtype

    def test_dataset_file_bytes_do_not_depend_on_clock(self, tmp_path, monkeypatch):
        ds = random_walk_dataset()
        paths = [tmp_path / "a.dataset.npz", tmp_path / "b.dataset.npz"]
        for path, now in zip(paths, (1.0e9, 1.5e9)):
            monkeypatch.setattr(time, "time", lambda now=now: now)
            write_dataset(ds, path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.dataset.npz", "b.dataset.npz"]

    def test_failed_write_leaves_no_stray_file(self, tmp_path):
        path = tmp_path / "x.npz"
        save_arrays(path, a=np.arange(3))
        written = path.read_bytes()
        with pytest.raises(ValueError):
            save_arrays(path, a=np.array([object()], dtype=object))
        assert [p.name for p in tmp_path.iterdir()] == ["x.npz"]
        assert path.read_bytes() == written


def owner(array) -> np.ndarray:
    """The array that holds the data array views."""
    while getattr(array, "base", None) is not None:
        array = array.base
    return array


def span(array) -> int:
    """How many elements lie between an array's first and last byte."""
    low, high = np.lib.array_utils.byte_bounds(array)
    return (high - low) // array.itemsize


class TestDatasetWindowsView:
    """Overlapping windows read back as one read-only view of their series
    when that view gives the stored windows bit for bit."""

    @pytest.mark.parametrize("stride", [1, 2, 4, 8])
    def test_prepared_dataset_reads_back_as_a_view_of_its_series(self, tmp_path, stride):
        rng = np.random.default_rng(stride)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=120)))
        dates = [f"2020-{1 + d // 28:02d}-{1 + d % 28:02d}" for d in range(120)]
        ds = prepare_dataset(PriceSeries("T", dates, prices), w=9, lam=1.0, stride=stride)
        path = tmp_path / "T.dataset.npz"
        write_dataset(ds, path)
        back = read_dataset(path)
        m = len(back.labels)
        assert not back.windows.flags.writeable
        assert span(back.windows) == 9 + (m - 1) * stride
        with np.load(path, allow_pickle=False) as npz:
            stored = npz["windows"]
        assert back.windows.dtype == stored.dtype and back.windows.tobytes() == stored.tobytes()

    @pytest.mark.parametrize("case", ["unrelated rows", "one zero of another sign", "disjoint windows"])
    def test_other_windows_read_back_as_their_own_array(self, tmp_path, case):
        ds = random_walk_dataset()
        if case == "unrelated rows":
            windows = np.random.default_rng(4).normal(0, 0.01, ds.windows.shape)
        else:
            series = np.concatenate([np.arange(1.0, 40.0), [0.0], np.arange(41.0, 80.0)])
            windows = np.lib.stride_tricks.sliding_window_view(series, 9)[: len(ds.labels)].copy()
            if case == "one zero of another sign":
                windows[35, 4] = -0.0  # the series' 0.0 as the fifth return of window 35
            else:  # at stride w no window overlaps the next, whatever the file holds
                ds = dataclasses.replace(ds, stride=9)
        ds = dataclasses.replace(ds, windows=windows)
        path = tmp_path / "T.dataset.npz"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert not back.windows.flags.writeable and span(back.windows) == windows.size
        assert back.windows.tobytes() == windows.tobytes()


def npy_bytes(array, **kwargs):
    fh = io.BytesIO()
    np.lib.format.write_array(fh, array, **kwargs)
    return fh.getvalue()


def write_zip(path, entries):
    """A `.npz` of the given entry names and raw bytes, one format entry first."""
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("format.npy", npy_bytes(np.array(FORMAT_VERSION)))
        for name, data in entries.items():
            zf.writestr(name, data)


VARIETY = {
    "f8": np.linspace(-1.0, 1.0, 12).reshape(3, 4),
    "i8": np.arange(-5, 5, dtype="<i8"),
    "flags": np.array([True, False, True]),
    "names": np.array(["alpha", "b" * 64], dtype="<U64"),
    "scalar_f": np.array(2.5),
    "scalar_i": np.array(7, dtype="<i8"),
    "scalar_u": np.array("SYNTH", dtype="<U64"),
    "empty": np.zeros((0, 3)),
}


class TestLoadArrays:
    def assert_like_np_load(self, path):
        arrays = load_arrays(path)
        with np.load(path, allow_pickle=False) as npz:
            expected = {name: npz[name] for name in npz.files}
        assert expected.pop("format") == FORMAT_VERSION
        assert arrays.keys() == expected.keys()
        for name, want in expected.items():
            got = arrays[name]
            if want.ndim == 0:
                assert type(got) is type(want.item()) and got == want.item()
            else:
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)
                assert got.flags.writeable
                assert (got.flags.c_contiguous, got.flags.f_contiguous) == (
                    want.flags.c_contiguous, want.flags.f_contiguous)
        return arrays

    def test_save_arrays_file_reads_as_np_load(self, tmp_path):
        save_arrays(tmp_path / "a.npz", **VARIETY)
        self.assert_like_np_load(tmp_path / "a.npz")

    def test_np_savez_file_reads_as_np_load(self, tmp_path):
        np.savez(tmp_path / "a.npz", format=FORMAT_VERSION, **VARIETY)
        self.assert_like_np_load(tmp_path / "a.npz")

    def test_file_of_other_format_version_is_none(self, tmp_path):
        np.savez(tmp_path / "a.npz", format=0, a=np.arange(3))
        assert load_arrays(tmp_path / "a.npz") is None

    @pytest.mark.parametrize("damage", ["object array", "truncated entry", "flipped data byte",
                                        "non-.npy entry", "truncated file"])
    def test_damaged_file_raises_naming_path(self, tmp_path, damage):
        path = tmp_path / "a.npz"
        data = np.arange(100, dtype="<i8")
        if damage == "object array":
            np.savez(path, format=FORMAT_VERSION, a=np.array([{}, 1], dtype=object))
        elif damage == "truncated entry":
            write_zip(path, {"a.npy": npy_bytes(data)[:-8]})
        elif damage == "non-.npy entry":
            write_zip(path, {"notes.txt": b"not an array"})
        else:
            save_arrays(path, a=data)
            raw = bytearray(path.read_bytes())
            if damage == "flipped data byte":
                raw[raw.index(data.tobytes()) + 50] ^= 0xFF
            else:
                raw = raw[:-30]
            path.write_bytes(bytes(raw))
        with pytest.raises(IngestionError, match=re.escape(str(path))):
            load_arrays(path)

    def test_entry_cut_inside_its_data_is_short(self, tmp_path):
        path = tmp_path / "a.npz"
        data = np.arange(100, dtype="<i8")
        save_arrays(path, a=data)
        size = path.stat().st_size
        with open(path, "rb") as fh, zipfile.ZipFile(fh) as zf:
            info = zf.getinfo("a.npy")
            os.truncate(path, path.read_bytes().index(data.tobytes()) + 100)
            with pytest.raises(ValueError, match="entry 'a.npy' is short"):
                pipeline._read_entry(fh, info, size)

    def test_each_distinct_header_parsed_once(self, tmp_path, monkeypatch):
        path = tmp_path / "a.npz"
        save_arrays(path, **VARIETY)
        first = load_arrays(path)

        def literal_eval(*args):
            raise AssertionError("header parsed again")

        monkeypatch.setattr(ast, "literal_eval", literal_eval)
        second = load_arrays(path)
        assert second.keys() == first.keys()
        assert all(np.array_equal(second[name], first[name]) for name in first)
        pipeline._npy_header.cache_clear()  # the patch does reach the parser
        with pytest.raises(AssertionError, match="header parsed again"):
            load_arrays(path)


class TestLoadArraysReadsInPlace:
    def test_read_peaks_near_its_arrays(self, tmp_path):
        rows = np.random.default_rng(5).normal(size=(992, 100))
        path = tmp_path / "T__abc.emb.npz"
        save_arrays(path, features=rows, dataset_sha256="0" * 64)
        load_arrays(path)  # headers parsed once, so the traced read holds only the arrays
        tracemalloc.start()
        try:
            arrays = load_arrays(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(arrays["features"], rows)
        assert peak <= 1.1 * rows.nbytes

    def test_compressed_entry_raises_naming_path(self, tmp_path):
        path = tmp_path / "a.npz"
        np.savez_compressed(path, format=FORMAT_VERSION, a=np.arange(100))
        with pytest.raises(IngestionError, match=re.escape(str(path)) + ".*compressed"):
            load_arrays(path)

    def test_entry_past_the_end_of_the_file_raises_naming_path(self, tmp_path):
        path = tmp_path / "a.npz"
        save_arrays(path, a=np.arange(100, dtype="<i8"))
        raw = bytearray(path.read_bytes())
        # entry a.npy's central directory record claims a megabyte more data
        record = raw.rindex(b"PK\x01\x02")
        assert raw[record + 46 : record + 51] == b"a.npy"
        for field in (record + 20, record + 24):  # its stored and its unpacked size
            size = int.from_bytes(raw[field : field + 4], "little")
            raw[field : field + 4] = (size + 2**20).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(IngestionError, match=re.escape(str(path)) + ".*past the end"):
            load_arrays(path)


    @pytest.mark.parametrize("damage, words", [
        ("local header signature", "has no local header"),
        ("header length", "ends inside its .npy header"),
        ("version 2.0", "unsupported .npy format version"),
        ("version 3.0", "unsupported .npy format version"),
        ("Fortran order", "Fortran-ordered array"),
        ("bytes after the array", "array data of 808 bytes, expected 800"),
    ])
    def test_malformed_entry_raises_naming_path(self, tmp_path, damage, words):
        # npz_writer writes each entry stored, with a 1.0 header, C order
        # and nothing after the array data; load_arrays reads no other
        path = tmp_path / "a.npz"
        data = np.arange(100, dtype="<i8")
        if damage.startswith("version"):
            npy = bytearray(npy_bytes(data, version=(2, 0)))
            npy[6] = int(damage[8])  # the major version byte after the magic string
            write_zip(path, {"a.npy": bytes(npy)})
        elif damage == "Fortran order":
            write_zip(path, {"a.npy": npy_bytes(np.asfortranarray(data.reshape(10, 10)))})
        elif damage == "bytes after the array":
            write_zip(path, {"a.npy": npy_bytes(data) + bytes(8)})
        else:
            write_zip(path, {"a.npy": npy_bytes(data)})
            raw = bytearray(path.read_bytes())
            local = raw.index(b"PK\x03\x04", 1)  # a.npy's local header, after format.npy's
            if damage == "local header signature":
                raw[local : local + 4] = b"PK\x07\x08"
            else:  # a.npy's 2-byte .npy header length claims 64 KiB
                start = raw.index(np.lib.format.MAGIC_PREFIX, local)
                raw[start + 8 : start + 10] = b"\xff\xff"
            path.write_bytes(bytes(raw))
        with pytest.raises(IngestionError, match=re.escape(str(path)) + ".*" + re.escape(words)):
            load_arrays(path)


class TestNpzWriter:
    def test_save_arrays_bytes_equal_the_zipfile_oracle(self, tmp_path):
        arrays = {**VARIETY, "fortran": np.asfortranarray(np.arange(12.0).reshape(3, 4)),
                  "text": "abc", "flag": True, "count": 3, "value": 1.5}
        save_arrays(tmp_path / "a.npz", **arrays)
        reference_save_arrays(tmp_path / "b.npz", **arrays)
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    @pytest.mark.parametrize("sizes", [[130], [64, 64, 2], [1] * 130, [0, 129, 0, 1]])
    def test_stream_rows_bytes_equal_the_zipfile_oracle(self, tmp_path, sizes):
        rows = np.random.default_rng(3).normal(size=(130, 7))
        with npz_writer(tmp_path / "a.npz") as out:
            out.array("before", np.arange(3))
            with out.rows("rows", rows.shape) as put:
                for start, stop in itertools.pairwise(itertools.accumulate([0] + sizes)):
                    put(rows[start:stop])
            out.array("after", "abc")
        reference_save_arrays(tmp_path / "b.npz", before=np.arange(3), rows=rows, after="abc")
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    @pytest.mark.parametrize("blocks, words", [
        ([np.zeros((4, 3), dtype=np.float32)], "a float32 block of shape \\(4, 3\\) does not fit"),
        ([np.zeros((4, 2))], "block of shape \\(4, 2\\) does not fit after 0 rows"),
        ([np.zeros((4, 3)), np.zeros((2, 3))], "does not fit after 4 rows"),
        ([np.zeros((3, 3))], "3 rows written"),
    ], ids=["dtype", "width", "too-many-rows", "too-few-rows"])
    def test_rows_that_do_not_fit_leave_no_file(self, tmp_path, blocks, words):
        path = tmp_path / "a.npz"
        with pytest.raises(ValueError, match=words):
            with npz_writer(path) as out, out.rows("rows", (5, 3)) as put:
                for block in blocks:
                    put(block)
        assert list(tmp_path.iterdir()) == []
