import ast
import csv
import io
import logging
import re
import time
import zipfile

import numpy as np
import pytest

from qrcvol import pipeline
from qrcvol.errors import IngestionError, InputShapeError, InsufficientDataError
from qrcvol.pipeline import (
    FORMAT_VERSION,
    PriceSeries,
    load_arrays,
    load_prices,
    log_returns,
    normalize_and_label,
    prepare_dataset,
    read_dataset,
    rolling_volatility,
    save_arrays,
    windowize,
    write_dataset,
)


def random_walk_dataset():
    rng = np.random.default_rng(21)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=60)))
    dates = [f"2020-{1 + d // 28:02d}-{1 + d % 28:02d}" for d in range(60)]
    return prepare_dataset(PriceSeries("T", dates, prices), w=9, lam=1.0)


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

    def test_chronological_split_no_leakage(self):
        ds = windowize("T", np.arange(40.0), np.zeros(32, dtype=int), 9, 1, 1.0, 1.0)
        train_t = ds.t_index[: ds.split_index]
        test_t = ds.t_index[ds.split_index :]
        assert train_t.max() < test_t.min()


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
        fortran = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        np.savez(tmp_path / "a.npz", format=FORMAT_VERSION, fortran=fortran, **VARIETY)
        arrays = self.assert_like_np_load(tmp_path / "a.npz")
        assert arrays["fortran"].flags.f_contiguous and not arrays["fortran"].flags.c_contiguous

    def test_version_2_header(self, tmp_path):
        values = np.arange(6, dtype="<i8").reshape(2, 3)
        write_zip(tmp_path / "a.npz", {"values.npy": npy_bytes(values, version=(2, 0))})
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
