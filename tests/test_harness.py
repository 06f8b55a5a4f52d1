import dataclasses
import json
import logging
import os
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from qrcvol import harness
from qrcvol.embeddings import EmbeddingConfig, dataset_sha256, embed_dataset, read_embedded, stream_embedded
from qrcvol.errors import ConfigError, IngestionError
from qrcvol.harness import (
    ExperimentReport,
    GridCell,
    GridSpec,
    emit_report,
    load_grid_config,
    parse_regime_spec,
    run_grid,
    synth_regime_series,
)
from qrcvol.pipeline import load_arrays, log_returns, prepare_dataset, rolling_volatility, save_arrays
from qrcvol.readout import evaluate, fit_logistic, fit_ridge, predict_scores

from conftest import best_cells


def small_grid(**overrides):
    spec = dict(
        embeddings=[{"kind": "raw"}],
        readouts=[{"kind": "ridge", "regularization": [1.0]}],
        w=5,
    )
    spec.update(overrides)
    return GridSpec(**spec)


def synth_dataset(seed, w=5, regimes=((60, 0.005), (30, 0.05), (60, 0.005))):
    series = synth_regime_series(list(regimes), seed=seed, ticker=f"S{seed}")
    return prepare_dataset(series, w=w, lam=1.0)


class TestSynthSeries:
    def test_zero_sigma_constant(self):
        series = synth_regime_series([(20, 0.0)], seed=0)
        assert np.max(np.abs(np.diff(series.prices))) < 1e-12
        ds = prepare_dataset(series, w=5, lam=1.0)
        assert ds.labels.sum() == 0

    def test_row_count(self):
        series = synth_regime_series([(300, 0.005), (100, 0.05), (300, 0.005)], seed=1)
        assert len(series.prices) == 701

    def test_same_seed_identical(self):
        a = synth_regime_series([(50, 0.01)], seed=9)
        b = synth_regime_series([(50, 0.01)], seed=9)
        assert np.array_equal(a.prices, b.prices)
        assert a.dates == b.dates

    def test_high_regime_has_higher_rolling_vol(self):
        # across seeds, rolling vol inside high segments dominates low segments
        wins = 0
        total = 0
        for seed in range(20):
            series = synth_regime_series([(100, 0.005), (100, 0.05)], seed=seed)
            v = rolling_volatility(log_returns(series.prices), w=9)
            low = v[:80]
            high = v[110:]
            total += 1
            if np.median(high) > np.max(low) or (high > np.median(low)).mean() > 0.95:
                wins += 1
        assert wins / total >= 0.95

    def test_invalid_schedule(self):
        with pytest.raises(ConfigError):
            synth_regime_series([], seed=0)
        with pytest.raises(ConfigError):
            synth_regime_series([(0, 0.1)], seed=0)
        with pytest.raises(ConfigError):
            synth_regime_series([(10, -0.1)], seed=0)
        with pytest.raises(ConfigError, match="regime segment 1: length must be an integer"):
            synth_regime_series([(2.5, 0.1)], seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_invalid_seed(self, seed):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            synth_regime_series([(10, 0.1)], seed=seed)

    @pytest.mark.parametrize("regimes,message", [
        ([(0, 0.1)], "regime segment 1: length"),
        ([(10, 0.1), (10, -0.1)], "regime segment 2: sigma"),
        ([(10, float("nan"))], "regime segment 1: sigma"),
    ])
    def test_schedule_checked_as_in_spec(self, regimes, message):
        spec = ",".join(f"{length}:{sigma}" for length, sigma in regimes)
        for check in (lambda: synth_regime_series(regimes, seed=0),
                      lambda: parse_regime_spec(spec)):
            with pytest.raises(ConfigError, match=message):
                check()


class TestParseRegimeSpec:
    def test_basic(self):
        assert parse_regime_spec("300:0.005,100:0.05") == [(300, 0.005), (100, 0.05)]

    def test_position_in_error(self):
        with pytest.raises(ConfigError, match="segment 2"):
            parse_regime_spec("10:0.1,bogus")

    def test_zero_length_rejected(self):
        with pytest.raises(ConfigError):
            parse_regime_spec("0:0.1")


class TestRunGrid:
    def test_singleton_cell(self, tmp_path):
        ds = synth_dataset(0)
        report = run_grid({"S0": ds}, small_grid(), tmp_path)
        assert len(report.cells) == 1
        cell = report.cells[0]
        assert set(cell.per_ticker) == {"S0"}
        assert cell.mean_accuracy == cell.per_ticker["S0"].accuracy

    def test_mean_over_tickers(self, tmp_path):
        d0, d1 = synth_dataset(0), synth_dataset(1)
        report = run_grid({"A": d0, "B": d1}, small_grid(), tmp_path)
        cell = report.cells[0]
        expected = (cell.per_ticker["A"].accuracy + cell.per_ticker["B"].accuracy) / 2
        assert abs(cell.mean_accuracy - expected) < 1e-12

    def test_duplicated_ticker_identical_results(self, tmp_path):
        ds = synth_dataset(2)
        report = run_grid({"A": ds, "B": ds}, small_grid(), tmp_path)
        cell = report.cells[0]
        assert cell.per_ticker["A"] == cell.per_ticker["B"]
        assert abs(cell.mean_accuracy - cell.per_ticker["A"].accuracy) < 1e-12

    def test_degenerate_ticker_excluded(self, tmp_path):
        good = synth_dataset(3)
        tiny = synth_dataset(4)
        tiny = dataclasses.replace(tiny, windows=tiny.windows[:2], labels=tiny.labels[:2],
                                   t_index=tiny.t_index[:2], split_index=2)  # no test rows
        report = run_grid({"GOOD": good, "TINY": tiny}, small_grid(), tmp_path)
        assert "TINY" in report.excluded
        assert set(report.cells[0].per_ticker) == {"GOOD"}

    def test_best_selection_deterministic_tiebreak(self, tmp_path):
        ds = synth_dataset(5)
        grid = small_grid(
            embeddings=[{"kind": "raw"}],
            readouts=[{"kind": "ridge", "regularization": [1e12, 1e13]}],
        )
        report = run_grid({"S": ds}, grid, tmp_path)
        best = best_cells(report)["raw", "ridge"]
        # both cells predict the majority class; tie resolves to smaller reg
        assert best.regularization == 1e12

    def test_embedding_reuse_cache(self, tmp_path):
        ds = synth_dataset(6)
        grid = small_grid(
            readouts=[{"kind": "ridge", "regularization": [0.5, 1.0, 2.0]}]
        )
        report = run_grid({"S6": ds}, grid, cache_dir=tmp_path)
        assert len(report.cells) == 3
        assert len(list(tmp_path.glob("*.emb.npz"))) == 1
        # second run reads from cache and reproduces results
        report2 = run_grid({"S6": ds}, grid, cache_dir=tmp_path)
        for c1, c2 in zip(report.cells, report2.cells):
            assert c1.mean_accuracy == c2.mean_accuracy

    def test_cache_of_other_dataset_contents_is_rewritten(self, tmp_path):
        grid = small_grid()
        old, new = synth_dataset(6), synth_dataset(7)
        run_grid({"S": old}, grid, cache_dir=tmp_path)
        report = run_grid({"S": new}, grid, cache_dir=tmp_path)
        fresh = run_grid({"S": new}, grid, tmp_path / "fresh")
        assert report.cells[0].per_ticker == fresh.cells[0].per_ticker
        cached = read_embedded("S", EmbeddingConfig.make("raw"), tmp_path)
        assert np.array_equal(cached.features, new.windows)
        assert cached.dataset_sha256 == dataset_sha256(new)

    def test_cache_of_other_format_version_is_rewritten(self, tmp_path):
        ds = synth_dataset(6)
        grid = small_grid()
        run_grid({"S": ds}, grid, cache_dir=tmp_path)
        (path,) = tmp_path.glob("*.emb.npz")
        with np.load(path) as npz:
            arrays = {name: npz[name] for name in npz.files}
        arrays["format"] = np.array(0)
        np.savez(path, **arrays)
        assert read_embedded("S", EmbeddingConfig.make("raw"), tmp_path) is None
        (fit,) = tmp_path.glob("*.fit.npz")
        fit.unlink()  # a served fit file would leave the embedding unread
        report = run_grid({"S": ds}, grid, cache_dir=tmp_path)
        assert report.cells[0].per_ticker == run_grid({"S": ds}, grid, tmp_path / "fresh").cells[0].per_ticker
        cached = read_embedded("S", EmbeddingConfig.make("raw"), tmp_path)
        assert np.array_equal(cached.features, ds.windows)

    def test_cache_of_earlier_layout_is_reused(self, tmp_path, monkeypatch):
        # earlier versions also stored the dataset's labels and split index
        ds = synth_dataset(6)
        grid = small_grid(embeddings=[{"kind": "raw"}, {"kind": "classical_esn", "reservoir_size": [20]}])
        report = run_grid({"S": ds}, grid, cache_dir=tmp_path)
        for path in tmp_path.glob("*.emb.npz"):
            save_arrays(path, **load_arrays(path), labels=ds.labels, split_index=ds.split_index)
        before = {path: path.read_bytes() for path in tmp_path.glob("*.emb.npz")}
        assert len(before) == 2

        def forbidden(*args, **kwargs):
            raise AssertionError("cache hit expected")

        monkeypatch.setattr(harness, "stream_embedded", forbidden)
        again = run_grid({"S": ds}, grid, cache_dir=tmp_path)
        assert [c.per_ticker for c in again.cells] == [c.per_ticker for c in report.cells]
        assert {path: path.read_bytes() for path in tmp_path.glob("*.emb.npz")} == before

    def test_cache_files_named_after_the_dataset_key(self, tmp_path):
        ds = dataclasses.replace(synth_dataset(2), ticker="X")
        run_grid({"A": ds, "B": ds}, small_grid(), cache_dir=tmp_path)
        names = sorted(path.name.split("__")[0] for path in tmp_path.glob("*.emb.npz"))
        assert names == ["A", "B"]

    def test_config_that_cannot_embed_a_dataset_fails_before_any_cache_file(self, tmp_path):
        ds = synth_dataset(2, w=9)
        grid = small_grid(w=9, embeddings=[{"kind": "raw"}, {"kind": "classical_esn", "reservoir_size": [5]}])
        with pytest.raises(ConfigError, match="reservoir_size 5 < window size 9"):
            run_grid({"A": ds}, grid, cache_dir=tmp_path)
        assert not list(tmp_path.glob("*.emb.npz"))

    def test_cache_directory_created_once_the_checks_pass(self, tmp_path):
        ds = synth_dataset(0)  # w=5
        with pytest.raises(ConfigError, match="ticker A"):
            run_grid({"A": ds}, small_grid(w=9), tmp_path / "rejected")
        assert not (tmp_path / "rejected").exists()
        run_grid({"A": ds}, small_grid(), tmp_path / "out" / "cache")
        assert len(list((tmp_path / "out" / "cache").glob("A__*.npz"))) == 2

    def test_unreadable_cache_file_raises(self, tmp_path):
        ds = synth_dataset(6)
        run_grid({"S": ds}, small_grid(), cache_dir=tmp_path)
        (path,) = tmp_path.glob("*.emb.npz")
        path.write_bytes(path.read_bytes()[:100])
        (fit,) = tmp_path.glob("*.fit.npz")
        fit.unlink()  # a served fit file would leave the embedding unread
        with pytest.raises(IngestionError, match=re.escape(str(path))):
            run_grid({"S": ds}, small_grid(), cache_dir=tmp_path)

    @pytest.mark.parametrize("damage", ["rows-short", "columns-short", "features-0d", "dataset_sha256-array"])
    def test_malformed_cache_file_raises(self, tmp_path, damage):
        ds = synth_dataset(6)
        run_grid({"S": ds}, small_grid(), cache_dir=tmp_path)
        (path,) = tmp_path.glob("*.emb.npz")
        arrays = load_arrays(path)
        if damage == "rows-short":
            arrays["features"] = arrays["features"][:-5]
        elif damage == "columns-short":
            arrays["features"] = arrays["features"][:, :-1].copy()
        elif damage == "features-0d":
            arrays["features"] = 1.0
        else:
            arrays["dataset_sha256"] = np.array([arrays["dataset_sha256"]] * 2)
        save_arrays(path, **arrays)
        (fit,) = tmp_path.glob("*.fit.npz")
        fit.unlink()
        with pytest.raises(IngestionError, match=re.escape(str(path))):
            run_grid({"S": ds}, small_grid(), cache_dir=tmp_path)

    def test_grid_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            run_grid({}, small_grid(), tmp_path)
        with pytest.raises(ConfigError):
            small_grid(embeddings=[])
        with pytest.raises(ConfigError):
            small_grid(readouts=[{"kind": "ridge", "regularization": [-1.0]}])
        with pytest.raises(ConfigError, match="logistic regularization"):
            small_grid(readouts=[{"kind": "logistic", "regularization": [-1.0]}])
        small_grid(readouts=[{"kind": "logistic", "regularization": [0.0]}])

    def test_hand_built_grid_checked_when_made(self):
        with pytest.raises(ConfigError) as err:
            GridSpec([{"kind": "warp"}, {"kind": "raw", "a_x": [1.0]}],
                     [{"kind": "ridge", "regularization": [0.0]}, {"kind": ["ridge"], "regularization": [1.0]}],
                     w=1, lam="x", stride=0, workers=0)
        assert str(err.value) == "; ".join([
            "unknown embedding kind 'warp'", "embedding 'raw' takes no parameter 'a_x'",
            "ridge regularization values must be > 0", "unknown readout kind ['ridge']",
            "window must be an integer >= 2, got 1", "stride must be an integer >= 1, got 0",
            "lambda must be a finite number, got 'x'", "workers must be an integer >= 1, got 0"])

    def test_grid_fields_cannot_be_assigned(self):
        grid = small_grid()
        for name, value in (("embeddings", []), ("workers", 2), ("configs", []), ("paths", [])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(grid, name, value)
        assert grid.configs == [EmbeddingConfig.make("raw")] and grid.paths == [("ridge", [1.0])]

    def test_workers_below_one_rejected(self, tmp_path):
        for workers in (0, -3):
            with pytest.raises(ConfigError, match="workers"):
                small_grid(workers=workers)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "workers": 0,
            "embeddings": [{"kind": "warp"}],
            "readouts": [{"kind": "ridge", "regularization": [1.0]}],
        }))
        with pytest.raises(ConfigError) as err:
            load_grid_config(path)
        assert "workers" in str(err.value) and "warp" in str(err.value)

    def test_dataset_params_must_match_grid(self, tmp_path):
        ds = synth_dataset(0)  # w=5, lam=1.0, stride=1
        for key, value in (("w", 9), ("lam", 2.0), ("stride", 2)):
            with pytest.raises(ConfigError, match="ticker A"):
                run_grid({"A": ds}, small_grid(**{key: value}), tmp_path)
        unset = small_grid(w=None)
        mixed = {"A": ds, "B": synth_dataset(1, w=7)}
        assert set(run_grid(mixed, unset, tmp_path).cells[0].per_ticker) == {"A", "B"}

    def test_paths_give_the_reports_of_cell_by_cell_fits(self, tmp_path):
        datasets = {f"S{k}": synth_dataset(k) for k in range(3)}
        grid = small_grid(
            embeddings=[{"kind": "raw"}, {"kind": "classical_esn", "reservoir_size": [20], "seed": [0]}],
            readouts=[{"kind": "logistic", "regularization": [1.0, 1e-3, 1.0]},
                      {"kind": "ridge", "regularization": [0.5, 50.0]},
                      {"kind": "logistic", "regularization": [1e-2]}],
        )
        emit_report(run_grid(datasets, grid, tmp_path / "cache"), tmp_path / "paths")
        cells = []
        for cfg in grid.configs:
            features = dict(zip(datasets, embed_dataset(list(datasets.values()), cfg)))
            for kind, regs in grid.paths:
                for reg in regs:
                    per_ticker = {}
                    for ticker, x in features.items():
                        y, k = datasets[ticker].labels, datasets[ticker].split_index
                        x_tr, y_tr, x_te, y_te = x[:k], y[:k], x[k:], y[k:]
                        if kind == "logistic":
                            model = fit_logistic(x_tr, y_tr, l2=reg)
                        else:
                            model = fit_ridge(x_tr, y_tr, alpha=reg)
                        per_ticker[ticker] = evaluate(predict_scores(model, x_te), y_te, model.threshold)
                    cells.append(GridCell(
                        cfg, kind, float(reg), per_ticker,
                        float(np.mean([r.accuracy for r in per_ticker.values()])),
                        float(np.mean([r.average_precision for r in per_ticker.values()]))))
        emit_report(ExperimentReport(cells, excluded={}, cache_counts={}), tmp_path / "cells")
        for name in ("cells.csv", "per_ticker.csv", "report.txt"):
            assert (tmp_path / "paths" / name).read_bytes() == (tmp_path / "cells" / name).read_bytes()

    def test_duplicate_embedding_configs_embedded_once(self, tmp_path, monkeypatch):
        # 1 and 1.0 name one config; each distinct config is embedded once
        jobs = []

        def recording_stream(batch, cfg, directory):
            jobs.append(cfg)
            return stream_embedded(batch, cfg, directory)

        monkeypatch.setattr(harness, "stream_embedded", recording_stream)
        grid = small_grid(embeddings=[{"kind": "quantum", "a_x": [1.0, 1.0, 1]}])
        assert len(grid.configs) == 1
        report = run_grid({"S": synth_dataset(0)}, grid, cache_dir=tmp_path)
        assert len(jobs) == 1
        assert len(list(tmp_path.glob("*.emb.npz"))) == 1
        assert len(report.cells) == 1

    def test_rows_of_one_pair_alive_at_a_time(self, tmp_path, monkeypatch):
        # every pair is fitted from its `.emb.npz`, and the rows of each
        # read are dropped before the next read and before any embedding
        datasets = {"A": synth_dataset(0), "B": synth_dataset(1)}
        # the last (config, ticker) looked up is served by its embedding file
        run_grid({"B": datasets["B"]}, small_grid(embeddings=ESN_RAW_QUANTUM[-1:]), cache_dir=tmp_path)
        for path in tmp_path.glob("*.fit.npz"):
            path.unlink()
        alive = []  # a weakref to every array read_embedded returned
        embedded = []
        reads = []

        def no_rows_alive():
            assert [ref() for ref in alive] == [None] * len(alive), "rows of an earlier read are alive"

        def recording_stream(batch, cfg, directory):
            no_rows_alive()
            embedded.append(len(batch))
            return stream_embedded(batch, cfg, directory)

        def recording_read(ticker, cfg, directory):
            no_rows_alive()
            cached = read_embedded(ticker, cfg, directory)
            reads.append(cached is not None)
            if cached is not None:
                alive.append(weakref.ref(cached.features))
            return cached

        monkeypatch.setattr(harness, "stream_embedded", recording_stream)
        monkeypatch.setattr(harness, "read_embedded", recording_read)
        grid = small_grid(embeddings=ESN_RAW_QUANTUM, readouts=[
            {"kind": "logistic", "regularization": [1e-2]}, {"kind": "ridge", "regularization": [1.0]}])
        report = run_grid(datasets, grid, cache_dir=tmp_path)
        # quantum B comes from its file; A alone is embedded for quantum
        assert embedded == [2, 2, 2, 1]
        # a miss for each of the 7 embedded pairs, then a read-back of each
        assert reads == [False] * 7 + [True] + [True] * 7 and len(alive) == 8
        assert [ref() for ref in alive] == [None] * 8
        monkeypatch.undo()
        assert [c.per_ticker for c in report.cells] == [c.per_ticker for c in run_grid(datasets, grid, tmp_path / "fresh").cells]

    def test_embedding_file_overwritten_during_the_run_raises(self, tmp_path, monkeypatch):
        # as if another run wrote the file for other dataset contents
        def other_writer(batch, cfg, directory):
            stream_embedded([(ticker, ds, "other") for ticker, ds, _ in batch], cfg, directory)

        monkeypatch.setattr(harness, "stream_embedded", other_writer)
        with pytest.raises(IngestionError, match="S0__.*emb.npz: overwritten for other dataset contents"):
            run_grid({"S0": synth_dataset(0)}, small_grid(), tmp_path)

    def test_cold_run_holds_rows_of_one_pair(self, tmp_path):
        # 12 ESN-100 tickers of 500 windows: 4.8 MB of feature rows, which
        # a run that held every ticker's rows until its fits would exceed
        datasets = {f"S{k}": synth_dataset(k, regimes=((200, 0.005), (100, 0.05), (120, 0.005), (84, 0.05)))
                    for k in range(12)}
        rows_bytes = sum(len(ds.labels) * 100 * 8 for ds in datasets.values())
        assert rows_bytes == 4_800_000
        grid = small_grid(embeddings=[{"kind": "classical_esn", "reservoir_size": [100]}])
        tracemalloc.start()
        try:
            run_grid(datasets, grid, cache_dir=tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows_bytes / 2

    def test_duplicate_readout_values_give_one_cell(self, tmp_path, monkeypatch):
        # 1 and 1.0 name one value; a template left with no value drops out
        fits = []

        def recording_fit(x, y, regs):
            fits.append(regs)
            return harness.fit_ridge_path(x, y, regs)

        monkeypatch.setitem(harness.FIT_PATH, "ridge", recording_fit)
        grid = small_grid(readouts=[{"kind": "ridge", "regularization": [1.0, 1.0, 2.0]},
                                    {"kind": "logistic", "regularization": [1.0]},
                                    {"kind": "ridge", "regularization": [1, 2.0]}])
        assert grid.paths == [("ridge", [1.0, 2.0]), ("logistic", [1.0])]
        report = run_grid({"S": synth_dataset(0)}, grid, tmp_path)
        assert [(c.readout_kind, c.regularization) for c in report.cells] == [
            ("ridge", 1.0), ("ridge", 2.0), ("logistic", 1.0)]
        assert fits == [[1.0, 2.0]]

    def test_integer_and_float_params_hash_alike(self):
        # float-written configs keep the hashes of earlier versions
        esn = dict(reservoir_size=20, spectral_radius=0.9, leak_rate=1.0, input_scaling=1.0, seed=0)
        assert EmbeddingConfig.make("classical_esn", **esn).cfg_hash() == "98dd969e9297de51"
        assert EmbeddingConfig.make("classical_esn", **dict(esn, leak_rate=1)).cfg_hash() == "98dd969e9297de51"
        quantum = dict(a_x=2.0, a_z=1.0, a_zz=0.5, t=1.0)
        assert EmbeddingConfig.make("quantum", **quantum).cfg_hash() == "7fc2b52ae99bc5fd"
        assert EmbeddingConfig.make("quantum", **dict(quantum, a_x=2, t=1)).cfg_hash() == "7fc2b52ae99bc5fd"

    def test_ticker_without_positive_test_label_warned_once(self, tmp_path, caplog):
        no_positive = synth_dataset(1)  # the test split is all calm
        grid = small_grid(embeddings=[{"kind": "raw"}, {"kind": "classical_esn", "reservoir_size": [20]}],
                          readouts=[{"kind": "ridge", "regularization": [0.5, 2.0]}])
        with caplog.at_level(logging.WARNING, logger="qrcvol.harness"):
            good = synth_dataset(0, regimes=((60, 0.005), (30, 0.05), (60, 0.005), (30, 0.05)))
            report = run_grid({"GOOD": good, "NOPOS": no_positive}, grid, tmp_path)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "NOPOS" in warnings[0] and "GOOD" not in warnings[0]
        assert all(not cell.per_ticker["NOPOS"].ap_defined for cell in report.cells)

    def test_expand_embeddings_cartesian(self):
        grid = small_grid(
            embeddings=[
                {"kind": "quantum", "a_x": [0.5, 1.0], "t": [1.0, 2.0]},
                {"kind": "raw"},
            ]
        )
        cfgs = grid.configs
        assert len(cfgs) == 5
        assert {c.kind for c in cfgs} == {"quantum", "raw"}


SWEEP = [{"kind": "logistic", "regularization": [1e-2, 1.0]},
         {"kind": "ridge", "regularization": [0.5, 2.0]}]


def cache_bytes(directory):
    return {path.name: path.read_bytes() for path in sorted(Path(directory).glob("*.npz"))}


def forbidden(*args, **kwargs):
    raise AssertionError("readout results should have come from the cache")


class TestFitCache:
    def grid(self, **overrides):
        return small_grid(**{"embeddings": [{"kind": "raw"}, {"kind": "classical_esn", "reservoir_size": [20]}],
                             "readouts": SWEEP, **overrides})

    def datasets(self):
        return {f"S{k}": synth_dataset(k) for k in (0, 2)}

    def test_warm_run_fits_nothing_and_rewrites_no_file(self, tmp_path, monkeypatch):
        datasets, grid = self.datasets(), self.grid()
        cold = run_grid(datasets, grid, cache_dir=tmp_path)
        before = cache_bytes(tmp_path)
        assert sorted(name.split(".", 1)[1] for name in before) == ["emb.npz"] * 4 + ["fit.npz"] * 4
        assert cold.cache_counts == {"embeddings": (0, 4), "readout results": (0, 4)}
        assert run_grid(datasets, grid, tmp_path / "fresh").cache_counts == cold.cache_counts  # all computed
        for kind in harness.FIT_PATH:
            monkeypatch.setitem(harness.FIT_PATH, kind, forbidden)
        monkeypatch.setattr(harness, "evaluate_path", forbidden)
        warm = run_grid(datasets, grid, cache_dir=tmp_path)
        assert warm.cells == cold.cells
        assert warm.cache_counts == {"embeddings": (4, 0), "readout results": (4, 0)}
        assert cache_bytes(tmp_path) == before

    def test_warm_run_reads_no_embedding(self, tmp_path, monkeypatch):
        datasets, grid = self.datasets(), self.grid()
        cold = run_grid(datasets, grid, cache_dir=tmp_path)

        def read_embedded(*args):
            raise AssertionError("a served fit file needs no embedding")

        monkeypatch.setattr(harness, "read_embedded", read_embedded)
        warm = run_grid(datasets, grid, cache_dir=tmp_path)
        assert warm.cells == cold.cells
        assert warm.cache_counts == {"embeddings": (4, 0), "readout results": (4, 0)}

    def test_each_pair_served_by_its_own_files(self, tmp_path, monkeypatch):
        # A by its fit file, B by its embedding file, C by neither
        datasets = {"A": synth_dataset(0), "B": synth_dataset(2), "C": synth_dataset(3)}
        grid = self.grid(embeddings=[{"kind": "classical_esn", "reservoir_size": [20]}])
        run_grid({t: datasets[t] for t in "AB"}, grid, cache_dir=tmp_path)
        (fit_b,) = tmp_path.glob("B__*.fit.npz")
        fit_b.unlink()
        reads = []

        def recording_read(ticker, cfg, directory):
            reads.append(ticker)
            return read_embedded(ticker, cfg, directory)

        monkeypatch.setattr(harness, "read_embedded", recording_read)
        report = run_grid(datasets, grid, cache_dir=tmp_path)
        assert report.cache_counts == {"embeddings": (2, 1), "readout results": (1, 2)}
        # C's file is read back once C is embedded
        assert reads == ["B", "C", "C"]
        assert report.cells == run_grid(datasets, grid, tmp_path / "fresh").cells

    def test_damaged_embedding_next_to_valid_fit_file_is_served(self, tmp_path):
        datasets, grid = self.datasets(), self.grid()
        cold = run_grid(datasets, grid, cache_dir=tmp_path)
        path = min(tmp_path.glob("*.emb.npz"))
        path.write_bytes(path.read_bytes()[:100])
        damaged = path.read_bytes()
        warm = run_grid(datasets, grid, cache_dir=tmp_path)
        assert warm.cells == cold.cells
        assert path.read_bytes() == damaged

    @pytest.mark.parametrize("change", ["dataset contents", "added lambda", "swapped templates"])
    def test_other_dataset_or_readouts_refit_and_rewrite(self, tmp_path, change):
        datasets, grid = self.datasets(), self.grid()
        run_grid(datasets, grid, cache_dir=tmp_path)
        before = cache_bytes(tmp_path)
        if change == "dataset contents":
            datasets["S2"] = synth_dataset(5)
        elif change == "added lambda":
            grid = self.grid(readouts=[SWEEP[0], {"kind": "ridge", "regularization": [0.5, 2.0, 8.0]}])
        else:
            grid = self.grid(readouts=SWEEP[::-1])
        report = run_grid(datasets, grid, cache_dir=tmp_path)
        assert report.cells == run_grid(datasets, grid, tmp_path / "fresh").cells
        after = cache_bytes(tmp_path)
        rewritten = sorted(name for name in after if name.endswith(".fit.npz") and after[name] != before[name])
        refit = ["S2"] if change == "dataset contents" else ["S0", "S2"]
        assert [name.split("__")[0] for name in rewritten] == sorted(refit * 2)
        assert report.cache_counts["readout results"] == (4 - len(rewritten), len(rewritten))
        for name in rewritten:
            arrays = load_arrays(tmp_path / name)
            ticker = name.split("__")[0]
            assert arrays["dataset_sha256"] == dataset_sha256(datasets[ticker])
            assert arrays["readouts"] == json.dumps(grid.paths)
            assert arrays["results"].shape == (len(report.cells) // 2, 6)

    def test_fit_file_of_other_format_version_is_rewritten(self, tmp_path):
        datasets, grid = self.datasets(), self.grid()
        cold = run_grid(datasets, grid, cache_dir=tmp_path)
        path = min(tmp_path.glob("*.fit.npz"))
        written = path.read_bytes()
        with np.load(path) as npz:
            arrays = {name: npz[name] for name in npz.files}
        arrays["format"] = np.array(0)
        np.savez(path, **arrays)
        assert load_arrays(path) is None
        warm = run_grid(datasets, grid, cache_dir=tmp_path)
        assert warm.cells == cold.cells
        assert warm.cache_counts["readout results"] == (3, 1)
        assert path.read_bytes() == written

    @pytest.mark.parametrize("damage", ["truncated", "dataset_sha256", "readouts", "results", "ap_defined",
                                        "ap_defined-array", "results-nan", "results-float32",
                                        "results-impossible", "results-ap", "results-count-sum"])
    def test_unreadable_fit_file_raises(self, tmp_path, damage):
        datasets, grid = self.datasets(), self.grid()
        run_grid(datasets, grid, cache_dir=tmp_path)
        path = min(tmp_path.glob("*.fit.npz"))
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:100])
        else:
            arrays = load_arrays(path)
            if damage == "ap_defined-array":
                arrays["ap_defined"] = np.array([True, False])
            elif damage == "results-nan":
                arrays["results"] = np.full_like(arrays["results"], np.nan)
            elif damage == "results-float32":  # the same values, exactly, in another dtype
                arrays["results"] = arrays["results"].astype(np.float32)
            elif damage == "results-impossible":  # accuracy 0.5 too high, tp 3 too low, fp fractional
                arrays["results"][0] += [0.5, 0.0, -3.0, 0.5, 0.0, 0.0]
            elif damage == "results-ap":
                arrays["results"][0, 1] = 1.5
            elif damage == "results-count-sum":  # one fn too many, accuracy unchanged
                arrays["results"][0, 5] += 1.0
            else:
                del arrays[damage]
            save_arrays(path, **arrays)
        with pytest.raises(IngestionError, match=re.escape(str(path))):
            run_grid(datasets, grid, cache_dir=tmp_path)

    def test_warm_run_still_warns_of_ticker_without_positive_test_label(self, tmp_path, caplog):
        good = synth_dataset(0, regimes=((60, 0.005), (30, 0.05), (60, 0.005), (30, 0.05)))
        datasets, grid = {"GOOD": good, "NOPOS": synth_dataset(1)}, self.grid()
        run_grid(datasets, grid, cache_dir=tmp_path)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="qrcvol.harness"):
            report = run_grid(datasets, grid, cache_dir=tmp_path)
        assert report.cache_counts["readout results"] == (4, 0)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "NOPOS" in warnings[0] and "GOOD" not in warnings[0]
        assert all(not cell.per_ticker["NOPOS"].ap_defined and cell.per_ticker["GOOD"].ap_defined
                   for cell in report.cells)


ESN_RAW_QUANTUM = [
    {"kind": "classical_esn", "reservoir_size": [20], "seed": [0, 1]},
    {"kind": "raw"},
    {"kind": "quantum", "a_x": [1.0], "t": [1.0]},
]


class InProcessPool:
    """Stands in for ProcessPoolExecutor: maps in this process."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestWorkers:
    def run_to(self, out, workers):
        datasets = {f"S{k}": synth_dataset(k) for k in range(3)}
        datasets["S1"] = synth_dataset(1, regimes=((40, 0.005), (30, 0.05), (40, 0.005)))
        grid = small_grid(embeddings=ESN_RAW_QUANTUM, workers=workers)
        emit_report(run_grid(datasets, grid, cache_dir=out / "cache"), out)
        return {p.name: load_arrays(p)["features"] for p in (out / "cache").glob("*.emb.npz")}

    def test_two_workers_match_one(self, tmp_path):
        one = self.run_to(tmp_path / "one", workers=1)
        two = self.run_to(tmp_path / "two", workers=2)
        for name in ("cells.csv", "per_ticker.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
        assert len(one) == 12 and one.keys() == two.keys()
        for name in one:
            assert np.array_equal(one[name], two[name])
        cache = [cache_bytes(tmp_path / name / "cache") for name in ("one", "two")]
        assert sum(name.endswith(".fit.npz") for name in cache[0]) == 12 and cache[0] == cache[1]

    def recording_pool(self, monkeypatch, cpus):
        """The max_workers of each pool run_grid starts, on a host of cpus
        CPUs; the pool maps in this process, so no process is started."""
        started = []

        def recording_pool(max_workers):
            started.append(max_workers)
            return InProcessPool()

        monkeypatch.setattr(harness, "ProcessPoolExecutor", recording_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        return started

    def test_pool_capped_at_number_of_batches(self, tmp_path, monkeypatch):
        started = self.recording_pool(monkeypatch, cpus=16)
        datasets = {"A": synth_dataset(0), "B": synth_dataset(1)}
        run_grid(datasets, small_grid(workers=5000), tmp_path / "1")
        run_grid(datasets, small_grid(embeddings=ESN_RAW_QUANTUM, workers=5000), tmp_path / "2")
        run_grid(datasets, small_grid(embeddings=ESN_RAW_QUANTUM, workers=3), tmp_path / "3")
        assert started == [2, 8, 3]

    @pytest.mark.parametrize("cpus, started", [(2, [2]), (1, []), (None, [])])
    def test_pool_capped_at_cpu_count(self, tmp_path, monkeypatch, cpus, started):
        # os.cpu_count() is None when the count cannot be found: one process, no pool
        recorded = self.recording_pool(monkeypatch, cpus)
        datasets = {f"S{k}": synth_dataset(k) for k in range(3)}
        report = run_grid(datasets, small_grid(embeddings=ESN_RAW_QUANTUM, workers=5000), tmp_path)
        assert recorded == started
        assert report.cache_counts["embeddings"] == (0, 12)

    def test_batches_capped_at_max_batch(self, tmp_path, monkeypatch):
        # a batch holds its tickers' cache files open while it embeds them
        batches = []

        def recording_stream(batch, cfg, directory):
            batches.append([ticker for ticker, _, _ in batch])
            return stream_embedded(batch, cfg, directory)

        monkeypatch.setattr(harness, "MAX_BATCH", 2)
        monkeypatch.setattr(harness, "stream_embedded", recording_stream)
        datasets = {f"S{k}": synth_dataset(k) for k in range(5)}
        report = run_grid(datasets, small_grid(), tmp_path)
        assert batches == [["S0"], ["S1", "S2"], ["S3", "S4"]]
        monkeypatch.undo()
        assert report.cells == run_grid(datasets, small_grid(), tmp_path / "fresh").cells

    def test_fits_wait_for_the_pool(self, tmp_path, monkeypatch):
        # fitting while the workers embed would leave the parent's BLAS
        # threads spinning on their cores
        events = []

        def recording_stream(batch, cfg, directory):
            events.append("embed")
            return stream_embedded(batch, cfg, directory)

        def recording_fit(x, y, regs):
            events.append("fit")
            return harness.fit_ridge_path(x, y, regs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", lambda max_workers: InProcessPool())
        monkeypatch.setattr(harness, "stream_embedded", recording_stream)
        monkeypatch.setitem(harness.FIT_PATH, "ridge", recording_fit)
        datasets = {"A": synth_dataset(0), "B": synth_dataset(1)}
        run_grid(datasets, small_grid(embeddings=ESN_RAW_QUANTUM, workers=2), tmp_path)
        assert events == ["embed"] * 8 + ["fit"] * 8


class TestEmitReport:
    def test_report_without_cells_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no cells"):
            emit_report(ExperimentReport([], excluded={}, cache_counts={}), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_singleton_row_and_determinism(self, tmp_path):
        ds = synth_dataset(7)
        report = run_grid({"S7": ds}, small_grid(), tmp_path / "cache")
        paths = emit_report(report, tmp_path / "out")
        cells = Path(paths["cells"]).read_text().splitlines()
        assert len(cells) == 2  # header + one cell
        first = {p: Path(p).read_bytes() for p in paths.values()}
        emit_report(report, tmp_path / "out")
        for p, content in first.items():
            assert Path(p).read_bytes() == content

    def test_groups_sorted_by_accuracy(self, tmp_path):
        d = {f"S{k}": synth_dataset(k) for k in range(2)}
        grid = small_grid(
            embeddings=[{"kind": "raw"}, {"kind": "classical_esn", "seed": [0],
                                          "reservoir_size": [20]}],
            readouts=[{"kind": "ridge", "regularization": [0.1, 10.0]},
                      {"kind": "logistic", "regularization": [1e-2]}],
        )
        report = run_grid(d, grid, tmp_path / "cache")
        paths = emit_report(report, tmp_path / "out")
        lines = [l.split(",") for l in Path(paths["cells"]).read_text().splitlines()[1:]]
        accs_by_kind = {}
        for parts in lines:
            accs_by_kind.setdefault(parts[0], []).append(float(parts[-2]))
        for accs in accs_by_kind.values():
            assert accs == sorted(accs, reverse=True)

    def test_excluded_tickers_listed(self, tmp_path):
        tiny = synth_dataset(4)
        tiny = dataclasses.replace(tiny, split_index=len(tiny.labels))  # no test rows
        report = run_grid({"GOOD": synth_dataset(3), "TINY": tiny}, small_grid(), tmp_path / "cache")
        text = Path(emit_report(report, tmp_path / "out")["text"]).read_text()
        assert text.endswith(f"\nExcluded tickers:\n  TINY: needs >= 2 train and >= 1 test windows, "
                             f"has {len(tiny.labels)}/0\n")

    def test_means_recompute_from_per_ticker(self, tmp_path):
        d = {f"S{k}": synth_dataset(k) for k in range(3)}
        report = run_grid(d, small_grid(), tmp_path / "cache")
        for cell in report.cells:
            accs = [r.accuracy for r in cell.per_ticker.values()]
            assert abs(cell.mean_accuracy - np.mean(accs)) < 1e-12


class TestConfigFile:
    def test_load_and_validate(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "window": 7,
            "lambda": 1.5,
            "embeddings": [{"kind": "raw"}],
            "readouts": [{"kind": "logistic", "regularization": [0.01]}],
        }))
        grid = load_grid_config(path)
        assert grid.w == 7 and grid.lam == 1.5

    def test_problems_listed(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "bogus_key": 1,
            "embeddings": [{"kind": "warp"}],
            "readouts": [{"kind": "ridge", "regularization": []}],
        }))
        with pytest.raises(ConfigError) as err:
            load_grid_config(path)
        msg = str(err.value)
        assert "bogus_key" in msg and "warp" in msg and "regularization" in msg

    def test_esn_range_problems_listed_with_the_others(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "workers": 0,
            "embeddings": [{"kind": "classical_esn", "spectral_radius": [2.0], "leak_rate": [0.0]}],
            "readouts": [{"kind": "ridge", "regularization": [1.0]}],
        }))
        with pytest.raises(ConfigError) as err:
            load_grid_config(path)
        msg = str(err.value)
        assert "workers" in msg
        assert "spectral_radius values must be in (0, 1.5), got [2.0]" in msg
        assert "leak_rate values must be in (0, 1], got [0.0]" in msg

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_grid_config(path)

    @pytest.mark.parametrize("config, words", [
        ([{"kind": "raw"}], "config root must be a JSON object"),
        ({"readouts": [{"kind": "svm", "regularization": [1.0]}]}, "unknown readout kind 'svm'"),
        ({"readouts": [{"kind": ["ridge"], "regularization": [1.0]}]}, r"unknown readout kind \['ridge'\]"),
    ])
    def test_root_and_readout_kind_checked(self, tmp_path, config, words):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        with pytest.raises(ConfigError, match=words):
            load_grid_config(path)

    def test_grid_holds_its_own_templates(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        defaults = json.dumps([harness.DEFAULT_GRID_EMBEDDINGS, harness.DEFAULT_GRID_READOUTS])
        grid = load_grid_config(path)
        grid.embeddings.append({"kind": "warp"})
        grid.embeddings[0]["kind"] = "warp"
        grid.readouts[0]["regularization"].append(-1.0)
        assert json.dumps([harness.DEFAULT_GRID_EMBEDDINGS, harness.DEFAULT_GRID_READOUTS]) == defaults
        again = load_grid_config(path)
        assert json.dumps([again.embeddings, again.readouts]) == defaults
        templates = [{"kind": "raw"}]
        grid = small_grid(embeddings=templates)
        templates[0]["kind"] = "warp"
        assert grid.embeddings == [{"kind": "raw"}]

    def test_seed_key_ignored_with_warning(self, tmp_path, caplog):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7, "embeddings": [{"kind": "raw"}]}))
        with caplog.at_level(logging.WARNING, logger="qrcvol"):
            grid = load_grid_config(path)
        (record,) = caplog.records
        assert record.levelno == logging.WARNING and "seed" in record.getMessage()
        assert "seed" not in {f.name for f in dataclasses.fields(GridSpec)}
        assert not hasattr(grid, "seed")
