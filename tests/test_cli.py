import csv
import hashlib
import io
import json
import logging
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qrcvol
from qrcvol import cli, harness, pipeline
from qrcvol.cli import main
from qrcvol.errors import StateError
from qrcvol.pipeline import load_arrays, save_arrays

SMALL_CONFIG = {
    "window": 5,
    "lambda": 1.0,
    "stride": 1,
    "embeddings": [
        {"kind": "raw"},
        {"kind": "classical_esn", "reservoir_size": [20], "seed": [0]},
    ],
    "readouts": [{"kind": "ridge", "regularization": [1.0]}],
}


def file_hash(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def two_ticker_prices(prices, path):
    """Write at path the rows of the price file prices twice, as SYNTH and as OTHER."""
    rows = Path(prices).read_text().splitlines()
    path.write_text("\n".join(rows + [r.replace(",SYNTH,", ",OTHER,") for r in rows[1:]]) + "\n")
    return path


@pytest.fixture
def workspace(tmp_path):
    prices = tmp_path / "prices.csv"
    rc = main(["synth", "--regimes", "60:0.005,30:0.05,60:0.005",
               "--seed", "3", "--out", str(prices)])
    assert rc == 0
    data = tmp_path / "data"
    rc = main(["prepare", "--prices", str(prices), "--out", str(data), "--window", "5"])
    assert rc == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    return tmp_path, prices, data, config


class TestSynth:
    def test_row_count(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = main(["synth", "--regimes", "300:0.005,100:0.05,300:0.005",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "date,ticker,adj_close"
        assert len(lines) == 702  # header + 701 prices

    def test_zero_length_segment_rejected(self, tmp_path, capsys):
        rc = main(["synth", "--regimes", "0:0.1", "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        assert "segment" in capsys.readouterr().err

    def test_unparseable_segment_exit_one(self, tmp_path, capsys):
        rc = main(["synth", "--regimes", "10:abc", "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        assert "regime segment 1 ('10:abc')" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("ticker", ["A,B", 'A"B', "A\nB", "A\rB", "../x", ""])
    def test_ticker_that_breaks_csv_rejected(self, tmp_path, capsys, ticker):
        out = tmp_path / "p.csv"
        rc = main(["synth", "--regimes", "50:0.01", "--ticker", ticker, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_negative_seed_exit_one(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        rc = main(["synth", "--regimes", "50:0.01", "--seed=-1", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("regimes", ["10:1000", "10:1e308"])
    def test_price_overflow_exit_one(self, tmp_path, capsys, regimes):
        rc = main(["synth", "--regimes", regimes, "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: regime schedule takes the log-price")
        assert list(tmp_path.iterdir()) == []

    def test_same_spec_and_seed_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["synth", "--regimes", "50:0.01", "--seed", "7",
                         "--out", str(out)]) == 0
        assert file_hash(a) == file_hash(b)

    def test_manifest_lists_artifact(self, tmp_path):
        out = tmp_path / "p.csv"
        main(["synth", "--regimes", "50:0.01", "--seed", "7", "--out", str(out)])
        manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
        assert str(out) in manifest["artifacts"]
        assert manifest["artifacts"][str(out)] == file_hash(out)

    def test_two_outputs_in_one_directory_keep_both_manifests(self, tmp_path):
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for seed, out in enumerate(outs):
            assert main(["synth", "--regimes", "50:0.01", "--seed", str(seed), "--out", str(out)]) == 0
        for seed, out in enumerate(outs):
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            assert manifest["artifacts"] == {str(out): file_hash(out)}
            assert manifest["seed"] == seed
        assert not (tmp_path / "manifest.json").exists()

    def test_interrupted_rewrite_leaves_old_csv_and_no_manifest(self, tmp_path, monkeypatch):
        out = tmp_path / "p.csv"
        assert main(["synth", "--regimes", "50:0.01", "--out", str(out)]) == 0
        before = out.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        assert main(["synth", "--regimes", "50:0.01", "--seed", "1", "--out", str(out)]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv"]
        assert out.read_bytes() == before


class TestPrepare:
    def test_cache_created(self, workspace):
        _, _, data, _ = workspace
        assert (data / "SYNTH.dataset.npz").exists()
        assert (data / "manifest.json").exists()

    def test_missing_file_exit_two(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        rc = main(["prepare", "--prices", str(missing), "--out", str(tmp_path / "d")])
        assert rc == 2
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
    def test_non_finite_lambda_exit_one(self, workspace, tmp_path, capsys, lam):
        _, prices, _, _ = workspace
        out = tmp_path / "lam"
        rc = main(["prepare", "--prices", str(prices), "--out", str(out), f"--lambda={lam}"])
        assert rc == 1
        assert "--lambda" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--window=1", "--stride=0"])
    def test_window_or_stride_too_small_exit_one(self, workspace, tmp_path, capsys, option):
        _, prices, _, _ = workspace
        out = tmp_path / "small"
        rc = main(["prepare", "--prices", str(prices), "--out", str(out), option])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {option.split('=')[0]} must be >=")
        assert not out.exists()

    def test_every_ticker_skipped_leaves_no_out(self, tmp_path, capsys):
        prices = tmp_path / "p.csv"
        assert main(["synth", "--regimes", "200:0.01", "--out", str(prices)]) == 0
        out = tmp_path / "d2"
        rc = main(["prepare", "--prices", str(prices), "--out", str(out), "--window", "400"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: no ticker produced a dataset: ticker SYNTH:")
        assert not out.exists()

    @pytest.mark.parametrize("tickers, entry, name", [
        ("SYNTH,,X", 2, ""), ("SYNTH,", 2, ""), ("", 1, ""), ("SYNTH,a/b", 2, "a/b"), ("..", 1, ".."),
    ])
    def test_ticker_name_that_breaks_paths_exit_one(self, tmp_path, capsys, tickers, entry, name):
        # rejected before the price file is looked up
        out = tmp_path / "d"
        rc = main(["prepare", "--prices", str(tmp_path / "absent.csv"), "--out", str(out),
                   "--tickers", tickers])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: --tickers entry {entry} ({name!r}) cannot name a file or CSV field\n")
        assert not out.exists()

    def test_rerun_byte_identical(self, workspace, tmp_path):
        _, prices, data, _ = workspace
        before = file_hash(data / "SYNTH.dataset.npz")
        data2 = tmp_path / "data2"
        assert main(["prepare", "--prices", str(prices), "--out", str(data2),
                     "--window", "5"]) == 0
        assert file_hash(data2 / "SYNTH.dataset.npz") == before

    def test_manifest_records_skipped_tickers(self, workspace, tmp_path):
        _, prices, data, _ = workspace
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["skipped"] == {}
        both = tmp_path / "both.csv"
        rows = prices.read_text().splitlines()
        both.write_text("\n".join(rows + ["2015-01-02,SHORT,10", "2015-01-03,SHORT,11"]) + "\n")
        out = tmp_path / "both"
        assert main(["prepare", "--prices", str(both), "--out", str(out), "--window", "5"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["skipped"]) == ["SHORT"]
        assert "window size 5" in manifest["skipped"]["SHORT"]
        assert not (out / "SHORT.dataset.npz").exists()

    def test_requested_ticker_without_rows_skipped(self, workspace, tmp_path, capsys, caplog):
        _, prices, _, _ = workspace
        both = tmp_path / "both.csv"
        both.write_text(prices.read_text() + "2015-01-02,SHORT,10\n2015-01-03,SHORT,11\n")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["prepare", "--prices", str(both), "--out", str(out), "--window", "5",
                     "--tickers", "ZZZ,SYNTH,SHORT"]) == 0
        skipped = {"SHORT": "ticker SHORT: 1 returns < window size 5",
                   "ZZZ": f"ticker ZZZ: no usable row in {both}"}
        assert json.loads((out / "manifest.json").read_text())["skipped"] == skipped
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"skipped {ticker}: {reason}" for ticker, reason in skipped.items()]
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ["ticker ZZZ skipped: " + skipped["ZZZ"],
                            "ticker SHORT skipped: " + skipped["SHORT"]]
        assert [p.name for p in out.glob("*.dataset.npz")] == ["SYNTH.dataset.npz"]

    def test_ticker_that_breaks_csv_skipped(self, workspace, tmp_path):
        _, prices, _, config = workspace
        rows = prices.read_text().splitlines()
        mixed = tmp_path / "mixed.csv"
        mixed.write_text("\n".join(rows + [r.replace(",SYNTH,", ',"A,B",') for r in rows[1:]]))
        data, out = tmp_path / "mixed_data", tmp_path / "mixed_out"
        assert main(["prepare", "--prices", str(mixed), "--out", str(data), "--window", "5"]) == 0
        assert [p.name for p in data.glob("*.dataset.npz")] == ["SYNTH.dataset.npz"]
        assert main(["run", "--data", str(data), "--config", str(config),
                     "--out", str(out)]) == 0
        with open(out / "per_ticker.csv", newline="", encoding="utf-8") as fh:
            assert {len(row) for row in csv.reader(fh)} == {11}

    def test_csv_with_byte_order_mark(self, workspace, tmp_path):
        # as Excel's "CSV UTF-8" export writes it
        _, prices, data, _ = workspace
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + prices.read_bytes())
        out = tmp_path / "bom"
        assert main(["prepare", "--prices", str(bom), "--out", str(out), "--window", "5"]) == 0
        assert file_hash(out / "SYNTH.dataset.npz") == file_hash(data / "SYNTH.dataset.npz")

    def test_non_utf8_price_file_exit_two(self, workspace, tmp_path, capsys):
        _, prices, _, _ = workspace
        latin = tmp_path / "latin.csv"
        latin.write_bytes(prices.read_bytes().replace(b",SYNTH,", b",SYN\xffTH,", 1))
        out = tmp_path / "latin"
        assert main(["prepare", "--prices", str(latin), "--out", str(out), "--window", "5"]) == 2
        err = capsys.readouterr().err
        assert f"error: {latin}: not UTF-8 text: " in err and "0xff" in err
        assert not out.exists()

    def test_price_file_the_csv_module_rejects_exit_two(self, workspace, tmp_path, capsys):
        _, prices, _, _ = workspace
        huge = tmp_path / "huge.csv"
        huge.write_text(prices.read_text() + "2030-01-01,SYNTH," + "1" * 200000 + "\n")
        out = tmp_path / "huge"
        assert main(["prepare", "--prices", str(huge), "--out", str(out), "--window", "5"]) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: {huge} line 153: not readable as CSV: field larger than field limit (131072)"]
        assert "Traceback" not in err and not out.exists()

    def test_interrupted_reprepare_leaves_no_manifest(self, workspace, tmp_path, monkeypatch):
        _, prices, _, _ = workspace
        both = two_ticker_prices(prices, tmp_path / "both.csv")
        out = tmp_path / "again"
        assert main(["prepare", "--prices", str(both), "--out", str(out), "--window", "5"]) == 0
        write_dataset = pipeline.write_dataset
        written = []

        def second_fails(ds, path):
            written.append(path)
            if len(written) == 2:
                raise OSError("disk full")
            write_dataset(ds, path)

        monkeypatch.setattr(pipeline, "write_dataset", second_fails)
        assert main(["prepare", "--prices", str(both), "--out", str(out), "--window", "5",
                     "--lambda", "0.5"]) == 2
        assert len(written) == 2
        assert not (out / "manifest.json").exists()

    def test_narrower_reprepare_exit_one_naming_other_datasets(self, workspace, tmp_path, capsys):
        _, prices, _, _ = workspace
        both = two_ticker_prices(prices, tmp_path / "both.csv")
        out = tmp_path / "both"
        assert main(["prepare", "--prices", str(both), "--out", str(out), "--window", "5"]) == 0
        before = tree(out)
        capsys.readouterr()
        assert main(["prepare", "--prices", str(both), "--out", str(out), "--window", "5",
                     "--tickers", "SYNTH", "--lambda", "0.5"]) == 1
        err = capsys.readouterr().err
        assert "OTHER.dataset.npz" in err and "SYNTH.dataset.npz" not in err
        assert tree(out) == before  # nothing written, the manifest kept
        # the same tickers again may replace their datasets
        assert main(["prepare", "--prices", str(both), "--out", str(out), "--window", "5",
                     "--tickers", "OTHER,SYNTH", "--lambda", "0.5"]) == 0
        assert json.loads((out / "manifest.json").read_text())["args"]["lambda"] == 0.5

    def test_tickers_entries_are_stripped(self, workspace, tmp_path, capsys):
        _, prices, _, _ = workspace
        both = two_ticker_prices(prices, tmp_path / "both.csv")
        out = tmp_path / "both"
        capsys.readouterr()
        assert main(["prepare", "--prices", str(both), "--out", str(out), "--window", "5",
                     "--tickers", " SYNTH, OTHER "]) == 0
        assert capsys.readouterr().out == f"prepared 2 ticker dataset(s) in {out}\n"
        assert sorted(p.name for p in out.glob("*.dataset.npz")) == ["OTHER.dataset.npz", "SYNTH.dataset.npz"]


class TestRun:
    def test_small_grid(self, workspace):
        tmp_path, _, data, config = workspace
        out = tmp_path / "out"
        rc = main(["run", "--data", str(data), "--config", str(config),
                   "--out", str(out)])
        assert rc == 0
        assert (out / "cells.csv").exists()
        assert (out / "report.txt").exists()
        rows = (out / "cells.csv").read_text().splitlines()
        assert len(rows) == 3  # header + raw + esn

    def test_embedding_filter(self, workspace):
        tmp_path, _, data, config = workspace
        out = tmp_path / "filtered"
        rc = main(["run", "--data", str(data), "--config", str(config),
                   "--out", str(out), "--embeddings", "raw"])
        assert rc == 0
        rows = (out / "cells.csv").read_text().splitlines()[1:]
        assert all(r.startswith("raw,") for r in rows)

    def test_unknown_embedding_filter(self, workspace, capsys):
        tmp_path, _, data, config = workspace
        out = tmp_path / "x"
        for kinds, unknown in (("warp", "['warp']"), ("", "['']")):
            rc = main(["run", "--data", str(data), "--config", str(config),
                       "--out", str(out), "--embeddings", kinds])
            assert rc == 1, kinds
            assert f"unknown embedding kinds in filter: {unknown}" in capsys.readouterr().err
            assert not out.exists()

    def test_embedding_filter_removing_every_template(self, workspace, capsys):
        tmp_path, _, data, config = workspace
        out = tmp_path / "none"
        rc = main(["run", "--data", str(data), "--config", str(config),
                   "--out", str(out), "--embeddings", "quantum"])
        assert rc == 1
        assert "embedding filter removed every template" in capsys.readouterr().err
        assert not out.exists()

    def test_embedding_filter_entries_are_stripped(self, workspace):
        tmp_path, _, data, config = workspace
        out = tmp_path / "spaced"
        assert main(["run", "--data", str(data), "--config", str(config),
                     "--out", str(out), "--embeddings", "raw, classical_esn"]) == 0
        rows = (out / "cells.csv").read_text().splitlines()[1:]
        assert sorted(r.split(",")[0] for r in rows) == ["classical_esn", "raw"]

    def test_config_with_byte_order_mark(self, workspace):
        tmp_path, _, data, config = workspace
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        for name, path in (("plain", config), ("bom", bom)):
            assert main(["run", "--data", str(data), "--config", str(path), "--out", str(tmp_path / name)]) == 0
        for name in ("cells.csv", "per_ticker.csv", "report.txt"):
            assert file_hash(tmp_path / "bom" / name) == file_hash(tmp_path / "plain" / name)

    @pytest.mark.parametrize("spelling", ["{data}", "{data}/."])
    def test_out_that_is_the_data_directory_exit_one(self, workspace, capsys, spelling):
        _, _, data, config = workspace
        manifest = (data / "manifest.json").read_bytes()
        out = spelling.format(data=data)
        assert main(["run", "--data", str(data), "--config", str(config), "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out} is the --data directory {data}")
        assert (data / "manifest.json").read_bytes() == manifest
        assert not (data / "cells.csv").exists() and not (data / "cache").exists()

    def test_non_utf8_config_exit_one(self, workspace, capsys):
        tmp_path, _, data, config = workspace
        latin = tmp_path / "latin.json"
        latin.write_bytes(config.read_bytes().replace(b'"raw"', b'"r\xe4w"'))
        out = tmp_path / "latin"
        assert main(["run", "--data", str(data), "--config", str(latin), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: config {latin} is not valid JSON: " in err and "0xe4" in err
        assert not out.exists()

    def test_interrupted_rerun_leaves_no_manifest(self, workspace, monkeypatch):
        tmp_path, _, data, config = workspace
        out = tmp_path / "again"
        assert main(["run", "--data", str(data), "--config", str(config), "--out", str(out)]) == 0
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**SMALL_CONFIG, "embeddings": [{"kind": "raw"}]}))

        def fail(report, out_dir):
            raise OSError("disk full")

        monkeypatch.setattr(harness, "emit_report", fail)
        assert main(["run", "--data", str(data), "--config", str(other), "--out", str(out)]) == 2
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("data, words", [("absent", "No such file or directory"),
                                             ("empty", "no *.dataset.npz files in")])
    def test_data_directory_without_datasets_exit_two(self, workspace, capsys, data, words):
        tmp_path, _, _, config = workspace
        (tmp_path / "empty").mkdir()
        out = tmp_path / "out"
        rc = main(["run", "--data", str(tmp_path / data), "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert words in capsys.readouterr().err
        assert not out.exists()

    def test_every_ticker_excluded_exit_one(self, tmp_path, capsys):
        # 10 returns at window 9 give 2 windows: 1 train and 1 test
        prices, data, out = tmp_path / "p.csv", tmp_path / "data", tmp_path / "out"
        assert main(["synth", "--regimes", "10:0.01", "--out", str(prices)]) == 0
        assert main(["prepare", "--prices", str(prices), "--out", str(data)]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "window": 9}))
        capsys.readouterr()
        assert main(["run", "--data", str(data), "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "every ticker is degenerate" in err and "has 1/1" in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["directory", "missing.json"])
    def test_unreadable_config_exit_one(self, workspace, capsys, name):
        tmp_path, _, data, _ = workspace
        (tmp_path / "directory").mkdir()
        config, out = tmp_path / name, tmp_path / "out"
        assert main(["run", "--data", str(data), "--config", str(config), "--out", str(out)]) == 1
        assert f"cannot read config {config}" in capsys.readouterr().err
        assert not out.exists()

    def test_readout_without_regularization_exit_one(self, workspace, capsys):
        tmp_path, _, data, config = workspace
        config.write_text(json.dumps({**SMALL_CONFIG, "readouts": [{"kind": "ridge"}]}))
        out = tmp_path / "out"
        assert main(["run", "--data", str(data), "--config", str(config), "--out", str(out)]) == 1
        assert "readout 'ridge' has no regularization values" in capsys.readouterr().err
        assert not out.exists()

    def test_data_directory_without_manifest_exit_two(self, workspace, capsys):
        # as an interrupted prepare leaves it
        tmp_path, _, data, config = workspace
        (data / "manifest.json").unlink()
        out = tmp_path / "out"
        rc = main(["run", "--data", str(data), "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert f"{data} has no manifest.json" in capsys.readouterr().err
        assert not out.exists()

    def test_determinism_across_runs(self, workspace):
        tmp_path, _, data, config = workspace
        hashes = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["run", "--data", str(data), "--config", str(config),
                         "--out", str(out)]) == 0
            hashes.append((file_hash(out / "cells.csv"),
                           file_hash(out / "per_ticker.csv"),
                           file_hash(out / "report.txt")))
        assert hashes[0] == hashes[1]

    def test_warm_run_byte_identical_and_touches_no_cache_file(self, workspace):
        tmp_path, _, data, config = workspace
        out = tmp_path / "warm"
        argv = ["run", "--data", str(data), "--config", str(config), "--out", str(out)]
        assert main(argv) == 0
        reports = {name: (out / name).read_bytes() for name in ("cells.csv", "per_ticker.csv", "report.txt")}

        def cache_files():
            return {p.name: (p.read_bytes(), p.stat().st_mtime_ns, p.stat().st_ino)
                    for p in (out / "cache").iterdir()}

        cache = cache_files()
        assert sorted(name.split(".", 1)[1] for name in cache) == ["emb.npz"] * 2 + ["fit.npz"] * 2
        assert main(argv) == 0
        assert {name: (out / name).read_bytes() for name in reports} == reports
        assert cache_files() == cache

    def test_cache_reuse_counted_on_stdout(self, workspace, capsys):
        tmp_path, _, data, config = workspace
        argv = ["run", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "counted")]
        capsys.readouterr()
        for reused in (0, 2):
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            assert f"cache: {reused} of 2 embeddings and {reused} of 2 readout results reused" in lines

    def test_blas_threads_change_no_report_or_cache_byte(self, workspace):
        # a cache written under one BLAS thread count is served under another;
        # OpenBLAS splits a gemv over threads only above m*n = 2304 *
        # GEMM_MULTITHREAD_THRESHOLD (9216 at its default 4), which the
        # ESN-100's 100x100 step is and the ESN-20's is not
        tmp_path, prices, _, _ = workspace
        config = tmp_path / "blas.json"
        config.write_text(json.dumps(dict(
            SMALL_CONFIG,
            embeddings=SMALL_CONFIG["embeddings"] + [{"kind": "quantum", "a_x": [1.0], "t": [1.0]},
                                                     {"kind": "classical_esn", "reservoir_size": [100]}],
            readouts=[{"kind": "logistic", "regularization": [1e-2, 1.0]},
                      {"kind": "ridge", "regularization": [0.5, 2.0]}],
        )))
        src = os.path.dirname(os.path.dirname(qrcvol.__file__))

        def cli_run(threads, *argv):
            env = dict(os.environ, PYTHONPATH=src)
            env.pop("OPENBLAS_NUM_THREADS", None)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run([sys.executable, "-m", "qrcvol.cli", *map(str, argv)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        def outputs(root):
            return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*"))
                    if p.is_file() and p.name not in ("manifest.json", ".qrcvol.lock")}

        roots = {threads: tmp_path / f"threads-{threads}" for threads in ("1", None)}
        for threads, root in roots.items():
            cli_run(threads, "prepare", "--prices", prices, "--out", root / "data", "--window", 5)
            cli_run(threads, "run", "--data", root / "data", "--config", config, "--out", root / "out")
        written = outputs(roots["1"])
        assert sum(name.endswith(".fit.npz") for name in written) == 4
        assert outputs(roots[None]) == written
        # each setting's warm run serves the other's cache files unchanged
        for threads, other in (("1", None), (None, "1")):
            out = roots[other] / "out"
            stdout = cli_run(threads, "run", "--data", roots[other] / "data", "--config", config, "--out", out)
            assert "cache: 4 of 4 embeddings and 4 of 4 readout results reused" in stdout.splitlines()
            assert outputs(roots[other]) == written

    def test_bad_config_exit_one(self, workspace, capsys):
        tmp_path, _, data, _ = workspace
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"embeddings": [{"kind": "warp"}],
                                   "readouts": []}))
        rc = main(["run", "--data", str(data), "--config", str(bad),
                   "--out", str(tmp_path / "y")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "warp" in err and "readout" in err

    @pytest.mark.parametrize("change", [
        {"workers": "two"},
        {"workers": 2.7},
        {"workers": True},
        {"window": "5"},
        {"stride": 1.0},
        {"lambda": "1.0"},
        {"lambda": True},
        {"embeddings": ["raw"]},
        {"embeddings": [{"kind": "quantum", "a_x": 1.0}]},
        {"embeddings": [{"kind": "raw"}, {"kind": "quantum", "a_x": []}]},
        {"embeddings": [{"kind": "quantum", "a_x": ["x"]}]},
        {"embeddings": [{"kind": "quantum", "bogus": [1]}]},
        {"embeddings": [{"kind": "raw", "a_x": [1.0]}]},
        {"embeddings": [{"kind": "classical_esn", "reservoir_size": [20.5]}]},
        {"embeddings": [{"kind": "classical_esn", "reservoir_size": [20, 4097]}]},
        {"embeddings": [{"kind": "classical_esn", "seed": [True]}]},
        {"embeddings": [{"kind": "classical_esn", "leak_rate": ["0.3"]}]},
        {"readouts": [{"kind": "ridge", "regularization": ["a"]}]},
        {"readouts": [{"kind": "ridge", "regularization": 1.0}]},
        {"readouts": [{"kind": "ridge", "regularization": [float("nan")]}]},
        {"readouts": [{"kind": "logistic", "regularization": [0.01, -1.0]}]},
        {"readouts": [{"kind": ["ridge"], "regularization": [1.0]}]},
        {"readouts": [{"kind": {}, "regularization": [1.0]}]},
    ])
    def test_malformed_config_value_exit_one(self, workspace, capsys, change):
        tmp_path, _, data, _ = workspace
        config = tmp_path / "malformed.json"
        config.write_text(json.dumps({**SMALL_CONFIG, **change}))
        rc = main(["run", "--data", str(data), "--config", str(config),
                   "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("window, template, words", [
        (16, {"kind": "quantum"}, ["window size 16", "14-qubit guard"]),
        (9, {"kind": "quantum", "a_x": [100.0], "t": [3.0]}, ["a_x 100.0", "t 3.0", "above the 2000.0 guard"]),
        (5, {"kind": "classical_esn", "reservoir_size": [20], "seed": [-1]}, ["seed", "-1"]),
    ])
    def test_config_that_can_never_run_exit_one(self, workspace, capsys, window, template, words):
        tmp_path, prices, _, _ = workspace
        data = tmp_path / f"data{window}"
        assert main(["prepare", "--prices", str(prices), "--out", str(data),
                     "--window", str(window)]) == 0
        config = tmp_path / "never.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "window": window,
                                      "embeddings": [{"kind": "raw"}, template]}))
        out = tmp_path / "never"
        capsys.readouterr()
        rc = main(["run", "--data", str(data), "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and all(word in err for word in words), err
        assert not list(out.rglob("*.npz"))

    @pytest.mark.parametrize("change, words", [
        ({}, ["config window 5"]),
        ({"window": 9, "embeddings": [{"kind": "raw"}, {"kind": "quantum", "t": [1000.0]}]},
         ["t 1000.0", "above the 2000.0 guard"]),
    ])
    def test_rejected_run_leaves_no_out(self, workspace, capsys, change, words):
        tmp_path, prices, _, _ = workspace
        data = tmp_path / "data9"
        assert main(["prepare", "--prices", str(prices), "--out", str(data), "--window", "9"]) == 0
        config = tmp_path / "rejected.json"
        config.write_text(json.dumps({**SMALL_CONFIG, **change}))
        out = tmp_path / "rejected"
        capsys.readouterr()
        rc = main(["run", "--data", str(data), "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and all(word in err for word in words), err
        assert not out.exists()

    def test_config_above_the_phase_guard_on_these_windows_exit_one(self, tmp_path, capsys):
        # window * |a_x| * t is 1935, but these windows take r t to about 2029
        prices, data, config = tmp_path / "p.csv", tmp_path / "data", tmp_path / "gap.json"
        assert main(["synth", "--regimes", "120:0.005,55:0.05,120:0.005,55:0.05", "--seed", "5",
                     "--out", str(prices)]) == 0
        assert main(["prepare", "--prices", str(prices), "--out", str(data), "--window", "9"]) == 0
        config.write_text(json.dumps({**SMALL_CONFIG, "window": 9,
                                      "embeddings": [{"kind": "quantum", "a_x": [1.0], "t": [1.0, 215.0]}]}))
        out = tmp_path / "gap"
        capsys.readouterr()
        rc = main(["run", "--data", str(data), "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "t 215.0" in err and "above the 2000.0 guard" in err, err
        assert not out.exists()

    def test_reservoir_smaller_than_window_exit_one(self, workspace, capsys):
        tmp_path, _, data, config = workspace
        config.write_text(json.dumps({**SMALL_CONFIG, "embeddings": [
            {"kind": "raw"}, {"kind": "classical_esn", "reservoir_size": [4]}]}))
        out = tmp_path / "small"
        capsys.readouterr()
        assert main(["run", "--data", str(data), "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: ticker SYNTH: reservoir_size 4 < window size 5\n"
        assert not out.exists()

    def test_seed_key_ignored_with_warning(self, workspace, caplog):
        tmp_path, _, data, _ = workspace
        config = tmp_path / "seeded.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "seed": 7}))
        out = tmp_path / "seeded"
        with caplog.at_level(logging.WARNING, logger="qrcvol"):
            assert main(["run", "--data", str(data), "--config", str(config),
                         "--out", str(out)]) == 0
        assert any("seed" in r.getMessage() for r in caplog.records)
        assert "seed" not in json.loads((out / "manifest.json").read_text())

    @pytest.mark.parametrize("key,value", [("window", 9), ("lambda", 2.0), ("stride", 2)])
    def test_config_must_match_datasets(self, workspace, capsys, key, value):
        tmp_path, _, data, _ = workspace
        config = tmp_path / "other.json"
        config.write_text(json.dumps({**SMALL_CONFIG, key: value}))
        rc = main(["run", "--data", str(data), "--config", str(config),
                   "--out", str(tmp_path / "z")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "SYNTH" in err and f"config {key} {value}" in err
        assert not (tmp_path / "z" / "cells.csv").exists()

    def test_manifest_records_dataset_params(self, workspace):
        tmp_path, _, data, _ = workspace
        config = tmp_path / "unset.json"
        unset = {k: v for k, v in SMALL_CONFIG.items() if k not in ("window", "lambda", "stride")}
        config.write_text(json.dumps(unset))
        out = tmp_path / "unset"
        assert main(["run", "--data", str(data), "--config", str(config),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["window"], manifest["lambda"], manifest["stride"]) == ([5], [1.0], [1])

    def test_locked_output_dir(self, workspace):
        tmp_path, _, data, config = workspace
        out = tmp_path / "locked"
        out.mkdir()
        with cli._output_lock(out):
            rc = main(["run", "--data", str(data), "--config", str(config),
                       "--out", str(out)])
        assert rc == 2
        assert not (out / "cells.csv").exists()

    def test_lock_file_not_executable(self, workspace):
        tmp_path, _, data, config = workspace
        out = tmp_path / "out"
        assert main(["run", "--data", str(data), "--config", str(config), "--out", str(out)]) == 0
        for directory in (data, out):
            assert not (directory / ".qrcvol.lock").stat().st_mode & 0o111, directory

    def test_lock_of_killed_run_does_not_block(self, workspace):
        tmp_path, _, data, config = workspace
        out = tmp_path / "killed"
        out.mkdir()
        holder = (
            "import os, signal, sys\n"
            "from qrcvol.cli import _output_lock\n"
            "with _output_lock(sys.argv[1]):\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qrcvol.__file__)))
        proc = subprocess.run([sys.executable, "-c", holder, str(out)], env=env, timeout=60)
        assert proc.returncode == -signal.SIGKILL
        assert (out / ".qrcvol.lock").exists()
        rc = main(["run", "--data", str(data), "--config", str(config),
                   "--out", str(out)])
        assert rc == 0
        assert (out / "cells.csv").exists()

    def test_logistic_run_does_not_import_numpy_ma(self, workspace):
        # np.unique imports numpy.ma (11 ms, about 1 MB) on first use
        tmp_path, _, data, _ = workspace
        config = tmp_path / "logistic.json"
        config.write_text(json.dumps(dict(SMALL_CONFIG, readouts=[
            {"kind": "logistic", "regularization": [1e-2, 1.0]}])))
        code = (
            "import sys\n"
            "from qrcvol.cli import main\n"
            "assert main(['run', '--data', sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3]]) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qrcvol.__file__)))
        proc = subprocess.run([sys.executable, "-c", code, str(data), str(config), str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "cells.csv").read_text().count("logistic") == 4

    def test_corrupt_dataset_file_exit_two(self, workspace, capsys):
        tmp_path, _, data, config = workspace
        bad = data / "BAD.dataset.npz"
        good = (data / "SYNTH.dataset.npz").read_bytes()
        # the dataset's own arrays, but with Fortran-ordered windows, a layout qrcvol never writes
        arrays = load_arrays(data / "SYNTH.dataset.npz")
        fortran = io.BytesIO()
        np.savez(fortran, format=pipeline.FORMAT_VERSION,
                 **{**arrays, "windows": np.asfortranarray(arrays["windows"])})
        for content in (b"", b"not a zip file", good[:200], good[:-30], fortran.getvalue()):
            bad.write_bytes(content)
            rc = main(["run", "--data", str(data), "--config", str(config),
                       "--out", str(tmp_path / "corrupt")])
            assert rc == 2
            err = capsys.readouterr().err
            assert str(bad) in err
        # the last content is refused for its layout, not for the ticker it shares with SYNTH's file
        assert "Fortran-ordered array" in err

    def test_dataset_file_of_other_format_version_exit_two(self, workspace, capsys):
        tmp_path, _, data, config = workspace
        path = data / "SYNTH.dataset.npz"
        with np.load(path) as npz:
            arrays = {name: npz[name] for name in npz.files}
        arrays["format"] = np.array(0)
        np.savez(path, **arrays)
        rc = main(["run", "--data", str(data), "--config", str(config),
                   "--out", str(tmp_path / "old")])
        assert rc == 2
        assert str(path) in capsys.readouterr().err

    def test_embedding_file_of_wrong_width_exit_two(self, workspace, capsys):
        # the file keeps its dataset's fingerprint and rows, but only the
        # first 3 of a 5-qubit config's 15 feature columns
        tmp_path, _, data, config = workspace
        config.write_text(json.dumps({"embeddings": [{"kind": "quantum"}], "window": 5,
                                      "readouts": [{"kind": "ridge", "regularization": [1.0]}]}))
        out = tmp_path / "out"
        argv = ["run", "--data", str(data), "--config", str(config), "--out", str(out)]
        assert main(argv) == 0
        (path,) = (out / "cache").glob("*.emb.npz")
        arrays = load_arrays(path)
        assert arrays["features"].shape[1] == 15
        arrays["features"] = arrays["features"][:, :3].copy()
        save_arrays(path, **arrays)
        for fit in (out / "cache").glob("*.fit.npz"):
            fit.unlink()
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "of 3 columns" in err

    def test_fit_file_of_another_cell_count_exit_two(self, workspace, capsys):
        # the file keeps its dataset's fingerprint and readout paths, but holds two rows of results
        tmp_path, _, data, config = workspace
        config.write_text(json.dumps({**SMALL_CONFIG, "embeddings": [{"kind": "raw"}]}))
        out = tmp_path / "out"
        argv = ["run", "--data", str(data), "--config", str(config), "--out", str(out)]
        assert main(argv) == 0
        (path,) = (out / "cache").glob("*.fit.npz")
        arrays = load_arrays(path)
        arrays["results"] = np.concatenate([arrays["results"]] * 2)
        save_arrays(path, **arrays)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "results of 2 cells, expected 1" in err

    @pytest.mark.parametrize("damage", ["not a zip", "no results entry"])
    def test_unreadable_cache_file_exit_two(self, workspace, capsys, damage):
        tmp_path, _, data, config = workspace
        argv = ["run", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        path = sorted((tmp_path / "out" / "cache").glob("*.fit.npz"))[0]
        if damage == "not a zip":
            path.write_bytes(b"not a zip file")
        else:
            arrays = load_arrays(path)
            del arrays["results"]
            save_arrays(path, **arrays)
        capsys.readouterr()
        assert main(argv) == 2
        assert str(path) in capsys.readouterr().err

    def test_dataset_file_without_dataset_fields_exit_two(self, workspace, capsys):
        tmp_path, _, data, config = workspace
        path = data / "SYNTH.dataset.npz"
        save_arrays(path, ticker="SYNTH")
        out = tmp_path / "out"
        assert main(["run", "--data", str(data), "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "not a dataset file" in err
        assert not out.exists()

    def test_two_dataset_files_of_one_ticker_exit_two(self, workspace, capsys):
        tmp_path, _, data, config = workspace
        shutil.copy(data / "SYNTH.dataset.npz", data / "COPY.dataset.npz")
        rc = main(["run", "--data", str(data), "--config", str(config),
                   "--out", str(tmp_path / "dup")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(data / "SYNTH.dataset.npz") in err and str(data / "COPY.dataset.npz") in err
        assert not (tmp_path / "dup" / "cells.csv").exists()

    @pytest.mark.parametrize("ticker", ["../escaped", "A,B", ""])
    def test_stored_ticker_that_breaks_paths_exit_two(self, workspace, capsys, ticker):
        tmp_path, _, data, config = workspace
        path = data / "SYNTH.dataset.npz"
        arrays = load_arrays(path)
        arrays["ticker"] = ticker
        save_arrays(path, **arrays)
        out = tmp_path / "out"
        rc = main(["run", "--data", str(data), "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert str(path) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, change", [
        ("windows", lambda a: a.ravel()),
        ("windows", lambda a: a.astype(np.int64)),
        ("windows", lambda a: a.astype(np.float32)),
        ("labels", lambda a: a[:-5]),
        ("labels", lambda a: a[:, None]),
        ("t_index", lambda a: a[1:]),
        ("split_index", lambda a: 10**6),
        ("split_index", lambda a: -1),
        ("split_index", lambda a: 2.0),
        ("stride", lambda a: 1.0),
        ("stride", lambda a: -3),
        ("windows", lambda a: a[:, :0]),
        ("lam", lambda a: "1.0"),
        ("threshold", lambda a: True),
        ("lam", lambda a: float("nan")),
        ("threshold", lambda a: float("inf")),
        ("windows", lambda a: np.where(np.arange(a.size).reshape(a.shape) == 7, np.nan, a)),
        ("labels", lambda a: np.where(np.arange(len(a)) == 3, 2, a)),
    ], ids=["windows-1d", "windows-int", "windows-float32", "labels-short", "labels-2d", "t_index-short",
            "split_index-huge", "split_index-negative", "split_index-float", "stride-float",
            "stride-negative", "windows-zero-width",
            "lam-str", "threshold-bool", "lam-nan", "threshold-inf", "windows-nan", "labels-not-binary"])
    def test_malformed_dataset_field_exit_two(self, workspace, capsys, field, change):
        tmp_path, _, data, config = workspace
        path = data / "SYNTH.dataset.npz"
        arrays = load_arrays(path)
        arrays[field] = change(arrays[field])
        save_arrays(path, **arrays)
        out = tmp_path / "out"
        rc = main(["run", "--data", str(data), "--config", str(config), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(path) in err and field in err
        assert not out.exists()

    def test_manifest_replay_hashes(self, workspace):
        tmp_path, _, data, config = workspace
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        for out in (out1, out2):
            assert main(["run", "--data", str(data), "--config", str(config),
                         "--out", str(out)]) == 0
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        a1 = {os.path.basename(k): v for k, v in m1["artifacts"].items()}
        a2 = {os.path.basename(k): v for k, v in m2["artifacts"].items()}
        assert a1 == a2


@pytest.mark.parametrize("argv, words", [
    (["run", "--data", "d"], "the following arguments are required: --config, --out"),
    (["prepare", "--prices", "p.csv", "--out", "d", "--window", "abc"], "invalid int value: 'abc'"),
    (["prepare", "--prices", "p.csv", "--out", "d", "--lambda", "one"], "invalid float value: 'one'"),
    (["synth", "--regimes", "50:0.01", "--start-price", "5", "--out", "p.csv"],
     "unrecognized arguments: --start-price 5"),
    ([], "the following arguments are required: command"),
    (["bogus"], "invalid choice: 'bogus'"),
], ids=["missing option", "malformed int", "malformed float", "unknown option",
        "missing command", "unknown command"])
def test_usage_error_exit_one(tmp_path, capsys, monkeypatch, argv, words):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: qrcvol") and words in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, words", [
    ("--help", "usage: qrcvol"),
    ("--version", f"qrcvol {qrcvol.__version__}"),
], ids=["help", "version"])
def test_help_and_version_exit_zero(capsys, flag, words):
    assert main([flag]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(words) and err == ""


def test_other_package_error_exit_three(tmp_path, capsys, monkeypatch):
    def fail(args):
        raise StateError("statevector norm deviates from 1 by 0.5")

    monkeypatch.setattr(cli, "cmd_synth", fail)
    rc = main(["synth", "--regimes", "50:0.01", "--out", str(tmp_path / "p.csv")])
    assert rc == 3
    assert capsys.readouterr().err == "internal error: statevector norm deviates from 1 by 0.5\n"


def tree(directory):
    """Every file under directory but the lock file, as bytes by relative path."""
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in Path(directory).rglob("*") if p.is_file() and p.name != ".qrcvol.lock"}


class TestInterruptedCommand:
    """A command whose k-th os.replace raises, for every k, as a crash
    between two files would leave it: no `.tmp` file, no manifest, and
    every other file holds a clean run's bytes or its own earlier bytes."""

    @staticmethod
    def renames(monkeypatch, fail_at=0):
        """Count os.replace calls, and make call number fail_at raise."""
        calls = []
        replace = os.replace

        def counted(src, dst):
            calls.append(dst)
            if len(calls) == fail_at:
                raise OSError(f"rename {fail_at} interrupted")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", counted)
        return calls

    def check_every_interruption(self, monkeypatch, tmp_path, command, earlier=None,
                                 manifest="manifest.json"):
        """command(out) and earlier(out) are argvs writing into out, and
        manifest the name of the manifest they write there; earlier, if
        given, fills out before each attempt."""
        with monkeypatch.context() as m:
            calls = self.renames(m)
            assert main(command(tmp_path / "clean")) == 0
        clean = tree(tmp_path / "clean")
        assert len(calls) == len(clean) == len(set(calls))  # one rename per file it leaves
        clean.pop(manifest)
        for k in range(1, len(clean) + 3):
            out = tmp_path / f"out{k}"
            if earlier is not None:
                assert main(earlier(out)) == 0
            before = tree(out) if out.exists() else {}
            with monkeypatch.context() as m:
                calls = self.renames(m, fail_at=k)
                rc = main(command(out))
            if rc == 0:  # k is past the command's last rename
                assert len(calls) == k - 1 and k > 1
                break
            assert rc == 2, k
            after = tree(out)
            assert manifest not in after, k
            assert not [p for p in after if p.endswith(".tmp")], k
            for path, data in after.items():
                assert data in (clean.get(path), before.get(path)), (k, path)
            assert main(command(out)) == 0
            rerun = tree(out)
            assert rerun.pop(manifest)
            assert {path: rerun.pop(path) for path in clean} == clean, k
            assert all(before[path] == data for path, data in rerun.items()), k
        else:
            pytest.fail("the command never finished")

    @pytest.mark.parametrize("again", [False, True], ids=["fresh", "over-earlier"])
    def test_prepare(self, workspace, tmp_path, monkeypatch, again):
        _, prices, _, _ = workspace
        both = two_ticker_prices(prices, tmp_path / "both.csv")

        def prepare(*extra):
            return lambda out: ["prepare", "--prices", str(both), "--out", str(out), "--window", "5", *extra]

        self.check_every_interruption(monkeypatch, tmp_path, prepare(),
                                      earlier=prepare("--lambda", "0.5") if again else None)

    @pytest.mark.parametrize("again", [False, True], ids=["fresh", "over-earlier"])
    def test_cold_run(self, workspace, monkeypatch, again):
        tmp_path, _, data, config = workspace
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**SMALL_CONFIG, "embeddings": [{"kind": "raw"}],
                                     "readouts": [{"kind": "logistic", "regularization": [1.0]}]}))

        def run(path):
            return lambda out: ["run", "--data", str(data), "--config", str(path), "--out", str(out)]

        self.check_every_interruption(monkeypatch, tmp_path, run(config),
                                      earlier=run(other) if again else None)

    @pytest.mark.parametrize("again", [False, True], ids=["fresh", "over-earlier"])
    def test_synth(self, tmp_path, monkeypatch, again):
        def synth(seed):
            return lambda out: ["synth", "--regimes", "50:0.01", "--seed", seed, "--out", str(out / "p.csv")]

        self.check_every_interruption(monkeypatch, tmp_path, synth("4"),
                                      earlier=synth("5") if again else None, manifest="p.csv.manifest.json")
