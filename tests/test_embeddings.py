import json
import re
from pathlib import Path

import numpy as np
import pytest

from qrcvol.embeddings import (
    EchoStateReservoir,
    EmbeddedDataset,
    EmbeddingConfig,
    EsnParams,
    QuantumParams,
    embed_dataset,
    read_embedded,
    write_embedded,
)
from qrcvol.errors import ConfigError, IngestionError
from qrcvol.pipeline import WindowedDataset, load_arrays, save_arrays

from conftest import reference_esn_step


def make_dataset(n_rows=12, w=9, seed=1):
    rng = np.random.default_rng(seed)
    windows = rng.normal(0, 0.02, size=(n_rows, w))
    labels = (rng.uniform(size=n_rows) > 0.7).astype(int)
    return WindowedDataset(
        ticker="T",
        windows=windows,
        labels=labels,
        t_index=np.arange(w - 1, w - 1 + n_rows),
        split_index=int(0.8 * n_rows),
        threshold=1.0,
        lam=1.0,
    )


class TestConfig:
    def test_exactly_one_backend(self):
        with pytest.raises(ConfigError):
            EmbeddingConfig("quantum").validate()
        with pytest.raises(ConfigError):
            EmbeddingConfig("raw", quantum=QuantumParams()).validate()
        with pytest.raises(ConfigError):
            EmbeddingConfig(
                "quantum", quantum=QuantumParams(), esn=EsnParams()
            ).validate()

    def test_esn_domains(self):
        with pytest.raises(ConfigError):
            EmbeddingConfig.make("classical_esn", spectral_radius=1.6)
        with pytest.raises(ConfigError):
            EmbeddingConfig.make("classical_esn", leak_rate=0.0)
        with pytest.raises(ConfigError):
            EmbeddingConfig.make("classical_esn", reservoir_size=5).validate(w=9)

    def test_hash_depends_on_params(self):
        a = EmbeddingConfig.make("quantum", t=1.0)
        b = EmbeddingConfig.make("quantum", t=2.0)
        assert a.cfg_hash() != b.cfg_hash()
        assert a.cfg_hash() == EmbeddingConfig.make("quantum", t=1.0).cfg_hash()

    def test_roundtrip_dict(self):
        cfg = EmbeddingConfig.make("classical_esn", seed=5, leak_rate=0.4)
        assert EmbeddingConfig.make("classical_esn", **cfg.to_dict()["esn"]) == cfg


class TestEmbedDataset:
    def test_raw_passthrough(self):
        ds = make_dataset()
        (rows,) = embed_dataset([ds], EmbeddingConfig.make("raw"))
        assert rows.shape == (12, 9)
        assert np.array_equal(rows, ds.windows)
        # a read-only view, not a copy; the dataset's own array stays writeable
        assert np.shares_memory(rows, ds.windows)
        assert not rows.flags.writeable and ds.windows.flags.writeable

    def test_quantum_dimension(self):
        ds = make_dataset(n_rows=3)
        (rows,) = embed_dataset([ds], EmbeddingConfig.make("quantum"))
        assert rows.shape == (3, 45)
        assert np.all(np.abs(rows) <= 1.0 + 1e-12)

    def test_esn_dimension(self):
        ds = make_dataset()
        (rows,) = embed_dataset([ds], EmbeddingConfig.make("classical_esn", reservoir_size=50))
        assert rows.shape == (12, 50)

    def test_labels_and_order_preserved(self):
        ds = make_dataset()
        for kind in ("raw", "classical_esn"):
            (rows,) = embed_dataset([ds], EmbeddingConfig.make(kind))
            assert len(rows) == len(ds.labels)

    def test_quantum_window_reversal_changes_embedding(self):
        ds = make_dataset(n_rows=1, seed=3)
        rev = make_dataset(n_rows=1, seed=3)
        rev.windows = rev.windows[:, ::-1].copy()
        cfg = EmbeddingConfig.make("quantum")
        a, b = embed_dataset([ds, rev], cfg)
        assert not np.allclose(a[0], b[0])

    def test_quantum_stateless_across_windows(self):
        ds = make_dataset(n_rows=4)
        cfg = EmbeddingConfig.make("quantum")
        (full,) = embed_dataset([ds], cfg)
        single = make_dataset(n_rows=4)
        single.windows = ds.windows[2:3]
        single.labels = ds.labels[2:3]
        single.t_index = ds.t_index[2:3]
        single.split_index = 1
        (alone,) = embed_dataset([single], cfg)
        assert np.array_equal(full[2], alone[0])

    def test_esn_rows_do_not_depend_on_batch(self):
        # unequal lengths and mixed w; the reference steps one dataset alone
        shapes = [(30, 9), (12, 9), (30, 5), (1, 9), (7, 5), (25, 9)]
        datasets = [make_dataset(n, w, seed) for seed, (n, w) in enumerate(shapes)]
        cfg = EmbeddingConfig.make("classical_esn", reservoir_size=30, leak_rate=0.5,
                                   input_scaling=1.5, seed=4)
        r = EchoStateReservoir(cfg.esn)
        expected = []
        for ds in datasets:
            state, rows = np.zeros(cfg.esn.reservoir_size), []
            for win in ds.windows:
                for value in win:
                    state = reference_esn_step(state, value, r.w, r.w_in, cfg.esn)
                rows.append(state)
            expected.append(np.stack(rows))
        for size in (1, 2, len(datasets)):
            for start in range(0, len(datasets), size):
                batch = embed_dataset(datasets[start : start + size], cfg)
                for rows, want in zip(batch, expected[start : start + size]):
                    assert rows.dtype == np.float64
                    assert rows.flags.c_contiguous
                    assert np.array_equal(rows, want)

    def test_esn_same_seed_identical(self):
        ds = make_dataset()
        cfg = EmbeddingConfig.make("classical_esn", seed=42)
        (a,), (b,) = embed_dataset([ds], cfg), embed_dataset([ds], cfg)
        assert np.array_equal(a, b)
        (other,) = embed_dataset([ds], EmbeddingConfig.make("classical_esn", seed=43))
        assert not np.array_equal(a, other)

    def test_empty_dataset_rejected(self):
        ds = make_dataset(n_rows=1)
        ds.windows = ds.windows[:0]
        ds.labels = ds.labels[:0]
        with pytest.raises(ConfigError):
            embed_dataset([ds], EmbeddingConfig.make("raw"))


def test_golden_esn_features():
    # 3 windows of 9 returns drawn by default_rng(61) at sigma 0.005, 0.05
    # and 0.02, under the ESN-50 of the readout-sweep benchmark and the
    # ESN-100 of cache-rerun
    golden = json.loads((Path(__file__).parent / "golden_esn_readout.json").read_text())
    ds = make_dataset(n_rows=3)
    ds.windows = np.array(golden["windows"])
    for case in golden["esn"]:
        (rows,) = embed_dataset([ds], EmbeddingConfig.make("classical_esn", **case["params"]))
        assert np.max(np.abs(rows - case["features"])) <= 1e-12, (
            f"ESN features under {case['params']} changed: a change to features must bump "
            "pipeline.FORMAT_VERSION, so cached embeddings are recomputed, and regenerate "
            "tests/golden_esn_readout.json")


class TestEsnStep:
    def params(self, **kw):
        return EsnParams(**kw)

    def test_zero_fixed_point(self):
        p = self.params()
        res = EchoStateReservoir(p)
        state = np.zeros(p.reservoir_size)
        out = reference_esn_step(state, 0.0, res.w, res.w_in, p)
        assert np.array_equal(out, state)

    def test_leak_one_is_pure_tanh(self):
        p = self.params(leak_rate=1.0, seed=2)
        res = EchoStateReservoir(p)
        state = np.random.default_rng(0).normal(size=p.reservoir_size)
        out = reference_esn_step(state, 0.5, res.w, res.w_in, p)
        expected = np.tanh(res.w @ state + res.w_in * 0.5)
        assert np.array_equal(out, expected)

    def test_update_interval_bounds(self):
        rng = np.random.default_rng(4)
        p = self.params(leak_rate=0.3, seed=6)
        res = EchoStateReservoir(p)
        for _ in range(50):
            state = rng.normal(size=p.reservoir_size)
            out = reference_esn_step(state, float(rng.normal()), res.w, res.w_in, p)
            lo = (1 - p.leak_rate) * state - p.leak_rate
            hi = (1 - p.leak_rate) * state + p.leak_rate
            assert np.all(out > lo - 1e-12) and np.all(out < hi + 1e-12)

    def test_spectral_radius_rescaled(self):
        p = self.params(spectral_radius=0.7, seed=8)
        res = EchoStateReservoir(p)
        radius = np.max(np.abs(np.linalg.eigvals(res.w)))
        assert abs(radius - 0.7) < 1e-10

    def test_echo_state_convergence(self):
        # two different initial states forget their past under the same input
        rng = np.random.default_rng(10)
        p = self.params(spectral_radius=0.95, leak_rate=0.5, seed=12)
        res = EchoStateReservoir(p)
        s1 = rng.normal(size=p.reservoir_size)
        s2 = rng.normal(size=p.reservoir_size)
        d0 = np.linalg.norm(s1 - s2)
        for _ in range(200):
            u = float(rng.normal())
            s1 = reference_esn_step(s1, u, res.w, res.w_in, p)
            s2 = reference_esn_step(s2, u, res.w, res.w_in, p)
        assert np.linalg.norm(s1 - s2) < d0 / 10.0


class TestCache:
    def test_roundtrip(self, tmp_path):
        ds = make_dataset()
        cfg = EmbeddingConfig.make("classical_esn", seed=1)
        (rows,) = embed_dataset([ds], cfg)
        write_embedded(EmbeddedDataset("T", rows, cfg, "abc"), tmp_path)
        back = read_embedded("T", cfg, tmp_path)
        assert (back.ticker, back.config, back.dataset_sha256) == ("T", cfg, "abc")
        assert np.array_equal(back.features, rows)

    def test_miss_returns_none(self, tmp_path):
        assert read_embedded("T", EmbeddingConfig.make("raw"), tmp_path) is None

    @pytest.mark.parametrize("entry", ["features", "dataset_sha256"])
    def test_file_without_entry_raises_naming_it(self, tmp_path, entry):
        cfg = EmbeddingConfig.make("raw")
        path = write_embedded(EmbeddedDataset("T", np.eye(2), cfg, "abc"), tmp_path)
        arrays = load_arrays(path)
        del arrays[entry]
        save_arrays(path, **arrays)
        with pytest.raises(IngestionError, match=re.escape(path)):
            read_embedded("T", cfg, tmp_path)

    @pytest.mark.parametrize("entry, value", [
        ("features", 1.0),
        ("features", np.eye(2, dtype=np.int64)),
        ("features", np.full((2, 2), np.nan)),
        ("dataset_sha256", np.array(["abc", "abc"])),
    ], ids=["features-0d", "features-int", "features-nan", "dataset_sha256-array"])
    def test_malformed_entry_raises_naming_it(self, tmp_path, entry, value):
        cfg = EmbeddingConfig.make("raw")
        path = write_embedded(EmbeddedDataset("T", np.eye(2), cfg, "abc"), tmp_path)
        save_arrays(path, **{**load_arrays(path), entry: value})
        with pytest.raises(IngestionError, match=re.escape(path) + f".*{entry}"):
            read_embedded("T", cfg, tmp_path)
