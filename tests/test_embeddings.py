import dataclasses
import itertools
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from qrcvol import harness, quantum
from qrcvol.embeddings import (
    ESN_CHUNK,
    EmbeddingConfig,
    EsnParams,
    cache_filename,
    cached_rows,
    embed_dataset,
    read_embedded,
    reservoir_weights,
    stream_embedded,
    write_embedded,
)
from qrcvol.errors import ConfigError, IngestionError
from qrcvol.harness import synth_regime_series
from qrcvol.pipeline import (
    WindowedDataset,
    load_arrays,
    log_returns,
    normalize_and_label,
    prepare_dataset,
    rolling_volatility,
    save_arrays,
)
from qrcvol.quantum import quantum_embed

from conftest import reference_esn_step, reference_save_arrays


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
    def test_esn_domains(self):
        with pytest.raises(ConfigError):
            EmbeddingConfig.make("classical_esn", spectral_radius=1.6)
        with pytest.raises(ConfigError):
            EmbeddingConfig.make("classical_esn", leak_rate=0.0)

    @pytest.mark.parametrize("kind, params, words", [
        ("raw", {"a_x": 1.0}, "embedding 'raw' takes no parameter 'a_x'"),
        ("quantum", {"bogus": 1}, "embedding 'quantum' takes no parameter 'bogus'"),
        ("classical_esn", {"reservoir_size": 20.5}, "reservoir_size values must be integers"),
        ("classical_esn", {"seed": 1.5}, "seed values must be integers"),
        ("classical_esn", {"input_scaling": float("inf")}, "input_scaling values must be finite numbers"),
    ])
    def test_make_checks_parameter_names_and_types(self, kind, params, words):
        with pytest.raises(ConfigError, match=words):
            EmbeddingConfig.make(kind, **params)

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
        # the dataset's own read-only windows, not a copy
        assert np.shares_memory(rows, ds.windows)
        assert not rows.flags.writeable and not ds.windows.flags.writeable

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
        rev = dataclasses.replace(ds, windows=ds.windows[:, ::-1])
        cfg = EmbeddingConfig.make("quantum")
        a, b = embed_dataset([ds, rev], cfg)
        assert not np.allclose(a[0], b[0])

    def test_quantum_stateless_across_windows(self):
        ds = make_dataset(n_rows=4)
        cfg = EmbeddingConfig.make("quantum")
        (full,) = embed_dataset([ds], cfg)
        single = dataclasses.replace(ds, windows=ds.windows[2:3], labels=ds.labels[2:3],
                                     t_index=ds.t_index[2:3], split_index=1)
        (alone,) = embed_dataset([single], cfg)
        assert np.array_equal(full[2], alone[0])

    def test_esn_rows_do_not_depend_on_batch(self):
        # unequal lengths, mixed w and lengths past ESN_CHUNK; the reference
        # steps one dataset alone
        shapes = [(30, 9), (12, 9), (30, 5), (1, 9), (7, 5), (25, 9), (2 * ESN_CHUNK + 3, 5), (ESN_CHUNK + 1, 9)]
        datasets = [make_dataset(n, w, seed) for seed, (n, w) in enumerate(shapes)]
        cfg = EmbeddingConfig.make("classical_esn", reservoir_size=30, leak_rate=0.5,
                                   input_scaling=1.5, seed=4)
        w, w_in = reservoir_weights(cfg.esn)
        expected = []
        for ds in datasets:
            state, rows = np.zeros(cfg.esn.reservoir_size), []
            for win in ds.windows:
                for value in win:
                    state = reference_esn_step(state, value, w, w_in, cfg.esn)
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
        ds = dataclasses.replace(ds, windows=ds.windows[:0], labels=ds.labels[:0], t_index=ds.t_index[:0])
        with pytest.raises(ConfigError):
            embed_dataset([ds], EmbeddingConfig.make("raw"))


def acceptance_dataset():
    """The first acceptance-schedule ticker: 692 windows of 9 returns."""
    series = synth_regime_series([(120, 0.005), (55, 0.05)] * 4, seed=5, ticker="ACC0")
    return prepare_dataset(series, w=9, lam=1.0)


class TestSignSymmetry:
    """Exact relations under a sign flip (metamorphic tests: Chen et al.,
    ACM Computing Surveys 51(1), 2018).  IEEE arithmetic rounds x and -x
    alike, so each relation holds bit for bit."""

    QUANTUM = [(a_x, a_z, a_zz, t) for a_x in (0.5, 1.0, 2.0)
               for a_z, a_zz, t in ((0.5, 0.25, 0.5), (1.0, 0.5, 1.0), (2.0, 1.0, 2.0))]

    @pytest.fixture(scope="class")
    def windows(self):
        return acceptance_dataset().windows[::7]  # 99 windows of both regimes

    @pytest.mark.parametrize("a_x, a_z, a_zz, t", QUANTUM)
    def test_quantum_features_even_in_the_window(self, windows, a_x, a_z, a_zz, t):
        """H is real and PiZ H(-x) PiZ = -H(x), PiZ the product of every
        Z_i, so the state of -x is PiZ conj(state of x): equal Born
        probabilities."""
        assert np.array_equal(quantum_embed(-windows, a_x, a_z, a_zz, t).values,
                              quantum_embed(windows, a_x, a_z, a_zz, t).values)

    @pytest.mark.parametrize("a_x, a_z, a_zz, t", QUANTUM)
    def test_quantum_features_even_in_a_x(self, windows, a_x, a_z, a_zz, t):
        """PiZ X_i PiZ = -X_i and PiZ |0...0> = |0...0>, so the state under
        -a_x is PiZ (state under a_x): equal Born probabilities."""
        assert np.array_equal(quantum_embed(windows, -a_x, a_z, a_zz, t).values,
                              quantum_embed(windows, a_x, a_z, a_zz, t).values)

    @pytest.mark.parametrize("spectral_radius, leak_rate", [(0.7, 0.3), (0.9, 0.3), (1.1, 1.0)])
    def test_esn_rows_odd_in_the_series(self, spectral_radius, leak_rate):
        """tanh is odd, the reservoir has no bias and its state starts at
        zero, so the negated return series drives it through the negated
        states."""
        ds = acceptance_dataset()
        negated = dataclasses.replace(ds, windows=-ds.windows)
        cfg = EmbeddingConfig.make("classical_esn", spectral_radius=spectral_radius, leak_rate=leak_rate)
        (rows,), (negated_rows,) = embed_dataset([ds], cfg), embed_dataset([negated], cfg)
        assert np.array_equal(negated_rows, -rows)

    def test_labels_even_in_the_returns(self):
        """A sample std is even: negated returns have negated means and
        deviations, and equal squares."""
        returns = log_returns(synth_regime_series([(120, 0.005), (55, 0.05)] * 4, seed=5).prices)
        labels, tau = normalize_and_label(rolling_volatility(returns, 9), 1.0)
        negated, negated_tau = normalize_and_label(rolling_volatility(-returns, 9), 1.0)
        assert np.array_equal(negated, labels) and negated_tau == tau


def doubled_configs():
    """(a_x, a_z, a_zz, t) of the default quantum template whose
    (2 a_x, 2 a_z, 2 a_zz, t/2) is in the template too."""
    tpl = harness.DEFAULT_GRID_EMBEDDINGS[0]
    configs = set(itertools.product(tpl["a_x"], tpl["a_z"], tpl["a_zz"], tpl["t"]))
    return sorted(cfg for cfg in configs if (2 * cfg[0], 2 * cfg[1], 2 * cfg[2], cfg[3] / 2) in configs)


class TestRescalingSymmetry:
    """Relations of the quantum features under rescaling, time reversal and
    qubit order (metamorphic tests, as TestSignSymmetry)."""

    DOUBLED = doubled_configs()
    CONFIGS = [(1.0, 1.0, 0.5, 1.0)]

    @pytest.fixture(scope="class")
    def windows(self):
        return acceptance_dataset().windows[::7]  # 99 windows of both regimes

    def test_sixteen_doubled_symmetry_pairs_in_the_default_template(self):
        assert len(self.DOUBLED) == 16

    @pytest.mark.parametrize("a_x, a_z, a_zz, t", DOUBLED)
    def test_power_of_two_rescaling_symmetry_bit_for_bit(self, windows, a_x, a_z, a_zz, t):
        """Scaling by 2 is exact in IEEE arithmetic, barring overflow and
        underflow: H's diagonal, its Gershgorin center c and radius r all
        double exactly, so the scaled H' = (H - c)/r, a_x/r, r t and c t,
        and with them every Chebyshev coefficient and step, are the same
        bits."""
        assert np.array_equal(quantum_embed(windows, 2 * a_x, 2 * a_z, 2 * a_zz, t / 2).values,
                              quantum_embed(windows, a_x, a_z, a_zz, t).values)

    @pytest.mark.parametrize("a_x, a_z, a_zz, t", CONFIGS)
    def test_rescaling_by_three_symmetry(self, windows, a_x, a_z, a_zz, t):
        """e^{-i(3H)(t/3)} = e^{-iHt}; 3a and t/3 round, so only to 1e-12."""
        features = quantum_embed(windows, a_x, a_z, a_zz, t).values
        rescaled = quantum_embed(windows, 3 * a_x, 3 * a_z, 3 * a_zz, t / 3).values
        assert np.max(np.abs(rescaled - features)) <= 1e-12

    @pytest.mark.parametrize("a_x, a_z, a_zz, t", CONFIGS)
    def test_time_reversal_symmetry(self, windows, a_x, a_z, a_zz, t):
        """H is real, so e^{iHt}|0...0> = conj(e^{-iHt}|0...0>): equal Born
        probabilities.  The series for -t rounds apart, so to 1e-12."""
        features = quantum_embed(windows, a_x, a_z, a_zz, t).values
        assert np.max(np.abs(quantum_embed(windows, a_x, a_z, a_zz, -t).values - features)) <= 1e-12

    @pytest.mark.parametrize("a_x, a_z, a_zz, t", CONFIGS)
    def test_qubit_order_symmetry(self, windows, a_x, a_z, a_zz, t):
        """The reversed window's H is P H P, P the qubit-order reversal,
        which fixes |0...0>: its Z_i is Z_{n-1-i} of the window, and its
        Z_i Z_j is Z_{n-1-j} Z_{n-1-i}.  The diagonal sums its terms in
        another order, so to 1e-12."""
        n = windows.shape[1]
        pairs = {pair: n + k for k, pair in enumerate(zip(*np.triu_indices(n, k=1)))}
        relabel = [n - 1 - i for i in range(n)] + [pairs[n - 1 - j, n - 1 - i] for i, j in pairs]
        features = quantum_embed(windows, a_x, a_z, a_zz, t).values
        reversed_features = quantum_embed(windows[:, ::-1], a_x, a_z, a_zz, t).values
        assert np.max(np.abs(reversed_features - features[:, relabel])) <= 1e-12


def test_negation_symmetry_bounds_esn_and_raw_accuracy():
    """Every readout predicts positive where an affine function s of the
    features exceeds 0.  ESN and raw rows are odd in the returns (see
    TestSignSymmetry) and the labels even, so on a test set closed under
    negation each pair of rows x, -x shares its label and s(x) + s(-x) =
    2 s(0).  If s(0) > 0, each negative pair has a row predicted positive;
    else each positive pair has a row predicted negative.  So accuracy is
    at most 1 - min(p, 1 - p)/2, p the positive share."""
    ds = acceptance_dataset()
    negated = dataclasses.replace(ds, windows=-ds.windows)
    grid = harness.GridSpec(harness.DEFAULT_GRID_EMBEDDINGS[1:], harness.DEFAULT_GRID_READOUTS)
    k = ds.split_index
    labels = np.concatenate([ds.labels[k:], ds.labels[k:]])
    p = labels.mean()
    assert 0 < p < 1
    for cfg in grid.configs:
        rows, negated_rows = embed_dataset([ds, negated], cfg)
        closed = np.concatenate([rows[k:], negated_rows[k:]])
        for kind, regs in grid.paths:
            models = harness.FIT_PATH[kind](rows[:k], ds.labels[:k], regs)
            for reg, res in zip(regs, harness.evaluate_path(models, closed, labels)):
                assert res.accuracy <= 1 - min(p, 1 - p) / 2, (cfg, kind, reg)


def test_golden_esn_features():
    # 3 windows of 9 returns drawn by default_rng(61) at sigma 0.005, 0.05
    # and 0.02, under the ESN-50 of the readout-sweep benchmark and the
    # ESN-100 of cache-rerun
    golden = json.loads((Path(__file__).parent / "golden_esn_readout.json").read_text())
    ds = dataclasses.replace(make_dataset(n_rows=3), windows=np.array(golden["windows"]))
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
        w, w_in = reservoir_weights(p)
        state = np.zeros(p.reservoir_size)
        out = reference_esn_step(state, 0.0, w, w_in, p)
        assert np.array_equal(out, state)

    def test_leak_one_is_pure_tanh(self):
        p = self.params(leak_rate=1.0, seed=2)
        w, w_in = reservoir_weights(p)
        state = np.random.default_rng(0).normal(size=p.reservoir_size)
        out = reference_esn_step(state, 0.5, w, w_in, p)
        expected = np.tanh(w @ state + w_in * 0.5)
        assert np.array_equal(out, expected)

    def test_update_interval_bounds(self):
        rng = np.random.default_rng(4)
        p = self.params(leak_rate=0.3, seed=6)
        w, w_in = reservoir_weights(p)
        for _ in range(50):
            state = rng.normal(size=p.reservoir_size)
            out = reference_esn_step(state, float(rng.normal()), w, w_in, p)
            lo = (1 - p.leak_rate) * state - p.leak_rate
            hi = (1 - p.leak_rate) * state + p.leak_rate
            assert np.all(out > lo - 1e-12) and np.all(out < hi + 1e-12)

    def test_spectral_radius_rescaled(self):
        p = self.params(spectral_radius=0.7, seed=8)
        w, _ = reservoir_weights(p)
        radius = np.max(np.abs(np.linalg.eigvals(w)))
        assert abs(radius - 0.7) < 1e-10

    def test_echo_state_convergence(self):
        # two different initial states forget their past under the same input
        rng = np.random.default_rng(10)
        p = self.params(spectral_radius=0.95, leak_rate=0.5, seed=12)
        w, w_in = reservoir_weights(p)
        s1 = rng.normal(size=p.reservoir_size)
        s2 = rng.normal(size=p.reservoir_size)
        d0 = np.linalg.norm(s1 - s2)
        for _ in range(200):
            u = float(rng.normal())
            s1 = reference_esn_step(s1, u, w, w_in, p)
            s2 = reference_esn_step(s2, u, w, w_in, p)
        assert np.linalg.norm(s1 - s2) < d0 / 10.0


class TestCache:
    def test_roundtrip(self, tmp_path):
        ds = make_dataset()
        cfg = EmbeddingConfig.make("classical_esn", seed=1)
        (rows,) = embed_dataset([ds], cfg)
        write_embedded("T", cfg, tmp_path, "abc", rows)
        back = read_embedded("T", cfg, tmp_path)
        assert back.dataset_sha256 == "abc"
        assert np.array_equal(back.features, rows)

    def test_rows_of_the_dataset(self, tmp_path):
        cfg = EmbeddingConfig.make("raw")
        path = write_embedded("T", cfg, tmp_path, "abc", np.eye(2))
        cached = read_embedded("T", cfg, tmp_path)
        ds = make_dataset(2, 2)
        assert np.array_equal(cached_rows(cached, "T", cfg, tmp_path, "abc", ds), np.eye(2))
        assert cached_rows(cached, "T", cfg, tmp_path, "other", ds) is None
        assert cached_rows(None, "T", cfg, tmp_path, "abc", ds) is None
        with pytest.raises(IngestionError, match=re.escape(path) + ".*2 feature rows of 2 columns, "
                           "its dataset and config give 3 of 2"):
            cached_rows(cached, "T", cfg, tmp_path, "abc", make_dataset(3, 2))
        with pytest.raises(IngestionError, match=re.escape(path) + ".*give 2 of 3"):
            cached_rows(cached, "T", cfg, tmp_path, "abc", make_dataset(2, 3))

    def test_rows_must_be_float64(self, tmp_path):
        cfg = EmbeddingConfig.make("raw")
        for rows in (np.eye(2, dtype=np.float32), np.eye(2, dtype=np.int64)):
            with pytest.raises(ValueError, match="features"):
                write_embedded("T", cfg, tmp_path, "abc", rows)
        assert os.listdir(tmp_path) == []

    def test_miss_returns_none(self, tmp_path):
        assert read_embedded("T", EmbeddingConfig.make("raw"), tmp_path) is None

    @pytest.mark.parametrize("entry", ["features", "dataset_sha256"])
    def test_file_without_entry_raises_naming_it(self, tmp_path, entry):
        cfg = EmbeddingConfig.make("raw")
        path = write_embedded("T", cfg, tmp_path, "abc", np.eye(2))
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
        path = write_embedded("T", cfg, tmp_path, "abc", np.eye(2))
        save_arrays(path, **{**load_arrays(path), entry: value})
        with pytest.raises(IngestionError, match=re.escape(path) + f".*{entry}"):
            read_embedded("T", cfg, tmp_path)


class TestStreamEmbedded:
    """stream_embedded writes, block by block, the bytes that write_embedded
    and the zipfile oracle write for embed_dataset's whole rows."""

    def assert_stream_bytes_equal(self, tmp_path, datasets, cfg):
        batch = [(f"T{j}", ds, f"sha{j}") for j, ds in enumerate(datasets)]
        for name in ("stream", "write", "oracle"):
            (tmp_path / name).mkdir()
        stream_embedded(batch, cfg, tmp_path / "stream")
        for (ticker, _, sha), rows in zip(batch, embed_dataset(datasets, cfg)):
            name = cache_filename(ticker, cfg)
            reference_save_arrays(tmp_path / "oracle" / name, features=rows, dataset_sha256=sha)
            written = Path(write_embedded(ticker, cfg, tmp_path / "write", sha, rows)).read_bytes()
            streamed = (tmp_path / "stream" / name).read_bytes()
            assert streamed == written == (tmp_path / "oracle" / name).read_bytes()
        assert sorted(os.listdir(tmp_path / "stream")) == sorted(os.listdir(tmp_path / "oracle"))

    def test_stream_esn_bytes(self, tmp_path):
        # unequal lengths, mixed w, and lengths that are not multiples of ESN_CHUNK
        shapes = [(2 * ESN_CHUNK + 5, 9), (ESN_CHUNK, 9), (3, 5), (ESN_CHUNK + 1, 5), (40, 9)]
        datasets = [make_dataset(n, w, seed) for seed, (n, w) in enumerate(shapes)]
        self.assert_stream_bytes_equal(tmp_path, datasets, EmbeddingConfig.make("classical_esn", reservoir_size=12))

    def test_stream_quantum_bytes(self, tmp_path):
        # more than quantum.BLOCK windows, and not a multiple of it
        datasets = [make_dataset(2 * quantum.BLOCK + 7, 4, seed=3), make_dataset(5, 4, seed=4)]
        self.assert_stream_bytes_equal(tmp_path, datasets, EmbeddingConfig.make("quantum"))

    def test_stream_raw_bytes(self, tmp_path):
        datasets = [make_dataset(30, 9, seed=5), make_dataset(70, 5, seed=6)]
        self.assert_stream_bytes_equal(tmp_path, datasets, EmbeddingConfig.make("raw"))

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to count open files")
    def test_stream_failure_leaves_no_file(self, tmp_path, monkeypatch):
        # the second dataset's embedding raises, after the first's rows are written
        real = quantum.quantum_embed
        calls = []

        def failing_embed(*args):
            calls.append(len(args[0]))
            if len(calls) == 2:
                raise RuntimeError("embedding failed")
            return real(*args)

        monkeypatch.setattr(quantum, "quantum_embed", failing_embed)
        datasets = [make_dataset(quantum.BLOCK + 1, 4, seed=1), make_dataset(quantum.BLOCK + 3, 4, seed=2)]
        open_files = len(os.listdir("/proc/self/fd"))
        with pytest.raises(RuntimeError, match="embedding failed"):
            stream_embedded([("A", datasets[0], "a"), ("B", datasets[1], "b")], EmbeddingConfig.make("quantum"),
                            tmp_path)
        assert calls == [quantum.BLOCK + 1, quantum.BLOCK + 3]
        assert os.listdir(tmp_path) == []
        assert len(os.listdir("/proc/self/fd")) == open_files
