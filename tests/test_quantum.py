import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qrcvol import harness, quantum
from qrcvol.errors import InputShapeError, ResourceError, StateError
from qrcvol.pipeline import prepare_dataset
from qrcvol.quantum import build_hamiltonian, evolve, measure_features, quantum_embed

from conftest import dense, kron_hamiltonian, random_state, random_window_scalers, taylor_expm, zero_state


class TestBuildHamiltonian:
    def test_all_zero_coefficients(self):
        h = build_hamiltonian((0.0, 0.0), scalers=(0.0, 1.0, 1.0))
        assert np.array_equal(dense(h), np.zeros((4, 4)))

    def test_antisymmetric_window_drops_zz(self):
        h = dense(build_hamiltonian((0.5, -0.5), scalers=(1.0, 1.0, 1.0)))
        no_zz = kron_hamiltonian((0.5, -0.5), (1.0, 1.0, 0.0))
        assert np.array_equal(h, no_zz)

    def test_three_qubit_substitution(self):
        h = dense(build_hamiltonian((1.0, 1.0, 1.0), scalers=(2.0, 3.0, 4.0)))
        # 2 sum X_i + 3 sum Z_i + 8 (Z_0 Z_1 + Z_1 Z_2)
        z = 1.0 - 2.0 * ((np.arange(8)[:, None] >> np.arange(3)) & 1)
        diag = 3.0 * z.sum(axis=1) + 8.0 * (z[:, 0] * z[:, 1] + z[:, 1] * z[:, 2])
        one_flip = np.array([[bin(a ^ b).count("1") == 1 for b in range(8)] for a in range(8)])
        assert np.array_equal(h, np.diag(diag) + 2.0 * one_flip)

    def test_matches_kronecker_oracle_exactly(self):
        rng = np.random.default_rng(5)
        for n in range(1, 6):
            for _ in range(20):
                window, scalers = random_window_scalers(rng, n)
                h = build_hamiltonian(window, scalers)
                assert h.diag.dtype == np.float64
                assert np.array_equal(dense(h), kron_hamiltonian(window, scalers))

    def test_non_finite_scaler(self):
        with pytest.raises(InputShapeError):
            build_hamiltonian((1.0,), scalers=(np.inf, 1, 1))

    def test_scalar_window_rejected(self):
        with pytest.raises(InputShapeError, match="1-D array"):
            build_hamiltonian(0.1, scalers=(1.0, 1.0, 0.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_window(self, bad):
        with pytest.raises(InputShapeError):
            build_hamiltonian((0.1, bad, 0.2), scalers=(1.0, 1.0, 0.5))
        windows = np.zeros((3, 4))
        windows[2, 1] = bad
        with pytest.raises(InputShapeError):
            build_hamiltonian(windows, scalers=(1.0, 1.0, 0.5))

    def test_batch_rows_match_single_windows(self):
        rng = np.random.default_rng(9)
        windows = rng.normal(size=(2, 3, 4))
        h = build_hamiltonian(windows, (0.7, 1.2, -0.4))
        assert h.diag.shape == (2, 3, 16)
        for j, k in itertools.product(range(2), range(3)):
            single = build_hamiltonian(windows[j, k], (0.7, 1.2, -0.4))
            assert np.array_equal(h.diag[j, k], single.diag)


class TestAssembleDense:
    def test_single_z(self):
        mat = dense(build_hamiltonian((1.0,), (0.0, 1.0, 0.0)))
        assert np.array_equal(mat, np.diag([1.0, -1.0]))

    def test_single_x(self):
        mat = dense(build_hamiltonian((0.0,), (1.0, 0.0, 0.0)))
        assert np.array_equal(mat, [[0.0, 1.0], [1.0, 0.0]])

    def test_zz_two_qubits(self):
        mat = dense(build_hamiltonian((0.5, 0.5), (0.0, 0.0, 1.0)))
        assert np.array_equal(mat, np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_qubit0_is_lsb(self):
        # Z on qubit 0 flips sign exactly on odd basis indices
        mat = dense(build_hamiltonian((1.0, 0.0), (0.0, 1.0, 0.0)))
        assert np.array_equal(np.diag(mat), [1.0, -1.0, 1.0, -1.0])

    def test_hermiticity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            window, scalers = random_window_scalers(rng, int(rng.integers(1, 5)))
            mat = dense(build_hamiltonian(window, scalers))
            assert np.array_equal(mat, mat.T)

    def test_resource_guard(self):
        with pytest.raises(ResourceError):
            build_hamiltonian(np.zeros(15), (1.0, 1.0, 1.0))


class TestEvolve:
    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(InputShapeError, match="evolution time must be finite"):
            evolve(build_hamiltonian((0.1, 0.2), (1.0, 1.0, 0.5)), t)

    @pytest.mark.parametrize("diag", [np.zeros((2, 6)), np.zeros(3), np.zeros((2, 0)), np.array(0.5)],
                             ids=["6 amplitudes", "3 amplitudes", "no amplitudes", "0-d"])
    def test_state_of_other_than_2_to_the_n_amplitudes_rejected(self, diag):
        with pytest.raises(InputShapeError, match="2\\^n amplitudes"):
            evolve(quantum.Hamiltonian(diag, 1.0), 1.0)

    def test_empty_hamiltonian_identity(self):
        out = evolve(build_hamiltonian(np.zeros(3), (0.0, 1.0, 1.0)), t=2.7)
        assert np.array_equal(out, zero_state(3))

    def test_x_rotation_quarter_period(self):
        h = build_hamiltonian((0.0,), (1.0, 0.0, 0.0))
        out = evolve(h, t=np.pi / 4)
        expected = np.array([np.cos(np.pi / 4), -1j * np.sin(np.pi / 4)])
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_z_eigenstate_only_phase(self):
        h = build_hamiltonian((0.83,), (0.0, 1.0, 0.0))
        out = evolve(h, t=5.21)
        assert abs(measure_features(out)[0] - 1.0) < 1e-12

    def test_norm_preservation(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            window = rng.normal(size=n)
            h = build_hamiltonian(window, scalers=rng.normal(size=3))
            out = evolve(h, t=float(rng.uniform(0, 3)))
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    def test_matches_taylor_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            window, scalers = random_window_scalers(rng, n)
            t = float(rng.uniform(0, 2))
            out = evolve(build_hamiltonian(window, scalers), t)
            oracle = taylor_expm(-1j * t * kron_hamiltonian(window, scalers))[:, 0]
            assert np.max(np.abs(out - oracle)) < 1e-8

    def test_matches_scipy_expm(self):
        import scipy.linalg

        rng = np.random.default_rng(13)
        window, scalers = random_window_scalers(rng, 3)
        out = evolve(build_hamiltonian(window, scalers), 1.3)
        oracle = scipy.linalg.expm(-1j * 1.3 * kron_hamiltonian(window, scalers))[:, 0]
        assert np.max(np.abs(out - oracle)) < 1e-10

    @pytest.mark.parametrize("t", [1.7, -0.6])
    def test_batch_of_states_matches_taylor_oracle(self, t):
        # leading axes (2, 3): each state evolves under its own window's H
        rng = np.random.default_rng(31)
        windows = rng.normal(0, 0.5, size=(2, 3, 4))
        scalers = (-1.3, 0.8, 1.1)
        out = evolve(build_hamiltonian(windows, scalers), t)
        assert out.shape == (2, 3, 16)
        for j, k in itertools.product(range(2), range(3)):
            oracle = taylor_expm(-1j * t * kron_hamiltonian(windows[j, k], scalers))[:, 0]
            assert np.max(np.abs(out[j, k] - oracle)) < 1e-8

    def test_block_rows_equal_windows_evolved_alone(self):
        # returns of 1e-3 next to returns of 1.0: the block's series have different lengths
        rng = np.random.default_rng(41)
        scale = np.where(rng.random(7) < 0.5, 1e-3, 1.0)
        h = build_hamiltonian(rng.normal(0, 0.4, size=(7, 5)) * scale[:, None], (1.2, 0.9, 0.5))
        out = evolve(h, 1.9)
        assert out.shape == (7, 32)
        for j in range(7):
            assert np.array_equal(out[j], evolve(quantum.Hamiltonian(h.diag[j], h.a_x), 1.9))

    @pytest.mark.parametrize("scalers, window", [
        ((1e6, 1.0, 0.5), (0.1, 0.2)),       # a_x * t far beyond the guard
        ((1.0, 1e308, 0.5), (10.0, -10.0)),  # the diagonal overflows to +-inf
    ])
    def test_phase_guard_allocates_nothing_large(self, scalers, window):
        with np.errstate(over="ignore", invalid="ignore"):
            h = build_hamiltonian(window, scalers)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError):
                evolve(h, t=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def evolve_radius(diag, a_x):
    """The spectral radius evolve finds for each row of a diagonal (m, 2^n), by its own formula."""
    n = diag.shape[-1].bit_length() - 1
    lo = diag.min(axis=1) - n * abs(a_x)
    hi = diag.max(axis=1) + n * abs(a_x)
    return (hi - lo) / 2


class TestRadiusBound:
    def test_bounds_evolve_radius_of_default_grid(self):
        # every default quantum config on two acceptance-schedule tickers
        tpl = harness.DEFAULT_GRID_EMBEDDINGS[0]
        for seed in (0, 1):
            series = harness.synth_regime_series([(120, 0.005), (55, 0.05)] * 4, seed=seed)
            windows = prepare_dataset(series, w=9).windows
            for a_z, a_zz in itertools.product(tpl["a_z"], tpl["a_zz"]):
                diag = build_hamiltonian(windows, (0.0, a_z, a_zz)).diag
                for a_x, t in itertools.product(tpl["a_x"], tpl["t"]):
                    exact = evolve_radius(diag, a_x).max() * t
                    bound = quantum.radius_bound(windows, a_x, a_z, a_zz) * t
                    assert exact <= bound <= 1.07 * exact, (seed, a_x, a_z, a_zz, t)

    def test_bounds_evolve_radius_of_any_sign(self):
        rng = np.random.default_rng(11)
        for n in range(2, 7):
            windows = rng.normal(0, 1.0, size=(20, n))
            for _ in range(10):
                a_x, a_z, a_zz = rng.normal(0, 2.0, size=3)
                diag = build_hamiltonian(windows, (a_x, a_z, a_zz)).diag
                assert evolve_radius(diag, a_x).max() <= quantum.radius_bound(windows, a_x, a_z, a_zz)


class TestMeasureFeatures:
    def test_basis_state_00(self):
        fv = measure_features(zero_state(2))
        assert np.array_equal(fv, [1.0, 1.0, 1.0])

    def test_basis_state_qubit1_set(self):
        amps = np.zeros(4, dtype=complex)
        amps[2] = 1.0  # bit 1 set, bit 0 clear
        fv = measure_features(amps)
        assert np.array_equal(fv, [1.0, -1.0, -1.0])

    def test_bell_state(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = 1 / np.sqrt(2)
        fv = measure_features(amps)
        assert np.max(np.abs(fv - np.array([0.0, 0.0, 1.0]))) < 1e-12

    def test_feature_ordering(self):
        # basis state with qubits 1 and 3 set: <Z_i Z_j> = -1 exactly when
        # one of i, j is in {1, 3}, listed in (0,1) (0,2) (0,3) (1,2) (1,3) (2,3) order
        amps = np.zeros(16, dtype=complex)
        amps[0b1010] = 1.0
        fv = measure_features(amps)
        assert np.array_equal(fv, [1, -1, 1, -1, -1, 1, -1, -1, 1, -1])

    @pytest.mark.parametrize("amps", [np.ones(6) / np.sqrt(6), np.ones((2, 3)) / np.sqrt(3), np.array(1.0)],
                             ids=["6 amplitudes", "3 amplitudes", "0-d"])
    def test_rejects_state_of_other_than_2_to_the_n_amplitudes(self, amps):
        with pytest.raises(InputShapeError, match="2\\^n amplitudes"):
            measure_features(amps)

    def test_rejects_unnormalized_state(self):
        with pytest.raises(StateError):
            measure_features(np.array([1.0, 1.0], dtype=complex))

    def test_bounds_random_states(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            fv = measure_features(random_state(rng, n))
            assert np.all(fv >= -1.0 - 1e-12)
            assert np.all(fv <= 1.0 + 1e-12)

    def test_product_state_factorization(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            singles = []
            for _ in range(n):
                v = rng.normal(size=2) + 1j * rng.normal(size=2)
                singles.append(v / np.linalg.norm(v))
            amps = singles[0]
            for v in singles[1:]:
                amps = np.kron(v, amps)  # qubit 0 stays the LSB
            fv = measure_features(amps)
            z = fv[:n]
            for k, (i, j) in enumerate(itertools.combinations(range(n), 2)):
                assert abs(fv[n + k] - z[i] * z[j]) < 1e-10


class TestQuantumEmbed:
    @pytest.mark.parametrize("windows", [np.zeros((2, 3, 4)), np.zeros((0, 4)), np.zeros(0)])
    def test_rejects_windows_of_other_shape(self, windows):
        with pytest.raises(InputShapeError, match="expected a window"):
            quantum_embed(windows, 1.0, 1.0, 0.5, 1.0)

    def test_no_dynamics_all_ones(self):
        fv = quantum_embed(np.zeros(4), a_x=0.0, a_z=1.0, a_zz=0.5, t=1.0)
        assert np.max(np.abs(fv.values - 1.0)) < 1e-12

    def test_rabi_oracle_single_qubit(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            x0 = float(rng.normal())
            t = float(rng.uniform(0, 3))
            fv = quantum_embed([x0], a_x=1.0, a_z=1.0, a_zz=0.0, t=t)
            omega = np.sqrt(1.0 + x0**2)
            expected = 1.0 - 2.0 * (np.sin(omega * t) ** 2) / omega**2
            assert abs(fv.values[0] - expected) < 1e-10

    def test_feature_count_nine_qubits(self):
        fv = quantum_embed(np.linspace(-0.1, 0.1, 9), 1.0, 1.0, 0.5, 1.0)
        assert len(fv.values) == 45

    def test_batch_rows_match_single_windows(self):
        # 300 windows span several evolve blocks of quantum.BLOCK windows
        windows = np.random.default_rng(37).normal(0, 0.3, size=(300, 6))
        batch = quantum_embed(windows, 1.4, 0.9, 0.6, 1.3)
        assert batch.values.shape == (300, 21)
        single = np.stack([quantum_embed(w, 1.4, 0.9, 0.6, 1.3).values for w in windows])
        assert np.max(np.abs(batch.values - single)) < 1e-13

    @pytest.mark.parametrize("block", [5, 64, 128])
    def test_rows_do_not_depend_on_block_split(self, monkeypatch, block):
        # returns of 1e-3 next to returns of 1.0: one block holds states
        # whose series have different lengths
        rng = np.random.default_rng(43)
        scale = np.where(rng.random(150) < 0.5, 1e-3, 1.0)
        windows = rng.normal(size=(150, 6)) * scale[:, None]
        monkeypatch.setattr(quantum, "BLOCK", 1)
        one = quantum_embed(windows, 1.1, 1.0, 0.5, 1.4).values
        monkeypatch.setattr(quantum, "BLOCK", block)
        assert np.array_equal(quantum_embed(windows, 1.1, 1.0, 0.5, 1.4).values, one)

    def test_working_set_bound_per_block(self):
        # about 8 arrays of BLOCK x 2^9 float64 live at once; a copy of
        # |0...0> or of an operand per window would break the bound
        windows = np.random.default_rng(47).normal(0, 0.02, size=(173, 9))
        quantum_embed(windows, 2.0, 1.0, 0.5, 2.0)  # fill the module's sign tables
        tracemalloc.start()
        try:
            quantum_embed(windows, 2.0, 1.0, 0.5, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * quantum.BLOCK * 2**9 * 8

    def test_golden_features(self):
        # 3 seeded 9-return windows (sigma 0.005, sigma 0.05, and 5 then 4
        # returns of each) under the two configs of the quantum-cold benchmark
        golden = json.loads((Path(__file__).parent / "golden_quantum_features.json").read_text())
        for cfg in golden["configs"]:
            values = quantum_embed(golden["windows"], **cfg["params"]).values
            assert np.max(np.abs(values - cfg["features"])) <= 1e-12, (
                f"quantum features under {cfg['params']} changed: a change to features must bump "
                "pipeline.FORMAT_VERSION, so cached embeddings are recomputed, and regenerate "
                "tests/golden_quantum_features.json")

    @pytest.mark.parametrize("a_x, t", [(1.0, 1.0), (2.0, 2.0)])
    def test_nine_qubit_windows_match_expm_oracle(self, a_x, t):
        import scipy.linalg

        windows = np.random.default_rng(53).normal(0, [[0.005], [0.05]], size=(2, 9))
        values = quantum_embed(windows, a_x, 1.0, 0.5, t).values
        signs = 1.0 - 2.0 * ((np.arange(2**9)[:, None] >> np.arange(9)) & 1)
        for window, row in zip(windows, values):
            psi = scipy.linalg.expm(-1j * t * kron_hamiltonian(window, (a_x, 1.0, 0.5)))[:, 0]
            probs = np.abs(psi) ** 2
            oracle = [probs @ signs[:, i] for i in range(9)]
            oracle += [probs @ (signs[:, i] * signs[:, j]) for i, j in itertools.combinations(range(9), 2)]
            assert np.max(np.abs(row - oracle)) < 1e-8

    def test_determinism(self):
        window = np.random.default_rng(29).normal(size=5)
        a = quantum_embed(window, 1.1, 0.9, 0.4, 1.7)
        b = quantum_embed(window, 1.1, 0.9, 0.4, 1.7)
        assert np.array_equal(a.values, b.values)


def test_cli_import_does_not_load_scipy():
    import qrcvol

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qrcvol.__file__)))
    code = "import sys, qrcvol.cli; assert 'scipy' not in sys.modules, 'scipy imported'"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
