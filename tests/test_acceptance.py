"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The directional
synthetic comparison (criteria 5 and 6) shares one grid run and
dominates the runtime: on a 2-core host the whole file takes up to 9 s,
depending on load, the grid up to 6 s of it, C2 up to 4 s and C1 under 1 s.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from qrcvol.embeddings import EmbeddingConfig
from qrcvol.harness import GridSpec, run_grid, synth_regime_series
from qrcvol.pipeline import (
    PriceSeries,
    log_returns,
    normalize_and_label,
    prepare_dataset,
    rolling_volatility,
)
from qrcvol.quantum import build_hamiltonian, evolve, measure_features
from qrcvol.readout import _loss_grad_rows, average_precision, fit_logistic, fit_ridge

from conftest import best_cells, kron_hamiltonian, taylor_expm


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_simulator_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        window = rng.normal(0, 0.5, size=n)
        scalers = rng.normal(0, 1.5, size=3)
        t = float(rng.uniform(0, 3))
        out = evolve(build_hamiltonian(window, scalers), t)
        oracle = taylor_expm(-1j * t * kron_hamiltonian(window, scalers))[:, 0]
        worst = max(worst, float(np.max(np.abs(out - oracle))))
    elapsed = time.time() - start
    report(
        "C1 simulator-oracle-equivalence",
        worst < 1e-8 and elapsed < 30,
        f"(max amplitude error {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_2_unitarity_and_feature_bounds():
    rng = np.random.default_rng(102)
    start = time.time()
    worst_norm = 0.0
    feat_min, feat_max = np.inf, -np.inf
    for _ in range(1000):
        window = rng.normal(0, 0.05, size=9)
        scalers = (rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0), rng.uniform(0.1, 1.0))
        t = float(rng.uniform(0.2, 2.5))
        h = build_hamiltonian(window, scalers)
        state = evolve(h, t)
        worst_norm = max(worst_norm, abs(np.linalg.norm(state) - 1.0))
        fv = measure_features(state)
        assert len(fv) == 45
        feat_min = min(feat_min, fv.min())
        feat_max = max(feat_max, fv.max())
    elapsed = time.time() - start
    ok = worst_norm < 1e-10 and feat_min >= -1.0 - 1e-12 and feat_max <= 1.0 + 1e-12 and elapsed < 60
    report(
        "C2 unitarity-and-feature-bounds",
        ok,
        f"(norm error {worst_norm:.2e}, features in [{feat_min:.4f}, {feat_max:.4f}], {elapsed:.1f}s)",
    )


def test_criterion_3_pipeline_fixtures():
    # log returns
    r = log_returns(PriceSeries("T", ["d1", "d2", "d3"], [1.0, np.e, np.e**2]).prices)
    assert np.max(np.abs(r - 1.0)) < 1e-9
    r2 = log_returns(PriceSeries("T", ["d1", "d2"], [100.0, 110.0]).prices)
    assert abs(r2[0] - np.log(1.1)) < 1e-9
    # rolling std
    v = rolling_volatility(np.array([1.0, 2.0, 3.0]), w=3)
    assert abs(v[0] - 1.0) < 1e-9
    v = rolling_volatility(np.array([0.0, 0.0, 2.0]), w=3)
    assert abs(v[0] - 2.0 / np.sqrt(3.0)) < 1e-9
    # normalization / labeling
    labels, tau = normalize_and_label(np.array([1.0, 1.0, 1.0, 1.0, 5.0]), lam=1.0)
    assert np.array_equal(labels, [0, 0, 0, 0, 1])
    # tau = lambda identity on 100 random series
    rng = np.random.default_rng(103)
    for _ in range(100):
        raw = np.abs(rng.normal(size=int(rng.integers(5, 120))))
        lam = float(rng.uniform(0.2, 2.5))
        lbl, tau = normalize_and_label(raw.copy(), lam)
        z = (raw - raw.mean()) / raw.std(ddof=1)
        assert abs(tau - lam) < 1e-8
        assert np.array_equal(lbl, (z > lam).astype(int))
    report("C3 pipeline-fixtures", True, "(all hand-computed fixtures and tau=lambda identity)")


def test_criterion_4_readout_correctness():
    rng = np.random.default_rng(104)
    # ridge normal-equation residual of the fitted weights on standardized rows
    worst_res = 0.0
    for _ in range(50):
        x = rng.normal(size=(30, 6))
        y = rng.choice([-1.0, 1.0], size=30)
        alpha = float(rng.uniform(0.01, 10))
        model = fit_ridge(x, (y + 1.0) / 2.0, alpha)
        xs = model.scaler.transform(x)
        lhs = (xs.T @ xs + alpha * np.eye(6)) @ model.weights
        rhs = xs.T @ y
        worst_res = max(worst_res, np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    assert worst_res < 1e-8
    # logistic gradient vs finite differences
    x = rng.normal(size=(40, 5))
    y = (rng.uniform(size=40) > 0.5).astype(float)
    wb = rng.normal(size=6) * 0.3
    l2 = np.array([0.05])
    grad = _loss_grad_rows(wb[None], x, y, l2)[1][0]
    worst_fd = 0.0
    for k in range(6):
        up, dn = wb.copy(), wb.copy()
        up[k] += 1e-6
        dn[k] -= 1e-6
        fd = (_loss_grad_rows(up[None], x, y, l2)[0][0] - _loss_grad_rows(dn[None], x, y, l2)[0][0]) / 2e-6
        worst_fd = max(worst_fd, abs(fd - grad[k]) / max(1.0, abs(grad[k])))
    assert worst_fd < 1e-5
    # AP fixture
    ap, _ = average_precision([0.9, 0.8, 0.7], [1, 0, 1])
    assert abs(ap - (1.0 + 2.0 / 3.0) / 2.0) < 1e-9
    report(
        "C4 readout-correctness",
        True,
        f"(ridge residual {worst_res:.2e}, grad rel err {worst_fd:.2e}, AP fixture exact)",
    )


ACCEPTANCE_REGIMES = [(120, 0.005), (55, 0.05)] * 4  # 700 returns, both regimes in test split
ACCEPTANCE_GRID = GridSpec(
    embeddings=[
        {"kind": "quantum", "a_x": [1.0], "a_z": [1.0], "a_zz": [0.5], "t": [1.0]},
        {"kind": "classical_esn", "reservoir_size": [50], "spectral_radius": [0.9],
         "leak_rate": [0.3], "input_scaling": [1.0], "seed": [0]},
        {"kind": "raw"},
    ],
    readouts=[
        {"kind": "logistic", "regularization": [1e-2]},
        {"kind": "ridge", "regularization": [1.0]},
    ],
    w=9,
    lam=1.0,
)


@pytest.fixture(scope="module")
def synthetic_report(tmp_path_factory):
    datasets = {}
    for seed in range(10):
        series = synth_regime_series(ACCEPTANCE_REGIMES, seed=seed, ticker=f"SYN{seed}")
        datasets[f"SYN{seed}"] = prepare_dataset(series, w=9, lam=1.0)
    start = time.time()
    rep = run_grid(datasets, ACCEPTANCE_GRID, tmp_path_factory.mktemp("cache"))
    return rep, time.time() - start


def _mean_acc(report_obj, embed_kind, readout_kind):
    return best_cells(report_obj)[embed_kind, readout_kind].mean_accuracy


def test_criterion_5_directional_table_reproduction(synthetic_report):
    rep, elapsed = synthetic_report
    q_log = _mean_acc(rep, "quantum", "logistic")
    raw_log = _mean_acc(rep, "raw", "logistic")
    esn_log = _mean_acc(rep, "classical_esn", "logistic")
    ok = (q_log - raw_log >= 0.05) and (q_log >= esn_log - 0.03) and elapsed < 600
    report(
        "C5 directional-table-reproduction",
        ok,
        f"(quantum+logistic {q_log:.3f} vs raw+logistic {raw_log:.3f} "
        f"vs esn+logistic {esn_log:.3f}, grid {elapsed:.0f}s)",
    )


def test_criterion_6_linear_insufficiency_witness(synthetic_report):
    rep, _ = synthetic_report
    raw_ridge = _mean_acc(rep, "raw", "ridge")
    q_ridge = _mean_acc(rep, "quantum", "ridge")
    report(
        "C6 linear-insufficiency-witness",
        raw_ridge < q_ridge,
        f"(raw+ridge {raw_ridge:.3f} < quantum+ridge {q_ridge:.3f})",
    )


def test_criterion_7_cli_determinism(tmp_path):
    from qrcvol.cli import main

    prices = tmp_path / "prices.csv"
    assert main(["synth", "--regimes", "60:0.005,30:0.05,60:0.005",
                 "--seed", "5", "--out", str(prices)]) == 0
    data = tmp_path / "data"
    assert main(["prepare", "--prices", str(prices), "--out", str(data),
                 "--window", "5"]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 5,
        "window": 5,
        "embeddings": [
            {"kind": "quantum", "a_x": [1.0], "a_z": [1.0], "a_zz": [0.5], "t": [1.0]},
            {"kind": "classical_esn", "reservoir_size": [20], "seed": [0]},
            {"kind": "raw"},
        ],
        "readouts": [{"kind": "logistic", "regularization": [1e-2]}],
    }))
    digests = []
    for name in ("runA", "runB"):
        out = tmp_path / name
        assert main(["run", "--data", str(data), "--config", str(config),
                     "--out", str(out)]) == 0
        blob = b"".join(
            (out / f).read_bytes() for f in ("cells.csv", "per_ticker.csv", "report.txt")
        )
        digests.append(hashlib.sha256(blob).hexdigest())
    report(
        "C7 cli-determinism",
        digests[0] == digests[1],
        f"(report digest {digests[0][:12]})",
    )
