"""Quick self-test of the benchmark on tiny versions of its workloads.

    python3 -m pytest -q benchmarks/test_bench.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import oracle
import run
import tracing

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

TINY = ((20, 0.005), (10, 0.05)) * 2  # 60 returns, 52 windows per ticker


def tiny(name):
    wl = run.WORKLOADS[name]
    return dataclasses.replace(wl, tickers=min(wl.tickers, 2), regimes=TINY)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_workload_emits_every_metric(name, trace):
    result, env, details = run.run_benchmark(tiny(name), seed=5, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert result["attempted"] >= 9
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert env["seed"] == 5 and set(run.BLAS_ENV) == set(env["blas_env"])
    json.dumps(result)  # plain numbers only


def test_tracing_restores_wrapped_functions():
    modules = run.import_qrcvol()
    before = modules["quantum"].evolve
    tracer = tracing.instrument(tracing.Tracer(), modules)
    assert modules["quantum"].evolve is not before
    tracer.restore()
    assert modules["quantum"].evolve is before


class _LazyFeatures:
    """Program feature rows computed on access, optionally shifted."""

    def __init__(self, quantum, windows, params, shift):
        self.quantum, self.windows, self.params, self.shift = quantum, windows, params, shift

    def __getitem__(self, k):
        row = self.quantum.quantum_embed(self.windows[k], **self.params).values.copy()
        row[k % len(row)] += self.shift
        return row


@pytest.mark.parametrize("shift, failures", [(0.0, 0), (1e-6, 2 * run.ORACLE_WINDOWS)])
def test_oracle_check_fails_corrupted_rows(tmp_path, shift, failures):
    modules = run.import_qrcvol()
    wl = tiny("quantum-cold")
    _, windows = run.write_inputs(wl, 5, str(tmp_path))

    def read_embedded(ticker, cfg, directory):
        params = {k: getattr(cfg.quantum, k) for k in ("a_x", "a_z", "a_zz", "t")}
        return types.SimpleNamespace(
            features=_LazyFeatures(modules["quantum"], windows[ticker], params, shift))

    fake = types.SimpleNamespace(EmbeddingConfig=modules["embeddings"].EmbeddingConfig,
                                 read_embedded=read_embedded)
    checks = run.Checks()
    run.check_quantum_features(wl, 5, windows, str(tmp_path), checks, fake)
    assert checks.attempted == 2 * run.ORACLE_WINDOWS
    assert len(checks.failures) == failures


def test_oracle_features_of_a_trivial_hamiltonian():
    # H = a_x sum X_i on 2 qubits: <Z_i> = cos(2 a_x t), <Z_0 Z_1> = cos(2 a_x t)^2
    f = oracle.features(np.zeros(2), a_x=0.3, a_z=1.0, a_zz=0.5, t=1.0)
    c = np.cos(0.6)
    np.testing.assert_allclose(f, [c, c, c * c], atol=1e-12)


def test_fails_without_source_tree(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "quantum-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_failing_cli_is_reported_not_raised():
    # ridge alpha 0 is rejected by the config validator: every run exits 1
    broken = dataclasses.replace(tiny("cache-rerun"), tickers=1,
                                 readouts=({"kind": "ridge", "regularization": [0.0]},))
    result, _, details = run.run_benchmark(broken, seed=5, seconds=0, trace=0)
    assert not result["correct"]
    assert result["failed"] == len(details["failures"]) >= 3
    assert any(f.startswith("run: exit code 1") for f in details["failures"])
