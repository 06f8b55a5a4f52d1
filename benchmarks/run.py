"""Benchmark of qrcvol: generate prices, `prepare`, `run`, then re-run warm.

    python3 benchmarks/run.py --workload quantum-cold --seed 1 --seconds 32 --trace 0

Run from anywhere; it works on the checkout that contains it and reads and
writes only there (scratch files go to .bench_work/).  With --trace 0 each
CLI call runs in a fresh process, one at a time, and the end-to-end
metrics are printed; with --trace 1 the same workload runs in-process,
untraced, traced and untraced again, and the per-layer metrics are printed.
The last line of stdout is the result JSON; the line before it holds the
environment.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

WINDOW = 9
SETUP_PROBES = 5
RERUN_S = 4.0  # per pass, warm runs repeat until they have this much time
ORACLE_WINDOWS = 3  # per quantum config
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# the regime schedule of the acceptance tests: 700 returns, 692 windows at w=9
ACCEPTANCE = ((120, 0.005), (55, 0.05)) * 4


def _quantum(a_x, t):
    return {"kind": "quantum", "a_x": [a_x], "a_z": [1.0], "a_zz": [0.5], "t": [t]}


def _esn(size):
    return {"kind": "classical_esn", "reservoir_size": [size], "spectral_radius": [0.9],
            "leak_rate": [0.3], "input_scaling": [1.0], "seed": [0]}


def _path(low, high):
    return [float(v) for v in np.geomspace(low, high, 10)]


@dataclass(frozen=True)
class Workload:
    name: str
    tickers: int
    regimes: tuple  # ((returns, sigma), ...) per ticker
    embeddings: tuple  # grid-config templates
    readouts: tuple
    reservoir: str  # embedding kind reported as acc.reservoir / ap.reservoir
    stride: int = 1

    @property
    def windows(self) -> int:
        """Windows per ticker."""
        return len(range(0, sum(length for length, _ in self.regimes) - WINDOW + 1, self.stride))

    @property
    def embedding_configs(self) -> int:
        return sum(int(np.prod([len(v) for k, v in t.items() if k != "kind"])) for t in self.embeddings)

    @property
    def readout_configs(self) -> int:
        return sum(len(t["regularization"]) for t in self.readouts)

    def quantum_params(self):
        return [{k: t[k][0] for k in ("a_x", "a_z", "a_zz", "t")}
                for t in self.embeddings if t["kind"] == "quantum"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("quantum-cold", 1, ACCEPTANCE,
                 (_quantum(1.0, 1.0), _quantum(2.0, 2.0)),
                 ({"kind": "logistic", "regularization": [1e-2]},
                  {"kind": "ridge", "regularization": [1.0]}),
                 reservoir="quantum", stride=4),
        Workload("readout-sweep", 48, ((60, 0.005), (25, 0.05)) * 2,
                 (_esn(50), {"kind": "raw"}),
                 ({"kind": "logistic", "regularization": _path(1e-4, 3.0)},
                  {"kind": "ridge", "regularization": _path(1e-3, 1e3)}),
                 reservoir="classical_esn"),
        Workload("cache-rerun", 24, ((75, 0.005), (25, 0.05)) * 10,
                 (_esn(100), {"kind": "raw"}),
                 ({"kind": "ridge", "regularization": [1.0]},),
                 reservoir="classical_esn"),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "run_s": "s", "rerun_s": "s",
    "windows_per_s": "windows/s", "peak_rss_mb": "MB",
    "acc.reservoir": "fraction", "ap.reservoir": "fraction",
}


# --- inputs ------------------------------------------------------------------

def make_prices(wl, seed):
    """ticker -> price array; each ticker's generator seed derives from the workload seed."""
    prices = {}
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(wl.tickers)):
        rng = np.random.default_rng(child)
        rets = np.concatenate([rng.normal(0.0, sigma, length) for length, sigma in wl.regimes])
        prices[f"T{k:03d}"] = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(rets)]))
    return prices


def write_inputs(wl, seed, run_dir):
    """Write prices.csv and config.json; returns (paths, ticker -> windows)."""
    prices = make_prices(wl, seed)
    day0 = datetime.date(2015, 1, 2)
    n_prices = len(next(iter(prices.values())))
    dates = [(day0 + datetime.timedelta(days=k)).isoformat() for k in range(n_prices)]
    prices_path = os.path.join(run_dir, "prices.csv")
    with open(prices_path, "w", encoding="utf-8") as fh:
        fh.write("date,ticker,adj_close\n")
        for ticker, series in prices.items():
            fh.writelines(f"{d},{ticker},{p:.17g}\n" for d, p in zip(dates, series))
    config_path = os.path.join(run_dir, "config.json")
    config = {"seed": 0, "window": WINDOW, "lambda": 1.0, "stride": wl.stride, "workers": 1,
              "embeddings": list(wl.embeddings), "readouts": list(wl.readouts)}
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)
    windows = {
        ticker: np.lib.stride_tricks.sliding_window_view(np.diff(np.log(p)), WINDOW)[::wl.stride]
        for ticker, p in prices.items()
    }
    return {"prices": prices_path, "config": config_path}, windows


# --- operations and checks -----------------------------------------------------

class Checks:
    """Counts every CLI call and output check as one operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, what, test):
        """test is a bool or a callable returning one; an exception fails it."""
        self.attempted += 1
        try:
            ok = test() if callable(test) else test
        except Exception:  # a check that cannot run has failed
            ok = False
            what += ": " + traceback.format_exc(limit=2).strip().splitlines()[-1]
        if not ok:
            self.failures.append(what)
        return ok


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _snapshot(directory):
    """name -> (size, mtime) of the files in directory; None if it does not exist."""
    if not os.path.isdir(directory):
        return None
    return {e.name: (e.stat().st_size, e.stat().st_mtime_ns) for e in os.scandir(directory)}


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _flush(directory):
    """fsync every file under directory, so that one call's writeback does not slow the next."""
    for dirpath, _, filenames in os.walk(directory):
        for name in filenames:
            fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


REPORT_FILES = ("cells.csv", "per_ticker.csv", "report.txt")


class Session:
    """The CLI calls of one run: each is timed, counted and its outputs checked.

    prepare() writes a fresh data directory, run() a fresh --out, and
    rerun() runs the same grid again into the last --out, where every
    embedding must come from the cache and the reports must not change.
    """

    def __init__(self, wl, files, work_dir, execute, checks):
        self.wl, self.files, self.work_dir = wl, files, work_dir
        self.execute, self.checks = execute, checks
        self.samples = {"prepare": [], "run": [], "rerun": []}  # (seconds, peak MB)
        self.reports = None  # report bytes of the first run, which every later one must match

    def _call(self, phase, argv):
        code, seconds, peak_mb = self.execute(phase, argv)
        self.checks.check(f"{phase}: exit code {code}", code == 0)
        self.samples[phase].append((seconds, peak_mb))
        _flush(self.work_dir)

    def _fresh(self, name):
        path = os.path.join(self.work_dir, f"{name}{sum(map(len, self.samples.values()))}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _reports(self, out):
        return {name: _read(os.path.join(out, name)) for name in REPORT_FILES}

    def prepare(self):
        data = self._fresh("data")
        self._call("prepare", ["prepare", "--prices", self.files["prices"], "--out", data,
                               "--window", str(WINDOW), "--lambda", "1.0", "--stride", str(self.wl.stride)])
        return data

    def run(self, data):
        wl, out = self.wl, self._fresh("out")
        self._call("run", ["run", "--data", data, "--config", self.files["config"], "--out", out])
        n_cells = wl.embedding_configs * wl.readout_configs
        self.checks.check(f"cells.csv has {n_cells} rows over {wl.tickers} tickers", lambda: (
            len(cells := _rows(os.path.join(out, "cells.csv"))) == n_cells
            and all(int(r["n_tickers"]) == wl.tickers for r in cells)))
        self.checks.check(f"per_ticker.csv has {n_cells * wl.tickers} rows",
                          lambda: len(_rows(os.path.join(out, "per_ticker.csv"))) == n_cells * wl.tickers)
        if self.reports is None:
            self.checks.check("run wrote its reports", lambda: bool(self._keep_reports(out)))
        else:
            self.checks.check("reports identical to the first run's", lambda: self._reports(out) == self.reports)
        return out

    def _keep_reports(self, out):
        self.reports = self._reports(out)
        return self.reports

    def rerun(self, data, out):
        cache_before = _snapshot(os.path.join(out, "cache"))
        self._call("rerun", ["run", "--data", data, "--config", self.files["config"], "--out", out])
        for name in REPORT_FILES:
            self.checks.check(f"warm {name} byte-identical to cold",
                              lambda: _read(os.path.join(out, name)) == self.reports[name])
        self.checks.check("warm run wrote no cache file (every lookup hit)",
                          lambda: _snapshot(os.path.join(out, "cache")) == cache_before)

    def seconds(self, phase):
        return [secs for secs, _ in self.samples[phase]]


def accuracy_metrics(wl, out, checks):
    """acc/ap of the best cells.csv row (rows are sorted best first) of the reservoir kind.

    Both are 0 when cells.csv has no such row; that is a failed check.
    """
    metrics = {"acc.reservoir": 0.0, "ap.reservoir": 0.0}

    def read():
        best = next(r for r in _rows(os.path.join(out, "cells.csv")) if r["embedding_kind"] == wl.reservoir)
        metrics.update({"acc.reservoir": float(best["mean_accuracy"]),
                        "ap.reservoir": float(best["mean_average_precision"])})
        return True

    checks.check(f"cells.csv has a {wl.reservoir} row", read)
    return metrics


def check_quantum_features(wl, seed, windows, out, checks, qrcvol_embeddings):
    """Compare cached quantum features of seed-chosen windows with the dense expm oracle."""
    import oracle  # imports scipy; see end_to_end

    rng = np.random.default_rng([seed, 2])
    ticker = sorted(windows)[0]
    for params in wl.quantum_params():
        cfg = qrcvol_embeddings.EmbeddingConfig.make("quantum", **params)

        def cached_row(k):
            return qrcvol_embeddings.read_embedded(ticker, cfg, os.path.join(out, "cache")).features[k]

        for k in sorted(rng.choice(wl.windows, size=min(ORACLE_WINDOWS, wl.windows), replace=False)):
            checks.check(f"cached quantum features {params} of window {k} within {oracle.TOLERANCE} of the oracle",
                         lambda: oracle.feature_error(windows[ticker][k], cached_row(k), params) <= oracle.TOLERANCE)


# --- executors -------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, log_path):
    """Run one child process to completion; returns (exit code, seconds, peak RSS MB)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def cli_executor(log_path):
    def execute(phase, argv):
        return spawn([sys.executable, "-m", "qrcvol.cli", *argv], log_path)
    return execute


def inprocess_executor(cli, tracer=None):
    def execute(phase, argv):
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                    (tracer.phase(phase) if tracer else contextlib.nullcontext()):
                code = cli.main(argv)
        except Exception:  # reported as a failed call, like a crashed process
            traceback.print_exc()
            code = -1
        return code, time.perf_counter() - start, None
    return execute


# --- environment -------------------------------------------------------------------

def environment(wl, seed, trace):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() if res.returncode == 0 else None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "qrcvol")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            digest.update(name.encode())
            digest.update(_read(os.path.join(dirpath, name)))
    return {
        "workload": wl.name, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def import_qrcvol():
    """Import the checkout's own qrcvol package modules."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    modules = {name: importlib.import_module(f"qrcvol.{name}")
               for name in ("cli", "pipeline", "harness", "embeddings", "quantum", "readout")}
    if not modules["cli"].__file__.startswith(SRC + os.sep):
        raise SystemExit(f"error: qrcvol imported from {modules['cli'].__file__}, not {SRC}")
    return modules


# --- the two kinds of run ---------------------------------------------------------

def end_to_end(wl, seed, seconds, run_dir, checks):
    """Untraced CLI passes for `seconds`; medians of each metric.

    A pass is prepare -> run -> warm reruns, which repeat until the pass
    has RERUN_S of them.  At least two passes run; another starts only if
    one more pass as long as the last still ends within `seconds`, so a
    run lasts at most `seconds` (or two passes).

    This process imports neither scipy nor qrcvol until every CLI call has
    ended: a child's peak RSS, as the kernel reports it, is never below the
    peak RSS of the process that spawned it.
    """
    log_path = os.path.join(run_dir, "cli.log")
    setup = []
    for _ in range(SETUP_PROBES):
        code, secs, _ = spawn([sys.executable, "-c", "import qrcvol"], log_path)
        checks.check(f"import qrcvol: exit code {code}", code == 0)
        setup.append(secs)

    files, windows = write_inputs(wl, seed, run_dir)
    session = Session(wl, files, run_dir, cli_executor(log_path), checks)

    deadline = time.perf_counter() + seconds
    passes = []  # (data, out) of each pass; the first is kept for the output checks
    last = 0.0
    while len(passes) < 2 or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        if len(passes) > 1:
            for path in passes[-1]:
                shutil.rmtree(path, ignore_errors=True)
        data = session.prepare()
        out = session.run(data)
        first = len(session.samples["rerun"])
        while sum(session.seconds("rerun")[first:]) < RERUN_S:
            session.rerun(data, out)
        passes.append((data, out))
        last = time.perf_counter() - start

    first_out = passes[0][1]
    if wl.quantum_params():
        check_quantum_features(wl, seed, windows, first_out, checks, import_qrcvol()["embeddings"])
    medians = {phase: statistics.median(session.seconds(phase)) for phase in session.samples}
    metrics = {"run_s": medians["run"], "rerun_s": medians["rerun"], "wall_s": sum(medians.values()),
               "setup_s": statistics.median(setup)}
    metrics["windows_per_s"] = wl.embedding_configs * wl.tickers * wl.windows / metrics["run_s"]
    metrics["peak_rss_mb"] = max(mb for samples in session.samples.values() for _, mb in samples)
    metrics.update(accuracy_metrics(wl, first_out, checks))
    details = {"passes": len(passes), "setup_probes_s": setup,
               "samples_s": {phase: session.seconds(phase) for phase in session.samples}}
    return {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()}, details


def traced(wl, seed, run_dir, checks):
    """In-process passes untraced, traced, untraced; per-layer metrics of the traced one.

    trace.overhead_s compares the traced pass with the mean of the two
    untraced ones around it, which cancels a steady drift of the host.
    """
    modules = import_qrcvol()
    files, windows = write_inputs(wl, seed, run_dir)
    walls = {"untraced": [], "traced": []}
    for k, label in enumerate(("untraced", "traced", "untraced")):
        if label == "traced":
            tracer = tracing.instrument(tracing.Tracer(), modules)
        session = Session(wl, files, os.path.join(run_dir, f"pass{k}"),
                          inprocess_executor(modules["cli"], tracer if label == "traced" else None), checks)
        try:
            data = session.prepare()
            out = session.run(data)
            session.rerun(data, out)
        finally:
            if label == "traced":
                tracer.restore()
        walls[label].append(sum(sum(session.seconds(phase)) for phase in session.samples))
        if wl.quantum_params():
            check_quantum_features(wl, seed, windows, out, checks, modules["embeddings"])
        shutil.rmtree(session.work_dir, ignore_errors=True)
    spans = tracer.spans
    checks.check("traced warm run: every cache lookup hit",
                 tracing.phase_count(spans, "rerun", "embeddings.read_embedded", "miss") == 0)
    metrics = tracing.layer_metrics(spans)
    metrics["trace.overhead_s"] = (walls["traced"][0] - statistics.mean(walls["untraced"]), "s")
    details = {"wall_s": walls, "spans": tracing.span_records(spans)}
    return metrics, details


def run_benchmark(wl, seed, seconds, trace):
    """Run one benchmark; returns (result dict for the last line, environment, details)."""
    if not os.path.isfile(os.path.join(SRC, "qrcvol", "__init__.py")):
        raise SystemExit(f"error: no qrcvol source tree at {SRC}")
    run_dir = os.path.join(WORK, f"{wl.name}-seed{seed}-trace{trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    checks = Checks()
    try:
        if trace:
            metrics, details = traced(wl, seed, run_dir, checks)
        else:
            metrics, details = end_to_end(wl, seed, seconds, run_dir, checks)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details["failures"] = checks.failures
    return result, environment(wl, seed, trace), details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure passes for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    result, env, details = run_benchmark(wl, args.seed, args.seconds, args.trace)
    for failure in details["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    os.makedirs(WORK, exist_ok=True)
    record = os.path.join(WORK, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "result": result, **details}, fh)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
