"""Spans around calls into qrcvol's public functions, and the per-layer
metrics derived from them.

Each traced name is replaced on the module where its caller looks it up
(``qrcvol.harness.fit_logistic``, ``qrcvol.quantum.evolve``, ...), so no
file of the package changes.  Spans live in memory as
(id, parent, name, layer, phase, start, end, attrs); counts such as bytes
written or cache hits are recorded as attributes of the span that did
the work, and every metric is computed from the span list afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("pipeline", "quantum", "embeddings", "readout", "harness", "cli")
EMBEDDING_KINDS = ("quantum", "classical_esn", "raw")
PHASE_ROOT = "cli.main"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    phase: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread and patches functions to emit them."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._phase = None

    def _open(self, name, layer):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, layer, self._phase, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, phase):
        """Root span of one CLI call (prepare, run or rerun)."""
        self._phase = phase
        span = self._open(PHASE_ROOT, "cli")
        try:
            yield span
        finally:
            self._close(span)
            self._phase = None

    def wrap(self, owner, attr, layer, name=None, note=None):
        """Replace owner.attr by a traced wrapper.

        name: span name, or a callable of the bound arguments giving it.
        note: callable(arguments, result) -> dict of span attributes.
        """
        fn = getattr(owner, attr)
        sig = inspect.signature(fn)
        fixed = name or f"{layer}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if (callable(fixed) or note) else None
            span = self._open(fixed(bound) if callable(fixed) else fixed, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span.attrs.update(note(bound, result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    def restore(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()


def instrument(tracer, qrcvol_modules):
    """Wrap every traced name of the six layers; returns the tracer."""
    m = qrcvol_modules
    cli, pipeline, harness = m["cli"], m["pipeline"], m["harness"]
    quantum, readout, embeddings = m["quantum"], m["readout"], m["embeddings"]

    def size_of(key):
        return lambda args, result: {"bytes": os.path.getsize(args[key])}

    def cache_note(args, result):
        if result is None:
            return {"miss": 1}
        path = os.path.join(str(args["directory"]), embeddings.cache_filename(args["ticker"], args["cfg"]))
        return {"hit": 1, "bytes": os.path.getsize(path)}

    def logistic_note(args, model):
        return {
            "not_converged": int(not model.converged),
            "degenerate": int(model.degenerate),
        }

    # cli: main() dispatches through build_parser(), which looks these up
    tracer.wrap(cli, "cmd_prepare", "cli", "cli.prepare")
    tracer.wrap(cli, "cmd_run", "cli", "cli.run")
    # pipeline and harness: cli calls them as pipeline.X / harness.X
    tracer.wrap(pipeline, "load_prices", "pipeline")
    tracer.wrap(pipeline, "prepare_dataset", "pipeline")
    tracer.wrap(pipeline, "write_dataset", "pipeline", note=size_of("path"))
    tracer.wrap(pipeline, "read_dataset", "pipeline", note=size_of("path"))
    tracer.wrap(harness, "load_grid_config", "harness")
    tracer.wrap(harness, "run_grid", "harness", note=lambda a, r: {"cells": len(r.cells)})
    tracer.wrap(harness, "emit_report", "harness")
    # embeddings and readouts: harness imported these names into its namespace
    tracer.wrap(harness, "embed_dataset", "embeddings",
                name=lambda a: f"embeddings.embed_dataset.{a['cfg'].kind}")
    tracer.wrap(harness, "write_embedded", "embeddings",
                note=lambda a, path: {"bytes": os.path.getsize(path)})
    tracer.wrap(harness, "read_embedded", "embeddings", note=cache_note)
    tracer.wrap(harness, "fit_logistic", "readout", note=logistic_note)
    tracer.wrap(harness, "fit_ridge", "readout")
    tracer.wrap(harness, "predict_scores", "readout")
    tracer.wrap(harness, "evaluate", "readout")
    tracer.wrap(readout, "average_precision", "readout")
    # quantum: embeddings calls quantum.quantum_embed, which calls the rest
    for attr in ("quantum_embed", "build_hamiltonian", "evolve", "measure_features"):
        tracer.wrap(quantum, attr, "quantum")
    return tracer


# --- metrics ---------------------------------------------------------------

def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def _percentile_ms(values, q):
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def layer_metrics(spans):
    """Per-layer metrics of a traced prepare -> run -> rerun, as name -> (value, unit).

    Busy and self times and counts are totals over all three CLI calls;
    the layer shares are self time inside the first run divided by that
    run's wall time.
    """
    selfs = _self_times(spans)
    by_name = {}
    for s, own in zip(spans, selfs):
        by_name.setdefault(s.name, []).append((s, own))

    def durations(name):
        return [s.duration for s, _ in by_name.get(name, [])]

    def busy(name):
        return float(sum(durations(name)))

    def self_s(name):
        return float(sum(own for _, own in by_name.get(name, [])))

    def attr_sum(name, key):
        return int(sum(s.attrs.get(key, 0) for s, _ in by_name.get(name, [])))

    out = {}
    for fn in ("load_prices", "prepare_dataset", "write_dataset", "read_dataset"):
        out[f"pipeline.{fn}.busy_s"] = (busy(f"pipeline.{fn}"), "s")
    for fn in ("write_dataset", "read_dataset"):
        out[f"pipeline.{fn}.bytes"] = (attr_sum(f"pipeline.{fn}", "bytes"), "bytes")

    out["quantum.build_hamiltonian.p50_ms"] = (_percentile_ms(durations("quantum.build_hamiltonian"), 50), "ms")
    evolve = durations("quantum.evolve")
    out["quantum.evolve.p50_ms"] = (_percentile_ms(evolve, 50), "ms")
    out["quantum.evolve.p99_ms"] = (_percentile_ms(evolve, 99), "ms")
    out["quantum.evolve.calls"] = (len(evolve), "count")
    out["quantum.measure_features.p50_ms"] = (_percentile_ms(durations("quantum.measure_features"), 50), "ms")
    out["quantum.busy_s"] = (busy("quantum.quantum_embed"), "s")

    for kind in EMBEDDING_KINDS:
        out[f"embeddings.embed_dataset.{kind}.self_s"] = (self_s(f"embeddings.embed_dataset.{kind}"), "s")
    for fn in ("write_embedded", "read_embedded"):
        out[f"embeddings.{fn}.busy_s"] = (busy(f"embeddings.{fn}"), "s")
        out[f"embeddings.{fn}.bytes"] = (attr_sum(f"embeddings.{fn}", "bytes"), "bytes")
    hits = attr_sum("embeddings.read_embedded", "hit")
    misses = attr_sum("embeddings.read_embedded", "miss")
    out["embeddings.cache.hits"] = (hits, "count")
    out["embeddings.cache.misses"] = (misses, "count")
    out["embeddings.cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")

    fits = durations("readout.fit_logistic")
    not_converged = attr_sum("readout.fit_logistic", "not_converged")
    degenerate = attr_sum("readout.fit_logistic", "degenerate")
    out["readout.fit_logistic.p50_ms"] = (_percentile_ms(fits, 50), "ms")
    out["readout.fit_logistic.p99_ms"] = (_percentile_ms(fits, 99), "ms")
    out["readout.fit_logistic.calls"] = (len(fits), "count")
    out["readout.fit_logistic.not_converged"] = (not_converged, "count")
    out["readout.fit_logistic.degenerate"] = (degenerate, "count")
    out["readout.fit_logistic.converged_ratio"] = (
        (len(fits) - not_converged) / len(fits) if fits else 0.0, "ratio")
    out["readout.fit_ridge.p50_ms"] = (_percentile_ms(durations("readout.fit_ridge"), 50), "ms")
    out["readout.predict_scores.busy_s"] = (busy("readout.predict_scores"), "s")
    out["readout.evaluate.self_s"] = (self_s("readout.evaluate"), "s")
    out["readout.average_precision.busy_s"] = (busy("readout.average_precision"), "s")

    out["harness.run_grid.self_s"] = (self_s("harness.run_grid"), "s")
    out["harness.emit_report.busy_s"] = (busy("harness.emit_report"), "s")
    out["harness.cells"] = (attr_sum("harness.run_grid", "cells"), "count")

    out["cli.prepare.self_s"] = (self_s("cli.prepare"), "s")
    out["cli.run.self_s"] = (self_s("cli.run"), "s")

    roots = [s for s in spans if s.name == PHASE_ROOT and s.phase == "run"]
    run_s = roots[0].duration if roots else 0.0
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, own in zip(spans, selfs):
        if s.phase == "run":
            layer_self[s.layer] += own
    for layer in LAYERS:
        out[f"{layer}.share"] = (layer_self[layer] / run_s if run_s else 0.0, "ratio")
    return out


def phase_count(spans, phase, name, key):
    """Sum of one span attribute over one phase, e.g. cache misses of the rerun."""
    return sum(s.attrs.get(key, 0) for s in spans if s.phase == phase and s.name == name)


def span_records(spans):
    """Spans as plain dicts, times relative to the first span, for the result file."""
    t0 = spans[0].start if spans else 0.0
    return [
        {"id": s.id, "parent": s.parent, "name": s.name, "phase": s.phase,
         "start_s": round(s.start - t0, 9), "end_s": round(s.end - t0, 9), **s.attrs}
        for s in spans
    ]
