"""Spans and counters recorded around frailsim's public calls.

Nothing here edits the library. ``Tracer.installed()`` swaps the names
that frailsim's own modules bind (``cli.run_cell``, ``harness.fit``,
``fitting.adaptive_gh_batch`` and so on) for wrappers that record a span
or bump a counter, and puts the originals back on exit. Spans are kept in
memory. Pool workers are forked after the wrappers are in place, so they
record too; each worker appends what one replication recorded to a JSON
lines file in the work directory, and the main process merges those files after
the pass (``Tracer.end``).

Two hot paths get counters instead of spans, to keep the tracing cost
low: ``fitting._loglik_core`` (one call per likelihood evaluation) and
``adaptive_gh_batch`` (one call per quadrature batch, with the number of
integrand passes it made and its busy time).
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from frailsim import cli, estimands, fitting, harness


@dataclass
class Trace:
    """What one pass (or the probe section) recorded."""

    spans: list = field(default_factory=list)  # (name, start, end, pid, parent)
    fits: list = field(default_factory=list)  # one dict per fit() call
    cells: list = field(default_factory=list)  # (wall_s, workers, [rep wall_time])
    counts: Counter = field(default_factory=Counter)

    def absorb(self, payload: dict) -> None:
        self.spans.extend(tuple(s) for s in payload["spans"])
        self.fits.extend(payload["fits"])
        self.counts.update(payload["counts"])


class Tracer:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.pid = os.getpid()
        self.current = Trace()
        self.stack: list[str] = []
        self.in_se = False

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else ""
        self.stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.current.spans.append((name, start, end, os.getpid(), parent))

    def begin(self) -> None:
        self.current = Trace()

    def end(self) -> Trace:
        """Close the current trace and merge what pool workers recorded."""
        trace = self.current
        for path in sorted(self.workdir.glob("trace-*.jsonl")):
            for line in path.read_text().splitlines():
                trace.absorb(json.loads(line))
            path.unlink()
        self.current = Trace()
        return trace

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _fit(self, fn):
        @functools.wraps(fn)
        def wrapper(spec, data, *args, **kwargs):
            counts = self.current.counts
            loglik0, quad0 = counts["loglik_calls"], counts["quad_calls"]
            start = time.perf_counter()
            with self.span("fitting.fit"):
                res = fn(spec, data, *args, **kwargs)
            counts = self.current.counts
            self.current.fits.append({
                "family": res.spec.frailty.value,
                "seconds": time.perf_counter() - start,
                "evals": res.n_evaluations,
                "iters": res.n_iterations,
                "loglik_calls": counts["loglik_calls"] - loglik0,
                "quad_calls": counts["quad_calls"] - quad0,
                "stagnated": "stagnation" in res.message,
            })
            return res
        return wrapper

    def _loglik(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.current.counts["loglik_calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _quadrature(self, fn):
        @functools.wraps(fn)
        def wrapper(log_f, rule, x0):
            passes = 0

            def counted(eta):
                nonlocal passes
                passes += 1
                return log_f(eta)

            start = time.perf_counter()
            try:
                return fn(counted, rule, x0)
            finally:
                counts = self.current.counts
                counts["quad_calls"] += 1
                counts["quad_passes"] += passes
                counts["quad_ns"] += int((time.perf_counter() - start) * 1e9)
        return wrapper

    def _lle_functional(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            functional = fn(*args, **kwargs)

            def timed(vec):
                if self.in_se:
                    return functional(vec)
                with self.span("estimands.lle"):
                    return functional(vec)
            return timed
        return wrapper

    def _delta_method_se(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.in_se = True
            try:
                with self.span("estimands.lle_se"):
                    return fn(*args, **kwargs)
            finally:
                self.in_se = False
        return wrapper

    def _run_cell(self, fn):
        @functools.wraps(fn)
        def wrapper(scenario, spec, n_sim, master_seed, workers=1, horizon=None):
            start = time.perf_counter()
            with self.span("harness.run_cell"):
                records = fn(scenario, spec, n_sim, master_seed, workers=workers,
                             horizon=horizon)
            reps = {r.rep: r.wall_time for r in records}
            self.current.cells.append((time.perf_counter() - start, workers,
                                       list(reps.values())))
            return records
        return wrapper

    def _replicate(self, fn):
        @functools.wraps(fn)
        def wrapper(task):
            if os.getpid() == self.pid:
                with self.span("harness.replicate"):
                    return fn(task)
            # a forked pool worker: drop the state copied from the main process,
            # record this replication, and hand it back through a file
            self.current = Trace()
            self.stack = []
            with self.span("harness.replicate"):
                out = fn(task)
            payload = {"spans": self.current.spans, "fits": self.current.fits,
                       "counts": dict(self.current.counts)}
            with open(self.workdir / f"trace-{os.getpid()}.jsonl", "a") as fh:
                fh.write(json.dumps(payload) + "\n")
            return out
        return wrapper

    def _patches(self):
        span = self._spanned
        return [
            (cli, "main", lambda f: span("cli.main", f)),
            (cli, "run_cell", self._run_cell),
            (cli, "fit", self._fit),
            (cli, "lle_functional", self._lle_functional),
            (cli, "delta_method_se", self._delta_method_se),
            (cli, "filter_convergence", lambda f: span("harness.filter", f)),
            (cli, "summarize", lambda f: span("harness.summarize", f)),
            (cli, "read_dataset_csv", lambda f: span("simulate.read_csv", f)),
            (cli, "write_results_csv", lambda f: span("harness.write", f)),
            (cli, "write_summary_csv", lambda f: span("harness.write", f)),
            (cli, "write_plot_csv", lambda f: span("harness.write", f)),
            (harness, "_replicate", self._replicate),
            (harness, "generate_dataset", lambda f: span("simulate.generate", f)),
            (harness, "fit", self._fit),
            (harness, "lle_functional", self._lle_functional),
            (harness, "delta_method_se", self._delta_method_se),
            (harness, "true_estimands", lambda f: span("estimands.true", f)),
            (fitting, "_loglik_core", self._loglik),
            (fitting, "adaptive_gh_batch", self._quadrature),
            (estimands, "adaptive_gh_batch", self._quadrature),
        ]

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, name, make in self._patches():
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, make(original))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)
