"""Span tracing of the optdesign layers, installed by the benchmark only.

``Tracer.install`` wraps the public functions of ``models``, ``criteria``,
``designs``, ``solver``, ``certificates``, ``conditional`` and ``cli`` in
every module that holds them (so ``solver``'s by-name imports are covered),
plus the two external kernels they call: ``scipy.optimize.linprog`` and
``numpy.linalg.eigh``. A span is (name, start, end, parent index) and stays in
memory until the run writes it out. ``linprog`` spans are named after the
layer of the span active when the LP runs (``solver.lp``,
``certificates.lp``, ``conditional.lp``); ``eigh`` is only counted, because
it is called tens of thousands of times per solve. Untraced runs never call
``install``, so they carry no wrappers.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.optimize

from optdesign import certificates, cli, conditional, criteria, designs, models, solver

# (module, function name, span name); the span name is "<layer>.<function>"
SPANNED = [
    (models, "discretize", "models.discretize"),
    (criteria, "psd_eig", "criteria.psd_eig"),
    (designs, "info_matrix", "designs.info_matrix"),
    (designs, "prune", "designs.prune"),
    (designs, "merge_close", "designs.merge_close"),
    (solver, "solve", "solver.solve"),
    (certificates, "build_certificate", "certificates.build_certificate"),
    (certificates, "certify", "certificates.certify"),
    (certificates, "polytope_report", "certificates.polytope_report"),
    (certificates, "garza_report", "certificates.garza_report"),
    (conditional, "find_dominator", "conditional.find_dominator"),
    (conditional, "conditional_audit", "conditional.conditional_audit"),
    (conditional, "product_audit", "conditional.product_audit"),
    (cli, "cmd_solve", "cli.solve"),
]


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index); times 0 while open
        self._open: list[int] = []
        self.counts: dict = defaultdict(int)
        self._undo: list = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._open[-1] if self._open else -1))
        self._open.append(idx)
        return idx

    def _active(self) -> str | None:
        return self.spans[self._open[-1]][0] if self._open else None

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    def _wrap(self, fn, name, after=None, namer=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = namer() if namer else name
            idx = self._enter(span_name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._open.pop()
                self.spans[idx] = (span_name, t0, t1, self.spans[idx][3])
            if after is not None:
                after(span_name, args, kwargs, result)
            return result

        return wrapper

    def _replace(self, holders, attr, original, replacement):
        for holder in holders:
            if getattr(holder, attr, None) is original:
                setattr(holder, attr, replacement)
                self._undo.append((holder, attr, original))

    # -- per-call counters --------------------------------------------------

    def _after_solve(self, _name, _args, _kwargs, rep):
        self.counts["solver.outer_iters"] += rep.iterations
        self.counts["solver.converged" if rep.converged else "solver.unconverged"] += 1

    def _after_certificate(self, _name, args, kwargs, _result):
        if self._inside("solver.solve"):
            # each certificate inside solve is followed by one full-grid sweep
            cands = args[3] if len(args) > 3 else kwargs["candidates"]
            k = args[1].shape[0]
            self.counts["solver.sweeps"] += 1
            self.counts["solver.sweep.bytes_computed"] += len(cands) * k * 8

    def _after_dominator(self, _name, _args, _kwargs, verdict):
        cls = "inconclusive" if verdict.inconclusive else (
            "admissible" if verdict.admissible else "inadmissible"
        )
        self.counts[f"conditional.verdicts.{cls}"] += 1

    def _after_eval_many(self, _name, _args, _kwargs, F):
        self.counts["models.eval_many.rows"] += F.shape[0]

    def _after_discretize(self, _name, _args, _kwargs, cands):
        self.counts["models.discretize.points"] += len(cands)

    def _lp_name(self) -> str:
        active = self._active()
        return f"{active.split('.')[0]}.lp" if active else "bench.lp"

    def _after_lp(self, name, args, kwargs, _res):
        c = args[0] if args else kwargs["c"]
        rows = sum(
            np.atleast_2d(kwargs[key]).shape[0]
            for key in ("A_ub", "A_eq")
            if kwargs.get(key) is not None
        )
        self.counts[f"{name}.vars"] += len(c)
        self.counts[f"{name}.rows"] += rows

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        holders = [m for n, m in sys.modules.items() if n == "optdesign" or n.startswith("optdesign.")]
        after = {
            "solver.solve": self._after_solve,
            "certificates.build_certificate": self._after_certificate,
            "conditional.find_dominator": self._after_dominator,
            "models.discretize": self._after_discretize,
        }
        for module, attr, name in SPANNED:
            original = getattr(module, attr)
            self._replace(holders, attr, original, self._wrap(original, name, after.get(name)))

        original = models.ModelSpec.eval_many
        self._replace(
            [models.ModelSpec], "eval_many", original,
            self._wrap(original, "models.eval_many", self._after_eval_many),
        )

        lp = scipy.optimize.linprog
        self._replace(
            [scipy.optimize], "linprog", lp, self._wrap(lp, "lp", self._after_lp, self._lp_name)
        )

        eigh = np.linalg.eigh

        @functools.wraps(eigh)
        def counted_eigh(*args, **kwargs):
            self.counts["linalg.eigh.calls"] += 1
            return eigh(*args, **kwargs)

        self._replace([np.linalg], "eigh", eigh, counted_eigh)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    # -- aggregation --------------------------------------------------------

    def layer_stats(self) -> dict:
        """Per span name: calls, total seconds, self seconds (minus direct children)."""
        stats: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for (name, t0, t1, _), c in zip(self.spans, child):
            st = stats[name]
            st["calls"] += 1
            st["s"] += t1 - t0
            st["self_s"] += t1 - t0 - c
        return stats

    def child_time(self, parent_name: str, select=lambda name: True) -> float:
        """Seconds of the selected spans whose direct parent is a ``parent_name`` span."""
        return sum(
            t1 - t0
            for name, t0, t1, parent in self.spans
            if parent >= 0 and self.spans[parent][0] == parent_name and select(name)
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent}\n")
