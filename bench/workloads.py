"""Fixed op lists of the three benchmark workloads.

Every op goes through the public ``optdesign`` API (or ``optdesign.cli.main``)
and checks its own output. An op fails when the library raises
``OptDesignError``, a solve ends unconverged, a solve claims convergence but
fails an independent ``certify(tol=2*kkt_tol)``, a converged value leaves the
reference by more than that tolerance, a dominator does not pass
``dominates(..., tol=1e-7)``, an audit verdict differs from the known class,
or a CLI exit code is nonzero. Failing ops stay in the list and are counted;
none is removed, re-gridded or re-seeded to pass.

Why each workload exists (also recorded in BENCHMARK.json):

* ``finite-p-1d``: the solver's outer loop and its finite-p weight refinement
  on small 1-D grids, with no LP and at most 2001 candidates. Batch exchange
  and eigendecomposition savings show here; LP changes should show nothing.
* ``lp-cutting-plane``: most of its time goes through ``linprog`` (E weight
  refinement, dominator search, audits), so the LP-kernel work shows here.
* ``large-grid-2d``: scales with candidate count; time goes to ``eval_many``,
  the full-grid sensitivity sweep, standalone ``certify``, the reports and
  CLI output, and the E certificate is one big LP over all candidates.

Left out on purpose: E on exp-product-2f, for its run length (20 s at
h=0.02, converged but fails certify; 46 s unconverged at h=0.05). Its failure
class (converged-but-uncertified E, unconverged E) still shows in two
``lp-cutting-plane`` rows: E poly-3 at h=0.001 and E growth.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import optdesign as od
from optdesign import cli

KKT_TOL = od.SolverOptions().kkt_tol
CERT_TOL = 2 * KKT_TOL  # independent certify tolerance, also the value tolerance
DOMINATES_TOL = 1e-7
N_DOMINATOR_DESIGNS = 20
# The solver's start design is pinned to the reference seed. Following the
# run seed instead, the start decides convergence on some rows (mixture D at
# h=0.0025 converges at seeds 1, 2, 4, 5, 6 and runs 200 iterations at 0
# and 3), so large-grid-2d took 12 to 32 s and the failure set changed from
# seed to seed; a converged poly-3 A design at seed 2 also lands 9.5e-5 away
# from the seed-0 value because consolidation can merge atoms off the grid.
# Pinned, every run repeats the seed-0 failure set and the run seed varies
# the dominator inputs only.
SOLVER_SEED = 0


@dataclass
class Outcome:
    """Result of one op: its checks, its time split by class, its counts."""

    name: str
    kind: str  # "solve", "audit" or "cli"
    ok: bool = True
    wrong: bool = False  # a dominator the library returned does not verify
    reason: str = ""
    times: dict = field(default_factory=dict)  # "solve" / "audit" / "report" -> seconds
    value: float | None = None
    outer_iters: int = 0
    converged: int = 0
    certified: int = 0
    verdicts: list = field(default_factory=list)

    def fail(self, reason: str, wrong: bool = False) -> None:
        self.ok = False
        self.wrong = self.wrong or wrong
        self.reason = f"{self.reason}; {reason}" if self.reason else reason


# an op runs against the set-up products and reports its own outcome
Op = Callable[["Context"], Outcome]


@dataclass
class Context:
    seed: int  # draws the random dominator inputs
    reference: dict  # op name -> reference criterion value
    workdir: Path  # scratch space for CLI output, inside the checkout
    inputs: dict = field(default_factory=dict)  # set-up products by key
    cli_bytes: int = 0  # bytes the CLI ops wrote


def _timed(out: Outcome, cls: str, fn, *args, **kwargs):
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        out.times[cls] = out.times.get(cls, 0.0) + time.perf_counter() - t0


def _check_value(out: Outcome, ctx: Context, value: float) -> None:
    ref = ctx.reference.get(out.name)
    out.value = value
    if ref is not None and abs(value - ref) > CERT_TOL * max(abs(ref), 1e-300):
        out.fail(f"value {value:.10g} leaves reference {ref:.10g}")


def _verdict_class(v) -> str:
    if v.inconclusive:
        return "inconclusive"
    return "admissible" if v.admissible else "inadmissible"


# ---------------------------------------------------------------------------
# op builders
# ---------------------------------------------------------------------------

def solve_op(name: str, key: str, crit: str, reports: bool = False) -> Op:
    """solve + independent certify (+ polytope and garza reports)."""

    def run(ctx: Context) -> Outcome:
        out = Outcome(name, "solve")
        model, cands = ctx.inputs[key]
        criterion = od.parse_criterion(crit, model.k)
        opts = od.SolverOptions(seed=SOLVER_SEED)
        try:
            rep = _timed(out, "solve", od.solve, model, cands, criterion, opts)
            out.outer_iters = rep.iterations
            chk = _timed(out, "solve", od.certify, rep.design, model, cands, criterion, tol=CERT_TOL)
        except od.OptDesignError as exc:
            out.fail(f"{type(exc).__name__}: {exc}")
            return out
        if rep.converged:
            out.converged = 1
            if chk.optimal:
                out.certified = 1
            else:
                err = float(np.abs(chk.support_equalities - chk.certificate.bound).max())
                out.fail(
                    f"converged but certify fails (violation {chk.max_violation:.2g}, "
                    f"support equality off by {err:.2g})"
                )
            _check_value(out, ctx, rep.criterion_value)
        else:
            out.fail(
                f"unconverged after {rep.iterations} iterations, residual "
                f"{rep.max_sensitivity_violation:.2g}, {rep.design.m} atoms"
            )
            out.value = rep.criterion_value
        if reports:
            try:
                _timed(out, "report", od.polytope_report, chk.certificate, rep.design, model, cands)
            except od.OptDesignError as exc:
                out.fail(f"polytope_report: {exc}")
            try:
                _timed(out, "report", od.garza_report, model, cands)
            except od.OptDesignError as exc:
                out.fail(f"garza_report: {exc}")
        return out

    return run


def dominator_op(name: str, index: int) -> Op:
    """find_dominator on one seeded random 3-point design; a dominator must verify."""

    def run(ctx: Context) -> Outcome:
        out = Outcome(name, "audit")
        model, grid = ctx.inputs["xexp"]
        d1 = ctx.inputs["random_designs"][index]
        try:
            verdict = _timed(out, "audit", od.find_dominator, d1, grid, model)
        except od.OptDesignError as exc:
            out.fail(f"{type(exc).__name__}: {exc}")
            return out
        out.verdicts.append(_verdict_class(verdict))
        # a random 3-point design lies off the admissible class (two atoms at
        # 0 and 1/rate), so the only correct verdict is a verified dominator
        if verdict.dominator is None:
            out.fail(f"no dominator ({_verdict_class(verdict)}: {verdict.note})")
        elif not od.dominates(verdict.dominator, d1, model, tol=DOMINATES_TOL):
            out.fail("returned dominator does not verify", wrong=True)
        return out

    return run


def conditional_audit_op(name: str, key: str, tmap: od.SliceMap, expect: str) -> Op:
    def run(ctx: Context) -> Outcome:
        out = Outcome(name, "audit")
        model, dsgn = ctx.inputs[key]
        try:
            verdict = _timed(out, "audit", od.conditional_audit, dsgn, tmap, model)
        except od.OptDesignError as exc:
            out.fail(f"{type(exc).__name__}: {exc}")
            return out
        out.verdicts.extend(_verdict_class(v) for _, v in verdict.evidence)
        got = _verdict_class(verdict)
        if got != expect:
            out.fail(f"verdict {got}, expected {expect}")
        elif verdict.dominator is not None and not od.dominates(
            verdict.dominator, dsgn, model, tol=DOMINATES_TOL
        ):
            out.fail("spliced dominator does not verify", wrong=True)
        return out

    return run


def product_audit_op(name: str, key: str) -> Op:
    """Both marginals of a design on the admissible class must audit admissible."""

    def run(ctx: Context) -> Outcome:
        out = Outcome(name, "audit")
        model, dsgn = ctx.inputs[key]
        try:
            report = _timed(out, "audit", od.product_audit, dsgn, model)
        except od.OptDesignError as exc:
            out.fail(f"{type(exc).__name__}: {exc}")
            return out
        classes = [_verdict_class(v) for v in report.factor_verdicts]
        out.verdicts.extend(classes)
        for axis, (got, v) in enumerate(zip(classes, report.factor_verdicts)):
            if got != "admissible":
                out.fail(f"marginal {axis}: {got}")
                if v.dominator is not None and not od.dominates(
                    v.dominator, report.marginal_designs[axis], od.marginal_model(model, axis),
                    tol=DOMINATES_TOL,
                ):
                    out.fail(f"marginal {axis}: dominator does not verify", wrong=True)
        return out

    return run


def cli_solve_op(name: str, model_file: dict, crit: str, steps: float) -> Op:
    """``optdesign solve`` through ``cli.main``; checks exit code and report.json."""

    def run(ctx: Context) -> Outcome:
        out = Outcome(name, "cli")
        target = ctx.workdir / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        mpath = target / "model.json"
        mpath.write_text(json.dumps(model_file), encoding="utf-8")
        argv = [
            "solve", "--model", str(mpath), "--criterion", crit, "--steps", str(steps),
            "--seed", str(SOLVER_SEED), "--out", str(target / "out"),
        ]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = _timed(out, "report", cli.main, argv)
        ctx.cli_bytes += sum(p.stat().st_size for p in (target / "out").glob("*"))
        if rc != 0:
            out.fail(f"exit code {rc}")
        else:
            body = json.loads((target / "out" / "report.json").read_text(encoding="utf-8"))
            out.outer_iters = int(body["iterations"])
            out.converged = int(body["converged"])
            if body["certified_optimal"]:
                out.certified = 1
            else:
                out.fail("report.json says certified_optimal=false")
            _check_value(out, ctx, float(body["criterion_value"]))
        shutil.rmtree(target, ignore_errors=True)
        return out

    return run


# ---------------------------------------------------------------------------
# set-up: models and candidate sets, built before timing starts
# ---------------------------------------------------------------------------

def _mc(model, h):
    return model, od.default_candidates(model, h)


def _setup_finite(ctx: Context) -> None:
    sym = od.interval(-1.0, 1.0)
    ctx.inputs.update(
        poly3=_mc(od.make_model("polynomial", sym, degree=3), 0.01),
        poly5=_mc(od.make_model("polynomial", sym, degree=5), 0.001),
        wpoly2=_mc(od.make_model("weighted-polynomial", degree=2), 0.005),
        expsum2=_mc(od.make_model("exponential-sum", a=[1.0, 1.5], **{"lambda": [1.0, 2.0]}), 0.01),
    )


def _random_designs(grid, seed: int):
    rng = np.random.default_rng(seed)
    designs = []
    for _ in range(N_DOMINATOR_DESIGNS):
        idx = rng.choice(len(grid), size=3, replace=False)
        designs.append(od.design(grid.points[idx], rng.uniform(0.05, 1.0, 3), normalize=True))
    return designs


def _setup_lp(ctx: Context) -> None:
    sym = od.interval(-1.0, 1.0)
    poly3 = od.make_model("polynomial", sym, degree=3)
    growth = od.make_model("exp-growth-2f", theta=[1.0, 1.0, 1.0])
    mixture = od.make_model("mixture-poly-exp", theta3=1.0)
    xexp = od.make_model("xexp-decay", od.interval(0.0, 3.0), rate=1.0)
    xexp_grid = od.discretize(xexp.space, 0.02)
    mix_grid = od.discretize(mixture.space, 0.01)
    mix_d = od.solve(mixture, mix_grid, od.parse_criterion("D", mixture.k),
                     od.SolverOptions(seed=SOLVER_SEED))
    ctx.inputs.update(
        poly3_01=_mc(poly3, 0.01),
        poly3_001=_mc(poly3, 0.001),
        line2f=_mc(od.make_model("linear-2f-no-intercept"), 0.01),
        expsum1=_mc(od.make_model("exponential-sum", a=[1.0], **{"lambda": [1.0]}), 0.01),
        growth=_mc(growth, 0.02),
        xexp=(xexp, xexp_grid),
        random_designs=_random_designs(xexp_grid, ctx.seed),
        growth_off_class=(growth, od.design([[0, 0], [0, 0.5], [1, 0], [1, 1]])),
        interaction_diag=(
            od.make_model("interaction-2f"),
            od.design([[0.3, 0.7], [0.6, 0.4], [0.0, 0.0]], [0.3, 0.3, 0.4]),
        ),
        growth_corners=(growth, od.design([[0, 0], [0, 1], [1, 0], [1, 1]])),
        mixture_d=(mixture, mix_d.design),
    )


LARGE_FAMILIES = {
    "interaction": ("interaction-2f", {}),
    "growth": ("exp-growth-2f", {"theta": [1.0, 1.0, 1.0]}),
    "product": ("exp-product-2f", {"theta": [1.0, 1.0, 1.0]}),
    "line2f": ("linear-2f-no-intercept", {}),
    "mixture": ("mixture-poly-exp", {"theta3": 1.0}),
}
LARGE_H = 0.0025


def _setup_large(ctx: Context) -> None:
    for key, (family, params) in LARGE_FAMILIES.items():
        ctx.inputs[key] = _mc(od.make_model(family, **params), LARGE_H)


def _ops_finite() -> list[Op]:
    ops = [solve_op(f"poly3-h0.01-{c}", "poly3", c) for c in ("D", "A", "p:-2", "p:0.5")]
    ops += [solve_op(f"poly5-h0.001-{c}", "poly5", c) for c in ("D", "A")]
    ops += [solve_op(f"wpoly2-h0.005-{c}", "wpoly2", c) for c in ("D", "A")]
    ops += [solve_op(f"expsum2-h0.01-{c}", "expsum2", c) for c in ("D", "A")]
    return ops


def _ops_lp() -> list[Op]:
    ops = [
        solve_op("poly3-h0.01-E", "poly3_01", "E"),
        solve_op("poly3-h0.001-E", "poly3_001", "E"),
        solve_op("line2f-h0.01-E", "line2f", "E"),
        solve_op("expsum1-h0.01-E", "expsum1", "E"),
        solve_op("growth-h0.02-E", "growth", "E"),
    ]
    ops += [dominator_op(f"dominator-{i:02d}", i) for i in range(N_DOMINATOR_DESIGNS)]
    ops += [
        conditional_audit_op(
            "audit-growth-axis0", "growth_off_class", od.SliceMap("coordinate", axis=0),
            "inadmissible",
        ),
        conditional_audit_op(
            "audit-interaction-linear11", "interaction_diag",
            od.SliceMap("linear", coeffs=(1.0, 1.0)), "inadmissible",
        ),
        product_audit_op("product-growth-corners", "growth_corners"),
        product_audit_op("product-mixture-D", "mixture_d"),
    ]
    return ops


def _ops_large() -> list[Op]:
    ops = []
    for key in LARGE_FAMILIES:
        for c in ("D", "A"):
            ops.append(solve_op(f"{key}-h{LARGE_H}-{c}", key, c, reports=True))
    ops.append(solve_op(f"line2f-h{LARGE_H}-E", "line2f", "E", reports=True))
    ops.append(
        cli_solve_op(
            f"cli-interaction-h{LARGE_H}-D", {"family": "interaction-2f", "params": {}}, "D", LARGE_H
        )
    )
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Context], None]
    ops: Callable[[], list]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("finite-p-1d", _setup_finite, _ops_finite),
        Workload("lp-cutting-plane", _setup_lp, _ops_lp),
        Workload("large-grid-2d", _setup_large, _ops_large),
    )
}
