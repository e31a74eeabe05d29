"""Optimal-weight solver: sensitivity-driven exchange with weight refinement.

Outer loop: add the candidate with the largest sensitivity value against the
current dual certificate. Inner loop: reoptimize weights on the fixed support
(projected Newton on log phi_p for every finite exponent, D included;
cutting-plane LP for E, whose objective is nonsmooth exactly at the optima
that matter).

D on a two-factor model with a marginal model on both axes first tries the
product of the marginal D-optimal designs, D-optimal for additive models with
an intercept and for Kronecker-product models (Schwabe 1996, Optimum Designs
for Multi-Factor Models, LNS 113), whose D optima are not unique. The
full-grid certificate decides: a product that fails it falls to the loop.

The E refinement (``projections.max_lambda_min``) stops when the LP bound is
within the inner tolerance (``kkt_tol / 20``, relative) of the best smallest
eigenvalue, or when the LP returns the same weights twice, or after 80 LPs.
A fixed 1e-9 relative gap is not a usable stop: HiGHS solves to an absolute
feasibility tolerance of 1e-7, against smallest eigenvalues near 0.04, so
the LP bound stalls above such a gap and the loop would spend its whole cap
re-solving the same vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import build_certificate
from .conditional import marginal_model
from .criteria import NEG_INF, Criterion, psd_eig
from .designs import Design, gram, merge_close, prune, sweep
from .errors import DegenerateModelError, EmptyDesignError, NoConditionalModelError
from .errors import TruncationSlackError, ValidationError
from .models import CandidateSet, ModelSpec, gram_rank, interval, truncated_axes
from .projections import max_lambda_min


@dataclass(frozen=True)
class SolverOptions:
    max_outer_iters: int = 200
    max_inner_iters: int = 3000
    kkt_tol: float = 1e-5            # slack allowed in the normalized normality inequality
    weight_floor: float = 1e-6       # atoms below this are pruned before reporting
    seed: int = 0                    # shuffles the initial spread design
    init: object = "spread"          # "spread" or a Design

    def __post_init__(self):
        if self.kkt_tol <= 0 or self.weight_floor <= 0:
            raise ValidationError("tolerances must be positive")
        if self.max_outer_iters < 1 or self.max_inner_iters < 1:
            raise ValidationError("iteration budgets must be >= 1")


@dataclass(frozen=True)
class SolveReport:
    """Result of ``solve``.

    ``iterations`` counts outer iterations and ``history`` holds the refined
    criterion value after each. A D design built from its marginals (see the
    module docstring) reports 0 and (): the outer loop did not run, and the
    marginal solves' own counts are not carried over.
    """

    design: Design
    criterion_value: float
    iterations: int
    max_sensitivity_violation: float
    converged: bool
    history: tuple = ()  # refined criterion value after each outer iteration


def _log_phi(F: np.ndarray, w: np.ndarray, p: float, hessian: bool = False):
    """log phi_p, normalized sensitivities and, on request, the Hessian in w.

    Uses eigenvalues floored at 1e-14 * lambda_max so transient singular
    iterates do not blow up. The sensitivities are the gradient of log phi_p
    with respect to w. With h_i the rows of F in the eigenbasis of M and
    K_i = vec(h_i h_i^T), the Hessian is K diag(Gamma) K^T / tr(M^p) -
    p sens sens^T, where Gamma holds the divided differences of t^(p-1) at
    pairs of eigenvalues (Daleckii-Krein); tr(M^0) reads s. Returns
    (log value, sens, Hessian or None).
    """
    vals, vecs = psd_eig(gram(F, w))
    s = vals.size
    lmax = max(vals[-1], 1e-300)
    floored = np.maximum(vals, 1e-14 * lmax)
    H = F @ vecs
    if p == 0:
        log_value = float(np.mean(np.log(floored)))
        sens = (H**2 / floored).sum(axis=1) / s
        tr = float(s)
    else:
        tr = (floored**p).sum()
        log_value = float(np.log(tr / s) / p)
        sens = (H**2 * floored ** (p - 1.0)).sum(axis=1) / tr
    if not hessian:
        return log_value, sens, None
    K = (H[:, :, None] * H[:, None, :]).reshape(H.shape[0], s * s)
    gamma = _divided_differences(floored, p - 1.0).ravel()
    hess = (K * gamma) @ K.T / tr - p * np.outer(sens, sens)
    return log_value, sens, hess


def _divided_differences(lam: np.ndarray, q: float) -> np.ndarray:
    """(a^q - b^q) / (a - b) over all pairs of the positive lam; q a^(q-1) where a = b.

    Written as b^(q-1) expm1(q L) / expm1(L) with b the smaller value and
    L = log(a/b) >= 0, which neither cancels for close pairs nor overflows.
    """
    hi = np.maximum.outer(lam, lam)
    lo = np.minimum.outer(lam, lam)
    L = np.log(hi / lo)
    ratio = np.divide(np.expm1(q * L), np.expm1(L), out=np.full_like(L, q), where=L > 0)
    return lo ** (q - 1.0) * ratio


def _newton_direction(sens, hess, free):
    """Newton ascent step of log phi_p on the free atoms, with sum(d) = 0."""
    idx = np.flatnonzero(free)
    n = idx.size
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n] = -hess[np.ix_(idx, idx)]
    kkt[n, n] = 0.0
    sol = np.linalg.lstsq(kkt, np.append(sens[idx], 0.0), rcond=None)[0]
    d = np.zeros(sens.size)
    d[idx] = sol[:n]
    return d


def _projected_newton(F, w, p, tol, max_iter):
    """Projected Newton ascent of log phi_p over the simplex on a fixed support.

    The free set is the atoms with positive weight plus the zero-weight atoms
    whose sensitivity exceeds 1 (the ones the normality inequality says to
    grow). A zero-weight atom the Newton step would push negative is dropped
    from the free set and the step solved again: left in, it caps the step
    length at 0 and the loop stalls. The step is cut at the boundary of the
    simplex, where the blocking weights are set to exactly 0, then
    backtracked until it meets the Armijo condition on log phi_p. As log
    phi_p is concave, a slope along d at the trial point of at least 1e-4
    times the slope at w implies that condition; the slope test still decides
    where the gain is below the rounding of log phi_p, which for an
    ill-conditioned M (poly-4 A on [0, 1]: cond 1.6e5) swamps the last
    Newton steps and would stall the loop short of its tolerance. The loop
    stops once the normality inequality and the support equalities both hold
    within ``tol``. The first alone accepted support atoms with sensitivity
    below 1: p = 0.9 on linear-2f-no-intercept stopped at edge weights
    6.8e-5 and 3e-8, where both should be 3.4e-5.
    """
    log_val, sens, hess = _log_phi(F, w, p, hessian=True)
    for _ in range(max_iter):
        if sens.max() - 1.0 <= tol and sens[w > 0].min() >= 1.0 - tol:
            break
        free = (w > 0) | (sens > 1.0)
        while True:
            d = _newton_direction(sens, hess, free)
            blocked = free & (w == 0) & (d < 0)
            if not blocked.any():
                break
            free &= ~blocked
        slope = float(sens @ d)
        if not slope > 0:
            break
        shrinking = d < 0
        ratios = np.full(w.size, np.inf)
        ratios[shrinking] = w[shrinking] / -d[shrinking]
        cap = float(ratios.min())
        step = min(1.0, cap)
        for _ in range(40):
            w_try = w + step * d
            if step == cap:
                w_try[ratios <= cap] = 0.0
            w_try = np.maximum(w_try, 0.0)
            w_try /= w_try.sum()
            log_try, sens_try, hess_try = _log_phi(F, w_try, p, hessian=True)
            if log_try >= log_val + 1e-4 * step * slope or sens_try @ d >= 1e-4 * slope:
                w, log_val, sens, hess = w_try, log_try, sens_try, hess_try
                break
            step *= 0.5
        else:
            break
    return w


def _refine(F, w, criterion: Criterion, tol, max_iter):
    if criterion.p == NEG_INF:
        k = F.shape[1]
        return max_lambda_min(F, np.zeros((k, k)), w, tol, min(80, max_iter))[0]
    return _projected_newton(F, w, criterion.p, tol, max_iter)


def _spread_indices(points: np.ndarray, F: np.ndarray, k: int, rng) -> list[int]:
    """k+1 max-min-distance points from a seeded start, extended until F spans."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    cap = min(n, 3 * k + 6)
    while len(chosen) < min(k + 1, n):
        nxt = int(np.argmax(d2))
        if d2[nxt] <= 0 and len(chosen) >= 1:
            break
        chosen.append(nxt)
        d2 = np.minimum(d2, ((points - points[nxt]) ** 2).sum(axis=1))
    while gram_rank(F[chosen]) < k and len(chosen) < cap:
        nxt = int(np.argmax(d2))
        if d2[nxt] <= 0:
            break
        chosen.append(nxt)
        d2 = np.minimum(d2, ((points - points[nxt]) ** 2).sum(axis=1))
    return chosen


def _boundary_sensitivity(candidates: CandidateSet, sens: np.ndarray) -> float:
    """Largest sensitivity on the upper boundary of any truncated axis."""
    worst = -np.inf
    for j in truncated_axes(candidates.space):
        hi = candidates.space.bounds[j][1]
        on_edge = np.abs(candidates.points[:, j] - hi) <= 1e-12 * max(abs(hi), 1.0)
        if np.any(on_edge):
            worst = max(worst, float(sens[on_edge].max()))
    return worst


def refine_weights(model, support, criterion: Criterion, opts: SolverOptions | None = None) -> Design:
    """Optimal weights on a fixed support; atoms whose weight collapses are dropped."""
    opts = opts or SolverOptions()
    pts = np.atleast_2d(np.asarray(support, dtype=float))
    F = model.eval_many(pts)
    k = F.shape[1]
    if criterion.p <= 0 and gram_rank(F) < k:
        raise DegenerateModelError("support does not span the regression space")
    w = np.full(pts.shape[0], 1.0 / pts.shape[0])
    w = _refine(F, w, criterion, opts.kkt_tol / 20.0, opts.max_inner_iters)
    keep = w > 1e-12
    return Design(pts[keep], w[keep] / w[keep].sum())


def _marginal_product(model, candidates, F_all, criterion, opts) -> SolveReport | None:
    """The product of the marginal D-optimal designs if it certifies, else None.

    Each marginal is solved on the distinct candidate coordinates of its axis,
    whose pairs must be the whole candidate set. The product must pass the
    checks the outer loop ends with: the full-grid normality inequality within
    ``opts.kkt_tol``, and slack at every truncated boundary.
    """
    try:
        marginals = [marginal_model(model, axis) for axis in (0, 1)]
    except NoConditionalModelError:
        return None
    coords = [np.unique(candidates.points[:, axis])[:, None] for axis in (0, 1)]
    if len(candidates) != coords[0].size * coords[1].size:
        return None
    margins = []
    for axis, mm in enumerate(marginals):
        lo, hi = candidates.space.bounds[axis]
        sub = CandidateSet(interval(lo, hi), coords[axis], (candidates.steps[axis],))
        try:
            margins.append(solve(mm, sub, Criterion(0.0, mm.k), opts).design)
        except DegenerateModelError:  # too few coordinates to fit the marginal
            return None
    d1, d2 = margins
    pts = np.array([[a[0], b[0]] for a in d1.points for b in d2.points])
    w = np.outer(d1.weights, d2.weights).ravel()
    F_sup = model.eval_many(pts)
    cert = build_certificate(criterion, gram(F_sup, w), model, candidates, floor_singular=True)
    sens_all = sweep(F_all, cert.N)
    viol = float(sens_all.max() - 1.0)
    tight_edge = _boundary_sensitivity(candidates, sens_all) >= 1.0 - 10.0 * opts.kkt_tol
    if viol > opts.kkt_tol or tight_edge:
        return None
    return SolveReport(
        design=Design(pts, w),
        criterion_value=_value(F_sup, w, criterion.p),
        iterations=0,
        max_sensitivity_violation=max(viol, 0.0),
        converged=True,
    )


def solve(
    model: ModelSpec,
    candidates: CandidateSet,
    criterion: Criterion,
    opts: SolverOptions | None = None,
) -> SolveReport:
    """Compute a criterion-optimal design over the candidate set.

    Convergence means the normalized sensitivity satisfies the normality
    inequality within ``opts.kkt_tol`` at every candidate. The reported design
    is pruned at the weight floor and grid-step-merged, with weights refined
    once more on the cleaned support.
    """
    opts = opts or SolverOptions()
    criterion = Criterion(criterion.p, model.k)
    k = model.k
    F_all = model.eval_many(candidates.points)
    if criterion.p <= 0 and gram_rank(F_all) < k:
        raise DegenerateModelError(
            f"candidates span only rank {gram_rank(F_all)} < k={k}; "
            "the criterion value is identically zero"
        )

    if criterion.p == 0 and not isinstance(opts.init, Design):
        report = _marginal_product(model, candidates, F_all, criterion, opts)
        if report is not None:
            return report

    rng = np.random.default_rng(opts.seed)
    if isinstance(opts.init, Design):
        sup_pts = np.array(opts.init.points, dtype=float)
        w = np.array(opts.init.weights, dtype=float)
    else:
        idx = _spread_indices(candidates.points, F_all, k, rng)
        sup_pts = candidates.points[idx].copy()
        w = np.full(len(idx), 1.0 / len(idx))
    F_sup = model.eval_many(sup_pts)

    inner_tol = opts.kkt_tol / 20.0
    quick_iters = min(300, opts.max_inner_iters)  # full budget is spent in the final polish
    viol = np.inf
    sens_all = None
    history = []
    outer = 0
    while outer < opts.max_outer_iters:
        outer += 1
        w = _refine(F_sup, w, criterion, inner_tol, quick_iters)
        M = gram(F_sup, w)
        cert = build_certificate(criterion, M, model, candidates, floor_singular=True)
        sens_all = sweep(F_all, cert.N)
        viol = float(sens_all.max() - 1.0)
        history.append(_value(F_sup, w, criterion.p))
        if viol <= opts.kkt_tol:
            sup_pts, w, sens_all, viol = _consolidate(
                model, candidates, F_all, criterion, opts, inner_tol,
                (sup_pts, w, sens_all, viol),
            )
            F_sup = model.eval_many(sup_pts)
            break
        j = int(np.argmax(sens_all))  # lowest index wins exact ties
        x_new = candidates.points[j]
        dup = np.nonzero(np.all(np.abs(sup_pts - x_new) < 1e-15, axis=1))[0]
        if dup.size:
            # an already-supported atom violates: the refinement stopped short
            # on this support (quick inner budget, line search or LP cap), or
            # the certificate's dual is not its gradient (E, floored singular
            # M); step toward the atom directly
            idx_new = int(dup[0])
        else:
            sup_pts = np.vstack([sup_pts, x_new])
            F_sup = np.vstack([F_sup, F_all[j]])
            w = np.append(w, 0.0)
            idx_new = w.size - 1
        w_next = _blend_toward_atom(F_sup, w, idx_new, criterion.p)
        if dup.size and np.array_equal(w_next, w):
            # a zero-progress step toward a supported violator (a multiple
            # smallest eigenvalue cannot be lifted along one atom): enlarge the
            # support with the best unsupported violator and let the weight
            # refinement act on them jointly
            added = False
            for jj in np.argsort(-sens_all):
                if sens_all[jj] <= 1.0 + opts.kkt_tol:
                    break
                x2 = candidates.points[jj]
                if np.any(np.all(np.abs(sup_pts - x2) < 1e-15, axis=1)):
                    continue
                sup_pts = np.vstack([sup_pts, x2])
                F_sup = np.vstack([F_sup, F_all[int(jj)]])
                w = np.append(w, 0.0)
                added = True
                break
            if not added:
                break  # every violating candidate is already supported
        else:
            w = w_next
    if viol > opts.kkt_tol:
        # unconverged exit (budget or a fully-supported violation set): report
        # the cleanest state that does not worsen the residual
        sup_pts, w, sens_all, viol = _consolidate(
            model, candidates, F_all, criterion, opts, inner_tol,
            (sup_pts, w, sens_all, viol), require=viol,
        )
        F_sup = model.eval_many(sup_pts)

    keep = w > 1e-15
    sup_pts, w = sup_pts[keep], w[keep] / w[keep].sum()
    F_sup = model.eval_many(sup_pts)
    dsgn = Design(sup_pts, w)
    value = _value(F_sup, w, criterion.p)
    converged = viol <= opts.kkt_tol
    if converged:
        edge = _boundary_sensitivity(candidates, sens_all)
        if edge >= 1.0 - 10.0 * opts.kkt_tol:
            raise TruncationSlackError(
                f"normality inequality is tight ({edge:.6f}) at a truncated boundary; "
                "enlarge the truncation bound and re-solve"
            )
    return SolveReport(
        design=dsgn,
        criterion_value=value,
        iterations=outer,
        max_sensitivity_violation=max(viol, 0.0),
        converged=converged,
        history=tuple(history),
    )


def _value(F: np.ndarray, w: np.ndarray, p: float) -> float:
    if p == NEG_INF:
        return float(np.linalg.eigvalsh(gram(F, w))[0])
    return float(np.exp(_log_phi(F, w, p)[0]))


def _blend_toward_atom(F, w, idx, p):
    """Optimal step from w toward the unit mass at atom idx.

    The criterion is concave along the segment, so a ternary search gives the
    exact step; alpha = 0 is always admissible, keeping the ascent monotone.
    """
    e = np.zeros(w.size)
    e[idx] = 1.0

    def val(a):
        return _value(F, (1.0 - a) * w + a * e, p)

    lo, hi = 0.0, 0.99
    for _ in range(60):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if val(m1) < val(m2):
            lo = m1
        else:
            hi = m2
    a = 0.5 * (lo + hi)
    if val(a) <= val(0.0):
        a = 0.0
    return (1.0 - a) * w + a * e


def _consolidate(model, candidates, F_all, criterion, opts, inner_tol, state, require=None):
    """Prune dust and merge grid-split atoms at escalating radii, with verification.

    Grid discretization can smear one continuum support point over several
    neighboring candidates, so a single grid step is not always enough to
    collapse the cluster. Each rung (prune, then 1x/2x/4x/8x the grid step)
    re-refines the weights with the full inner budget and is accepted only if
    the normality check still passes (at ``opts.kkt_tol``, or, for unconverged
    best-effort cleanups, at the incoming residual ``require``); otherwise
    escalation stops and the last verified state is kept.
    """
    sup_pts, w, sens_all, viol = state
    threshold = opts.kkt_tol if require is None else max(opts.kkt_tol, require)
    step = candidates.max_step
    for radius in (0.0, step, 2 * step, 4 * step, 8 * step):
        keep = w > 1e-15
        try:
            d = prune(Design(sup_pts[keep], w[keep] / w[keep].sum()), opts.weight_floor)
        except EmptyDesignError:
            break
        if radius > 0:
            d = merge_close(d, radius)
        if d.m == sup_pts.shape[0] and radius > 0:
            continue
        F_sup = model.eval_many(d.points)
        w2 = _refine(F_sup, d.weights.copy(), criterion, inner_tol, opts.max_inner_iters)
        M2 = gram(F_sup, w2)
        cert2 = build_certificate(criterion, M2, model, candidates, floor_singular=True)
        sens2 = sweep(F_all, cert2.N)
        viol2 = float(sens2.max() - 1.0)
        if viol2 <= threshold:
            sup_pts, w, sens_all, viol = d.points.copy(), w2, sens2, viol2
        elif radius > 0:
            break
    return sup_pts, w, sens_all, viol
