"""Optimal-weight solver: sensitivity-driven exchange with weight refinement.

Outer loop: add the unsupported candidate with the largest sensitivity value
against the current dual certificate, at weight zero. Inner loop: reoptimize
weights on the fixed support by projected Newton ascent, of log phi_p for
every finite exponent, D included, and for E of the log-barrier smoothing of
the smallest eigenvalue along its central path, whose duality gap is the
stop rule (Boyd & Vandenberghe, Convex Optimization, ch. 11).

Each evaluation of the objective decomposes M(w) once, with a bare ``eigh``
(``_eigh``), and gives the value and the gradient. A Newton step builds the
Hessian at the point it starts from only, never at a line-search trial it
rejects; the refined value goes to ``history`` as the loop left it. Each
outer iteration builds the certificate of M(w) and checks the normality
inequality of its N on the full grid (``_violation``) with
``CandidateSet.grid_max``: on a screened grid the kept rows' bound accepts
within ``kkt_tol``, and only a larger bound sweeps every row, which also
finds the violators. The certificate's eigenbasis Z is computed only when
first read, which the loop never does.

D on a two-factor model that can be additive with an intercept or a Kronecker
product of its marginal models (the span of f on each axis line) starts from
the product of the marginal D-optimal designs, D-optimal there though not
unique (Schwabe 1996, Optimum Designs for Multi-Factor Models, LNS 113).

A solve with no product start, E included, is first solved on the
candidates that ``CandidateSet.screen`` keeps: along each axis whose lines
share one scalar g with f affine in g, only the two extremes of g (de la
Garza 1954), which raises M in the Loewner order and so lowers no phi_p value. A
converged optimum there is the start; an unconverged one is dropped for the
spread start.

Either start only starts the full-grid loop, which certifies it with one
check or adds the violators it finds: the loop alone decides convergence.
One verified cleanup follows (``_consolidate``); ``converged`` is then
``certify``'s verdict (``certificates.verdict``) on the last check's certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import Certificate, build_certificate, verdict
from .conditional import _has_constants, marginal_model
from .criteria import _SING_REL, NEG_INF, Criterion
from .designs import Design, gram, merge_close, prune, sweep
from .errors import DegenerateModelError, NoConditionalModelError
from .errors import TruncationSlackError, ValidationError
from .models import CandidateSet, DesignSpace, ModelSpec, gram_rank

MAX_INNER_ITERS = 3000  # Newton budget of a final weight polish
WEIGHT_FLOOR = 1e-6     # atoms below this are pruned before reporting


@dataclass(frozen=True)
class SolverOptions:
    max_outer_iters: int = 200
    kkt_tol: float = 1e-5            # slack allowed in the normalized normality inequality
    seed: int = 0                    # shuffles the initial spread design
    init: object = "spread"          # "spread" or a Design

    def __post_init__(self):
        if not 0 < self.kkt_tol < np.inf:  # also rejects NaN
            raise ValidationError("tolerances must be positive and finite")
        budget = self.max_outer_iters
        if not isinstance(budget, (int, np.integer)) or budget < 1:
            raise ValidationError("iteration budgets must be integers >= 1")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")
        spread = isinstance(self.init, str) and self.init == "spread"
        if not (spread or isinstance(self.init, Design)):
            raise ValidationError(f"init must be 'spread' or a Design, got {self.init!r}")


@dataclass(frozen=True)
class SolveReport:
    """Result of ``solve``.

    ``iterations`` counts outer iterations and ``history`` holds the refined
    criterion value after each. A solve from a start design (the D marginal
    product or the screened subset's optimum, see the module docstring)
    reports its full-grid iterations only, 1 when the start certifies.
    ``converged`` is ``certify``'s verdict at ``kkt_tol`` on ``certificate``,
    the dual matrix (singular eigenvalues floored) of the last full-grid check
    (``CandidateSet.grid_max``).
    """

    design: Design
    criterion_value: float
    iterations: int
    max_sensitivity_violation: float
    converged: bool
    certificate: Certificate
    history: tuple = ()  # refined criterion value after each outer iteration


def _eigh(F: np.ndarray, w: np.ndarray):
    """Eigenvalues (ascending, clipped at 0) and eigenvectors of M(w) = gram(F, w).

    ``psd_eig`` without its checks: ``gram`` returns a bitwise-symmetric M and
    the weights here are never negative, so its symmetry and definiteness
    checks cannot fire and its symmetrization returns M unchanged. The weight
    loops decompose M once per evaluation through this.
    """
    vals, vecs = np.linalg.eigh(gram(F, w))
    return np.clip(vals, 0.0, None), vecs


def _log_phi(F: np.ndarray, w: np.ndarray, p: float):
    """log phi_p, normalized sensitivities and the Hessian in w, built on call.

    Uses eigenvalues floored at 1e-14 * lambda_max so transient singular
    iterates do not blow up. The sensitivities are the gradient of log phi_p
    with respect to w. With h_i the rows of F in the eigenbasis of M and
    K_i = vec(h_i h_i^T), the Hessian is K diag(Gamma) K^T / tr(M^p) -
    p sens sens^T, where Gamma holds the divided differences of t^(p-1) at
    pairs of eigenvalues (Daleckii-Krein); tr(M^0) reads s. Returns
    (log value, sens, hessian), where hessian() builds the Hessian from the
    same eigendecomposition, so a line-search trial that is rejected builds none.
    """
    vals, vecs = _eigh(F, w)
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

    def hessian():
        K = (H[:, :, None] * H[:, None, :]).reshape(H.shape[0], s * s)
        gamma = _divided_differences(floored, p - 1.0).ravel()
        return (K * gamma) @ K.T / tr - p * np.outer(sens, sens)

    return log_value, sens, hessian


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


def _newton_direction(grad, hess, free):
    """Newton ascent step on the free atoms, with sum(d) = 0."""
    idx = np.flatnonzero(free)
    n = idx.size
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n] = -hess[np.ix_(idx, idx)]
    kkt[n, n] = 0.0
    sol = np.linalg.lstsq(kkt, np.append(grad[idx], 0.0), rcond=None)[0]
    d = np.zeros(grad.size)
    d[idx] = sol[:n]
    return d


def _projected_newton(objective, w, tol, max_iter):
    """Projected Newton ascent of a concave objective over the simplex on a fixed support.

    ``objective(w)`` returns (value, gradient, hessian), where hessian()
    builds the Hessian: only a point that a Newton step starts from builds
    one, never a rejected line-search trial. The normalized
    sensitivities are the gradient over w . gradient; the free set is the
    atoms with positive weight plus the zero-weight atoms whose sensitivity
    exceeds 1 (the ones the normality inequality says to grow). A zero-weight
    atom the Newton step would push negative is dropped from the free set and
    the step solved again: left in, it caps the step length at 0 and the loop
    stalls. The step is cut at the boundary of the simplex, where the
    blocking weights are set to exactly 0, then backtracked until it meets
    the Armijo condition. As the objective is concave, a slope along d at the
    trial point of at least 1e-4 times the slope at w implies that condition;
    the slope test still decides where the gain is below the rounding of the
    value, which for an ill-conditioned M (poly-4 A on [0, 1]: cond 1.6e5)
    swamps the last Newton steps and would stall the loop short of its
    tolerance. The loop stops once the normality inequality and the support
    equalities both hold within ``tol``. The first alone accepted support
    atoms with sensitivity below 1: p = 0.9 on linear-2f-no-intercept stopped
    at edge weights 6.8e-5 and 3e-8, where both should be 3.4e-5. Returns
    (weights, Newton steps taken, gradient and value at the returned weights).
    """
    value, grad, hessian = objective(w)
    steps = 0
    while steps < max_iter:
        sens = grad / (w @ grad)
        if sens.max() - 1.0 <= tol and sens[w > 0].min() >= 1.0 - tol:
            break
        steps += 1
        hess = hessian()
        free = (w > 0) | (sens > 1.0)
        while True:
            d = _newton_direction(grad, hess, free)
            blocked = free & (w == 0) & (d < 0)
            if not blocked.any():
                break
            free &= ~blocked
        slope = float(grad @ d)
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
            val_try, grad_try, hessian_try = objective(w_try)
            if val_try >= value + 1e-4 * step * slope or grad_try @ d >= 1e-4 * slope:
                w, value, grad, hessian = w_try, val_try, grad_try, hessian_try
                break
            step *= 0.5
        else:
            break
    return w, steps, grad, value


def _smoothed_lambda_min(F: np.ndarray, w: np.ndarray, mu: float):
    """psi_mu(w) = max_t [t + mu log det(M(w) - t I)], its gradient and its Hessian in w,
    the last built on call (see ``_log_phi``).

    The maximizing t solves mu tr(G^-1) = 1 with G = M - t I; d = lambda_min - t
    lies in [mu, k mu], and Newton's method from d = mu climbs to the root
    monotonically because the equation is convex and decreasing in d. With
    S = F G^-1 F^T and a_i = f_i^T G^-2 f_i the gradient is mu diag(S) and,
    t eliminated, the Hessian is -mu S o S + mu a a^T / tr(G^-2). The
    gradient is f_i^T Z f_i for the trace-one Z = mu G^-1, so its largest
    entry bounds the smallest eigenvalue of every design on the support.
    """
    vals, vecs = _eigh(F, w)
    gaps = vals - vals[0]
    d = mu
    for _ in range(100):
        inv = 1.0 / (gaps + d)
        step = (mu * inv.sum() - 1.0) / (mu * (inv**2).sum())
        d += step
        if step <= 1e-15 * d:
            break
    inv = 1.0 / (gaps + d)
    H = F @ vecs
    value = vals[0] - d - mu * np.log(inv).sum()
    S = (H * inv) @ H.T

    def hessian():
        a = (H**2) @ inv**2
        return mu * (np.outer(a, a) / (inv**2).sum() - S**2)

    return value, mu * np.diag(S), hessian


def _refine_e(F, w, tol, max_iter):
    """E weights on a fixed support by the log-barrier central path.

    Centers psi_mu with ``_projected_newton`` and cuts mu 100x per round. It
    stops once the largest f_i^T Z f_i over the support is within ``tol``
    (relative) of lambda_min: that bound is the duality gap, so the weights
    are then E-optimal on the support to ``tol``. Each centering runs to
    tol / 2, leaving the other half of the gap to mu. Every round spends at
    least one unit of ``max_iter``, so the loop ends.

    The path starts where the incoming weights' own gap puts it. With v the
    eigenvector of lambda_min(M(w)), every w* on the support has
    lambda_min(M(w*)) <= v^T M(w*) v <= max_i (f_i^T v)^2, so
    gap0 = max_i (f_i^T v)^2 - lambda_min bounds how far w is from E-optimal,
    and mu starts at min(lambda_max / k, max(gap0, tol lambda_min) / (k - 1)).
    The outer loop hands in near-optimal weights plus one zero-weight atom,
    where the cold start lambda_max / k spent rounds far above that gap. A
    singular M(w), or k = 1, starts at lambda_max / k.
    """
    k = F.shape[1]
    vals, vecs = _eigh(F, w)
    mu = vals[-1] / k
    if k > 1 and vals[0] > _SING_REL * vals[-1]:
        gap0 = float(((F @ vecs[:, 0]) ** 2).max()) - vals[0]
        mu = min(mu, max(gap0, tol * vals[0]) / (k - 1))
    while max_iter > 0:
        w, steps, grad, _ = _projected_newton(
            lambda v: _smoothed_lambda_min(F, v, mu), w, tol / 2, max_iter
        )
        max_iter -= max(steps, 1)
        lam_min = _eigh(F, w)[0][0]
        bound = grad.max()
        if bound - lam_min <= tol * lam_min:
            break
        mu /= 100.0
    return w


def _refine(F, w, criterion: Criterion, tol, max_iter):
    """Weights refined on a fixed support and the criterion value there.

    For finite p the value is the Newton loop's own last one."""
    if criterion.p == NEG_INF:
        w = _refine_e(F, w, tol, max_iter)
        return w, _value(F, w, NEG_INF)
    p = criterion.p
    w, _, _, log_value = _projected_newton(lambda v: _log_phi(F, v, p), w, tol, max_iter)
    return w, float(np.exp(log_value))


def _spread_indices(candidates: CandidateSet, F: np.ndarray, k: int, rng) -> list[int]:
    """Indices of k+1 max-min-distance candidates from a seeded start,
    extended until F spans.

    Squared distances are summed axis by axis into reused n-vectors, so no
    n x q temporary is made. On a product (``product_axes``) each axis's
    squared differences are formed on its own coordinates and broadcast
    over the grid's shape, whose flat order is the row order, and the
    points are never formed; otherwise they are formed from strided columns
    of the points. Either way the q squared terms of a row are added in
    order, which is bit-identical to ``((points - p) ** 2).sum(axis=1)`` for
    q < 8, where numpy's row sum is a plain left-to-right loop, so the
    chosen indices are the same.
    """
    n, axes = len(candidates), candidates.product_axes
    if axes is None:
        cols = list(candidates.points.T)
    else:
        cols = [a.reshape([-1 if i == j else 1 for i in range(len(axes))]) for j, a in enumerate(axes)]
    d2 = np.empty(np.broadcast_shapes(*(c.shape for c in cols)))
    new, terms = np.empty_like(d2), {c.shape: np.empty(c.shape) for c in cols}

    def squared_distances(i: int, out: np.ndarray) -> None:
        p = candidates.rows([i])[0]
        for j, c in enumerate(cols):
            term = terms[c.shape]
            np.subtract(c, p[j], out=term)
            np.square(term, out=term)
            if j:
                out += term
            else:
                out[...] = term

    chosen = [int(rng.integers(n))]
    squared_distances(chosen[0], d2)
    cap = min(n, 3 * k + 6)
    while len(chosen) < cap and (len(chosen) < k + 1 or gram_rank(F[chosen]) < k):
        nxt = int(np.argmax(d2))
        if d2.flat[nxt] <= 0:
            break
        chosen.append(nxt)
        squared_distances(nxt, new)
        np.minimum(d2, new, out=d2)
    return chosen


def refine_weights(model, support, criterion: Criterion, opts: SolverOptions | None = None) -> Design:
    """Optimal weights on a fixed support; atoms whose weight collapses are dropped."""
    opts = opts or SolverOptions()
    pts = np.atleast_2d(np.asarray(support, dtype=float))
    F = model.eval_many(pts)
    k = F.shape[1]
    if criterion.p <= 0 and gram_rank(F) < k:
        raise DegenerateModelError("support does not span the regression space")
    w = np.full(pts.shape[0], 1.0 / pts.shape[0])
    w = _refine(F, w, criterion, opts.kkt_tol / 20.0, MAX_INNER_ITERS)[0]
    keep = w > 1e-12
    return Design(pts[keep], w[keep] / w[keep].sum())


def _marginal_product(model, candidates, opts) -> Design | None:
    """The product of the marginal D-optimal designs, where it can be optimal,
    else None.

    Tried where Schwabe's theorem can hold: k = k1 k2 (Kronecker), or
    k = k1 + k2 - 1 with the constants in both marginal spans (additive), and
    never for a conditional model, such as a marginal in its own solve. Each
    marginal is solved on its axis line at the distinct candidate coordinates
    of its axis (``product_axes``), whose pairs must be the whole candidate
    set in grid order. The product is only a start: the full-grid loop
    decides convergence.
    """
    if not isinstance(model, ModelSpec) or candidates.product_axes is None:
        return None
    try:
        marginals = [marginal_model(model, axis) for axis in (0, 1)]
    except NoConditionalModelError:
        return None
    (k1, k2), k = (mm.k for mm in marginals), model.k
    if k != k1 * k2 and not (k == k1 + k2 - 1 and all(map(_has_constants, marginals))):
        return None
    margins = []
    for axis, (mm, coords) in enumerate(zip(marginals, candidates.product_axes)):
        line = np.repeat(mm.grid[:1], coords.size, axis=0)
        line[:, axis] = coords
        # merge radius: the axis's step; no truncated axes: the full-grid loop checks them
        sub = CandidateSet(DesignSpace(model.space.bounds), line, (candidates.steps[axis],) * 2)
        try:
            margins.append(solve(mm, sub, Criterion(0.0, mm.k), opts).design)
        except DegenerateModelError:  # too few coordinates to fit the marginal
            return None
    d1, d2 = margins
    pts = np.array([[a[0], b[1]] for a in d1.points for b in d2.points])
    return Design(pts, np.outer(d1.weights, d2.weights).ravel())


def _screened_start(model, candidates, criterion, opts) -> Design | None:
    """The design solved on the screened candidates, if the screen removes any
    and that solve converges, else None.

    See ``CandidateSet.screen``. The reduced set keeps the grid's space and
    steps, and the screen leaves it of full rank; the exchange loop runs on it
    from the spread start. Its optimum is only a start: the full-grid loop
    decides convergence.
    """
    kept = candidates.screen(model)
    if kept is None:
        return None
    reduced = CandidateSet(candidates.space, candidates.rows(kept), candidates.steps)
    try:
        rep = _exchange(model, reduced, criterion, opts, "spread")
    except TruncationSlackError:
        return None
    return rep.design if rep.converged else None


def solve(
    model: ModelSpec,
    candidates: CandidateSet,
    criterion: Criterion,
    opts: SolverOptions | None = None,
) -> SolveReport:
    """Compute a criterion-optimal design over the candidate set.

    Convergence is ``certify``'s verdict within ``opts.kkt_tol``. The reported
    design is pruned at the weight floor and merged within 4.5 grid steps,
    with weights refined once more, where that verifies. A solve from a start
    design (see the module docstring) reports its full-grid iterations only.
    """
    opts = opts or SolverOptions()
    criterion = Criterion(criterion.p, model.k)
    k = model.k
    if criterion.p <= 0 and candidates.features_rank(model) < k:
        raise DegenerateModelError(
            f"candidates span only rank {candidates.features_rank(model)} < k={k}; "
            "the criterion value is identically zero"
        )

    init = opts.init
    # refine_weights's guard: E weights on a support that does not span have no certificate
    if criterion.p == NEG_INF and isinstance(init, Design) and gram_rank(model.eval_many(init.points)) < k:
        raise DegenerateModelError("E needs a start design that spans the regression space")
    if criterion.p == 0 and not isinstance(init, Design):
        init = _marginal_product(model, candidates, opts) or init
    if not isinstance(init, Design):
        init = _screened_start(model, candidates, criterion, opts) or init
    return _exchange(model, candidates, criterion, opts, init)


def _exchange(model, candidates, criterion, opts, init) -> SolveReport:
    """The outer exchange loop of ``solve`` from ``init``, a Design or the spread start."""
    k = model.k
    F_all = candidates.features(model)
    if isinstance(init, Design):
        sup_pts = np.array(init.points, dtype=float)
        w = np.array(init.weights, dtype=float)
    else:
        idx = _spread_indices(candidates, F_all, k, np.random.default_rng(opts.seed))
        sup_pts = candidates.rows(idx)
        w = np.full(len(idx), 1.0 / len(idx))
    F_sup = model.eval_many(sup_pts)

    inner_tol = opts.kkt_tol / 20.0
    history = []
    outer = 0
    while outer < opts.max_outer_iters:
        outer += 1
        # a short Newton budget per iteration; the full one is spent in the final polish
        w, value = _refine(F_sup, w, criterion, inner_tol, 300)
        sens_all, viol, cert = _violation(model, candidates, criterion, F_sup, w, opts.kkt_tol)
        history.append(value)
        if viol <= opts.kkt_tol:
            break
        best = _best_unsupported(sens_all, candidates, sup_pts, 1.0 + opts.kkt_tol)
        if best is None:
            break  # every violating candidate is already supported
        j, row = best
        sup_pts = np.vstack([sup_pts, row])
        F_sup = np.vstack([F_sup, F_all[j]])
        w = np.append(w, 0.0)
    # an unconverged exit (budget or a fully-supported violation set) is
    # cleaned up too, at its own residual, which the cleanup must not worsen
    sup_pts, w, sens_all, viol, cert = _consolidate(
        model, candidates, criterion, inner_tol,
        (sup_pts, w, sens_all, viol, cert), max(opts.kkt_tol, viol),
    )

    keep = w > 1e-15
    sup_pts, w = sup_pts[keep], w[keep] / w[keep].sum()
    F_sup = model.eval_many(sup_pts)
    M, support_sens = gram(F_sup, w), sweep(F_sup, cert.N)
    converged = verdict(criterion, M, cert, viol, support_sens, opts.kkt_tol)[0]
    edge = candidates.tight_truncation(sens_all, opts.kkt_tol)
    if converged and edge is not None:
        raise TruncationSlackError(
            f"normality inequality is tight ({edge:.6f}) at a truncated boundary; "
            "enlarge the truncation bound and re-solve"
        )
    return SolveReport(
        design=Design(sup_pts, w),
        criterion_value=_value(F_sup, w, criterion.p),
        iterations=outer,
        max_sensitivity_violation=max(viol, 0.0),
        converged=converged,
        certificate=cert,
        history=tuple(history),
    )


def _best_unsupported(sens, candidates, sup_pts, threshold) -> tuple | None:
    """(index, row) of the largest sensitivity above ``threshold`` among
    candidates not in the support, or None if there is none. The lowest
    index wins exact ties. Each row probed is read once, by
    ``CandidateSet.rows``, and the one returned is that (1, q) read."""
    masked = sens
    while True:
        j = int(np.argmax(masked))
        if masked[j] <= threshold:
            return None
        row = candidates.rows([j])
        if not np.any(np.all(np.abs(sup_pts - row) < 1e-15, axis=1)):
            return j, row
        if masked is sens:
            masked = sens.copy()
        masked[j] = -np.inf


def _value(F: np.ndarray, w: np.ndarray, p: float) -> float:
    if p == NEG_INF:
        return float(np.linalg.eigvalsh(gram(F, w))[0])
    return float(np.exp(_log_phi(F, w, p)[0]))


def _violation(model, candidates, criterion, F_sup, w, tol):
    """The certificate of M(w), the sensitivities over the full grid against
    it, and their largest excess over 1: (sensitivities, excess, certificate),
    from ``CandidateSet.grid_max`` at ``tol``. Where the screen's kept rows
    accept, the sensitivities are None, which the loop reads only past ``tol``.
    """
    cert = build_certificate(criterion, gram(F_sup, w), model, candidates, floor_singular=True)
    sens_all, _, worst = candidates.grid_max(model, cert.N, tol)
    return sens_all, worst - 1.0, cert


def _consolidate(model, candidates, criterion, inner_tol, state, threshold):
    """Prune dust and merge grid-split atoms in one verified cleanup.

    Grid discretization can smear one continuum support point over several
    neighboring candidates. The cleanup drops atoms below ``WEIGHT_FLOOR``,
    merges atoms within 4.5 grid steps (between the lattice distances
    sqrt(20) and 5, so no merge hinges on rounding), refines the weights with
    the full inner budget and checks the grid once (``_violation``, which
    accepts on the screen's kept rows where they decide). The result replaces
    ``state`` (support, weights, sensitivities, violation, certificate) if
    its violation is within ``threshold``. A cleanup that drops only atoms of
    weight <= 1e-15, which the report drops anyway, is skipped.
    """
    sup_pts, w = state[:2]
    keep = w > 1e-15
    d = prune(Design(sup_pts[keep], w[keep] / w[keep].sum()), WEIGHT_FLOOR)
    d = merge_close(d, 4.5 * candidates.max_step)
    if d.m == np.count_nonzero(keep):
        return state
    F_sup = model.eval_many(d.points)
    w2 = _refine(F_sup, d.weights.copy(), criterion, inner_tol, MAX_INNER_ITERS)[0]
    sens2, viol2, cert2 = _violation(model, candidates, criterion, F_sup, w2, threshold)
    return (d.points.copy(), w2, sens2, viol2, cert2) if viol2 <= threshold else state
