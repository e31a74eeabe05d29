"""Dual certificates, equivalence-theorem verification, and support geometry.

A certificate is a nonnegative definite matrix N with f(x)^T N f(x) <= 1 on
the design space, trace(M N) = 1 and phi(M) * polar(N) = 1; its existence is
equivalent to optimality of M. The eigenbasis of N also exposes the geometry
of the support: squared transformed coordinates of support points, along the
eigenvectors in the range of N, fall on supporting hyperplanes of a polytope,
and where N is nonsingular points sharing a hyperplane share the Euclidean
length of their regression vector. Norm-injectivity of the induced design
space bounds support sizes (saturation).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .criteria import _SING_REL, NEG_INF, Criterion, finite_p_dual
from .criteria import phi, polar, psd_eig
from .designs import SWEEP_BLOCK, Design, _top_rows, components, gram, rank_one_batch
from .designs import rank_one_lp, sweep
from .errors import InconsistencyError, ValidationError
from .models import FAMILIES, CandidateSet, ModelSpec, make_model

GROUP_TOL = 1e-5   # squared coordinates this close (relative) share a hyperplane
ACTIVE_TOL = 1e-4  # slack allowed in the support equalities and the grid inequality
E_GAP_REL = 1e-8   # eigenvalues of M this close (relative) to lambda_min form the E eigenspace


@dataclass(frozen=True)
class Certificate:
    """Dual matrix N, with its eigendecomposition computed on first read.

    ``Z`` (orthonormal eigenvectors as columns) and ``eigenvalues``
    (descending, clipped at 0) come from one ``eigh`` of N, which is made,
    and checked to be orthogonal and to recompose N, when either is first
    read. The solver's outer loop reads only N, so it never computes them.
    """

    N: np.ndarray
    bound: ClassVar[float] = 1.0  # the normality bound on f'Nf, equal at the support

    def __post_init__(self):
        N = np.asarray(self.N, dtype=float)
        N.setflags(write=False)
        object.__setattr__(self, "N", N)

    @property
    def Z(self) -> np.ndarray:
        return self._spectrum[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._spectrum[1]

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        nvals, nvecs = np.linalg.eigh(self.N)
        order = np.argsort(nvals)[::-1]
        Z, eigenvalues = nvecs[:, order], np.clip(nvals[order], 0.0, None)
        scale = max(float(np.abs(self.N).max()), 1.0)
        if np.abs(Z @ Z.T - np.eye(Z.shape[0])).max() > 1e-10:
            raise ValidationError("certificate eigenvector matrix is not orthogonal")
        recomposed = (Z * eigenvalues) @ Z.T
        if np.abs(recomposed - self.N).max() > 1e-10 * scale:
            raise ValidationError("certificate eigendecomposition does not recompose N")
        Z.setflags(write=False)
        eigenvalues.setflags(write=False)
        return Z, eigenvalues


@dataclass(frozen=True)
class CertifyReport:
    optimal: bool
    duality_products: tuple[float, float]  # (trace(MN), phi(M)*polar(N))
    max_violation: float
    violating_point: np.ndarray | None
    support_equalities: np.ndarray
    certificate: Certificate


@dataclass(frozen=True)
class PolytopeReport:
    hyperplanes: list  # (constraint vector c, list of active support points)
    squared_coords: dict  # support point tuple -> squared transformed coordinates
    length_groups: list  # partition of support points by ||f(x)||


@dataclass(frozen=True)
class GarzaReport:
    norm_values: np.ndarray  # ||f(x)||^2 per candidate
    max_equal_group_size: int
    saturation_bound: int
    injective: bool
    monotone_axis_note: str | None


def _row_norms2(F: np.ndarray) -> np.ndarray:
    """||f_i||^2 for every row f_i of F, summed column by column in blocks
    of ``SWEEP_BLOCK`` rows.

    The result is the only n-vector made, and the columns of a column-major
    F are contiguous. Adding the k squared columns in order is bit-identical
    to ``(F**2).sum(axis=1)`` for k < 8, where numpy's row sum is a plain
    left-to-right loop; from k = 8 on numpy sums pairwise and the two differ
    by rounding.
    """
    n = F.shape[0]
    out = np.empty(n)
    col = np.empty(min(n, SWEEP_BLOCK))
    for start in range(0, n, SWEEP_BLOCK):
        dest, blk = out[start : start + SWEEP_BLOCK], F[start : start + SWEEP_BLOCK]
        np.square(blk[:, 0], out=dest)
        for j in range(1, F.shape[1]):
            term = col[: dest.size]
            np.square(blk[:, j], out=term)
            dest += term
    return out


def _e_eigenspace_minimax(H: np.ndarray) -> np.ndarray:
    """Trace-one PSD E on the minimal eigenspace minimizing max_i h_i' E h_i
    over the rows h_i of H (``build_certificate`` passes the grid rows that
    ``CandidateSet.accept_rows`` names).

    The sensitivities are linear in the entries of E, so the minimax is the
    dual of one ``rank_one_lp`` with R = 0 and a free scale column: E is its
    N (trace one, diagonal in [0, 1], off-diagonal in [-0.5, 0.5]) and the
    minimax its t. The LP starts from the rows of largest ||h_i|| and prices
    the others in. Definiteness is enforced by eigenvalue cuts, directions
    of cost 0 (v' E v >= 0). An indefinite E is swept at two PSD points of
    trace one: its eigenvalue-clipped projection and, if that misses the
    LP's bound, the point where the segment from its diagonal to it leaves
    the PSD cone (``_shrink_off_diagonal``). The first to meet the LP's
    bound ends the cuts; on a few rows the off-diagonal is often free at
    the optimum, and the second point then saves the cut rounds. Where
    several E attain the minimax, the LP's vertex (or its PSD point) is
    returned.
    """
    r = H.shape[1]
    box = (0.5 * np.eye(r) - 0.5, 0.5 * np.eye(r) + 0.5)  # diagonal [0, 1], off-diagonal +-0.5
    norms2 = _row_norms2(H)
    best_E, best_worst = np.eye(r) / r, float(norms2.max() / r)
    active, cuts = _top_rows(norms2, rank_one_batch(r)), np.zeros((r, 0))

    def meets(E, bound) -> bool:
        """Sweep E, keep it if it is the best so far, and say whether the
        best meets the LP's ``bound`` up to rounding."""
        nonlocal best_E, best_worst
        worst = float(sweep(H, E).max())
        if worst < best_worst:
            best_E, best_worst = E, worst
        return best_worst <= bound * (1.0 + 1e-9)

    for _ in range(40):  # eigenvalue-cut rounds
        res = rank_one_lp(H, np.zeros((r, r)), cuts, 0.0, box, active, scale=True)
        if res.status != 0:
            break
        active = res.active
        vals, vecs = np.linalg.eigh(res.N)
        definite = vals[0] >= -1e-11
        clipped = np.clip(vals, 0.0, None)
        E = (vecs * (clipped if definite else clipped / clipped.sum())) @ vecs.T
        if meets(E, res.t) or definite or meets(_shrink_off_diagonal(res.N), res.t):
            break
        cuts = np.column_stack([cuts, vecs[:, 0]])
    return best_E


def _shrink_off_diagonal(X: np.ndarray) -> np.ndarray:
    """diag(X) + s offdiag(X) for the largest s in [0, 1] that is PSD.

    The diagonal d is clipped at 0, so s = 0 is PSD, and the trace is kept.
    With B = offdiag(X) scaled by d^(-1/2) on both sides, the matrix is
    d^(1/2) (I + s B) d^(1/2), PSD for s <= -1 / lambda_min(B). Rows with
    d = 0 lose their off-diagonal, as no PSD matrix has one there.
    """
    d = np.clip(np.diag(X), 0.0, None)
    off = X - np.diag(np.diag(X))
    off[d == 0.0, :] = 0.0
    off[:, d == 0.0] = 0.0
    scale = np.divide(1.0, np.sqrt(d), out=np.zeros_like(d), where=d > 0.0)
    lowest = float(np.linalg.eigvalsh(off * scale[:, None] * scale)[0])
    return np.diag(d) + (1.0 if lowest >= -1.0 else -1.0 / lowest) * off


def build_certificate(
    criterion: Criterion,
    M: np.ndarray,
    model: ModelSpec,
    candidates: CandidateSet,
    floor_singular: bool = False,
) -> Certificate:
    """Matrix-mean dual certificate for M.

    Finite p: N = M^(p-1) / trace(M^p), closed form. E-criterion: N is built on
    the smallest eigenspace V; with multiplicity N = V E V' / lambda_min, E
    the trace-one factor that minimizes the worst sensitivity over the rows
    ``CandidateSet.accept_rows`` names: the dual of the rank-one LP
    (``rank_one_lp``, the dominator search's kernel too), with those rows
    priced in by ``sweep`` and eigenvalue cuts (``_e_eigenspace_minimax``).
    On a screened grid with no truncated axis those are the screen's kept
    rows, which span all k dimensions, so every trace-one PSD E has a
    positive maximum there; N is PSD, so ``kept_max``'s bound covers every
    grid row; and the kept-row minimax is at most the full-grid one, so its
    E's grid maximum is within the bound's slack of it. Elsewhere every row
    is read. The whole grid is left to ``CandidateSet.grid_max``, which
    every caller runs on N.
    """
    vals, vecs = psd_eig(M, criterion.s)
    if criterion.p == NEG_INF:
        lmax = max(vals[-1], 1e-300)
        if vals[0] <= _SING_REL * lmax:
            raise ValidationError("singular matrix has no E-certificate; value is zero")
        lam_min = vals[0]
        cluster = vals - lam_min < E_GAP_REL * lmax
        r = int(cluster.sum())
        if r == 1:
            N = np.outer(vecs[:, 0], vecs[:, 0]) / lam_min
        else:
            V = vecs[:, :r]
            F, rows = candidates.features(model), candidates.accept_rows(model)
            # column-major like the features, for the sweeps of the minimax
            H = (V.T @ (F if rows is None else F[rows]).T).T
            E = _e_eigenspace_minimax(H)
            N = V @ E @ V.T / lam_min
    else:
        N = finite_p_dual(vals, vecs, criterion.p, floor_singular)

    return Certificate(N=0.5 * (N + N.T))


def verdict(criterion: Criterion, M, cert: Certificate, viol: float, support_sens, tol: float):
    """Equivalence-theorem verdict on M: (optimal, trace(MN), phi(M) * polar(N)).

    Optimal means, within ``tol``: (i) the normality inequality at every
    candidate (``viol`` is the largest f'Nf less the bound), (ii) equality at
    every support atom (``support_sens``), (iii) trace(MN) = 1 and
    phi(M) * polar(N) = 1. A singular M at p < 1 is never optimal.
    """
    vals = psd_eig(M)[0]
    tr = float(np.trace(M @ cert.N))
    product = float(phi(criterion, M) * polar(criterion, cert.N))
    optimal = (
        not (criterion.p < 1 and vals[0] <= _SING_REL * max(vals[-1], 1e-300))
        and viol <= tol
        and np.abs(support_sens - cert.bound).max() <= tol
        and abs(tr - 1.0) <= tol
        and abs(product - 1.0) <= tol
    )
    return bool(optimal), tr, product


def certify(
    design: Design,
    model: ModelSpec,
    candidates: CandidateSet,
    criterion: Criterion,
    tol: float = 1e-5,
) -> CertifyReport:
    """Equivalence-theorem check of a design against its own dual certificate.

    ``optimal`` is ``verdict`` within ``tol``, the rule ``solve`` applies too.
    The normality inequality is checked by ``CandidateSet.grid_max``: on a
    screened grid the kept rows' bound accepts within ``tol``, and
    ``max_violation`` is then the kept set's, below the grid's by at most the
    bound's slack (rounding on exactly affine axes); otherwise every row is
    swept, and the largest gives ``max_violation`` and ``violating_point``.
    A design certified optimal whose sensitivity reaches 1 - 10 tol on the
    upper boundary of a truncated axis warns, as ``solve`` raises
    ``TruncationSlackError`` only on a converged solve. This is a
    computation, not a search: it always returns a report.
    """
    if not 0 <= tol < np.inf:  # also rejects NaN
        raise ValidationError(f"certify tolerance must be nonnegative and finite, got {tol:g}")
    criterion = Criterion(criterion.p, model.k)
    F_sup = model.eval_many(design.points)
    M = gram(F_sup, design.weights)
    cert = build_certificate(criterion, M, model, candidates)
    sens, j, worst = candidates.grid_max(model, cert.N, tol)
    viol = worst - cert.bound
    support_sens = sweep(F_sup, cert.N)
    optimal, tr, product = verdict(criterion, M, cert, viol, support_sens, tol)
    if optimal and candidates.tight_truncation(sens, tol) is not None:
        warnings.warn(
            "normality inequality is tight on the boundary of a truncated axis; "
            "the continuum guarantee may need a larger domain", RuntimeWarning, stacklevel=2,
        )
    return CertifyReport(
        optimal=optimal,
        duality_products=(tr, product),
        max_violation=max(viol, 0.0),
        violating_point=candidates.rows([j])[0] if viol > tol else None,
        support_equalities=support_sens,
        certificate=cert,
    )


def polytope_report(
    certificate: Certificate,
    design: Design,
    model: ModelSpec,
    candidates: CandidateSet,
) -> PolytopeReport:
    """Supporting-hyperplane structure of a certified design.

    Squared transformed coordinates of a support point give the coefficient
    vector of the hyperplane its constraint is active on. Points are grouped
    on the coordinates along the eigenvectors in the range of N (eigenvalues
    above ``_SING_REL`` of the largest), as the others do not enter f'Nf.
    More than k groups raise ``InconsistencyError``; a grid-certified design
    whose atoms lie off the grid's points can reach that (mixture-poly-exp D
    at h = 0.05). Where N is nonsingular, points sharing a
    hyperplane share all k squared coordinates, so their lengths ||f(x)||
    must agree; a singular N, such as the rank-one E certificate of a simple
    smallest eigenvalue, claims no such equality. ``c`` is the group's mean
    over all k squared coordinates, and ``length_groups`` partitions the
    support by ||f(x)|| either way.
    The certificate must hold on the grid within ``ACTIVE_TOL``
    (``CandidateSet.grid_max``: the kept rows' bound accepts, and only the
    full grid rejects).
    """
    Z, lam = certificate.Z, certificate.eigenvalues
    k = Z.shape[0]
    F_sup = model.eval_many(design.points)
    P_sup = (F_sup @ Z) ** 2
    activity = P_sup @ lam
    bad = np.abs(activity - certificate.bound) > ACTIVE_TOL
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise InconsistencyError(
            f"support atom {design.points[i].tolist()} is not active on the certificate "
            f"(value {activity[i]:.8f})"
        )
    worst = candidates.grid_max(model, certificate.N, ACTIVE_TOL)[2]
    if worst > certificate.bound + ACTIVE_TOL:
        raise InconsistencyError(
            f"certificate violates the normality inequality on the grid (max {worst:.8f})"
        )

    # the squared coordinates on the eigenvectors in the range of N, the
    # first ``rank`` columns, decide which hyperplane a support point is on
    rank = int(np.count_nonzero(lam > _SING_REL * lam[0]))
    P_range = P_sup[:, :rank]
    scale = max(float(np.abs(P_range).max()), 1.0)
    near = np.abs(P_range[:, None, :] - P_range[None, :, :]).max(axis=2) <= GROUP_TOL * scale
    groups = components(near)
    if len(groups) > k:
        raise InconsistencyError(f"{len(groups)} hyperplanes found; at most {k} can be active")

    norms = np.sqrt((F_sup**2).sum(axis=1))
    nmax = max(float(norms.max()), 1e-300)
    hyperplanes = []
    for idx in groups:
        c = P_sup[idx].mean(axis=0)
        spread = norms[idx].max() - norms[idx].min()
        if rank == k and spread > 1e-5 * nmax:
            raise InconsistencyError(
                "support points on one hyperplane have different regression-vector lengths"
            )
        hyperplanes.append((c, [tuple(design.points[i]) for i in idx]))

    length_groups = [
        [tuple(design.points[i]) for i in idx]
        for idx in components(np.abs(norms[:, None] - norms[None, :]) <= 1e-5 * nmax)
    ]
    squared_coords = {tuple(design.points[i]): P_sup[i].copy() for i in range(design.m)}
    return PolytopeReport(
        hyperplanes=hyperplanes, squared_coords=squared_coords, length_groups=length_groups
    )


def _biggest_bucket(norms2: np.ndarray, norm_tol: float) -> int:
    """Size of the largest bucket of the sorted values, a bucket ending
    wherever consecutive sorted values are more than ``norm_tol`` apart.

    The sorted copy is the one n-vector made: its gaps are read
    ``SWEEP_BLOCK`` at a time, and a run that crosses a block edge carries
    its start into the next block.
    """
    s = np.sort(norms2)
    biggest, start = 0, 0  # start: the first index of the current run
    for lo in range(0, s.size - 1, SWEEP_BLOCK):
        starts = np.flatnonzero(np.diff(s[lo : lo + SWEEP_BLOCK + 1]) > norm_tol) + (lo + 1)
        if starts.size:
            biggest = max(biggest, int(np.diff(starts, prepend=start).max()))
            start = int(starts[-1])
    return max(biggest, s.size - start)


def garza_report(model: ModelSpec, candidates: CandidateSet, norm_tol: float = 1e-7) -> GarzaReport:
    """Norm map of the induced design space and the resulting saturation bound.

    Buckets ||f(x)||^2 over the grid within ``norm_tol``; an injective norm map
    bounds optimal supports by k points, and at most N equal-length vectors
    bound them by N*k. The largest bucket's size is computed once per grid,
    model and tolerance and kept beside the regression matrix, for the same
    model object; ``norm_values`` is computed on every call and is the caller's.
    Beside it, the first call holds one n-sized temporary, the sorted copy
    ``_biggest_bucket`` reads, and no call forms the grid's points.
    """
    if not 0 <= norm_tol < np.inf:  # also rejects NaN
        raise ValidationError(f"norm tolerance must be nonnegative and finite, got {norm_tol:g}")
    norms2 = _row_norms2(candidates.features(model))
    biggest = candidates._derived(
        model, ("garza", norm_tol), lambda _: _biggest_bucket(norms2, norm_tol)
    )
    injective = biggest == 1
    k = model.k
    note = None
    if candidates.space.dimension == 1 and len(candidates) > 1:
        # a one-axis product is its strictly increasing axis, already in order
        along = norms2
        if candidates.product_axes is None:
            along = norms2[np.argsort(candidates.points[:, 0], kind="stable")]
        diffs = np.diff(along)
        if np.all(diffs > 0):
            note = "norm map strictly increasing along the predictor axis"
        elif np.all(diffs < 0):
            note = "norm map strictly decreasing along the predictor axis"
    return GarzaReport(
        norm_values=norms2,
        max_equal_group_size=biggest,
        saturation_bound=int(k if injective else biggest * k),
        injective=injective,
        monotone_axis_note=note,
    )


def exp_saturation_check(a, lam) -> tuple[bool, np.ndarray]:
    """Saturation condition for exponential-sum models: rate_i >= |a_i| / 2."""
    FAMILIES["exponential-sum"].validate({"a": a, "lambda": lam})
    a = np.asarray(a, dtype=float)
    lam = np.asarray(lam, dtype=float)
    margins = lam - np.abs(a) / 2.0
    return bool(np.all(margins >= 0)), margins


def rescale_invariance_check(a, lam, c: float, candidates: CandidateSet) -> bool:
    """D-designs for an exponential sum are invariant under rescaling every
    amplitude to a common constant c > 0 (a diagonal reparametrization).

    Solves both problems on the same grid and compares supports (within one
    grid step) and weights (within 1e-4).
    """
    from .solver import solve

    if c <= 0:
        raise ValidationError("amplitude constant c must be positive")
    criterion = Criterion(0.0)
    L = len(np.asarray(lam).ravel())
    model_f = make_model("exponential-sum", space=candidates.space, a=list(a), **{"lambda": list(lam)})
    model_g = make_model(
        "exponential-sum", space=candidates.space, a=[-float(c)] * L, **{"lambda": list(lam)}
    )
    rep_f = solve(model_f, candidates, criterion)
    rep_g = solve(model_g, candidates, criterion)
    if not (rep_f.converged and rep_g.converged):
        return False
    df, dg = rep_f.design, rep_g.design
    if df.m != dg.m:
        return False
    of = np.argsort(df.points[:, 0])
    og = np.argsort(dg.points[:, 0])
    step = candidates.max_step
    if np.any(np.abs(df.points[of, 0] - dg.points[og, 0]) > step + 1e-9):
        return False
    return bool(np.all(np.abs(df.weights[of] - dg.weights[og]) <= 1e-4))
