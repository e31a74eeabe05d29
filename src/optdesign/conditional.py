"""Slice decompositions, lifted conditional models, and admissibility audits.

Slicing a design by a scalar map t(x) yields marginal weights and conditional
designs. On each slice of a two-factor model the conditional model is f in an
orthonormal basis of its span there, the lift matrix tying it back to the
full model, so the full information matrix recomposes exactly. A marginal
model is the conditional model of one axis line, where the span of f is the
same on every parallel line. Dominance in the Loewner order is decided by
one test, ``dominates``, in the frame whitened by M1 + M2; inadmissibility
of any conditional design lifts to inadmissibility of the full design by
splicing in the dominating slice.

The dominator search is a chain of four stages that stops at the first
verified dominator or proof: a single candidate takes one comparison; where
the span of f on a line is h P_d (h > 0, P_d the polynomials of degree
<= d; the constants plus one function g is P_1 in g), de la Garza's moment
problem gives the index proof, at d = 0 all mass on the largest h (a proof
when that does not dominate), at d = 1 with h constant the two ends of g
at d1's mean in closed form, or else one LP with 2d + 1 rows; the
exhaustive two-point oracle (at most two parameters, at most 200
candidates); then one Kelley cutting-plane loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .designs import Design, gram, info_matrix
from .errors import NoConditionalModelError, ValidationError
from .models import CandidateSet, ModelSpec, discretize, gram_rank, interval

SLICE_TOL = 1e-9       # atoms whose t-values (or marginal coordinates) differ by at most this are grouped
DOMINANCE_TOL = 1e-7   # relative Loewner-order slack of the dominator search
AUDIT_STEP = 0.01      # grid step of the slice and marginal grids the audits search
KELLEY_ROUNDS = 30     # LP solves per stage of the dominator search's Kelley loop
# positions, as fractions of the other axis, of the lines on which
# marginal_model compares the span of f
_MARGINAL_SAMPLES = (0.0, 0.13, 0.29, 0.47, 0.61, 0.83, 1.0)


@dataclass(frozen=True)
class SliceMap:
    """Scalar map defining slices: a coordinate or a linear functional of x."""

    kind: str  # "coordinate" | "linear"
    axis: int | None = None
    coeffs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind == "coordinate":
            axis = self.axis
            if isinstance(axis, bool) or not isinstance(axis, (int, np.integer)) or axis < 0:
                raise ValidationError(
                    f"coordinate slice map needs a nonnegative integer axis, got {axis!r}"
                )
        elif self.kind == "linear":
            if not self.coeffs or all(c == 0 for c in self.coeffs):
                raise ValidationError("linear slice map needs nonzero coefficients")
            coeffs = tuple(float(c) for c in self.coeffs)
            if not np.all(np.isfinite(coeffs)):
                raise ValidationError(
                    f"linear slice map needs finite coefficients, got {list(coeffs)}"
                )
            object.__setattr__(self, "coeffs", coeffs)
        else:
            raise ValidationError(f"unknown slice map kind {self.kind!r}")

    def values(self, points: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "coordinate":
            return X[:, self.axis]
        return X @ np.asarray(self.coeffs)


@dataclass(frozen=True)
class ConditionalModel:
    """f on the slice t(x) = t as f~ = U^T f, where the lift U (k x r) is an
    orthonormal basis of the span of f there; ``eval_many`` gives f(x)^T U.
    ``grid`` is the slice grid the lift was taken on and the audit searches."""

    model: ModelSpec
    lift: np.ndarray  # (k, r), orthonormal columns
    slice_space: str
    t: float
    grid: np.ndarray = field(repr=False)  # (n, 2) points of the slice grid

    @property
    def k(self) -> int:
        return self.lift.shape[1]

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        return self.model.eval_many(points) @ self.lift


@dataclass(frozen=True)
class Slice:
    t: float
    weight: float
    conditional_design: Design
    conditional: ConditionalModel


@dataclass(frozen=True)
class SliceDecomposition:
    slices: tuple[Slice, ...]


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """``inadmissible`` carries a verified dominator. ``admissible`` is a
    proof when ``note`` says that no design on the candidates dominates (by
    the index of a polynomial design, which at degree 1 puts its atoms at
    the ends of g, the degree-0 design on the largest h, a Kelley dual
    bound, or a single candidate); otherwise it means no dominator was
    found within budget, which is evidence, not proof. ``inconclusive``
    marks a search that ran out of budget while still making progress."""

    admissible: bool
    dominator: Design | None = None
    evidence: tuple = ()
    inconclusive: bool = False
    note: str = ""

    def __post_init__(self):
        if not self.admissible and not self.inconclusive and self.dominator is None:
            raise ValidationError("an inadmissible verdict must carry a verified dominator")
        if self.admissible and (self.dominator is not None or self.inconclusive):
            raise ValidationError("an admissible verdict cannot carry a dominator")


# ---------------------------------------------------------------------------
# conditional models
# ---------------------------------------------------------------------------

def _check_slicing(model: ModelSpec, tmap: SliceMap) -> None:
    """Raise unless tmap cuts model's two-factor design space into segments."""
    if model.space.dimension != 2 or (tmap.kind == "coordinate" and tmap.axis > 1):
        raise NoConditionalModelError(
            f"no conditional model for {model.family} under {tmap.kind} slicing: "
            "slices are taken of two-factor models, along axis 0 or 1 or a linear map"
        )
    if tmap.kind == "linear" and (len(tmap.coeffs) != 2 or 0.0 in tmap.coeffs):
        hint = f"axis:{1 - tmap.coeffs.index(0.0)}" if len(tmap.coeffs) == 2 else "linear:<a1,a2>"
        raise ValidationError(
            f"linear slice map needs 2 nonzero coefficients, got {list(tmap.coeffs)}; use {hint}"
        )


def slice_grid(model: ModelSpec, tmap: SliceMap, t: float, step: float = 0.01) -> np.ndarray:
    """Candidate points on the slice {x : t(x) = t}, as full-dimensional points."""
    _check_slicing(model, tmap)
    bounds = model.space.bounds
    if tmap.kind == "coordinate":
        grid = discretize(interval(*bounds[1 - tmap.axis]), step).points[:, 0]
        pts = np.full((grid.size, 2), float(t))
        pts[:, 1 - tmap.axis] = grid
        return pts
    (lo1, hi1), (lo2, hi2) = bounds
    a1, a2 = tmap.coeffs
    # the x0 range keeping x1 = (t - a1 x0) / a2 inside its bounds
    ends = sorted(((t - a2 * hi2) / a1, (t - a2 * lo2) / a1))
    lo, hi = max(lo1, ends[0]), min(hi1, ends[1])
    if hi < lo - 1e-12:
        raise ValidationError(f"slice t={t:g} does not intersect the design space")
    if hi - lo < 1e-12:
        xs = np.array([0.5 * (lo + hi)])
    else:
        xs = discretize(interval(lo, hi), step).points[:, 0]
    return np.stack([xs, (t - a1 * xs) / a2], axis=1)


def _conditional(model, tmap: SliceMap, t: float, grid: np.ndarray, F: np.ndarray):
    """The model on slice t in the first ``gram_rank(F)`` right singular vectors
    of F, each signed so that its largest-magnitude entry is positive. The
    Loewner order and the dominator search's cuts are invariant under
    rotations of an orthonormal basis, so any such basis gives the same verdicts."""
    U = np.linalg.svd(F, full_matrices=False)[2][: gram_rank(F)].T
    U *= np.sign(U[np.abs(U).argmax(axis=0), np.arange(U.shape[1])])
    U += 0.0  # a sign flip turns 0.0 into -0.0; the lift's zeros stay unsigned
    U.setflags(write=False)
    grid.setflags(write=False)
    if tmap.kind == "coordinate":
        return ConditionalModel(model, U, f"x{tmap.axis}={t:g}", t, grid)
    a1, a2 = tmap.coeffs
    return ConditionalModel(model, U, f"{a1:g} x0 + {a2:g} x1 = {t:g}", t, grid)


def conditional_model(
    model: ModelSpec, tmap: SliceMap, t: float, points: np.ndarray
) -> ConditionalModel:
    """f on the slice {x : t(x) = t}, in the span of f over the slice grid and
    ``points`` (the conditional design's atoms, which may lie off the grid)."""
    grid = slice_grid(model, tmap, t, AUDIT_STEP)
    return _conditional(model, tmap, t, grid, model.eval_many(np.vstack([grid, points])))


def _spans(A: np.ndarray, B: np.ndarray) -> bool:
    """Whether the columns of B lie in the column span of A, at ``gram_rank``'s tolerance."""
    return gram_rank(np.hstack([A, B])) == gram_rank(A)


def marginal_model(model: ModelSpec, axis: int) -> ConditionalModel:
    """The conditional model of the axis line through the other factor's lower
    bound, on at most 200 points, when the conditional vector is free of the
    other factor t: f on the lines at the 7 values of t in ``_MARGINAL_SAMPLES``,
    side by side, must have the rank of f on the first line alone."""
    if model.space.dimension != 2 or axis not in (0, 1) or not model.space.is_bounded:
        raise NoConditionalModelError(f"no marginal model for {model.family} on axis {axis}")
    other, samples = 1 - axis, np.asarray(_MARGINAL_SAMPLES)
    (a, b), (lo, hi) = model.space.bounds[axis], model.space.bounds[other]
    tmap = SliceMap("coordinate", axis=other)
    grid = slice_grid(model, tmap, lo, max(AUDIT_STEP, (b - a) / 199.0))
    lines = np.tile(grid, (samples.size, 1))
    lines[:, other] = np.repeat(lo + (hi - lo) * samples, len(grid))
    F = model.eval_many(lines).reshape(samples.size, len(grid), -1)
    if not _spans(F[0], np.hstack(F[1:])):
        raise NoConditionalModelError(f"{model.family}: the axis-{axis} span varies with x{other}")
    return _conditional(model, tmap, lo, grid, F[0])


def _has_constants(cm: ConditionalModel) -> bool:
    """Whether the constants lie in the span of cm on its grid."""
    return _spans(cm.eval_many(cm.grid), np.ones((len(cm.grid), 1)))


def _line_coordinate(points: np.ndarray, at: np.ndarray) -> np.ndarray | None:
    """The coordinate of largest spread over ``points``, read at the rows of
    ``at`` and mapped affinely so that ``points`` span [-1, 1]; None when
    the points do not spread."""
    j = int(np.ptp(points, axis=0).argmax())
    lo, hi = float(points[:, j].min()), float(points[:, j].max())
    if hi <= lo:
        return None
    return (2.0 * at[:, j] - (lo + hi)) / (hi - lo)


def _span_degree(h: np.ndarray, x: np.ndarray, F: np.ndarray) -> int | None:
    """The smallest d <= rank(F) + 1 with the columns of F in h P_d, where h
    must be positive and P_d is the polynomials of degree <= d in x (taken on
    [-1, 1], in the Chebyshev basis); None when there is no such d."""
    if not np.all(h > 0):
        return None
    r = gram_rank(F)
    for d in range(max(r - 1, 0), r + 2):
        if _spans(h[:, None] * np.polynomial.chebyshev.chebvander(x, d), F):
            return d
    return None


def _garza_frame(points: np.ndarray, P: np.ndarray, G: np.ndarray, model):
    """The frame (h, x, d) of de la Garza's moment problem for the regression
    rows G at the rows of P, whose first rows are the candidates ``points``:
    the span of G is h P_d, with h > 0 and P_d the polynomials of degree
    <= d in x. Where G has two columns and its span holds the constants,
    that span is P_1 in g, its direction off the constants, so h = 1, x = g
    and d = 1 by construction. Otherwise x is the candidates' coordinate of
    largest spread mapped onto [-1, 1], h the full model's first regression
    function and d that of ``_span_degree``. None when neither applies."""
    if G.shape[1] == 2 and gram_rank(G) == 2 and _spans(G, np.ones((len(G), 1))):
        centered = G - G.mean(axis=0)
        return np.ones(len(G)), centered @ np.linalg.svd(centered, full_matrices=False)[2][0], 1
    x = _line_coordinate(points, P)
    if x is None:
        return None
    h = model.model.eval_many(P)[:, 0] if isinstance(model, ConditionalModel) else G[:, 0]
    d = _span_degree(h, x, G)
    return None if d is None else (h, x, d)


def admissible_support_bound(cm: ConditionalModel) -> int | None:
    """Support bound of the admissible class of a one-factor model, from its
    span on its grid (de la Garza 1954): d + 1 for the frame h P_d of
    ``_garza_frame``, so 2 for the constants plus one function g, as moving
    an interior point's mass to the ends of g raises M (see
    ``CandidateSet.screen``); else None."""
    frame = _garza_frame(cm.grid, cm.grid, cm.eval_many(cm.grid), cm)
    return None if frame is None else frame[2] + 1


# ---------------------------------------------------------------------------
# decomposition and recomposition
# ---------------------------------------------------------------------------

def _group_by_value(values: np.ndarray) -> list[list[int]]:
    order = np.argsort(values, kind="stable")
    groups: list[list[int]] = [[int(order[0])]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][0]] <= SLICE_TOL:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    return groups


def decompose(design: Design, tmap: SliceMap, model: ModelSpec) -> SliceDecomposition:
    """Group atoms into slices, forming marginal weights and conditional designs."""
    _check_slicing(model, tmap)
    tvals = tmap.values(design.points)
    slices = []
    for idx in _group_by_value(tvals):
        t = float(np.mean(tvals[idx]))
        weight = float(design.weights[idx].sum())
        cond = Design(design.points[idx], design.weights[idx] / weight)
        cm = conditional_model(model, tmap, t, cond.points)
        F = model.eval_many(cond.points)
        err = np.abs(F - F @ cm.lift @ cm.lift.T).max()
        if err > 1e-10 * max(1.0, np.abs(F).max()):
            raise ValidationError(
                f"lift identity fails on slice t={t:g} (max error {err:.3e})"
            )
        slices.append(Slice(t=t, weight=weight, conditional_design=cond, conditional=cm))
    return SliceDecomposition(slices=tuple(slices))


def recompose_check(design: Design, tmap: SliceMap, model: ModelSpec) -> float:
    """Max entry error between M(design) and its slice-by-slice recomposition."""
    deco = decompose(design, tmap, model)
    M = info_matrix(design, model)
    M_rec = np.zeros_like(M)
    for sl in deco.slices:
        Mt = info_matrix(sl.conditional_design, sl.conditional)
        M_rec += sl.weight * sl.conditional.lift @ Mt @ sl.conditional.lift.T
    return float(np.abs(M - M_rec).max())


# ---------------------------------------------------------------------------
# Loewner dominance and dominator search
# ---------------------------------------------------------------------------

MATERIAL_FACTOR = 100.0  # a dominator's gap must clear this many tolerances (see dominates)


def dominates(d2: Design, d1: Design, model, tol: float = DOMINANCE_TOL) -> bool:
    """True iff M(d2) - M(d1) is nonnegative definite and material, the one
    Loewner-order test. In the frame whitened by M(d1) + M(d2) the gap's
    eigenvalues lie in [-1, 1] and are free of the basis of f. The frame
    comes from the weighted regression rows, so no information matrix is
    squared: R = [R1; R2] = U S V', R_j = diag(sqrt(w_j)) F_j, and with
    U = [U1; U2] the gap is U2'U2 - U1'U1. Singular values below 1e-10 of
    the largest are rounding, where the gap vanishes too (M1 + M2 = 0 holds
    no gap). Where M1 + M2 is at least 1e-10 of its largest eigenvalue
    (singular values above 1e-5 of the largest) rounding in the gap is below
    about 1e-11: no eigenvalue there may fall below -tol, and one must exceed
    MATERIAL_FACTOR * tol. In the weaker directions rounding reaches about
    1e-6, and the loss may reach MATERIAL_FACTOR * tol; they hold no gain,
    so an atom of weight 1e-11 alone adds none."""
    if not tol >= 0:  # also rejects NaN
        raise ValidationError(f"dominance tolerance must be nonnegative, got {tol:g}")
    R1, R2 = (np.sqrt(d.weights)[:, None] * model.eval_many(d.points) for d in (d1, d2))
    U, sv, _ = np.linalg.svd(np.vstack([R1, R2]), full_matrices=False)
    if not sv[0] > 0:
        return False
    U = U[:, sv > 1e-10 * sv[0]]
    U1, U2 = U[: len(R1)], U[len(R1):]
    gap = U2.T @ U2 - U1.T @ U1
    k = int(np.count_nonzero(sv > 1e-5 * sv[0]))
    strong = np.linalg.eigvalsh(gap[:k, :k])
    return (
        float(np.linalg.eigvalsh(gap)[0]) >= -MATERIAL_FACTOR * tol
        and float(strong[0]) >= -tol and float(strong[-1]) > MATERIAL_FACTOR * tol
    )


def _nonneg_interval(a, b, c):
    """Per row, the interval of w in [0, 1] where the concave quadratic
    p(w) = a w^2 + b w (1 - w) + c (1 - w)^2 is >= 0; lo > hi when empty.

    The Bernstein form keeps p(0) = c and p(1) = a exact and rounds each end
    at the scale of the matrix there. The roots are the directions (W : V),
    w = W / (W + V), of the homogeneous form, taken in the stable pair
    (q : a) and (c : q).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.where(b >= 0, 1.0, -1.0) * np.sqrt(b**2 - 4.0 * a * c))
        r1, r2 = q / (q + a), c / (c + q)
    in1, in2 = (r1 >= 0.0) & (r1 <= 1.0), (r2 >= 0.0) & (r2 <= 1.0)
    # np.minimum of the two roots: a reduce over a length-2 axis is far slower
    lo = np.where(c >= 0, 0.0, np.minimum(np.where(in1, r1, np.inf), np.where(in2, r2, np.inf)))
    hi = np.where(a >= 0, 1.0, np.maximum(np.where(in1, r1, -np.inf), np.where(in2, r2, -np.inf)))
    return lo, hi


@lru_cache(maxsize=8)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k=1)``, read-only, kept per n."""
    ii, jj = np.triu_indices(n, k=1)
    ii.setflags(write=False)
    jj.setflags(write=False)
    return ii, jj


def _phase2_oracle(d1: Design, points: np.ndarray, F: np.ndarray, model):
    """Exhaustive search over 2-point supports, exact in the weight (k <= 2).

    Dominance feasibility lives on a thin set (moment-matching equalities), so
    no fixed weight lattice can land on it. For the pair (i, j) the gap
    Delta(w) = w A_i + (1 - w) A_j - M1, less (target / 2) I, is
    w X_i + (1 - w) X_j with X_p = A_p - M1 - (target / 2) I, which is formed
    once per point (a 1x1 one padded with a unit diagonal entry); each pair
    gathers its coefficients from those entries, so no per-pair matrix is
    formed. A 2x2 matrix is nonnegative definite exactly when its trace and
    determinant are: the trace is linear in w and the determinant a concave
    quadratic, since det(A_i - A_j) is -(f_i x f_j)^2. Their sign intervals
    give in closed form where lambda_min(Delta(w)) >= target / 2; the trace
    gain is linear in w, so only the two interval ends are candidates. The
    dominator with the largest trace gain is returned after re-verification.
    """
    n, k = F.shape
    M1 = info_matrix(d1, model)
    scale1 = max(float(np.abs(M1).max()), 1e-300)
    target = -1e-12 * scale1        # returned weights must be PSD to machine noise

    # half of target leaves room for rounding: the interval ends pass at target
    A = np.einsum("ni,nj->nij", F, F)
    X = np.broadcast_to(np.eye(2), (n, 2, 2)).copy()
    X[:, :k, :k] = A - M1 - 0.5 * target * np.eye(k)
    x00, x01, x11 = X[:, 0, 0], X[:, 0, 1], X[:, 1, 1]
    tr, det = x00 + x11, x00 * x11 - x01**2
    ii, jj = _pairs(n)
    # a linear trace is the quadratic (w tr X_i + (1 - w) tr X_j) (w + 1 - w)
    tr_lo, tr_hi = _nonneg_interval(tr[ii], tr[ii] + x00[jj] + x11[jj], tr[jj])
    det_lo, det_hi = _nonneg_interval(
        det[ii], x00[ii] * x11[jj] + x11[ii] * x00[jj] - 2.0 * x01[ii] * x01[jj], det[jj]
    )
    w_lo, w_hi = np.maximum(tr_lo, det_lo), np.minimum(tr_hi, det_hi)
    idx = np.nonzero(w_lo <= w_hi)[0]
    if idx.size == 0:
        return None

    # the gap's distinct entries, each an array over the surviving pairs
    entries = [(0, 0), (0, 1), (1, 1)] if k == 2 else [(0, 0)]
    Ae, m1 = [A[:, r, c] for r, c in entries], [M1[r, c] for r, c in entries]
    ii, jj = ii[idx], jj[idx]
    Ai, Aj = [e[ii] for e in Ae], [e[jj] for e in Ae]
    tr_a = np.trace(A, axis1=1, axis2=2)
    tr_m1 = float(np.trace(M1))

    best = None  # (trace_gain, pair index into idx, w)
    for w_arr in (w_lo[idx], w_hi[idx]):
        delta = [w_arr * ai + (1.0 - w_arr) * aj - m for ai, aj, m in zip(Ai, Aj, m1)]
        maxabs = reduce(np.maximum, [np.abs(d) for d in delta])
        scale = reduce(np.maximum, [np.abs(d + m) for d, m in zip(delta, m1)], scale1)
        if k == 1:
            lam = delta[0]
        else:
            d00, d01, d11 = delta
            lam = 0.5 * (d00 + d11) - np.sqrt(np.maximum(0.25 * (d00 - d11) ** 2 + d01**2, 0.0))
        ok = lam >= np.minimum(-1e-12 * scale, target)
        ok &= maxabs > MATERIAL_FACTOR * DOMINANCE_TOL * scale
        if not np.any(ok):
            continue
        gain = np.where(ok, w_arr * tr_a[ii] + (1.0 - w_arr) * tr_a[jj] - tr_m1, -np.inf)
        b = int(np.argmax(gain))
        if best is None or gain[b] > best[0]:
            best = (float(gain[b]), b, float(w_arr[b]))
    if best is None:
        return None
    _, b, w = best
    i, j = int(ii[b]), int(jj[b])
    if w <= 1e-12:
        cand = Design(points[[j]], np.array([1.0]))
    elif w >= 1.0 - 1e-12:
        cand = Design(points[[i]], np.array([1.0]))
    else:
        cand = Design(points[[i, j]], np.array([w, 1.0 - w]))
    return cand if dominates(cand, d1, model) else None


def _weights_dominator(w: np.ndarray, points: np.ndarray, d1: Design, model):
    """The design of candidate weights w (entries above 1e-12, renormalized)
    if it verifies as a dominator of d1, else None."""
    keep = w > 1e-12
    pts = points[keep]
    if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
        return None
    cand = Design(pts, w[keep] / w[keep].sum())
    return cand if dominates(cand, d1, model) else None


def _interior(a: np.ndarray, lo: float, hi: float, tol: float) -> int:
    """The number of distinct values of a more than tol inside [lo, hi],
    grouping those within tol."""
    v = np.sort(a[(a > lo + tol) & (a < hi - tol)])
    return v.size - int(np.count_nonzero(np.diff(v) <= tol))


def _index_proof(x: np.ndarray, G: np.ndarray, n: int, d: int, tol: float) -> bool:
    """Whether the atoms x[n:] of d1 are proven admissible by their index,
    for constant h: f on the candidates x[:n] and d1's atoms (rows of G)
    spans all of P_d, and d1 has at most d - 1 distinct atoms more than tol
    inside the hull of x. Then M(w) - M(d1) nonnegative definite forces w to
    match d1's moments 0..2d-1 (the Hankel gap has a zero corner), and among
    such measures on the hull d1 is the only one or the upper principal
    representation, which has the largest moment 2d (Kiefer 1959; Karlin &
    Studden 1966), so the gap is 0. At d = 1 this is de la Garza's two ends
    of g. A proper subspace of P_d, such as (1, x, x^3), leaves moments out
    of M, and a nonconstant h makes sum w = 1 no moment of h^2, so neither
    case is proven."""
    return gram_rank(G) == d + 1 and _interior(x[n:], x.min(), x.max(), tol) <= d - 1


def _moment_oracle(d1: Design, F1: np.ndarray, points, F, model):
    """De la Garza's moment problem, for a span that is polynomial on a line.

    On the frame (h, x, d) of ``_garza_frame``, f on the candidates and d1's
    atoms is C h p(x) with p a basis of P_d, so M(w) is C H(w) C' for the
    Hankel-structured matrix H(w) of the moments sum_i w_i h_i^2 x_i^j,
    j = 0..2d. Matching moments 0..2d-1 to d1's and raising moment 2d makes
    H(w) - H(d1) a nonnegative multiple of e_d e_d', so M(w) - M(d1) is rank
    one and nonnegative definite. The stage decides in one of four ways:

    - When d1 has at most d - 1 distinct atoms strictly inside the
      candidates' x-range, no other measure there shares its lower moments
      (Karlin & Studden 1966: its index is below d, or d1 is the upper
      principal representation), so nothing is solved; with h constant and
      ``_index_proof``, that is a proof of admissibility.
    - At d = 1 with h constant the optimum is closed form (de la Garza
      1954): the two-end design of mass (E x - x_lo) / (x_hi - x_lo) on the
      candidates' x-maximizer, which has d1's mean of x and, among measures
      on the candidates' range with that mean, the largest mean of x^2.
    - At d = 0, M(w) = C (sum_i w_i h_i^2) C', which all mass on the
      candidate of largest h maximizes (the lowest index on ties). No
      M(w) is a larger multiple of C C', and the whitened gap grows with
      the multiple, so when that design does not dominate, none does.
    - Otherwise one LP over candidate weights w >= 0, sum w = 1, with the
      moments h^2 T_j(x) in the Chebyshev basis on [-1, 1]: 2d + 1 equality
      rows, so a vertex has at most 2d + 1 atoms.

    "Strictly inside" allows SLICE_TOL on the candidates' range taken as
    [-1, 1]. A dominator is returned only once it verifies.

    Returns (dominator or None, proof or "").
    """
    from scipy.optimize import linprog

    n = points.shape[0]
    G = np.vstack([F, F1])
    frame = _garza_frame(points, np.vstack([points, d1.points]), G, model)
    if frame is None:
        return None, ""
    h, x, d = frame
    tol = 0.5 * SLICE_TOL * np.ptp(x[:n])
    flat = np.ptp(h) <= SLICE_TOL * np.abs(h).max()
    if _interior(x[n:], x[:n].min(), x[:n].max(), tol) < d:
        proof = f"Karlin-Studden index: at most {d - 1} interior atoms under P_{d}"
        return None, proof if flat and _index_proof(x, G, n, d, tol) else ""
    if d == 1 and flat:
        i_lo, i_hi = int(x[:n].argmin()), int(x[:n].argmax())
        w = np.zeros(n)
        w[i_hi] = np.clip((d1.weights @ x[n:] - x[i_lo]) / (x[i_hi] - x[i_lo]), 0.0, 1.0)
        w[i_lo] = 1.0 - w[i_hi]
        return _weights_dominator(w, points, d1, model), ""
    if d == 0:
        w = np.zeros(n)
        w[int(h[:n].argmax())] = 1.0
        dom = _weights_dominator(w, points, d1, model)
        proof = "degree 0: all mass on the largest h does not dominate"
        return dom, "" if dom is not None else proof
    h = h / h.max()
    V = (h * h)[:, None] * np.polynomial.chebyshev.chebvander(x, 2 * d)
    moments = d1.weights @ V[n:]
    res = linprog(
        -V[:n, 2 * d], A_eq=np.vstack([np.ones(n), V[:n, : 2 * d].T]),
        b_eq=np.append(1.0, moments[: 2 * d]), bounds=(0.0, None), method="highs",
    )
    if res.status != 0:
        return None, ""
    return _weights_dominator(np.maximum(res.x, 0.0), points, d1, model), ""


def _phase1_ascent(d1: Design, points: np.ndarray, F: np.ndarray, model):
    """Dominator search over all candidates by one Kelley cutting-plane loop.

    With M1 = M(d1), every unit direction v gives the cut
    sum_i w_i (f_i . v)^2 - t >= v^T M1 v, linear in the weights w (on the
    simplex) and a margin t, so one LP over the cut pool relaxes the cone
    {w : M(w) - M1 - t I nonnegative definite}. Each
    LP solution w adds the eigenvectors of the smallest eigenvalue cluster of
    M(w) - M1, plus their pairwise mixtures (plain eigenvector cuts close the
    gap very slowly at multiple smallest eigenvalues). The pool starts from the
    eigenvectors at uniform weights, and the loop runs in two stages, each
    capped at KELLEY_ROUNDS LP solves:

    - Stage A maximizes t, an upper bound on max_w lambda_min(M(w) - M1). A
      bound at or below -DOMINANCE_TOL (relative) proves that no design on these
      candidates dominates d1. The stage hands over once some w reaches that
      floor, the LP returns the weights of the round before (the new cuts
      would all duplicate cuts already in the pool), or the bound is within
      ``max(1e-12, DOMINANCE_TOL * |best|)`` of the best margin seen. It runs first
      because its cuts steer stage B toward the cone.
    - Stage B fixes t = 0 and maximizes the trace gain over the relaxed cone.
      An infeasible LP proves none; each round's weights are returned once
      they verify, and the stage stops when the margin stalls at the float
      noise floor.

    Returns (verified dominator or None, still_improving, proven_none).
    """
    from scipy.optimize import linprog

    n = F.shape[0]
    M1 = info_matrix(d1, model)
    scale1 = max(float(np.abs(M1).max()), 1e-300)
    floor = -DOMINANCE_TOL * scale1
    A_eq = np.append(np.ones(n), 0.0)[None, :]
    # every cut value is at least -lambda_max(M1), so stage A's bound on t
    # leaves its LP optimum unchanged
    t_free = (-float(np.linalg.eigvalsh(M1)[-1]), None)
    stages = (
        (True, np.append(np.zeros(n), -1.0), t_free),   # A: maximize t
        (False, np.append(-(F**2).sum(axis=1), 0.0), (0.0, 0.0)),  # B: trace gain at t = 0
    )
    w_prev = np.full(n, 1.0 / n)
    vals, vecs = np.linalg.eigh(gram(F, w_prev) - M1)
    cuts = list(vecs.T)
    best = float(vals[0])
    lam_trail: list[float] = []
    for stage_a, obj, t_bounds in stages:
        for _ in range(KELLEY_ROUNDS):
            if stage_a and best >= floor:
                break
            V = np.stack(cuts, axis=1)
            res = linprog(
                obj, A_ub=np.hstack([-((F @ V) ** 2).T, np.ones((V.shape[1], 1))]),
                b_ub=-np.einsum("ji,jk,ki->i", V, M1, V), A_eq=A_eq, b_eq=[1.0],
                bounds=[(0.0, 1.0)] * n + [t_bounds], method="highs",
            )
            if res.status == 2:
                return None, False, True  # even the relaxed cone is empty
            if not res.success:
                break
            w = np.maximum(res.x[:n], 0.0)
            w = w / w.sum()
            if stage_a:
                upper = float(res.x[-1])
                if upper <= floor:
                    return None, False, True  # no design on these candidates dominates d1
                if np.array_equal(w, w_prev):
                    break
                w_prev = w
            vals, vecs = np.linalg.eigh(gram(F, w) - M1)
            lam = float(vals[0])
            if stage_a:
                best = max(best, lam)
                if upper - best <= max(1e-12, DOMINANCE_TOL * abs(best)):
                    break
            else:
                lam_trail.append(lam)
                cand = _weights_dominator(w, points, d1, model)
                if cand is not None:
                    return cand, False, False
                if len(lam_trail) >= 3 and abs(lam_trail[-1] - lam_trail[-2]) <= 1e-16 * scale1:
                    break  # cut generation stalled at the float noise floor
            near = np.nonzero(vals - lam <= 1e-6 * max(abs(vals[-1]), 1.0))[0]
            cuts.extend(vecs[:, j] for j in near)
            for a in range(len(near)):
                for b in range(a + 1, len(near)):
                    va, vb = vecs[:, near[a]], vecs[:, near[b]]
                    cuts.append((va + vb) / np.sqrt(2.0))
                    cuts.append((va - vb) / np.sqrt(2.0))
    # unsettled: the margin was still being driven toward feasibility at the cap
    improving = len(lam_trail) >= KELLEY_ROUNDS and (
        len(lam_trail) < 2 or lam_trail[-1] > lam_trail[len(lam_trail) // 2] + 1e-12 * scale1
    )
    return None, improving, False


def find_dominator(
    d1: Design, candidates: CandidateSet | np.ndarray, model
) -> AdmissibilityVerdict:
    """Search for a design whose information matrix dominates d1's.

    A chain of four stages, each run once, stops at the first that returns
    a verified dominator or a proof that none exists:

    - A single candidate is decided by one comparison: the only design on it
      is that point.
    - When the span of f on the candidates and d1's atoms is h P_d on a line
      (``_garza_frame``: h > 0, P_d the polynomials of degree <= d), de la
      Garza's moment problem decides (``_moment_oracle``): match d1's
      moments 0..2d-1 of h^2 and raise moment 2d, which makes the gap
      M(w) - M(d1) rank one and nonnegative definite. When d1 has at most
      d - 1 atoms inside the candidates' range no other design shares those
      moments, so nothing is solved, and when the span is all of P_d and h
      is constant that is a proof of admissibility (``_index_proof``; at
      d = 1, d1's atoms at the two ends of g). At d = 0 all mass on the
      largest h dominates, or nothing does. Else, at d = 1 with h
      constant, such as the constants plus one function g, the optimum is
      the two-end design at d1's mean of g, in closed form; otherwise it is
      one LP with 2d + 1 equality rows.
    - On small problems (at most two parameters, at most 200 candidates)
      the exhaustive two-point oracle runs next: it is exact in the weight
      and its answer is interpretable.
    - Otherwise one Kelley cutting-plane loop runs over all candidates: it
      first bounds the best achievable smallest eigenvalue of M(w) - M(d1),
      then maximizes the trace gain over the cut relaxation of the dominance
      cone. Either stage can prove that no candidate design dominates (a
      bound below tolerance, or an empty relaxation); KELLEY_ROUNDS LP
      solves cap each stage, and a loop still improving at its cap is
      inconclusive.

    Every returned dominator is verified by ``dominates``. A verdict of
    admissible without a proof means the search came up empty within budget;
    it is a one-sided statement, not a proof of admissibility. The candidates must span at
    least the rank of d1's regression rows (both by ``gram_rank``).

    A ``CandidateSet`` supplies its regression matrix through ``features``,
    for any model, and an array of points (such as a conditional model's
    grid) through ``eval_many``; the search takes the matrix row-major, so
    both inputs give the same LPs to the last bit.
    """
    if isinstance(candidates, CandidateSet):
        points, F = candidates.points, np.ascontiguousarray(candidates.features(model))
        rank = candidates.features_rank(model)
    else:
        points = np.atleast_2d(candidates)
        F = model.eval_many(points)
        rank = gram_rank(F)
    F1 = model.eval_many(d1.points)
    if rank < gram_rank(F1):
        raise ValidationError("candidate set spans less than the design to dominate")

    improving, proof = False, ""
    if points.shape[0] == 1:
        best = _weights_dominator(np.ones(1), points, d1, model)
        proof = "" if best is not None else "the only candidate does not dominate"
    else:
        best, proof = _moment_oracle(d1, F1, points, F, model)
        if best is None and not proof and F.shape[1] <= 2 and points.shape[0] <= 200:
            best = _phase2_oracle(d1, points, F, model)
        if best is None and not proof:
            best, improving, proven_none = _phase1_ascent(d1, points, F, model)
            proof = "dual bound below tolerance" if proven_none else ""
    if best is not None:
        return AdmissibilityVerdict(
            admissible=False, dominator=best, note="dominator verified in the Loewner order"
        )
    if improving:
        return AdmissibilityVerdict(
            admissible=False,
            inconclusive=True,
            note="budget exhausted while the constrained ascent was still improving",
        )
    note = "no dominator found within budget (one-sided: not a proof of admissibility)"
    if proof:
        note = f"no design on these candidates dominates ({proof})"
    return AdmissibilityVerdict(admissible=True, note=note)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def splice_slice(design: Design, tmap: SliceMap, t: float, replacement: Design) -> Design:
    """Replace the conditional design on slice t with ``replacement``."""
    tvals = tmap.values(design.points)
    in_slice = np.abs(tvals - t) <= SLICE_TOL
    wt = float(design.weights[in_slice].sum())
    pts = [design.points[~in_slice], replacement.points]
    ws = [design.weights[~in_slice], wt * replacement.weights]
    return Design(np.vstack(pts), np.concatenate(ws))


def conditional_audit(design: Design, tmap: SliceMap, model: ModelSpec) -> AdmissibilityVerdict:
    """Necessary-condition audit: every conditional design must be admissible.

    A dominated slice is spliced back into the full design, the improvement is
    re-verified in the full model, and the verdict is inadmissible with that
    dominator. All slices passing is evidence for admissibility, not a proof.
    """
    deco = decompose(design, tmap, model)
    evidence = []
    any_inconclusive = False
    for sl in deco.slices:
        cm = sl.conditional
        verdict = find_dominator(sl.conditional_design, cm.grid, cm)
        evidence.append((sl.t, verdict))
        if verdict.inconclusive:
            any_inconclusive = True
            continue
        if not verdict.admissible:
            improved = splice_slice(design, tmap, sl.t, verdict.dominator)
            if dominates(improved, design, model):
                return AdmissibilityVerdict(
                    admissible=False,
                    dominator=improved,
                    evidence=tuple(evidence),
                    note=f"conditional design at t={sl.t:g} is dominated; splice verified",
                )
            any_inconclusive = True
    if any_inconclusive:
        return AdmissibilityVerdict(
            admissible=False,
            inconclusive=True,
            evidence=tuple(evidence),
            note="some slices were inconclusive within budget",
        )
    return AdmissibilityVerdict(
        admissible=True,
        evidence=tuple(evidence),
        note="all conditional designs passed (necessary condition; one-sided)",
    )


def marginal_design(design: Design, axis: int) -> Design:
    """Projection of a design onto one coordinate axis."""
    coords = design.points[:, axis]
    groups = _group_by_value(coords)
    pts = np.array([[float(np.mean(coords[g]))] for g in groups])
    ws = np.array([float(design.weights[g].sum()) for g in groups])
    return Design(pts, ws / ws.sum())


@dataclass(frozen=True)
class ProductAuditReport:
    factor_verdicts: tuple[AdmissibilityVerdict, ...]
    marginal_designs: tuple[Design, ...]
    support_bound: int | None


def product_audit(design: Design, model: ModelSpec) -> ProductAuditReport:
    """Audit both marginal designs within their marginal models.

    On product design spaces, admissibility of the full design requires both
    marginals to be admissible; when the marginal admissible classes have at
    most p_1 and p_2 support points, the full class needs at most p_1 * p_2.
    Each marginal design is audited and reported on its marginal model's
    axis line, against that line's grid of at most 200 points. A marginal
    spanning the constants plus one function g is P_1 in g, so de la
    Garza's moment stage decides it in closed form, with a proof when the
    design sits on the two ends of g (an end may lie off the grid, at an
    atom of the design); at most 200 points keep the exhaustive two-point
    oracle applicable to the other two-parameter marginals.
    """
    verdicts, margins, bounds = [], [], []
    for axis in range(model.space.dimension):
        mm = marginal_model(model, axis)
        coords = marginal_design(design, axis)
        pts = np.repeat(mm.grid[:1], coords.m, axis=0)
        pts[:, axis] = coords.points[:, 0]
        margins.append(Design(pts, coords.weights))
        verdicts.append(find_dominator(margins[-1], mm.grid, mm))
        bounds.append(admissible_support_bound(mm))
    return ProductAuditReport(
        tuple(verdicts), tuple(margins), None if None in bounds else int(np.prod(bounds))
    )
