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

The dominator search is a chain that stops at the first verified dominator
or proof: a single candidate takes one comparison; where the span of f on a
line is h P_d (h > 0, P_d the polynomials of degree <= d; the constants
plus one function g is P_1 in g), de la Garza's moment problem gives the
index proof, at d = 0 all mass on the largest h (a proof when that does not
dominate), at d = 1 with h constant the two ends of g at d1's mean in
closed form, or else one LP with 2d + 1 rows; the same moment problem on
each axis line through d1's atoms, spliced back into d1 (a dominator only);
then the rank-one LP over the candidates and d1's atoms (``rank_one_lp``,
shared with the E certificate, priced by ``sweep``), whose dual bound is
the proof that no gap of material trace exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .designs import Design, _top_rows, gram, info_matrix, rank_one_batch, rank_one_lp
from .errors import NoConditionalModelError, ValidationError
from .models import CandidateSet, ModelSpec, discretize, gram_rank, interval

SLICE_TOL = 1e-9       # atoms whose t-values (or marginal coordinates) differ by at most this are grouped
DOMINANCE_TOL = 1e-7   # relative Loewner-order slack of the dominator search
AUDIT_STEP = 0.01      # grid step of the slice and marginal grids the audits search
LP_ROUNDS = 60         # rounds of the dominator search's rank-one LP
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
    ``grid`` is the slice grid the lift was taken on and the audit searches.
    The lift and the grid are made read-only, so the regression matrix a
    candidate grid keeps for the model object (``CandidateSet.features``)
    cannot go stale."""

    model: ModelSpec
    lift: np.ndarray  # (k, r), orthonormal columns
    slice_space: str
    t: float
    grid: np.ndarray = field(repr=False)  # (n, 2) points of the slice grid

    def __post_init__(self):
        self.lift.setflags(write=False)
        self.grid.setflags(write=False)

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
    the ends of g, the degree-0 design on the largest h, or a single
    candidate), or that none on the candidates or the design's atoms does
    (by the rank-one LP's dual bound, which covers every gap whose trace
    in the frame whitened by M(d1) + M(uniform on the candidates) exceeds
    MATERIAL_FACTOR * DOMINANCE_TOL); otherwise it means no dominator was
    found within budget, which is evidence, not proof. ``inconclusive``
    marks a search whose LP's dual bound was still falling at its round
    cap, or whose LP failed."""

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
        grid = discretize(interval(*bounds[1 - tmap.axis]), step).product_axes[0]
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
        xs = discretize(interval(lo, hi), step).product_axes[0]
    return np.stack([xs, (t - a1 * xs) / a2], axis=1)


def _conditional(model, tmap: SliceMap, t: float, grid: np.ndarray, F: np.ndarray):
    """The model on slice t in the first ``gram_rank(F)`` right singular vectors
    of F, each signed so that its largest-magnitude entry is positive. The
    Loewner order and the dominator search's whitened frame are invariant under
    rotations of an orthonormal basis, so any such basis gives the same verdicts."""
    U = np.linalg.svd(F, full_matrices=False)[2][: gram_rank(F)].T
    U *= np.sign(U[np.abs(U).argmax(axis=0), np.arange(U.shape[1])])
    U += 0.0  # a sign flip turns 0.0 into -0.0; the lift's zeros stay unsigned
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
    <= d in x. Where the span of G holds the constants and has dimension 2,
    it is P_1 in g, its direction off the constants, so h = 1, x = g and
    d = 1 by construction. Otherwise x is the candidates' coordinate of
    largest spread mapped onto [-1, 1], h is 1 where the span holds the
    constants and else the full model's first regression function, and d
    is that of ``_span_degree``. None when neither applies. Both frames of
    a span holding the constants are free of the basis of f."""
    constants = _spans(G, np.ones((len(G), 1)))
    if constants and gram_rank(G) == 2:
        centered = G - G.mean(axis=0)
        return np.ones(len(G)), centered @ np.linalg.svd(centered, full_matrices=False)[2][0], 1
    x = _line_coordinate(points, P)
    if x is None:
        return None
    if constants:
        h = np.ones(len(G))
    else:
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
    if not 0 <= tol < np.inf:  # also rejects NaN
        raise ValidationError(f"dominance tolerance must be nonnegative and finite, got {tol:g}")
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


def _weights_dominator(w: np.ndarray, points: np.ndarray, d1: Design, model):
    """The design of candidate weights w (entries above 1e-12, renormalized,
    with the weights of equal points summed at the first of them) if it
    verifies as a dominator of d1, else None."""
    keep = w > 1e-12
    pts, wk = points[keep], w[keep]
    _, first, inv = np.unique(pts, axis=0, return_index=True, return_inverse=True)
    if first.size < pts.shape[0]:
        order = np.argsort(first)
        rank = np.argsort(order)
        pts, wk = pts[first[order]], np.bincount(rank[inv.ravel()], weights=wk)
    cand = Design(pts, wk / wk.sum())
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


def _axis_line_dominator(d1: Design, F1: np.ndarray, points: np.ndarray, F: np.ndarray, model):
    """The moment stage on d1's own axis lines: for each coordinate j and each
    line x_j = c through d1's atoms, d1's conditional design there against
    the candidates on that line, when they are at least two and not all of
    them. A dominator it returns is spliced back into d1 in place of that
    conditional design and kept once the splice verifies; a proof there
    would cover only the line, so none is kept."""
    for j in range(points.shape[1]):
        for idx in _group_by_value(d1.points[:, j]):
            c = float(np.mean(d1.points[idx, j]))
            on = np.abs(points[:, j] - c) <= SLICE_TOL
            if not 2 <= np.count_nonzero(on) < on.size:
                continue
            cond = Design(d1.points[idx], d1.weights[idx] / d1.weights[idx].sum())
            dom, _ = _moment_oracle(cond, F1[idx], points[on], F[on], model)
            if dom is not None:
                cand = splice_slice(d1, SliceMap("coordinate", axis=j), c, dom)
                if dominates(cand, d1, model):
                    return cand
    return None


def _dual_bound(N: np.ndarray, lam: np.ndarray, A: np.ndarray, A1: np.ndarray) -> float:
    """A bound on tr G over the gaps G = sum_i w_i a_i a_i' - A1 >= 0 of the
    designs w on the rows a_i of A, from any symmetric N with eigenvalues lam
    (ascending): for N' = t N + max(0, 1 - t lam_min) I, which is >= I,
    tr G <= tr(N' G) <= max_i a_i' N' a_i - tr(N' A1). The least of t = 1
    and, when lam_min > 0, t = 1 / lam_min is taken, each raised by
    1e-12 t |N| max_i |a_i|^2 for rounding in a' N a."""
    q, q1 = np.einsum("ij,jk,ik->i", A, N, A), float(np.trace(N @ A1))
    norms, tr1 = (A**2).sum(axis=1), float(np.trace(A1))
    bounds = []
    for t in (1.0, 1.0 / lam[0]) if lam[0] > 0 else (1.0,):
        shift = max(0.0, 1.0 - t * lam[0])
        rounding = 1e-12 * t * np.abs(lam).max() * norms.max()
        bounds.append(float((t * q + shift * norms).max() - t * q1 - shift * tr1 + rounding))
    return min(bounds)


def _gap_lp(d1: Design, points: np.ndarray, F: np.ndarray, F1: np.ndarray, model):
    """Dominator search over the candidates and d1's own atoms by the
    rank-one LP (``rank_one_lp``), in the frame whitened by
    W = M(d1) + M(uniform on the candidates).

    With a_i the whitened rows of the candidates and of d1's atoms, and A1
    the whitened M(d1), the LP (R = A1, directions of cost 1) maximizes
    sum_j mu_j subject to sum_i w_i a_i a_i' - sum_j mu_j v_j v_j' = A1 and
    sum_i w_i = 1, over w, mu >= 0 and unit gap directions v_j. Its seed
    holds d1's atoms, so w = d1 is feasible, and the rows of largest
    whitened norm; with every row in the seed it is the full LP. A point
    with sum mu > 0 is a design whose gap is a nonnegative sum of
    rank-ones; it is returned once it verifies. The duals form a symmetric
    N with a_i' N a_i <= t and v_j' N v_j >= 1, its entries boxed by B; B
    starts at 1e3 and grows 100-fold, up to 1e9, while the optimum uses
    slack (above 1e-9). Any N bounds the W-whitened trace of every
    nonnegative definite gap of a design on the rows (``_dual_bound``): a
    bound at most MATERIAL_FACTOR * DOMINANCE_TOL proves that no design on
    the candidates and d1's atoms has a nonnegative definite gap of larger
    W-whitened trace. Each round prices in, as new gap directions, the
    eigenvectors of N with eigenvalue below 1 and their pairwise mixtures.
    LP_ROUNDS rounds cap the loop; at the cap the search is inconclusive
    when the least bound so far fell over the last half of the rounds, and
    a failed LP, at any B, ends it inconclusive.

    Returns (verified dominator or None, proof or "", inconclusive note or "").
    """
    n, m = F.shape[0], F1.shape[0]
    R = np.vstack([np.sqrt(d1.weights)[:, None] * F1, F / np.sqrt(n)])
    _, sv, Vt = np.linalg.svd(R, full_matrices=False)
    if not sv[0] > 0:
        return None, "", ""  # every regression vector is zero: no design gains
    frame = sv > 1e-10 * sv[0]
    A = np.vstack([F, F1]) @ (Vt[frame].T / sv[frame])
    A1 = gram(A[n:], d1.weights)
    atoms, norms2 = np.vstack([points, d1.points]), (A**2).sum(axis=1)
    active = np.union1d(np.arange(n, n + m), _top_rows(norms2, rank_one_batch(A.shape[1])))
    dirs = np.linalg.eigh(A1)[1]
    box, bounds = 1e3, []
    for _ in range(LP_ROUNDS):
        res = rank_one_lp(A, A1, dirs, 1.0, (-box, box), active)
        if res.status != 0:
            return None, "", f"the LP failed (HiGHS status {res.status})"
        active, a, j = res.active, res.active.size, dirs.shape[1]
        mu, slack = res.x[a: a + j], float(res.x[a + j:].max())
        # the gap is sum mu v v' less the slack: verify only where the slack
        # leaves at least half of the loss dominates allows for the change
        # of frame
        if mu.sum() > 1e-9 and slack <= 0.5 * DOMINANCE_TOL:
            dom = _weights_dominator(res.x[:a], atoms[active], d1, model)
            if dom is not None:
                return dom, "", ""
        lam, vecs = np.linalg.eigh(res.N)
        bound = _dual_bound(res.N, lam, A, A1)
        bounds.append(min(bound, bounds[-1]) if bounds else bound)
        if bound <= MATERIAL_FACTOR * DOMINANCE_TOL:
            return None, "dual bound below tolerance", ""
        low = vecs[:, lam < 1.0 - 1e-9]
        mixed = [(a + s * b) / np.sqrt(2.0) for a, b in combinations(low.T, 2) for s in (1.0, -1.0)]
        if slack > 1e-9 and box < 1e9:
            box *= 100.0
        elif not low.shape[1]:
            break
        dirs = np.column_stack([dirs, low, *mixed])
    else:
        if bounds[-1] < bounds[len(bounds) // 2] - 1e-9:
            return None, "", "the dual bound was still falling at the LP round cap"
    return None, "", ""


def find_dominator(
    d1: Design, candidates: CandidateSet | np.ndarray, model
) -> AdmissibilityVerdict:
    """Search for a design whose information matrix dominates d1's.

    A chain of stages, each run once, stops at the first that returns a
    verified dominator or a proof that none exists:

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
    - The same moment problem on each axis line through d1's atoms, for the
      atoms on that line against the candidates on it, spliced back into
      d1 (``_axis_line_dominator``). It returns dominators only: their gaps
      are rank one, which the LP below must price in exactly.
    - The rank-one LP (``_gap_lp``) over the candidates and d1's atoms, in
      the frame whitened by M(d1) + M(uniform on the candidates), with the
      candidates priced in by ``sweep``. Its dual bound below
      MATERIAL_FACTOR * DOMINANCE_TOL proves that no design there has a
      nonnegative definite gap of larger whitened trace. LP_ROUNDS rounds
      cap it; a bound still falling at the cap, or an LP that fails, is
      inconclusive.

    Every returned dominator is verified by ``dominates``. A verdict of
    admissible without a proof means the search came up empty within budget;
    it is a one-sided statement, not a proof of admissibility. The verdict's
    note names the candidate set a claim is about. The candidates must span
    at least the rank of d1's regression rows (both by ``gram_rank``).
    """
    points = candidates.points if isinstance(candidates, CandidateSet) else np.atleast_2d(candidates)
    F = model.eval_many(points)
    F1 = model.eval_many(d1.points)
    if gram_rank(F) < gram_rank(F1):
        raise ValidationError("candidate set spans less than the design to dominate")

    proof, unsettled, where = "", "", "these candidates"
    if points.shape[0] == 1:
        best = _weights_dominator(np.ones(1), points, d1, model)
        proof = "" if best is not None else "the only candidate does not dominate"
    else:
        best, proof = _moment_oracle(d1, F1, points, F, model)
        if best is None and not proof:
            best = _axis_line_dominator(d1, F1, points, F, model)
        if best is None and not proof:
            where = "these candidates or the design's atoms"
            best, proof, unsettled = _gap_lp(d1, points, F, F1, model)
    if best is not None:
        return AdmissibilityVerdict(
            admissible=False, dominator=best, note="dominator verified in the Loewner order"
        )
    if unsettled:
        return AdmissibilityVerdict(admissible=False, inconclusive=True, note=unsettled)
    note = f"no dominator found on {where} within budget (one-sided: not a proof of admissibility)"
    if proof:
        note = f"no design on {where} dominates ({proof})"
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
    atom of the design).
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
