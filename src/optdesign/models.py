"""Design spaces, regression-model catalog, and grid discretization.

A model is a family name plus parameters; evaluating it at a point returns the
regression vector f(x) (for nonlinear families, the parameter gradient of the
mean function at a nominal parameter value, so all downstream machinery sees a
linear model). Continuous design spaces are boxes; solvers and certificates
work on finite candidate grids produced by :func:`discretize`.
"""

from __future__ import annotations

import json
import math
import pickle
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable

import numpy as np

from .designs import SWEEP_BLOCK, sweep
from .errors import DomainError, MustTruncateError, ValidationError

_BOUND_EPS = 1e-9
_RANK_RTOL = 1e-8  # gram_rank counts singular values above this times the largest


@dataclass(frozen=True)
class DesignSpace:
    """Axis-aligned box of predictor values, possibly unbounded above.

    Parameters
    ----------
    bounds : tuple of (lo, hi) pairs
        Closed interval per axis; ``hi`` may be ``math.inf``.
    truncated : tuple of int
        Ascending axes whose upper bound came from ``truncate``.
    """

    bounds: tuple[tuple[float, float], ...]
    truncated: tuple[int, ...] = ()

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        for j, (lo, hi) in enumerate(bounds):
            if not math.isfinite(lo):
                raise ValidationError(f"axis {j}: lower bound must be finite, got {lo}")
            if not lo <= hi:
                raise ValidationError(f"axis {j}: need lo <= hi, got [{lo}, {hi}]")

    @property
    def dimension(self) -> int:
        return len(self.bounds)

    @property
    def is_bounded(self) -> bool:
        return all(math.isfinite(hi) for _, hi in self.bounds)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Row mask of the points within the box, to _BOUND_EPS; NaN rows are out.

        The per-axis comparisons are folded into one n-vector, so no n x q
        boolean temporary is made.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        inside = np.ones(pts.shape[0], dtype=bool)
        for j, (lo, hi) in enumerate(self.bounds):
            inside &= pts[:, j] >= lo - _BOUND_EPS
            inside &= pts[:, j] <= hi + _BOUND_EPS
        return inside


def interval(lo: float, hi: float) -> DesignSpace:
    return DesignSpace(((lo, hi),))


def truncate(space: DesignSpace, axis: int, new_hi: float) -> DesignSpace:
    """Cut axis ``axis`` off at ``new_hi``, recording the truncation.

    Already-bounded axes keep the tighter of the two upper bounds; the axis is
    recorded in ``truncated`` either way.
    """
    if not 0 <= axis < space.dimension:
        raise ValidationError(f"axis {axis} out of range for dimension {space.dimension}")
    lo, hi = space.bounds[axis]
    if not math.isfinite(new_hi) or new_hi <= lo:
        raise ValidationError(f"truncation point must be finite and > {lo}, got {new_hi}")
    clipped = min(hi, new_hi)
    bounds = list(space.bounds)
    bounds[axis] = (lo, clipped)
    return DesignSpace(tuple(bounds), tuple(sorted({*space.truncated, axis})))


class CandidateSet:
    """Finite list of grid points inside a design space.

    Points must be pairwise distinct under float equality, so ``0.0`` and
    ``-0.0`` are the same point. ``CandidateSet(space, points, steps)`` keeps
    the (n, q) points it is given. A grid from ``discretize`` keeps its axes
    instead and forms ``points`` on each call, keeping none: every hot path
    reads rows by index (``rows``), so such a grid holds its regression
    matrix (n k 8 bytes, see ``features``) and its axes. Immutable.
    """

    def __init__(self, space: DesignSpace, points, steps):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 0:
            raise ValidationError("candidate set must be nonempty")
        if pts.shape[1] != space.dimension:
            raise ValidationError("candidate points do not match space dimension")
        if not np.all(space.contains(pts)):
            raise ValidationError("candidate point outside design-space bounds")
        pts.setflags(write=False)
        self._init(space, steps, pts, None)
        if self.product_axes is not None:
            return  # strictly increasing axes in an exact product: distinct rows
        order = np.lexsort(pts.T)  # equal rows end up adjacent
        same = np.ones(pts.shape[0] - 1, dtype=bool)
        for j in range(pts.shape[1]):
            col = pts[order, j]
            same &= col[1:] == col[:-1]
        if same.any():
            raise ValidationError("candidate points must be pairwise distinct")

    @classmethod
    def _product(cls, space: DesignSpace, axes: tuple, steps) -> CandidateSet:
        """The grid of the strictly increasing ``axes``, in ``discretize``
        order (the last axis varying fastest), held as its axes."""
        for a in axes:
            a.setflags(write=False)
        grid = cls.__new__(cls)
        grid._init(space, steps, None, axes)
        return grid

    def _init(self, space, steps, points, axes) -> None:
        # _features: (snapshot key of the model, its read-only regression
        # matrix, a dict of what is derived from it: "rank", "screen" and
        # ("garza", norm_tol) once asked); see features()
        self.__dict__.update(
            space=space, steps=tuple(float(s) for s in steps), _points=points, _axes=axes,
            _features=None,
        )
        if axes is not None:
            self.__dict__["product_axes"] = axes

    def __setattr__(self, name, value):
        raise AttributeError(f"CandidateSet is immutable: cannot set {name!r}")

    def __repr__(self) -> str:
        return f"CandidateSet({len(self)} points, steps={self.steps})"

    def __len__(self) -> int:
        if self._axes is None:
            return self._points.shape[0]
        return math.prod(a.size for a in self._axes)

    @property
    def points(self) -> np.ndarray:
        """Read-only (n, q) array of the candidates. A product grid forms it
        on each call (``_mesh``) and keeps none."""
        return self._points if self._axes is None else _mesh(self._axes)

    def rows(self, idx) -> np.ndarray:
        """``points[idx]`` for an index array or a slice, not to be written.
        A product grid forms only those rows, from its axes: a run of rows
        by ``_product_run``, any other rows by their axis indices."""
        if self._axes is None:
            return self._points[idx]
        if isinstance(idx, slice):
            start, stop, step = idx.indices(len(self))
            if step == 1 and stop > start:
                return _product_run(self._axes, start, stop)
            idx = np.arange(start, stop, step)
        subs = np.unravel_index(np.asarray(idx, dtype=np.intp), [a.size for a in self._axes])
        out = np.empty((subs[0].size, len(self._axes)))
        for j, (a, i) in enumerate(zip(self._axes, subs)):
            out[:, j] = a[i]
        return out

    @property
    def max_step(self) -> float:
        return max(self.steps)

    def features(self, model) -> np.ndarray:
        """Read-only n x k matrix ``model.eval_many(self.points)``, column-major.

        The matrix is filled from ``eval_many`` in blocks of ``SWEEP_BLOCK``
        rows, so no second n x k copy is ever held, and it is laid out for
        ``sweep``, which reads its columns as the rows of F^T. The grid keeps
        the matrix of the last model (a ``ModelSpec`` or a ``ConditionalModel``)
        evaluated on it and hands it out again while the model's key equals
        its snapshot from the fill (``_model_key``): both models are
        immutable and compute their key once, so equal keys mean equal
        values. Each block of rows is formed by ``rows``.
        """
        return self._feature_entry(model)[1]

    def features_rank(self, model) -> int:
        """``gram_rank`` of ``self.features(model)``, from the singular values
        of the k x k R of a QR taken ``SWEEP_BLOCK`` rows at a time
        (``_stacked_r``), so no n x k copy is made.

        Computed on the first call and kept beside the matrix, under the same
        snapshot, so a refill with another model computes it again.
        """
        return self._derived(model, "rank", lambda F: gram_rank(_stacked_r(F)))

    def screen(self, model) -> np.ndarray | None:
        """Ascending indices of the candidates kept by the de la Garza screen.

        An axis is affine when f = a + g b on each of its coordinate lines
        (that axis varies, the others fixed), with one scalar g of that
        axis's coordinate shared by every line. Moving the mass of an
        interior point to the coordinates of smallest and largest g keeps
        sum(w) and sum(w g) and raises sum(w g^2), so M rises in the Loewner
        order and no phi_p value falls: an affine axis keeps only those two
        coordinates, and any other axis keeps all of its own. The kept set is
        the product of the kept coordinates of every axis. As g is shared,
        moving mass along one axis never leaves the coordinates another axis
        keeps, so the reduction is proved: some optimum lies on the kept set,
        and for a PSD N the largest f'Nf there bounds the grid's
        (``kept_max``), which ``grid_max`` accepts on.

        Needs ``product_axes``. Returns None when the points are not such a
        product, when nothing is removed, or when the kept rows do not span
        all k dimensions. Computed on the first call and kept beside the
        regression matrix, under the same snapshot, with the residual of each
        affine axis (see ``_screen``).
        """
        screened = self._derived(model, "screen", lambda F: _screen(F, self.product_axes))
        return None if screened is None else screened[0]

    def accept_rows(self, model) -> np.ndarray | None:
        """The rows whose check can accept for the whole grid: the screen's
        kept rows on a screened grid with no truncated axis, else None, which
        stands for every row. ``grid_max`` accepts on them, and the E
        certificate's minimax (``build_certificate``) reads only them.
        """
        return None if self.space.truncated else self.screen(model)

    def grid_max(self, model, N: np.ndarray, tol: float) -> tuple:
        """(sens, row, m) for N >= 0: m the largest f'Nf over the grid, at
        ``row``, and ``sens`` the f'Nf of every row, or None.

        On a screened grid with no truncated axis, the kept rows decide where
        their bound (``kept_max``) is within ``tol`` of 1, the normality
        bound: m and row are then the kept set's, and ``sens`` is None.
        Otherwise every row is swept, which also finds the violators, and row
        is the lowest at m. A truncated axis is always swept, as
        ``tight_truncation`` reads its boundary rows. The kept set is asked
        of ``accept_rows``, so with the screen off every check sweeps.
        """
        _, F, derived = self._feature_entry(model)
        if self.accept_rows(model) is not None:
            m, row, bound = kept_max(F, derived["screen"], N)
            if bound - 1.0 <= tol:
                return None, row, m
        sens = sweep(F, N)
        row = int(np.argmax(sens))
        return sens, row, float(sens[row])

    def tight_truncation(self, sens: np.ndarray, tol: float) -> float | None:
        """The largest of ``sens`` (``grid_max``'s sweep) on the upper boundary
        of a truncated axis, if it is at least 1 - 10 tol, else None. On a
        product, the boundary rows are read as a slab of ``sens`` laid out on
        the grid's shape."""
        axes = self.product_axes
        worst = -np.inf
        for j in self.space.truncated:
            hi = self.space.bounds[j][1]
            eps = 1e-12 * max(abs(hi), 1.0)
            if axes is None:
                edge = sens[np.abs(self.points[:, j] - hi) <= eps]
            else:
                on_edge = np.abs(axes[j] - hi) <= eps
                edge = sens.reshape([a.size for a in axes]).compress(on_edge, axis=j)
            worst = max(worst, float(edge.max(initial=-np.inf)))
        return worst if worst >= 1.0 - 10.0 * tol else None

    @cached_property
    def product_axes(self) -> tuple[np.ndarray, ...] | None:
        """Distinct coordinates of each axis, ascending and read-only, when the
        points are exactly their product in ``discretize`` order (the last
        axis varying fastest), else None. A grid from ``discretize`` is its
        axes; for given points this is computed once, as they are read-only.
        """
        pts = self._points
        n = pts.shape[0]
        axes = []
        period = n  # rows per full cycle of the current axis
        for j in range(pts.shape[1]):
            col = pts[:, j]
            run = int(np.argmax(col != col[0])) or period  # leading run of equal values
            if period % run:
                return None
            coords = col[:period:run]
            if np.any(np.diff(coords) <= 0):
                return None
            if not np.all(col.reshape(n // period, coords.size, run) == coords[:, None]):
                return None
            coords = coords.copy()
            coords.setflags(write=False)
            axes.append(coords)
            period = run
        return tuple(axes) if period == 1 else None

    def _derived(self, model, name: str, compute):
        """``compute(self.features(model))``, kept beside the matrix under its snapshot."""
        _, F, derived = self._feature_entry(model)
        if name not in derived:
            derived[name] = compute(F)
        return derived[name]

    def _feature_entry(self, model) -> tuple:
        key = _model_key(model)
        if self._features is None or self._features[0] != key:
            n = len(self)
            F = np.empty((n, model.k), order="F")
            for start in range(0, n, SWEEP_BLOCK):
                rows = slice(start, start + SWEEP_BLOCK)
                F[rows] = model.eval_many(self.rows(rows))
            F.setflags(write=False)
            object.__setattr__(self, "_features", (key, F, {}))
        return self._features


def _mesh(axes: tuple) -> np.ndarray:
    """Every row of the product of ``axes``, read-only: a grid's points."""
    pts = _product_run(axes, 0, math.prod(a.size for a in axes))
    pts.setflags(write=False)
    return pts


def _product_run(axes: tuple, start: int, stop: int) -> np.ndarray:
    """Rows ``start`` to ``stop`` of the product of ``axes`` (the last axis
    varying fastest). Axis j repeats each coordinate s_j times, s_j the size
    of the axes after it, so its column is the coordinates the run touches,
    tiled around the axis and repeated, the first and last cut to the run."""
    out = np.empty((stop - start, len(axes)))
    s = 1
    for j in reversed(range(len(axes))):
        a = axes[j]
        lo, hi = start // s, (stop - 1) // s  # the repeats of axis j the run touches
        off = lo % a.size
        seq = np.tile(a, -(-(off + hi - lo + 1) // a.size))[off : off + hi - lo + 1]
        if s > 1:
            counts = np.full(seq.size, s)
            counts[0] -= start - lo * s
            counts[-1] -= (hi + 1) * s - stop
            seq = np.repeat(seq, counts)
        out[:, j] = seq
        s *= a.size
    return out


def _model_key(model) -> bytes:
    """The snapshot a grid keeps of the model its regression matrix belongs
    to: the key a ``ModelSpec`` or ``ConditionalModel`` computed once, or
    the pickled bytes of any other model."""
    key = getattr(model, "_key", None)
    return pickle.dumps(model) if key is None else key


# a line passes the affine test when its differences from its first row are,
# to this fraction of their norm, a multiple of its axis's u (see _axis_keep)
SCREEN_RTOL = 1e-6


def _screen(F: np.ndarray, axes: tuple | None) -> tuple | None:
    """``CandidateSet.screen`` on the regression matrix F of the product grid
    ``axes``: (kept indices, residual of each axis) or None.

    One test per axis: each axis keeps the coordinates ``_axis_keep`` gives
    (an axis of at most two keeps both, with residual 0), the kept set is
    their product, and the reduction is proved (see ``CandidateSet.screen``).
    """
    if axes is None:
        return None
    n, k = F.shape
    sizes = [a.size for a in axes]
    kept, rho = [], []
    for j, m in enumerate(sizes):
        outer = math.prod(sizes[:j])
        cols = [F[:, c].reshape(outer, m, n // (outer * m)) for c in range(k)]
        keep, r = (np.arange(m), 0.0) if m <= 2 else _axis_keep(cols)
        kept.append(keep)
        rho.append(r)
    if all(c.size == m for c, m in zip(kept, sizes)):
        return None
    idx = np.ravel_multi_index(np.ix_(*kept), sizes).ravel()
    return (idx, tuple(rho)) if gram_rank(F[idx]) == k else None


def _axis_keep(cols: list) -> tuple[np.ndarray, float]:
    """Ascending kept coordinates of the axis whose lines are ``cols[c][a, :, b]``,
    and the axis's residual rho.

    The differences D (k x m) of a line's rows from its first row are tested
    against u, the difference column of largest spread over all lines. The
    axis is affine when every line's residual R = D - (D u) u' has
    |R| <= SCREEN_RTOL |D| (u of unit norm; |D|^2 = |R|^2 + |D u|^2), which
    for a line of rank near 1 says sigma_2 <= SCREEN_RTOL sigma_1 and that
    its direction is u. Then f = a + g b + r on every line with the same
    g = u, a the line's first row, b = D u and r the columns of R, so the
    axis keeps its coordinates of smallest and largest u (only the first
    when u = 0, a constant axis), and rho is the largest |r| over its rows:
    the screen's proof is exact up to rho (``kept_max``). R is formed from
    D, as |D|^2 - |D u|^2 would cancel to about 1e-8 |D|. Any other axis
    keeps all of its coordinates, with rho 0. Lines are tested in blocks of
    about ``SWEEP_BLOCK`` rows over both line indices, each block's D
    subtracted into one contiguous buffer made once per axis, and the first
    block with a failing line ends the test.
    """
    outer, m, inner = cols[0].shape
    spread = np.array([np.ptp(c, axis=1) for c in cols])
    c, a0, b0 = np.unravel_index(spread.argmax(), spread.shape)
    u = cols[c][a0, :, b0] - cols[c][a0, 0, b0]
    norm = np.linalg.norm(u)
    if norm == 0.0:
        return np.arange(1), 0.0
    u /= norm
    db = min(inner, max(1, SWEEP_BLOCK // m))
    da = min(outer, max(1, SWEEP_BLOCK // (m * db)))
    buf = np.empty(len(cols) * da * m * db)
    rho2 = 0.0
    for a in range(0, outer, da):
        for b in range(0, inner, db):
            na, nb = min(da, outer - a), min(db, inner - b)
            D = buf[: len(cols) * na * m * nb].reshape(len(cols), na, m, nb)
            for c, d in zip(cols, D):
                np.subtract(c[a : a + da, :, b : b + db], c[a : a + da, :1, b : b + db], out=d)
            along = np.einsum("ciml,m->cil", D, u)
            D -= along[:, :, None, :] * u[:, None]
            r2 = np.einsum("ciml,ciml->iml", D, D)  # squared residual of each row
            line = r2.sum(axis=1)
            if np.any(line > SCREEN_RTOL**2 * (line + np.einsum("cil,cil->il", along, along))):
                return np.arange(m), 0.0
            rho2 = max(rho2, float(r2.max()))
    return np.unique([u.argmin(), u.argmax()]), math.sqrt(rho2)


def kept_max(F: np.ndarray, screened: tuple, N: np.ndarray) -> tuple[float, int, float]:
    """(m, i, bound) for N >= 0 on the screen ``screened = (kept, rho)`` of F
    (``_screen``): m the largest f'Nf over the kept rows, i its row of F (the
    lowest on ties) and the bound (sqrt(m) + 2 sqrt(lambda_max(N)) sum_j rho_j)^2,
    which no row of F exceeds. ``CandidateSet.grid_max`` accepts on the
    bound and sweeps every row of F to reject.

    Proof: |f|_N = sqrt(f'Nf) is a seminorm with |r|_N <= sqrt(lambda_max) |r|.
    On a line of an affine axis j, f = a + g b + r with |r| <= rho_j
    (``_axis_keep``), and |a + g b|_N is convex in g, so at most its value at
    the smallest or largest g, the two coordinates the axis keeps. So a
    point's |f|_N exceeds that of the point moved to one of them by at most
    2 sqrt(lambda_max) rho_j. As every line of the axis shares g, a walk that
    moves one affine axis at a time (the others keep all of their
    coordinates) crosses one line per affine axis and ends on a kept point,
    whose |f|_N is at most sqrt(m). The certificates' N are PSD by
    construction, V diag(d >= 0) V', up to rounding.
    """
    kept, rho = screened
    sens = sweep(F[kept], N)
    at = int(np.argmax(sens))
    m = float(sens[at])
    c = 2.0 * math.sqrt(max(float(np.linalg.eigvalsh(N)[-1]), 0.0)) * sum(rho)
    # the square expanded, so that rounding never puts the bound below m
    return m, int(kept[at]), m + c * (2.0 * math.sqrt(max(m, 0.0)) + c)


def discretize(space: DesignSpace, resolution: float | tuple[float, ...] = 0.01) -> CandidateSet:
    """Regular grid over a bounded box, endpoints of every axis included.

    Per axis the grid has ``floor((hi-lo)/step) + 1`` points; the effective
    step is stretched to ``(hi-lo)/(count-1)`` so the upper endpoint is always
    on the grid. The grid is held as its axes (``CandidateSet``): no n x q
    array of points is made or kept.
    """
    if not space.is_bounded:
        j = next(i for i, (_, hi) in enumerate(space.bounds) if not math.isfinite(hi))
        raise MustTruncateError(f"axis {j} is unbounded; call truncate() before discretizing")
    q = space.dimension
    if np.isscalar(resolution):
        steps = (float(resolution),) * q
    else:
        steps = tuple(float(s) for s in resolution)
        if len(steps) != q:
            raise ValidationError(f"expected {q} steps, got {len(steps)}")
    if not all(s > 0 for s in steps):  # also rejects NaN
        raise ValidationError("grid steps must be positive")

    axes = []
    eff = []
    for (lo, hi), step in zip(space.bounds, steps):
        if hi == lo:
            axes.append(np.array([lo]))
            eff.append(step)
            continue
        count = int(math.floor((hi - lo) / step + _BOUND_EPS)) + 1
        count = max(count, 2)
        axes.append(np.linspace(lo, hi, count))
        eff.append((hi - lo) / (count - 1))
    return CandidateSet._product(space, tuple(axes), eff)


# ---------------------------------------------------------------------------
# efficiency functions for the heteroscedastic polynomial family
# ---------------------------------------------------------------------------

def _efficiency_values(spec: dict, x: np.ndarray) -> np.ndarray:
    kind = spec.get("kind", "one")
    if kind == "one":
        lam = np.ones_like(x)
    elif kind == "exp":
        lam = np.exp(float(spec.get("rate", 1.0)) * x)
    elif kind == "affine":
        lam = 1.0 + float(spec.get("slope", 1.0)) * x
    else:
        raise ValidationError(f"unknown efficiency kind {kind!r}")
    if np.any(lam <= 0):
        raise ValidationError("efficiency function must be strictly positive on the design space")
    return lam


# ---------------------------------------------------------------------------
# family registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Family:
    name: str
    dim: int  # predictor dimension q (0 = any, unused)
    k_of: Callable[[dict], int]
    validate: Callable[[dict], None]
    evaluate: Callable[[dict, np.ndarray], np.ndarray]  # (params, (n,q)) -> (n,k)
    default_bounds: Callable[[dict], tuple]


def _as_float_vec(params, key, length=None):
    try:
        v = np.asarray(params[key], dtype=float).ravel()
    except KeyError:
        raise ValidationError(f"missing required parameter {key!r}")
    if length is not None and v.size != length:
        raise ValidationError(f"parameter {key!r} must have length {length}, got {v.size}")
    return v


def _poly_validate(params):
    d = params.get("degree")
    if not isinstance(d, int) or d < 0:
        raise ValidationError("polynomial degree must be a nonnegative integer")


def _poly_eval(params, X):
    return np.vander(X[:, 0], params["degree"] + 1, increasing=True)


def _wpoly_validate(params):
    _poly_validate(params)
    eff = params.get("efficiency", {"kind": "one"})
    if not isinstance(eff, Mapping):
        raise ValidationError("efficiency must be a dict like {'kind': 'exp', 'rate': 1.0}")
    _efficiency_values(eff, np.array([0.0]))


def _wpoly_eval(params, X):
    x = X[:, 0]
    lam = _efficiency_values(params.get("efficiency", {"kind": "one"}), x)
    return np.sqrt(lam)[:, None] * np.vander(x, params["degree"] + 1, increasing=True)


def _expsum_validate(params):
    a = _as_float_vec(params, "a")
    lam = _as_float_vec(params, "lambda")
    if a.size != lam.size or a.size == 0:
        raise ValidationError("'a' and 'lambda' must be nonempty and of equal length")
    if np.any(a == 0):
        raise ValidationError("amplitudes a_l must be nonzero")
    if np.any(lam <= 0) or np.any(np.diff(lam) <= 0):
        raise ValidationError("rates must satisfy 0 < lambda_1 < ... < lambda_L")


def _expsum_eval(params, X):
    x = X[:, 0]
    a = np.asarray(params["a"], dtype=float)
    lam = np.asarray(params["lambda"], dtype=float)
    cols = []
    for al, ll in zip(a, lam):
        e = np.exp(-ll * x)
        cols.append(e)
        cols.append(-al * x * e)
    return np.stack(cols, axis=1)


def _growth_validate(params):
    th = _as_float_vec(params, "theta", 3)
    if th[1] < 1 or th[2] < 1:
        raise ValidationError("exp-growth-2f requires theta_1 >= 1 and theta_2 >= 1")


def _growth_eval(params, X):
    th = np.asarray(params["theta"], dtype=float)
    x1, x2 = X[:, 0], X[:, 1]
    return np.stack(
        [np.ones_like(x1), -x1 * np.exp(-th[1] * x1), -x2 * np.exp(-th[2] * x2)], axis=1
    )


def _product_validate(params):
    th = _as_float_vec(params, "theta", 3)
    if np.any(th <= 0):
        raise ValidationError("exp-product-2f requires all theta_j > 0")


def _product_eval(params, X):
    th = np.asarray(params["theta"], dtype=float)
    x1, x2 = X[:, 0], X[:, 1]
    scale = np.exp(th[1] * x1 + th[2] * x2)
    return scale[:, None] * np.stack([np.ones_like(x1), th[0] * x1, th[0] * x2], axis=1)


def _mixture_validate(params):
    t3 = params.get("theta3")
    if t3 is None or float(t3) <= 0:
        raise ValidationError("mixture-poly-exp requires theta3 > 0")


def _mixture_eval(params, X):
    t3 = float(params["theta3"])
    x1, x2 = X[:, 0], X[:, 1]
    return np.stack([np.ones_like(x1), x1, x1**3, -x2 * np.exp(-t3 * x2)], axis=1)


def _xexp_validate(params):
    if float(params.get("rate", 0.0)) <= 0:
        raise ValidationError("xexp-decay requires rate > 0")


def _xexp_eval(params, X):
    r = float(params["rate"])
    x = X[:, 0]
    return np.stack([np.ones_like(x), x * np.exp(-r * x)], axis=1)


def _cubic_gap_eval(params, X):
    x = X[:, 0]
    return np.stack([np.ones_like(x), x, x**3], axis=1)


FAMILIES: dict[str, _Family] = {
    "polynomial": _Family(
        "polynomial", 1, lambda p: p["degree"] + 1, _poly_validate, _poly_eval,
        lambda p: ((0.0, 1.0),),
    ),
    "weighted-polynomial": _Family(
        "weighted-polynomial", 1, lambda p: p["degree"] + 1, _wpoly_validate, _wpoly_eval,
        lambda p: ((0.0, 1.0),),
    ),
    "linear-2f-no-intercept": _Family(
        "linear-2f-no-intercept", 2, lambda p: 2, lambda p: None,
        lambda p, X: X[:, :2].copy(),
        lambda p: ((0.0, 1.0), (0.0, 1.0)),
    ),
    "interaction-2f": _Family(
        "interaction-2f", 2, lambda p: 4, lambda p: None,
        lambda p, X: np.stack(
            [np.ones_like(X[:, 0]), X[:, 0], X[:, 1], X[:, 0] * X[:, 1]], axis=1
        ),
        lambda p: ((0.0, 1.0), (0.0, 1.0)),
    ),
    "exponential-sum": _Family(
        "exponential-sum", 1, lambda p: 2 * len(p["lambda"]), _expsum_validate, _expsum_eval,
        lambda p: ((0.0, math.inf),),
    ),
    "exp-growth-2f": _Family(
        "exp-growth-2f", 2, lambda p: 3, _growth_validate, _growth_eval,
        lambda p: ((0.0, 1.0), (0.0, 1.0)),
    ),
    "exp-product-2f": _Family(
        "exp-product-2f", 2, lambda p: 3, _product_validate, _product_eval,
        lambda p: ((0.0, 1.0), (0.0, 1.0)),
    ),
    "mixture-poly-exp": _Family(
        "mixture-poly-exp", 2, lambda p: 4, _mixture_validate, _mixture_eval,
        lambda p: ((-1.0, 1.0), (0.0, 2.0)),
    ),
    # one-factor models of the marginal spans of the two-factor families
    "xexp-decay": _Family(
        "xexp-decay", 1, lambda p: 2, _xexp_validate, _xexp_eval,
        lambda p: ((0.0, 1.0),),
    ),
    "cubic-gap": _Family(
        "cubic-gap", 1, lambda p: 3, lambda p: None, _cubic_gap_eval,
        lambda p: ((-1.0, 1.0),),
    ),
}


@dataclass(frozen=True)
class ModelSpec:
    """A regression family with fixed parameters on a design space.

    ``eval_many`` returns the n x k matrix of regression vectors; nonlinear
    families return parameter gradients, so every consumer can treat the model
    as linear. Once validated, ``params`` is frozen (``_frozen``: lists
    become tuples, mappings read-only), so the key a grid keeps of the model
    (``CandidateSet.features``) is computed once, from the family, the
    frozen params and the space.
    """

    family: str
    params: Mapping = field(default_factory=dict)
    space: DesignSpace = None
    _key: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(
                f"unknown family {self.family!r}; known: {sorted(FAMILIES)}"
            )
        fam = FAMILIES[self.family]
        try:
            fam.validate(self.params)
        except ValidationError:
            raise
        except (TypeError, ValueError) as exc:  # a value of the wrong type, as from a file
            raise ValidationError(
                f"model field 'params' is malformed for {self.family}: {exc}"
            ) from None
        if self.space is None:
            object.__setattr__(self, "space", DesignSpace(fam.default_bounds(self.params)))
        if self.space.dimension != fam.dim:
            raise ValidationError(
                f"{self.family} needs a {fam.dim}-dimensional space, got {self.space.dimension}"
            )
        object.__setattr__(self, "params", _frozen(self.params))
        key = pickle.dumps((self.family, _plain(self.params), self.space))
        object.__setattr__(self, "_key", key)

    def __reduce__(self):
        return ModelSpec, (self.family, _plain(self.params), self.space)

    @property
    def k(self) -> int:
        return FAMILIES[self.family].k_of(self.params)

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(points, dtype=float))
        if X.shape[1] != self.space.dimension:
            raise ValidationError(
                f"points have dimension {X.shape[1]}, space has {self.space.dimension}"
            )
        inside = self.space.contains(X)
        if not np.all(inside):
            bad = X[~inside][0]
            raise DomainError(f"point {bad.tolist()} outside design-space bounds")
        F = FAMILIES[self.family].evaluate(self.params, X)
        if not np.all(np.isfinite(F)):
            raise ValidationError("regression vector evaluated to a non-finite value")
        return F


def _frozen(value):
    """``value`` with every mapping made read-only and every list, tuple or
    array made a tuple, at every depth."""
    if isinstance(value, Mapping):
        return MappingProxyType({k: _frozen(v) for k, v in value.items()})
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    return value


def _plain(value):
    """Frozen params as a model file holds them: dicts and lists."""
    if isinstance(value, Mapping):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def make_model(family: str, space: DesignSpace | None = None, **params) -> ModelSpec:
    return ModelSpec(family=family, params=params, space=space)


def eval_f(model: ModelSpec, x) -> np.ndarray:
    """Regression vector f(x) at a single point."""
    return model.eval_many(np.atleast_2d(np.asarray(x, dtype=float)))[0]


def _stacked_r(F: np.ndarray) -> np.ndarray:
    """The R of a QR of F, folded ``SWEEP_BLOCK`` rows at a time: each block
    is stacked under the R so far and factored again. R has the singular
    values of F, and no copy of F is made."""
    R = np.empty((0, F.shape[1]))
    for start in range(0, F.shape[0], SWEEP_BLOCK):
        R = np.linalg.qr(np.vstack([R, F[start : start + SWEEP_BLOCK]]), mode="r")
    return R


def gram_rank(F: np.ndarray) -> int:
    """Numerical rank of a stack of regression vectors: the singular values
    above _RANK_RTOL of the largest."""
    sv = np.linalg.svd(np.atleast_2d(F), compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.sum(sv > _RANK_RTOL * sv[0]))


def default_truncation(model: ModelSpec) -> float | None:
    """Default cut point for unbounded domains; exponential sensitivity decays
    make 3 / lambda_1 a safe box for exponential-sum models."""
    if model.family == "exponential-sum":
        return 3.0 / float(np.min(np.asarray(model.params["lambda"], dtype=float)))
    return None


def default_candidates(model: ModelSpec, resolution: float | tuple = 0.01) -> CandidateSet:
    """Discretize the model's space, auto-truncating when a default rule exists."""
    space = model.space
    if not space.is_bounded:
        cut = default_truncation(model)
        if cut is None:
            raise MustTruncateError(
                f"{model.family} has an unbounded axis and no default truncation rule"
            )
        for j, (_, hi) in enumerate(space.bounds):
            if not math.isfinite(hi):
                space = truncate(space, j, cut)
    return discretize(space, resolution)


# ---------------------------------------------------------------------------
# JSON model files: {"family": ..., "params": {...}, "space": {"bounds": ..., "steps": ...}}
# ---------------------------------------------------------------------------

def model_from_dict(obj: dict) -> tuple[ModelSpec, tuple | None]:
    """Build a model from its file representation; returns (model, steps or None).

    A field of the wrong shape raises ValidationError naming the field.
    """
    if not isinstance(obj, dict) or "family" not in obj:
        raise ValidationError("model file needs a JSON object with a 'family' field")
    if not isinstance(obj["family"], str):
        raise ValidationError(f"model field 'family' must be a string, got {obj['family']!r}")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ValidationError(f"model field 'params' must be an object, got {params!r}")
    space = None
    steps = None
    sp = obj.get("space")
    if sp is not None:
        if not isinstance(sp, dict) or "bounds" not in sp:
            raise ValidationError(
                f"model field 'space' must be an object with a 'bounds' list, got {sp!r}"
            )
        try:
            bounds = tuple(
                (float(lo), math.inf if hi is None else float(hi)) for lo, hi in sp["bounds"]
            )
        except (TypeError, ValueError):
            raise ValidationError(
                "model field 'space.bounds' must be a list of [lo, hi] number pairs"
                f" (hi null for an unbounded axis), got {sp['bounds']!r}"
            ) from None
        space = DesignSpace(bounds)
        if sp.get("steps") is not None:
            try:
                steps = tuple(float(s) for s in sp["steps"])
            except (TypeError, ValueError):
                raise ValidationError(
                    f"model field 'space.steps' must be a list of numbers, got {sp['steps']!r}"
                ) from None
    return ModelSpec(family=obj["family"], params=dict(params), space=space), steps


def model_to_dict(model: ModelSpec, steps: tuple | None = None) -> dict:
    sp = {
        "bounds": [[lo, None if math.isinf(hi) else hi] for lo, hi in model.space.bounds],
    }
    if steps is not None:
        sp["steps"] = list(steps)
    return {"family": model.family, "params": _plain(model.params), "space": sp}


def load_model(path) -> tuple[ModelSpec, tuple | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
