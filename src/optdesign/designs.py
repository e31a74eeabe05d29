"""Designs as weighted point sets, information matrices, and design hygiene."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDesignError, ValidationError

WEIGHT_SUM_TOL = 1e-12
# rows per block of `sweep` and of the regression-matrix fill: the k x block
# product stays in a core's L2 cache for small k (256 KB at k = 4). On
# 641,601 rows, one BLAS thread of a 2-core x86-64 host, blocks of 8192 and
# 16384 rows took 3.4-3.6 ms per column-major sweep at k = 4, blocks of 4096
# 5-7 ms and of 32768 3.9-4.1 ms.
SWEEP_BLOCK = 8192


@dataclass(frozen=True)
class Design:
    """Probability measure with finite support: points (m, q), weights (m,)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        if pts.shape[0] != w.shape[0]:
            raise ValidationError("points and weights length mismatch")
        if pts.shape[0] == 0:
            raise EmptyDesignError("design needs at least one atom")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(w)):
            raise ValidationError("design entries must be finite")
        if np.any(w <= 0):
            raise ValidationError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"weights must sum to 1, got {w.sum()!r}")
        # exact duplicate support points are a construction error
        if len({tuple(row) for row in pts}) != pts.shape[0]:
            raise ValidationError("support points must be pairwise distinct")
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def q(self) -> int:
        return self.points.shape[1]

    def atoms(self):
        return list(zip(map(tuple, self.points), self.weights))

    def to_dict(self) -> dict:
        return {"atoms": [{"x": list(x), "w": float(w)} for x, w in self.atoms()]}

    @staticmethod
    def from_dict(obj: dict) -> "Design":
        """Design from its file form {"atoms": [{"x": [...], "w": ...}, ...]}.

        A field of the wrong shape raises ValidationError naming the field.
        """
        atoms = obj.get("atoms", []) if isinstance(obj, dict) else None
        if not isinstance(atoms, list):
            raise ValidationError(
                'design file needs a JSON object whose \'atoms\' field is a list of'
                ' {"x": [...], "w": ...} objects'
            )
        if not atoms:
            raise EmptyDesignError("design file has no atoms")
        for i, atom in enumerate(atoms):
            if not isinstance(atom, dict) or "x" not in atom or "w" not in atom:
                raise ValidationError(
                    f"design atom {i} needs an 'x' and a 'w' field, got {atom!r}"
                )
        return Design(_atom_values(atoms, "x"), _atom_values(atoms, "w"))


def _atom_values(atoms: list, key: str) -> np.ndarray:
    """Field ``key`` of every atom of a design file, stacked into one float array."""
    try:
        values = np.array([a[key] for a in atoms], dtype=float)
    except (TypeError, ValueError):
        values = None
    if values is None or values.ndim > 2:
        raise ValidationError(
            f"design field {key!r} must be a number or a list of numbers,"
            " of one length in every atom"
        )
    return values


def design(points, weights=None, normalize=False) -> Design:
    """Convenience constructor; uniform weights when none are given."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if weights is None:
        w = np.full(pts.shape[0], 1.0 / pts.shape[0])
    else:
        w = np.asarray(weights, dtype=float).ravel()
        if normalize:
            w = w / w.sum()
    return Design(pts, w)


def load_design(path) -> Design:
    with open(path, "r", encoding="utf-8") as fh:
        return Design.from_dict(json.load(fh))


def gram(F: np.ndarray, w: np.ndarray) -> np.ndarray:
    """F^T diag(w) F, symmetrized: the information matrix of regressor rows F."""
    M = F.T @ (w[:, None] * F)
    return 0.5 * (M + M.T)


def sweep(F: np.ndarray, N: np.ndarray) -> np.ndarray:
    """f_i^T N f_i for every row f_i of F: the sensitivity surface of N.

    Works on F^T in column blocks: one product N^T @ block into a reused
    k x block buffer, an in-place multiply by the block, and a sum of its k
    rows. A column-major F, as ``CandidateSet.features`` returns, makes each
    row of F^T contiguous; a row-major F gives the same values, more slowly.
    The rows are summed in the order of numpy's two-lane einsum loop, so the
    result is bit-equal to the row-wise ``einsum("ij,ij->i", F @ N, F)``:
    even and odd rows go to two partial sums that are added at the end, and
    within each full group of 8 rows a lane adds its 4 rows last to first.
    On 641,601 rows, k = 4 and one BLAS thread of a 2-core x86-64 host, this
    took 3.4 ms against 10 ms for the row-wise einsum on a row-major F (2.2
    against 8.8 ms at k = 2, 8.2 against 13 ms at k = 6).
    """
    n, k = F.shape
    out = np.empty(n)
    FT, NT = F.T, N.T
    buf = np.empty((k, min(n, SWEEP_BLOCK)))
    lanes = [_lane_order(k, lane) for lane in (0, 1)]
    for start in range(0, n, SWEEP_BLOCK):
        blk = FT[:, start : start + SWEEP_BLOCK]
        P = buf[:, : blk.shape[1]]
        np.matmul(NT, blk, out=P)
        P *= blk
        for first, *rest in filter(None, lanes):
            for j in rest:
                P[first] += P[j]
        dest = out[start : start + SWEEP_BLOCK]
        np.add(P[lanes[0][0]], P[lanes[1][0]] if k > 1 else 0.0, out=dest)
        dest += 0.0  # the lanes start from +0.0, so a sum of -0.0 terms is +0.0
    return out


def _lane_order(k: int, lane: int) -> list[int]:
    """Rows of a k-row product that one lane of the einsum loop adds, in order."""
    full = k - k % 8
    order = [g + lane + u for g in range(0, full, 8) for u in (6, 4, 2, 0)]
    return order + list(range(full + lane, k, 2))


def _top_rows(values: np.ndarray, count: int) -> np.ndarray:
    """Ascending indices of the ``count`` largest values, ties to the lowest index.

    The same set as the first ``count`` of a stable descending argsort, found
    by one partition in O(n) in place of an O(n log n) sort.
    """
    n = values.size
    if count >= n:
        return np.arange(n)
    cut = np.partition(values, n - count)[n - count]  # the count-th largest value
    above = np.flatnonzero(values > cut)
    ties = np.flatnonzero(values == cut)[: count - above.size]
    return np.sort(np.concatenate([above, ties]))


def rank_one_batch(k: int) -> int:
    """Rows that seed ``rank_one_lp`` and join it per round: 10 per LP row."""
    return 10 * (k * (k + 1) // 2 + 1)


def rank_one_lp(A, R, dirs, dir_cost, box, active, scale=False):
    """The LP that puts weights w on rows a_i of A and mu on directions v_j
    (columns of ``dirs``) into one symmetric k x k matrix equation.

    Over w, mu, box slacks S+, S- >= 0 and, with ``scale``, a free s, it
    maximizes dir_cost sum mu + s less the slack cost, subject to sum w = 1
    and sum_i w_i a_i a_i' - sum_j mu_j v_j v_j' - s I + S+ - S- = R, one
    row per entry p <= q. Each slack costs the bound ``box`` = (lower,
    upper) puts on its entry of the dual: a symmetric N and t with
    a_i' N a_i <= t, v_j' N v_j >= dir_cost, lower <= N <= upper and, with
    ``scale``, trace N = 1.

    The LP starts from the rows ``active``; after each solve a'Na - t is
    swept over every row, and the ``rank_one_batch`` most violated join
    until none exceeds t by 1e-9 |t|: a hundredth of HiGHS's tolerance,
    1e-7, yet far above the sweep's rounding, so no row joins for noise.

    Returns HiGHS's last result, whose ``x`` is (w on the rows ``active``,
    ascending; mu; S+; S-; s), with N, t and ``active``.
    """
    from scipy.optimize import linprog

    k = A.shape[1]
    iu = np.triu_indices(k)
    e, twice = iu[0].size, np.where(iu[0] == iu[1], 1.0, 2.0)

    def vech(V):  # the entries p <= q of v v' for each column v, off-diagonals doubled
        return twice[:, None] * V[iu[0]] * V[iu[1]]

    lower, upper = (np.broadcast_to(b, (k, k))[iu] for b in box)
    # the columns after the rows': directions, S+, S- and the free s (-I, i.e. twice - 2)
    fixed = [-vech(dirs), np.eye(e), -np.eye(e)] + [(twice - 2.0)[:, None]] * scale
    fixed = np.vstack([np.hstack(fixed), np.zeros(dirs.shape[1] + 2 * e + scale)])
    fixed_cost = np.concatenate([np.full(dirs.shape[1], -dir_cost), upper, -lower, [-1.0] * scale])
    fixed_bounds = [(0.0, None)] * (fixed_cost.size - scale) + [(None, None)] * scale
    while True:
        res = linprog(
            np.concatenate([np.zeros(active.size), fixed_cost]),
            A_eq=np.hstack([np.vstack([vech(A[active].T), np.ones(active.size)]), fixed]),
            b_eq=np.append(twice * R[iu], 1.0), bounds=[(0.0, None)] * active.size + fixed_bounds,
            method="highs",
        )
        res.active = active
        if res.status != 0:
            return res
        N = np.zeros((k, k))
        N[iu] = res.eqlin.marginals[:e]
        res.N, res.t = N + np.triu(N, 1).T, -float(res.eqlin.marginals[e])
        excess = sweep(A, res.N) - res.t
        excess[active] = 0.0
        new = np.flatnonzero(excess > 1e-9 * abs(res.t))
        if new.size == 0:
            break
        # the most violated rows only: one lopsided N can violate nearly every row
        active = np.union1d(active, new[_top_rows(excess[new], rank_one_batch(k))])
    return res


def info_matrix(dsgn: Design, model) -> np.ndarray:
    """M(xi) = sum_i w_i f(x_i) f(x_i)^T; symmetric nonnegative definite."""
    return gram(model.eval_many(dsgn.points), dsgn.weights)


def mix_designs(d1: Design, d2: Design, alpha: float) -> Design:
    """Convex combination alpha*d1 + (1-alpha)*d2 as a measure."""
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError("alpha must lie in [0, 1]")
    if alpha == 1.0:
        return d1
    if alpha == 0.0:
        return d2
    seen: dict[tuple, float] = {}
    order: list[tuple] = []
    for pts, w, a in ((d1.points, d1.weights, alpha), (d2.points, d2.weights, 1 - alpha)):
        for x, wi in zip(map(tuple, pts), w):
            if x not in seen:
                seen[x] = 0.0
                order.append(x)
            seen[x] += a * wi
    pts = np.array(order, dtype=float)
    w = np.array([seen[x] for x in order])
    keep = w > 0  # extreme alpha can underflow a component to exactly zero
    return Design(pts[keep], w[keep] / w[keep].sum())


def components(adjacency: np.ndarray) -> list[np.ndarray]:
    """Connected components of a symmetric boolean adjacency matrix.

    Each component is an ascending index array; components are ordered by
    their smallest member. The reachability matrix is closed by repeated
    squaring, at most ceil(log2 n) + 1 BLAS products of n x n matrices. The
    callers pass support-sized graphs: on one thread of a 2-core x86-64 host
    this took 0.03-0.07 ms at n <= 10, where scipy's csgraph took 0.3 ms,
    nearly all of it input validation; at n = 1000 it took 0.27 s against
    scipy's 18 ms.
    """
    adj = np.asarray(adjacency, dtype=bool)
    reach = (adj | np.eye(adj.shape[0], dtype=bool)).astype(float)
    while True:
        closed = np.minimum(reach @ reach, 1.0)
        if np.array_equal(closed, reach):
            break
        reach = closed
    first = reach.argmax(axis=1)  # the smallest member of each row's component
    return [np.flatnonzero(first == r) for r in np.unique(first)]


def merge_close(dsgn: Design, tol: float) -> Design:
    """Merge atoms within Euclidean distance ``tol`` to weight-weighted centroids.

    Clusters are the connected components of the "within tol" graph, so chains
    of near-coincident grid neighbors collapse to a single atom.
    """
    if tol < 0:
        raise ValidationError("merge tolerance must be nonnegative")
    diff = dsgn.points[:, None, :] - dsgn.points[None, :, :]
    groups = components(np.sqrt((diff**2).sum(axis=2)) <= tol)
    if len(groups) == dsgn.m:
        return dsgn  # nothing merges: the input itself, bit for bit
    pts, ws = [], []
    for idx in groups:
        w = dsgn.weights[idx]
        pts.append((w[:, None] * dsgn.points[idx]).sum(axis=0) / w.sum())
        ws.append(w.sum())
    w = np.array(ws)
    return Design(np.array(pts), w / w.sum())


def prune(dsgn: Design, wmin: float) -> Design:
    """Drop atoms with weight below ``wmin`` and renormalize."""
    keep = dsgn.weights >= wmin
    if not np.any(keep):
        raise EmptyDesignError(f"all atoms fall below the weight floor {wmin:g}")
    w = dsgn.weights[keep]
    return Design(dsgn.points[keep], w / w.sum())
