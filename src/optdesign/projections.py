"""Kernel over the probability simplex: the Kelley cutting-plane maximization
of a smallest eigenvalue."""

from __future__ import annotations

import numpy as np

from .designs import gram


def gap_eigh(F: np.ndarray, w: np.ndarray, C: np.ndarray):
    """Eigendecomposition of F^T diag(w) F - C, for a symmetric C."""
    return np.linalg.eigh(gram(F, w) - C)


def max_lambda_min(F, C, w0, tol, rounds, target=None):
    """Maximize lambda_min(F^T diag(w) F - C) over the simplex by Kelley cuts.

    Every unit direction v gives the cut t <= sum_i w_i (f_i . v)^2 - v^T C v,
    linear in (w, t); the LP over the cut pool bounds the maximum from above,
    and each LP solution adds the eigenvectors of its smallest eigenvalue
    cluster, plus their pairwise mixtures (plain eigenvector cuts close the
    gap very slowly at multiple smallest eigenvalues). Starts from the
    eigenvectors at ``w0`` and stops at the first of:

    - the gap ``upper - best <= max(1e-12, tol * |best|)``;
    - the LP returning the weights of the round before: the new cuts would
      all duplicate cuts already in the pool, so the loop is at a fixed point;
    - with a ``target``, ``upper <= target`` or ``best >= target``: whether
      the maximum reaches the target is then settled;
    - ``rounds`` LP solves.

    Returns (best weights, best value, LP upper bound, cut pool); the bound
    is inf when no LP was solved.
    """
    from scipy.optimize import linprog

    m = F.shape[0]
    vals, vecs = gap_eigh(F, w0, C)
    cuts = list(vecs.T)
    best_w, best, upper = w0, float(vals[0]), np.inf
    w_prev = w0

    def settled():
        return target is not None and (upper <= target or best >= target)

    obj = np.zeros(m + 1)
    obj[-1] = -1.0
    A_eq = np.zeros((1, m + 1))
    A_eq[0, :m] = 1.0
    # every cut value is at least -lambda_max(C), so this bound leaves the
    # LP optimum unchanged
    t_lo = -float(np.linalg.eigvalsh(C)[-1])
    bounds = [(0.0, 1.0)] * m + [(t_lo, None)]
    for _ in range(rounds):
        if settled():
            break
        V = np.stack(cuts, axis=1)
        B = (F @ V) ** 2  # (m, ncuts)
        c = np.einsum("ji,jk,ki->i", V, C, V)
        res = linprog(
            obj, A_ub=np.hstack([-B.T, np.ones((B.shape[1], 1))]), b_ub=-c,
            A_eq=A_eq, b_eq=[1.0], bounds=bounds, method="highs",
        )
        if not res.success:
            break
        w = np.maximum(res.x[:m], 0.0)
        w = w / w.sum()
        upper = float(res.x[-1])
        if np.array_equal(w, w_prev):
            break
        w_prev = w
        vals, vecs = gap_eigh(F, w, C)
        lmin = float(vals[0])
        if lmin > best:
            best_w, best = w, lmin
        if upper - best <= max(1e-12, tol * abs(best)) or settled():
            break
        near = np.nonzero(vals - lmin <= 1e-6 * max(abs(vals[-1]), 1.0))[0]
        for j in near:
            cuts.append(vecs[:, j])
        for a in range(len(near)):
            for b in range(a + 1, len(near)):
                va, vb = vecs[:, near[a]], vecs[:, near[b]]
                cuts.append((va + vb) / np.sqrt(2.0))
                cuts.append((va - vb) / np.sqrt(2.0))
    return best_w, best, upper, cuts
