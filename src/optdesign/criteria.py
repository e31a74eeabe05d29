"""Matrix-mean optimality criteria, their polar functions, and the finite-p dual.

The one-parameter family indexed by an exponent p in [-inf, 1]:

    phi_p(M) = (trace(M^p)/s)^(1/p)      for finite p != 0
    phi_0(M) = det(M)^(1/s)              (D-criterion)
    phi_-inf(M) = lambda_min(M)          (E-criterion)

with phi_p(M) = 0 for singular M when p <= 0. The polar of phi_p is
s * phi_q with the conjugate exponent q = p/(p-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

NEG_INF = float("-inf")
_SING_REL = 1e-14  # eigenvalues below this times lambda_max count as zero
_PSD_TOL = 1e-9    # eigenvalues below -this times lambda_max reject a matrix as indefinite


@dataclass(frozen=True)
class Criterion:
    """Matrix-mean exponent plus (optionally) the matrix dimension it applies to."""

    p: float
    s: int | None = None

    def __post_init__(self):
        p = float(self.p)
        object.__setattr__(self, "p", p)
        if math.isnan(p) or p > 1:
            raise ValidationError(f"criterion exponent must lie in [-inf, 1], got {p}")

    @property
    def name(self) -> str:
        if self.p == 0:
            return "D"
        if self.p == -1:
            return "A"
        if self.p == NEG_INF:
            return "E"
        return f"p:{self.p:g}"

    @property
    def conjugate(self) -> float:
        """Conjugate exponent q = p/(p-1); q(0)=0, q(-inf)=1, q(1)=-inf."""
        if self.p == 0:
            return 0.0
        if self.p == NEG_INF:
            return 1.0
        if self.p == 1:
            return NEG_INF
        return self.p / (self.p - 1.0)


def parse_criterion(text: str, s: int | None = None) -> Criterion:
    """Parse 'D', 'A', 'E', or 'p:<real>'."""
    t = text.strip()
    alias = {"D": 0.0, "A": -1.0, "E": NEG_INF}
    if t.upper() in alias:
        return Criterion(alias[t.upper()], s)
    if t.lower().startswith("p:"):
        try:
            return Criterion(float(t[2:]), s)
        except ValueError as exc:
            raise ValidationError(f"cannot parse criterion exponent from {text!r}") from exc
    raise ValidationError(f"unknown criterion {text!r}; use D, A, E or p:<real>")


def psd_eig(M: np.ndarray, s: int | None = None):
    """Validated eigendecomposition: symmetric, numerically PSD, optional dimension check.

    Returns (eigenvalues ascending with negatives clipped to 0, eigenvectors).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError("expected a square matrix")
    if s is not None and M.shape[0] != s:
        raise ValidationError(f"expected a {s}x{s} matrix, got {M.shape[0]}x{M.shape[1]}")
    scale = max(np.abs(M).max(), 1.0)
    if np.abs(M - M.T).max() > 1e-10 * scale:
        raise ValidationError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    if vals[0] < -_PSD_TOL * max(vals[-1], 0.0) - 1e-300:
        raise ValidationError(f"matrix is not nonnegative definite (lambda_min={vals[0]:g})")
    return np.clip(vals, 0.0, None), vecs


def _mean_power(vals: np.ndarray, p: float) -> float:
    """phi_p evaluated on a clipped nonnegative spectrum."""
    s = vals.size
    lmax = vals[-1]
    singular = lmax <= 0 or vals[0] <= _SING_REL * lmax
    if p == NEG_INF:
        return float(vals[0])
    if p <= 0 and singular:
        return 0.0
    if p == 0:
        return float(np.exp(np.mean(np.log(vals))))
    with np.errstate(divide="ignore"):
        powered = vals**p
    return float(np.mean(powered) ** (1.0 / p))


def phi(criterion: Criterion, M: np.ndarray) -> float:
    """Criterion value of a symmetric nonnegative definite matrix."""
    vals, _ = psd_eig(M, criterion.s)
    return _mean_power(vals, criterion.p)


def polar(criterion: Criterion, N: np.ndarray) -> float:
    """Polar function value: s * phi_q(N) with the conjugate exponent q."""
    vals, _ = psd_eig(N, criterion.s)
    return vals.size * _mean_power(vals, criterion.conjugate)


def finite_p_dual(vals: np.ndarray, vecs: np.ndarray, p: float, floor_singular: bool = False):
    """Closed-form dual matrix N = M^(p-1) / trace(M^p) of a finite p, from M's eigenpairs.

    Eigenvalues are floored at _SING_REL * lambda_max, and trace(M^0) reads s.
    A singular M with p < 1 raises unless ``floor_singular``.
    """
    lmax = max(vals[-1], 1e-300)
    if p < 1 and vals[0] <= _SING_REL * lmax and not floor_singular:
        raise ValidationError(
            "singular information matrix; certificate needs a positive definite input"
        )
    floored = np.maximum(vals, _SING_REL * lmax)
    if p == 0:
        return (vecs / floored) @ vecs.T / len(vals)
    return (vecs * floored ** (p - 1.0)) @ vecs.T / (floored**p).sum()
