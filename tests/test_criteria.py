import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from optdesign import Criterion, ValidationError, build_certificate, parse_criterion
from optdesign.criteria import NEG_INF, finite_p_dual, phi, polar, psd_eig
from optdesign.designs import sweep

from conftest import random_psd

M21 = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
EXPONENTS = [0.0, -1.0, NEG_INF, 0.5, -2.0, 1.0]


def test_parse_aliases():
    assert parse_criterion("D").p == 0.0
    assert parse_criterion("A").p == -1.0
    assert parse_criterion("E").p == NEG_INF
    assert parse_criterion("p:-2.5").p == -2.5
    with pytest.raises(ValidationError):
        parse_criterion("p:2")
    with pytest.raises(ValidationError):
        parse_criterion("G")


def test_phi_examples():
    assert phi(Criterion(NEG_INF), np.eye(2) / 2) == pytest.approx(0.5)
    for p in EXPONENTS:
        assert phi(Criterion(p), np.eye(3)) == pytest.approx(1.0)
    assert phi(Criterion(0.0), M21) == pytest.approx(math.sqrt(1 / 3))


def test_phi_singular_convention():
    S = np.diag([1.0, 0.0])
    for p in (0.0, -1.0, -2.0, NEG_INF):
        assert phi(Criterion(p), S) == 0.0
    assert phi(Criterion(1.0), S) == pytest.approx(0.5)  # trace mean stays positive
    assert phi(Criterion(0.5), S) > 0.0


def test_phi_rejects_indefinite():
    with pytest.raises(ValidationError):
        phi(Criterion(0.0), np.diag([1.0, -1.0]))


def test_polar_examples():
    N = np.array([[1.0, -0.5], [-0.5, 1.0]])
    assert polar(Criterion(NEG_INF), N) == pytest.approx(2.0)  # conjugate is the trace
    assert polar(Criterion(0.0), np.eye(3)) == pytest.approx(3.0)
    assert polar(Criterion(0.0), N) == pytest.approx(math.sqrt(3.0))


def test_sensitivity_examples(line2f):
    N = finite_p_dual(*psd_eig(M21), 0.0)
    sens = sweep(line2f.eval_many(np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 0.0]])), N)
    assert sens == pytest.approx([1.0, 0.0, 1.0])


def test_sensitivity_simple_min_eigenvalue(line2f, line2f_grid):
    # a simple smallest eigenvalue: N = z z' / lambda_min, its eigenvector z
    M = np.diag([0.25, 0.75])
    cert = build_certificate(Criterion(NEG_INF), M, line2f, line2f_grid)
    assert sweep(line2f.eval_many(np.array([[1.0, 0.0]])), cert.N)[0] == pytest.approx(1.0 / 0.25)


def test_sensitivity_rejects_singular():
    with pytest.raises(ValidationError):
        finite_p_dual(*psd_eig(np.diag([1.0, 0.0])), 0.0)


@given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0), st.sampled_from(EXPONENTS))
def test_positive_homogeneity(seed, c, p):
    rng = np.random.default_rng(seed)
    M = random_psd(rng, 3, jitter=0.05)
    v1 = phi(Criterion(p), c * M)
    v0 = phi(Criterion(p), M)
    assert v1 == pytest.approx(c * v0, rel=1e-10)


@given(st.integers(0, 2**32 - 1), st.sampled_from(EXPONENTS))
def test_isotonicity(seed, p):
    rng = np.random.default_rng(seed)
    M1 = random_psd(rng, 3, jitter=0.02)
    L = rng.normal(size=(3, 3)) * 0.5
    M2 = M1 + L @ L.T
    assert phi(Criterion(p), M2) >= phi(Criterion(p), M1) - 1e-10


@given(st.integers(0, 2**32 - 1), st.sampled_from(EXPONENTS))
def test_concavity_spot_check(seed, p):
    rng = np.random.default_rng(seed)
    M1 = random_psd(rng, 3, jitter=0.05)
    M2 = random_psd(rng, 3, jitter=0.05)
    mid = phi(Criterion(p), (M1 + M2) / 2)
    assert mid >= (phi(Criterion(p), M1) + phi(Criterion(p), M2)) / 2 - 1e-10


def _analytic_polar_minimizer(p, N):
    """C proportional to N^(q-1) attains the defining infimum of the polar."""
    vals, vecs = np.linalg.eigh(N)
    q = Criterion(p).conjugate
    if q == NEG_INF:
        return np.outer(vecs[:, 0], vecs[:, 0]) + 1e-12 * np.eye(N.shape[0])
    return (vecs * vals ** (q - 1.0)) @ vecs.T


@pytest.mark.parametrize("p", [0.0, -1.0, NEG_INF, -2.0, 0.5])
def test_polar_matches_definitional_infimum(p):
    rng = np.random.default_rng(11)
    s = 3
    crit = Criterion(p, s)
    for _ in range(3):
        N = random_psd(rng, s, jitter=0.1)
        pol = polar(crit, N)
        probes = [random_psd(rng, s, jitter=0.05) for _ in range(200)]
        probes.append(_analytic_polar_minimizer(p, N))
        ratios = [float(np.trace(C @ N)) / phi(crit, C) for C in probes]
        assert min(ratios) >= pol - 1e-8
        assert min(ratios) == pytest.approx(pol, abs=1e-6)


def test_extreme_exponent_approaches_smallest_eigenvalue():
    # the matrix-mean limit is tight only near-isotropic spectra at p = -50
    rng = np.random.default_rng(3)
    for _ in range(5):
        S = rng.normal(size=(3, 3))
        S = (S + S.T) / (2 * np.abs(S).max())
        M = np.eye(3) + 2e-5 * S
        lmin = np.linalg.eigvalsh(M)[0]
        assert phi(Criterion(-50.0), M) == pytest.approx(lmin, abs=1e-4)


def test_criterion_rejects_large_p():
    with pytest.raises(ValidationError):
        Criterion(1.5)


def test_phi_rejects_asymmetric():
    with pytest.raises(ValidationError):
        phi(Criterion(0.0), np.array([[1.0, 0.5], [0.2, 1.0]]))
