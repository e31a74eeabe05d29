import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from optdesign import (
    Design,
    EmptyDesignError,
    ValidationError,
    design,
    info_matrix,
    make_model,
    merge_close,
    mix_designs,
    prune,
)
from optdesign.designs import SWEEP_BLOCK, components, sweep


def test_info_matrix_d_optimal(line2f, design_21d):
    M = info_matrix(design_21d, line2f)
    assert np.allclose(M, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-15)


def test_info_matrix_e_optimal(line2f):
    d = design([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(info_matrix(d, line2f), np.eye(2) / 2)


def test_info_matrix_rank_one(line2f):
    d = design([[1.0, 0.0]])
    M = info_matrix(d, line2f)
    assert np.allclose(M, [[1, 0], [0, 0]])
    assert np.linalg.matrix_rank(M) == 1


def test_design_validation():
    with pytest.raises(ValidationError):
        Design(np.array([[0.0], [0.0]]), np.array([0.5, 0.5]))  # duplicate points
    with pytest.raises(ValidationError):
        Design(np.array([[0.0]]), np.array([0.5]))  # weights must sum to one
    with pytest.raises(ValidationError):
        Design(np.array([[0.0], [1.0]]), np.array([1.5, -0.5]))


def test_merge_close_examples():
    d = design([[0.0], [1e-10]], [0.5, 0.5])
    merged = merge_close(d, 1e-6)
    assert merged.m == 1 and merged.weights[0] == pytest.approx(1.0)

    d2 = design([[0.0], [1.0]], [0.5, 0.5])
    same = merge_close(d2, 1e-6)
    assert same.m == 2

    # three collinear points within tolerance collapse to the weighted centroid
    pts = [[0.0], [0.01], [0.02]]
    w = [0.2, 0.3, 0.5]
    merged = merge_close(design(pts, w), 0.011)
    centroid = (0.2 * 0.0 + 0.3 * 0.01 + 0.5 * 0.02) / 1.0
    assert merged.m == 1
    assert merged.points[0, 0] == pytest.approx(centroid)


def test_components_order():
    # edges 0-6, 1-4 and the chain 2-5-7; 3 is isolated
    adj = np.zeros((8, 8), dtype=bool)
    for i, j in ((6, 0), (4, 1), (5, 2), (7, 5)):
        adj[i, j] = adj[j, i] = True
    groups = components(adj)
    assert [g.tolist() for g in groups] == [[0, 6], [1, 4], [2, 5, 7], [3]]


def test_components_match_scipy_csgraph():
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(7)
    for n in range(1, 30):
        for density in (0.03, 0.1, 0.3):
            upper = np.triu(rng.random((n, n)) < density, 1)
            adj = upper | upper.T
            count, labels = connected_components(adj, directed=False)
            expected = [np.flatnonzero(labels == c).tolist() for c in range(count)]
            assert [g.tolist() for g in components(adj)] == expected


def test_prune_examples():
    d = design([[0.0], [1.0], [2.0]], [0.5, 0.5 - 1e-9, 1e-9], normalize=True)
    kept = prune(d, 1e-6)
    assert kept.m == 2

    d2 = design([[0.0], [1.0]], [0.5, 0.5])
    assert prune(d2, 1e-6).m == 2

    d3 = design([[0.0], [1.0], [2.0]], [0.7, 0.2, 0.1])
    out = prune(d3, 0.15)
    assert np.allclose(sorted(out.weights), sorted([0.7 / 0.9, 0.2 / 0.9]))

    with pytest.raises(EmptyDesignError):
        prune(d3, 0.9)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_info_matrix_linear_in_design(seed, alpha):
    rng = np.random.default_rng(seed)
    model = make_model("interaction-2f")
    pts1 = rng.uniform(size=(3, 2))
    pts2 = rng.uniform(size=(4, 2))
    d1 = design(pts1, rng.uniform(0.05, 1.0, 3), normalize=True)
    d2 = design(pts2, rng.uniform(0.05, 1.0, 4), normalize=True)
    mixed = mix_designs(d1, d2, alpha)
    M = info_matrix(mixed, model)
    M_lin = alpha * info_matrix(d1, model) + (1 - alpha) * info_matrix(d2, model)
    assert np.abs(M - M_lin).max() <= 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_info_matrix_rank_bound(seed, m):
    rng = np.random.default_rng(seed)
    model = make_model("interaction-2f")
    pts = np.unique(rng.uniform(size=(m, 2)), axis=0)
    d = design(pts, rng.uniform(0.05, 1.0, pts.shape[0]), normalize=True)
    M = info_matrix(d, model)
    assert np.linalg.matrix_rank(M, tol=1e-10) <= min(model.k, d.m)


@given(st.integers(0, 2**32 - 1), st.floats(1e-4, 0.3))
def test_merge_prune_preserve_mass(seed, tol):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 9))
    pts = rng.uniform(size=(m, 2))
    d = design(pts, rng.uniform(0.05, 1.0, m), normalize=True)
    merged = merge_close(d, tol)
    assert merged.m <= d.m
    assert merged.weights.sum() == pytest.approx(1.0, abs=1e-12)
    kept = prune(d, float(d.weights.min()) / 2)
    assert kept.m <= d.m
    assert kept.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_design_json_roundtrip():
    d = design([[0.5, 1.0], [0.0, 0.25]], [0.75, 0.25])
    d2 = Design.from_dict(d.to_dict())
    assert np.array_equal(d.points, d2.points)
    assert np.array_equal(d.weights, d2.weights)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize(
    "n, definite",
    [
        (3 * SWEEP_BLOCK + 17, True),  # several blocks, the last one partial
        (SWEEP_BLOCK // 3, True),  # fewer rows than one block
        (2 * SWEEP_BLOCK + 5, False),  # an indefinite N
        (1, True),
    ],
)
def test_sweep_matches_three_operand_einsum(n, definite, k, order):
    rng = np.random.default_rng(n)
    F = np.asarray(rng.standard_normal((n, k)), order=order)
    A = rng.standard_normal((k, k))
    if definite:
        N = A @ A.T
    else:
        N = A + A.T
        N[0, 0] = -abs(N[0, 0]) - 1.0  # a negative diagonal entry
        assert np.linalg.eigvalsh(N)[0] < 0
    ref = np.einsum("ij,jk,ik->i", F, N, F)
    # relative to the size of the terms summed, which an indefinite N cancels
    scale = np.einsum("ij,jk,ik->i", np.abs(F), np.abs(N), np.abs(F))
    assert np.all(np.abs(sweep(F, N) - ref) <= 1e-13 * scale)


@pytest.mark.parametrize("k", range(1, 11))
def test_sweep_same_bits_in_either_layout(k):
    rng = np.random.default_rng(k)
    F = rng.standard_normal((2 * SWEEP_BLOCK + 3, k)) * np.exp(rng.uniform(-5.0, 5.0, (1, k)))
    A = rng.standard_normal((k, k))
    for N in (A @ A.T, A):  # a nonsymmetric N too: the sweep is of f'Nf
        c = sweep(np.ascontiguousarray(F), N)
        f = sweep(np.asfortranarray(F), N)
        assert np.array_equal(c.view(np.int64), f.view(np.int64))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sweep_of_zero_rows_is_positive_zero(k):
    # -0.0 entries make every product -0.0; the row-wise einsum sums them to +0.0
    F = np.full((3, k), -0.0, order="F")
    for N in (np.eye(k), -np.eye(k)):
        out = sweep(F, N)
        assert np.array_equal(out, np.zeros(3)) and not np.signbit(out).any()
