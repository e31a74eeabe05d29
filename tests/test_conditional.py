from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import subspace_angles

import optdesign.conditional as conditional_module
from optdesign import (
    DesignSpace,
    NoConditionalModelError,
    SliceMap,
    ValidationError,
    conditional_audit,
    decompose,
    design,
    discretize,
    dominates,
    find_dominator,
    interval,
    make_model,
    marginal_design,
    marginal_model,
    parse_criterion,
    product_audit,
    recompose_check,
    solve,
)
from optdesign.conditional import (
    DOMINANCE_TOL,
    MATERIAL_FACTOR,
    SLICE_TOL,
    _moment_oracle,
    _spans,
    _weights_dominator,
    admissible_support_bound,
    conditional_model,
    slice_grid,
    splice_slice,
)
from optdesign.designs import Design, gram, info_matrix
from optdesign.models import gram_rank

from conftest import reference_dominates, registered_marginal, stub_inconclusive_audit


@pytest.fixture(scope="module")
def growth():
    return make_model("exp-growth-2f", theta=[1.0, 1.0, 1.0])


@pytest.fixture(scope="module")
def mixture():
    return make_model("mixture-poly-exp", theta3=1.0)


def test_slice_map_validation():
    with pytest.raises(ValidationError):
        SliceMap("coordinate")
    with pytest.raises(ValidationError):
        SliceMap("linear", coeffs=(0.0, 0.0))
    with pytest.raises(ValidationError):
        SliceMap("radial")
    assert SliceMap("coordinate", axis=np.int64(1)).values(np.array([[0.0, 2.0]]))[0] == 2.0


@pytest.mark.parametrize("kwargs,message", [
    ({"axis": 0.5}, "coordinate slice map needs a nonnegative integer axis, got 0.5"),
    ({"axis": True}, "coordinate slice map needs a nonnegative integer axis, got True"),
    ({"axis": -1}, "coordinate slice map needs a nonnegative integer axis, got -1"),
    ({"coeffs": (float("nan"), 1.0)}, r"linear slice map needs finite coefficients, got \[nan"),
    ({"coeffs": (1.0, -np.inf)}, r"linear slice map needs finite coefficients, got \[1.0, -inf"),
], ids=["fractional-axis", "bool-axis", "negative-axis", "nan-coefficient", "inf-coefficient"])
def test_slice_map_rejects_non_integer_axes_and_non_finite_coefficients(kwargs, message):
    # a fractional axis once raised IndexError and a bool one numpy's
    # TypeError; a NaN coefficient once failed as a point outside the bounds
    kind = "coordinate" if "axis" in kwargs else "linear"
    with pytest.raises(ValidationError, match=message):
        SliceMap(kind, **kwargs)


def test_decompose_interaction_linear():
    m = make_model("interaction-2f")
    d = design([[0, 0], [0.5, 0.5], [1, 1]])
    deco = decompose(d, SliceMap("linear", coeffs=(1.0, 1.0)), m)
    assert [sl.t for sl in deco.slices] == [0.0, 1.0, 2.0]
    assert all(sl.weight == pytest.approx(1 / 3) for sl in deco.slices)


def test_decompose_growth_coordinate(growth):
    d = design([[0, 0], [0, 1], [1, 0], [1, 1]])
    deco = decompose(d, SliceMap("coordinate", axis=0), growth)
    assert [sl.t for sl in deco.slices] == [0.0, 1.0]
    assert [sl.conditional.slice_space for sl in deco.slices] == ["x0=0", "x0=1"]


# the rank of f on each slice, in slice order
CONDITIONAL_RANKS = [
    # x0 + x1 = t: (1, x0, t - x0, x0 (t - x0)) spans (1, x0, x0^2) on the
    # inner slice; the corners t = 0 and t = 2 are single points
    ("interaction-2f", {}, (1.0, 1.0), [[0, 0], [0.5, 0.5], [1, 1]], [1, 3, 1]),
    ("interaction-2f", {}, 0, [[0, 0], [0, 1], [1, 0.5]], [2, 2]),
    ("exp-growth-2f", {"theta": [1.0, 1.0, 1.0]}, 0, [[0, 0], [0, 1], [1, 0], [1, 1]], [2, 2]),
    # theta_1 x0 + theta_2 x1 = t: e^t (1, x0, x1) with x1 affine in x0
    ("exp-product-2f", {"theta": [1.0, 1.0, 2.0]}, (1.0, 2.0), [[0.5, 0.5], [1, 0.25]], [2]),
    ("exp-product-2f", {"theta": [1.0, 1.0, 2.0]}, 1, [[0, 0], [1, 0]], [2]),
    ("mixture-poly-exp", {"theta3": 1.0}, 0, [[-1, 0], [-1, 2]], [2]),
    ("mixture-poly-exp", {"theta3": 1.0}, 1, [[-1, 1], [0, 1], [1, 1]], [3]),
    ("linear-2f-no-intercept", {}, 0, [[0, 1], [1, 0], [1, 1]], [1, 2]),
]


@pytest.mark.parametrize("family,params,slicing,points,ranks", CONDITIONAL_RANKS, ids=str)
def test_conditional_rank(family, params, slicing, points, ranks):
    model = make_model(family, **params)
    if isinstance(slicing, tuple):
        tmap = SliceMap("linear", coeffs=slicing)
    else:
        tmap = SliceMap("coordinate", axis=slicing)
    deco = decompose(design(points), tmap, model)
    assert [sl.conditional.k for sl in deco.slices] == ranks
    for sl in deco.slices:
        U = sl.conditional.lift
        assert U.shape == (model.k, sl.conditional.k)
        assert np.allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-14)
        assert not np.any(np.signbit(U) & (U == 0.0))  # no -0.0 in the lift


def test_lift_has_no_negative_zero():
    # the two corners of the interaction model's axis-0 slices, whose lifts
    # hold exact zeros that the sign fix used to turn into -0.0
    m = make_model("interaction-2f")
    deco = decompose(design([[0.0, 1.0], [1.0, 0.0]]), SliceMap("coordinate", axis=0), m)
    lifts = [sl.conditional.lift for sl in deco.slices]
    assert any(np.any(U == 0.0) for U in lifts)
    assert not any(np.any(np.signbit(U) & (U == 0.0)) for U in lifts)


def test_conditional_audit_builds_each_slice_grid_once(growth, monkeypatch):
    calls = []

    def counted(model, tmap, t, step=0.01):
        calls.append(t)
        return slice_grid(model, tmap, t, step)

    monkeypatch.setattr(conditional_module, "slice_grid", counted)
    d = design([[0, 0], [0, 1], [1, 0], [1, 1]])
    verdict = conditional_audit(d, SliceMap("coordinate", axis=0), growth)
    assert len(verdict.evidence) == 2
    assert calls == [0.0, 1.0]


def test_decompose_single_slice(growth):
    d = design([[0.5, 0.0], [0.5, 1.0]], [0.4, 0.6])
    deco = decompose(d, SliceMap("coordinate", axis=0), growth)
    assert len(deco.slices) == 1
    sl = deco.slices[0]
    assert sl.weight == pytest.approx(1.0)
    assert np.allclose(sl.conditional_design.weights, [0.4, 0.6])


def test_no_conditional_model_registered():
    m = make_model("polynomial", degree=2)
    d = design([[0.5]])
    with pytest.raises(NoConditionalModelError):
        decompose(d, SliceMap("coordinate", axis=0), m)
    m2 = make_model("interaction-2f")
    with pytest.raises(NoConditionalModelError):
        decompose(design([[0.5, 0.5]]), SliceMap("coordinate", axis=2), m2)


def test_slice_grid_negative_coefficient_keeps_the_diagonal():
    m = make_model("interaction-2f")
    diag = slice_grid(m, SliceMap("linear", coeffs=(1.0, -1.0)), 0.0, step=0.25)
    assert np.allclose(diag[:, 0], [0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(diag[:, 1], diag[:, 0])
    d = design([[0, 0], [0.5, 0.5], [1, 1]])
    deco = decompose(d, SliceMap("linear", coeffs=(1.0, -1.0)), m)
    assert [sl.t for sl in deco.slices] == [0.0]
    assert deco.slices[0].conditional.k == 3


@pytest.mark.parametrize(
    "coeffs,message",
    [
        ((1.0, 0.0), "use axis:0"),
        ((0.0, 2.0), "use axis:1"),
        ((1.0, 1.0, 1.0), "use linear:<a1,a2>"),
    ],
    ids=str,
)
def test_linear_slice_map_off_two_nonzero_coefficients_is_rejected(coeffs, message):
    m = make_model("interaction-2f")
    tmap = SliceMap("linear", coeffs=coeffs)
    with pytest.raises(ValidationError, match=message) as err:
        decompose(design([[0.5, 0.5]]), tmap, m)
    assert not isinstance(err.value, NoConditionalModelError)
    with pytest.raises(ValidationError, match=message):
        slice_grid(m, tmap, 0.5)


SUPPORTED_PAIRS = [
    ("interaction-2f", {}, SliceMap("coordinate", axis=0)),
    ("interaction-2f", {}, SliceMap("coordinate", axis=1)),
    ("interaction-2f", {}, SliceMap("linear", coeffs=(1.0, 1.0))),
    ("exp-growth-2f", {"theta": [1.0, 1.0, 2.0]}, SliceMap("coordinate", axis=0)),
    ("exp-growth-2f", {"theta": [1.0, 1.0, 2.0]}, SliceMap("coordinate", axis=1)),
    ("exp-product-2f", {"theta": [1.0, 1.0, 2.0]}, SliceMap("coordinate", axis=0)),
    ("exp-product-2f", {"theta": [1.0, 1.0, 2.0]}, SliceMap("coordinate", axis=1)),
    ("exp-product-2f", {"theta": [1.0, 1.0, 2.0]}, SliceMap("linear", coeffs=(1.0, 2.0))),
    ("mixture-poly-exp", {"theta3": 1.0}, SliceMap("coordinate", axis=0)),
    ("mixture-poly-exp", {"theta3": 1.0}, SliceMap("coordinate", axis=1)),
    ("linear-2f-no-intercept", {}, SliceMap("coordinate", axis=0)),
    ("linear-2f-no-intercept", {}, SliceMap("coordinate", axis=1)),
    ("interaction-2f", {}, SliceMap("linear", coeffs=(1.0, 2.0))),
    ("interaction-2f", {}, SliceMap("linear", coeffs=(1.0, -1.0))),
    ("exp-growth-2f", {"theta": [1.0, 1.0, 2.0]}, SliceMap("linear", coeffs=(1.0, 1.0))),
    ("mixture-poly-exp", {"theta3": 1.0}, SliceMap("linear", coeffs=(1.0, 1.0))),
]


@pytest.mark.parametrize("family,params,tmap", SUPPORTED_PAIRS, ids=str)
def test_recomposition_identity(family, params, tmap):
    model = make_model(family, **params)
    rng = np.random.default_rng(17)
    grid = discretize(model.space, 0.1)
    for _ in range(5):
        idx = rng.choice(len(grid), size=6, replace=False)
        d = design(grid.points[idx], rng.uniform(0.05, 1.0, 6), normalize=True)
        assert recompose_check(d, tmap, model) <= 1e-12


def test_dominates_examples(line2f):
    d_opt = design([[1, 1], [1, 0], [0, 1]], [1 / 3, 1 / 3, 1 / 3])
    e_opt = design([[1, 0], [0, 1]])
    # the two optimal information matrices are Loewner-incomparable
    assert not dominates(d_opt, e_opt, line2f)
    assert not dominates(e_opt, d_opt, line2f)
    assert not dominates(d_opt, d_opt, line2f)


def test_dominates_psd_shift():
    big = make_model("linear-2f-no-intercept", space=DesignSpace(((0, 2), (0, 2))))
    d1 = design([[1, 0], [0, 1]])
    s = np.sqrt(1.2)
    d2 = design([[s, 0], [0, s]])
    # M(d2) = M(d1) + 0.1 I exactly
    assert dominates(d2, d1, big)
    assert not dominates(d1, d2, big)


def test_dominates_partial_order():
    big = make_model("linear-2f-no-intercept", space=DesignSpace(((0, 3), (0, 3))))
    designs = [design([[s, 0], [0, s]]) for s in (1.0, 1.3, 1.9)]
    assert dominates(designs[1], designs[0], big)
    assert dominates(designs[2], designs[1], big)
    assert dominates(designs[2], designs[0], big)  # transitive
    for d in designs:
        assert not dominates(d, d, big)  # irreflexive


def test_dominates_checks_its_tolerance(line2f):
    d1, d2 = design([[1, 0], [0, 1]]), design([[1, 1], [1, 0], [0, 1]], [1 / 3, 1 / 3, 1 / 3])
    for tol in (-1e-9, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            dominates(d2, d1, line2f, tol=tol)
    # M(d2) - M(d1) = diag(0, 1/2) holds no rounding: at tol = 0 it dominates
    axis, both = design([[1, 0], [0, 0]]), design([[1, 0], [0, 1]])
    assert dominates(both, axis, line2f, tol=0.0) and not dominates(axis, both, line2f, tol=0.0)


def test_dominates_on_an_empty_frame(line2f):
    # f(0, 0) = 0, so M1 + M2 = 0: the whitened frame is empty and holds no gap
    origin = design([[0.0, 0.0]])
    assert not dominates(origin, origin, line2f)


def _near_copy(delta):
    """The equal-mass design on -1 and 1 with mass delta moved to 0."""
    return design([[-1.0], [0.0], [1.0]], [0.5 - delta / 2, delta, 0.5 - delta / 2])


def test_dominates_rejects_near_copies_that_lose_more_than_tol():
    # for the quadratic on [-1, 1] the equal mass on -1 and 1 is admissible
    # (its index). Moving mass delta to 0 gains a new direction, whitened gain
    # 1, and loses about delta / 2 relative to M1 + M2 along x, where M1 + M2
    # is large: beyond tol that fails, though it is within MATERIAL_FACTOR tol
    model = make_model("polynomial", space=interval(-1.0, 1.0), degree=2)
    d1 = design([[-1.0], [1.0]], [0.5, 0.5])
    for delta in (3e-7, 1e-6, 1e-5):
        assert not dominates(_near_copy(delta), d1, model)
        assert reference_dominates(_near_copy(delta), d1, model) is False
    # at a tolerance below the loss no near copy passes, down to delta = 1e-9
    # (below that the new direction falls under the gain cut)
    for delta in (1e-9, 1e-8, 1e-7, 1e-6, 1e-5):
        assert not dominates(_near_copy(delta), d1, model, tol=1e-10)


def _random_comparisons(rng, grid, model, k):
    """(d2, d1) pairs of the kinds ``dominates`` must tell apart: d1 on fewer
    than k points or more; d2 the search's dominator, a random design, or d1
    with a mass of 1e-10 to 1e-3 moved to a new point."""
    pairs = []
    for m in (k - 1, k - 1, k + 1, k + 2):
        d1 = design(grid[rng.choice(len(grid), m, replace=False)], rng.dirichlet(np.ones(m)))
        dom = find_dominator(d1, grid, model).dominator
        if dom is not None:
            pairs.append((dom, d1))
        idx = rng.choice(len(grid), int(rng.integers(1, k + 2)), replace=False)
        pairs.append((design(grid[idx], rng.dirichlet(np.ones(idx.size))), d1))
        for delta in 10.0 ** rng.uniform(-10.0, -3.0, 3):
            new = grid[rng.choice(len(grid))]
            if not np.any(np.all(d1.points == new, axis=1)):
                pairs.append((design(np.vstack([d1.points, new]),
                                     np.append((1.0 - delta) * d1.weights, delta)), d1))
    return pairs


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 3.0)])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_dominates_agrees_with_an_exact_reference(degree, lo, hi):
    # every answer the 40-digit reference gives with a margin, ``dominates``
    # gives too: for search dominators, random designs and near copies of
    # d1, rank-deficient or not
    rng = np.random.default_rng(100 + degree)
    model = make_model("polynomial", space=interval(lo, hi), degree=degree)
    grid = discretize(model.space, 0.05).points
    pairs = _random_comparisons(rng, grid, model, degree + 1)
    got = [(dominates(d2, d1, model), reference_dominates(d2, d1, model)) for d2, d1 in pairs]
    decided = [(a, b) for a, b in got if b is not None]
    assert all(a == b for a, b in decided)
    assert len(decided) >= 0.8 * len(got) and {b for _, b in decided} == {True, False}


def _absolute_rule(M2, M1, tol):
    """The Loewner test with both its slack and its materiality relative to
    the largest entry of M1 and M2: the rule that whitening replaced."""
    delta = M2 - M1
    scale = max(np.abs(M1).max(), np.abs(M2).max())
    return np.linalg.eigvalsh(delta)[0] >= -tol * scale and np.abs(delta).max() > tol * scale


class _Rebased:
    """``model`` in the basis B f."""

    def __init__(self, model, B):
        self.model, self.B = model, B

    def eval_many(self, points):
        return self.model.eval_many(points) @ self.B.T


def _conditioned_basis(rng, k, cond):
    """A random k x k matrix whose singular values span [1, cond]."""
    U = np.linalg.qr(rng.standard_normal((k, k)))[0]
    V = np.linalg.qr(rng.standard_normal((k, k)))[0]
    s = np.sort(np.exp(rng.uniform(0.0, np.log(cond), k)))
    s[0], s[-1] = 1.0, cond
    return (U * s) @ V.T


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 3.0)])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_dominates_is_free_of_the_basis(degree, lo, hi):
    # the whitened gap of B f is congruent to that of f, so it has the same
    # eigenvalues and ``dominates`` the same answer, for B whose singular
    # values span [1, 1e4]; d2 is the search's dominator of d1 or a random
    # design. A frame cut at 1e-10 of the largest eigenvalue of the formed
    # M1 + M2 fails here: with d2 on one point, B moves d1's weak direction,
    # where the gap is -1, under the cut
    rng = np.random.default_rng(degree)
    model = make_model("polynomial", space=interval(lo, hi), degree=degree)
    grid = discretize(model.space, 0.05).points
    pairs = []
    for _ in range(8):
        d1 = design(grid[rng.choice(len(grid), degree + 2, replace=False)],
                    rng.dirichlet(np.ones(degree + 2)))
        dom = find_dominator(d1, grid, model).dominator
        pairs.append((dom, d1))
        idx = rng.choice(len(grid), int(rng.integers(1, degree + 3)), replace=False)
        pairs.append((design(grid[idx], rng.dirichlet(np.ones(idx.size))), d1))
    pairs = [(d2, d1) for d2, d1 in pairs if d2 is not None]
    bases = [_conditioned_basis(rng, degree + 1, 1e4) for _ in range(4)]
    want = [dominates(d2, d1, model) for d2, d1 in pairs]
    assert any(want)
    for B in bases:
        assert [dominates(d2, d1, _Rebased(model, B)) for d2, d1 in pairs] == want


@pytest.fixture(scope="module")
def xexp_grid():
    m = make_model("xexp-decay", rate=1.0, space=interval(0.0, 3.0))
    return m, discretize(m.space, 0.05)


def test_find_dominator_three_point(xexp_grid):
    m, grid = xexp_grid
    d1 = design([[0.2], [1.7], [2.6]])
    verdict = find_dominator(d1, grid, m)
    assert not verdict.admissible and not verdict.inconclusive
    sup = [float(x[0]) for x, _ in verdict.dominator.atoms()]
    assert all(min(abs(s), abs(s - 1.0)) <= 0.05 + 1e-9 for s in sup)
    assert reference_dominates(verdict.dominator, d1, m)


def _lambda_min_stack(delta: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of a stack of symmetric 1x1 or 2x2 matrices."""
    if delta.shape[-1] == 1:
        return delta[..., 0, 0]
    a = delta[..., 0, 0]
    b = delta[..., 1, 1]
    c = delta[..., 0, 1]
    half = 0.5 * (a + b)
    rad = np.sqrt(np.maximum(0.25 * (a - b) ** 2 + c**2, 0.0))
    return half - rad


def _dense_pair_scan_gain(d1, F, model, tol=1e-7):
    """Largest trace gain over every candidate pair x a fine weight lattice,
    among gaps that are nonnegative definite and material."""
    M1 = info_matrix(d1, model)
    scale1 = np.abs(M1).max()
    A = np.einsum("ni,nj->nij", F, F)
    w = np.linspace(0.0, 1.0, 4001)[:, None, None]
    best = -np.inf
    for i in range(len(F)):
        for j in range(i + 1, len(F)):
            delta = w * A[i] + (1.0 - w) * A[j] - M1
            scale = np.maximum(np.abs(delta + M1).max(axis=(1, 2)), scale1)
            ok = (_lambda_min_stack(delta) >= 0.0) & (
                np.abs(delta).max(axis=(1, 2)) > MATERIAL_FACTOR * tol * scale
            )
            if np.any(ok):
                best = max(best, float(np.trace(delta, axis1=1, axis2=2)[ok].max()))
    return best


@pytest.mark.parametrize(
    "family, params, lo, hi, step",
    [
        ("xexp-decay", {"rate": 1.0}, 0.0, 3.0, 0.25),
        ("polynomial", {"degree": 1}, -1.0, 1.0, 0.2),
        ("weighted-polynomial", {"degree": 1, "efficiency": {"kind": "exp"}}, 0.0, 2.0, 0.2),
        # k = 1
        ("weighted-polynomial", {"degree": 0, "efficiency": {"kind": "affine"}}, 0.0, 2.0, 0.2),
    ],
)
def test_phase2_oracle_beats_dense_scan(family, params, lo, hi, step):
    # the dominator search beats a dense scan: wherever some candidate pair
    # on a fine weight lattice dominates, the search returns a dominator, and
    # every one it returns verifies. Where the span holds the constants a
    # dominator must match d1's mean of g exactly, which no lattice point
    # does, so there only the search finds one
    model = make_model(family, space=interval(lo, hi), **params)
    grid = discretize(model.space, step)
    F = model.eval_many(grid.points)
    rng = np.random.default_rng(3)
    found = 0
    for _ in range(6):
        m = int(rng.integers(1, 4))
        d1 = design(lo + (hi - lo) * rng.random((m, 1)), rng.dirichlet(np.ones(m)))
        dom = find_dominator(d1, grid, model).dominator
        assert dom is not None or _dense_pair_scan_gain(d1, F, model) == -np.inf
        if dom is not None:
            assert reference_dominates(dom, d1, model)
            found += 1
    assert found > 0


def _xexp_draws():
    """(model, grid, d1) for the benchmark's dominator inputs at seeds 1-3:
    xexp-decay on the grid of step 0.02 over [0, 3], 20 random 3-atom designs each."""
    xexp = make_model("xexp-decay", rate=1.0, space=interval(0.0, 3.0))
    grid = discretize(xexp.space, 0.02)
    cases = []
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            idx = rng.choice(len(grid), size=3, replace=False)
            d1 = design(grid.points[idx], rng.uniform(0.05, 1.0, 3), normalize=True)
            cases.append((xexp, grid, d1))
    return cases


def _count_linprog(monkeypatch):
    import scipy.optimize

    calls = []
    linprog = scipy.optimize.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counted)
    return calls


def test_find_dominator_oracle_first_skips_lp(xexp_grid, monkeypatch):
    calls = _count_linprog(monkeypatch)
    m, grid = xexp_grid
    d1 = design([[0.5], [1.5], [2.5]], [0.3, 0.3, 0.4])
    verdict = find_dominator(d1, grid, m)
    assert not verdict.admissible and reference_dominates(verdict.dominator, d1, m)
    assert calls == []


def test_find_dominator_admissible_two_point(xexp_grid):
    m, grid = xexp_grid
    d = design([[0.0], [1.0]])
    verdict = find_dominator(d, grid, m)
    assert verdict.admissible and not verdict.inconclusive


def test_find_dominator_optimal_design_is_admissible(line2f):
    pts = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    d = design(pts, [1 / 3, 1 / 3, 1 / 3])
    verdict = find_dominator(d, pts, line2f)
    assert verdict.admissible


def test_find_dominator_dual_bound_proves_none(line2f):
    # every candidate has f = (a, a) or a unit vector, and no mixture of them
    # or of d1's own atom gains on M(d1) = [[1, 1], [1, 1]]: the LP's dual
    # bound proves it
    d1 = design([[1.0, 1.0]])
    cands = np.array([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])
    verdict = find_dominator(d1, cands, line2f)
    assert verdict.admissible and not verdict.inconclusive
    assert verdict.note == (
        "no design on these candidates or the design's atoms dominates (dual bound below tolerance)"
    )


def test_find_dominator_prices_candidates_into_the_lp(monkeypatch):
    # the 2x2 factorial is admissible for the interaction model: the LP's dual
    # bound proves it over all 40,401 candidates, which enter the LP only as
    # ``sweep`` prices them, so each LP holds under 1 % of them as columns
    import scipy.optimize

    widths = []
    linprog = scipy.optimize.linprog

    def recorded(*args, **kwargs):
        widths.append(kwargs["A_eq"].shape[1])
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", recorded)
    m = make_model("interaction-2f")
    cands = discretize(m.space, 0.005)
    verdict = find_dominator(design([[0, 0], [0, 1], [1, 0], [1, 1]]), cands, m)
    assert verdict.admissible and verdict.note == (
        "no design on these candidates or the design's atoms dominates (dual bound below tolerance)"
    )
    assert len(cands) == 40401 and widths and max(widths) < 0.01 * len(cands)


def test_find_dominator_still_improving_is_inconclusive_on_small_problems(line2f, monkeypatch):
    # two parameters and three candidates: the moment stage finds nothing,
    # and an LP whose dual bound is still falling at its cap is inconclusive
    # here as on large problems
    monkeypatch.setattr(
        conditional_module, "_gap_lp", lambda *args: (None, "", "the dual bound was still falling")
    )
    d1 = design([[1.0, 1.0]])
    cands = np.array([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])
    verdict = find_dominator(d1, cands, line2f)
    assert verdict.inconclusive and not verdict.admissible
    assert verdict.note == "the dual bound was still falling"


def test_conditional_audit_with_an_inconclusive_slice_is_inconclusive(growth, monkeypatch):
    stub_inconclusive_audit(monkeypatch, "slice")
    corners = design([[0, 0], [0, 1], [1, 0], [1, 1]])
    verdict = conditional_audit(corners, SliceMap("coordinate", axis=0), growth)
    assert verdict.inconclusive and not verdict.admissible and verdict.dominator is None
    assert verdict.note == "some slices were inconclusive within budget"
    (t0, proven), (t1, open_) = verdict.evidence
    assert (t0, t1) == (0.0, 1.0)
    assert proven.admissible and proven.note.startswith("no design on these candidates dominates")
    assert open_.inconclusive and not open_.admissible and open_.dominator is None


def test_conditional_audit_whose_splice_does_not_verify_is_inconclusive(growth, monkeypatch):
    stub_inconclusive_audit(monkeypatch, "splice")
    corners = design([[0, 0], [0, 1], [1, 0], [1, 1]])
    verdict = conditional_audit(corners, SliceMap("coordinate", axis=0), growth)
    assert verdict.inconclusive and not verdict.admissible and verdict.dominator is None
    assert verdict.note == "some slices were inconclusive within budget"
    # every slice reports its (unverified) dominator, and the audit goes on past each
    assert [t for t, _ in verdict.evidence] == [0.0, 1.0]
    deco = decompose(corners, SliceMap("coordinate", axis=0), growth)
    for (_, v), sl in zip(verdict.evidence, deco.slices):
        assert not v.admissible and not v.inconclusive
        assert np.array_equal(v.dominator.points, sl.conditional_design.points)


def test_find_dominator_verdicts_are_free_of_the_units_of_the_factors():
    # interaction-2f on [0, s]^2 with a grid of step 0.1 s, and the same 40
    # random designs (1 to 3 atoms, uniform(0.05, 1) weights from
    # default_rng(3)) scaled with the box. Scaling a factor maps f to B f for
    # a fixed invertible B, which keeps the Loewner order, so the verdict
    # classes (D dominated, A admissible, I inconclusive) must agree; a
    # cutting-plane loop once read 40, 19 and 4 of them dominated at s = 1,
    # 10 and 30
    def classes(s):
        model = make_model("interaction-2f", space=DesignSpace(((0.0, s), (0.0, s))))
        grid = discretize(model.space, 0.1 * s)
        rng = np.random.default_rng(3)
        out = ""
        for _ in range(40):
            size = rng.integers(1, 4)
            idx = rng.choice(len(grid), size, replace=False)
            d1 = design(grid.points[idx], rng.uniform(0.05, 1.0, size), normalize=True)
            v = find_dominator(d1, grid, model)
            out += "I" if v.inconclusive else "A" if v.admissible else "D"
        return out

    assert classes(1.0) == "D" * 40
    assert classes(10.0) == classes(30.0) == classes(1.0)


def test_find_dominator_verdicts_are_free_of_the_basis_of_f():
    # the same 40 designs on [0, 1]^2 in the basis B f, for B with singular
    # values spanning [1, 100]: every one stays dominated. The moment stage
    # on their axis lines once took h from the first regression function,
    # which B mixes, and four one-edge designs lost their dominators
    model = make_model("interaction-2f")
    grid = discretize(model.space, 0.1).points
    for seed in (0, 1):
        rebased = _Rebased(model, _conditioned_basis(np.random.default_rng(seed), 4, 1e2))
        rng = np.random.default_rng(3)
        for _ in range(40):
            size = rng.integers(1, 4)
            idx = rng.choice(len(grid), size, replace=False)
            d1 = design(grid[idx], rng.uniform(0.05, 1.0, size), normalize=True)
            assert find_dominator(d1, grid, rebased).dominator is not None


def _sweep_draw(model, step, index):
    """Draw ``index`` of a random-design sweep over the grid of spacing step:
    from default_rng(7), each draw puts uniform(0.05, 1) weights on k to k + 2
    distinct grid points. Exact weights matter: rounding them changes the
    search path."""
    grid = discretize(model.space, step)
    rng = np.random.default_rng(7)
    for _ in range(index + 1):
        size = rng.integers(model.k, model.k + 3)
        idx = rng.choice(grid.points.shape[0], size, replace=False)
        w = rng.uniform(0.05, 1.0, size)
    return design(grid.points[idx], w, normalize=True), grid


RANDOM_DRAWS = [("polynomial", {"degree": 3}, interval(-1.0, 1.0), 0.02, i, f"poly3-{i}")
                for i in (4, 7, 9)]
RANDOM_DRAWS += [("interaction-2f", {}, None, 0.1, i, f"interaction-{i}") for i in range(3)]


@pytest.mark.parametrize(
    "family,params,space,step,draw,moment_oracle",
    [pytest.param(*case[:-1], True, id=case[-1]) for case in RANDOM_DRAWS]
    + [pytest.param(*case[:-1], False, id=f"{case[-1]}-lp") for case in RANDOM_DRAWS],
)
def test_find_dominator_random_inadmissible_designs(
    family, params, space, step, draw, moment_oracle, monkeypatch
):
    # the cubic draws have 5 interior support points, above the index bound
    # (m + 1) / 2 = 2 of admissible cubic designs (Karlin & Studden 1966):
    # the moment LP decides them, and with it switched off the primal-dual
    # LP must price in the one direction of their rank-one gaps; the
    # interaction draws (k = 4, a span that is no polynomial on a line) are
    # past the moment stage and decided by the primal-dual LP
    if not moment_oracle:
        monkeypatch.setattr(conditional_module, "_moment_oracle", lambda *args: (None, ""))
    elif family == "polynomial":
        monkeypatch.setattr(conditional_module, "_gap_lp", _no_gap_lp)
    model = make_model(family, space=space, **params)
    d1, grid = _sweep_draw(model, step, draw)
    verdict = find_dominator(d1, grid, model)
    assert not verdict.admissible and not verdict.inconclusive
    assert reference_dominates(verdict.dominator, d1, model)


def test_find_dominator_with_a_falling_bound_at_the_round_cap_is_inconclusive(monkeypatch):
    # with the moment stage off, the primal-dual LP needs 32 rounds for the
    # cubic draw 4; capped at 4, its least dual bound still fell over the
    # last half of the rounds
    monkeypatch.setattr(conditional_module, "_moment_oracle", lambda *args: (None, ""))
    monkeypatch.setattr(conditional_module, "LP_ROUNDS", 4)
    model = make_model("polynomial", space=interval(-1.0, 1.0), degree=3)
    d1, grid = _sweep_draw(model, 0.02, 4)
    verdict = find_dominator(d1, grid, model)
    assert verdict.inconclusive and not verdict.admissible
    assert verdict.note == "the dual bound was still falling at the LP round cap"


def test_find_dominator_whose_first_lp_fails_is_inconclusive(monkeypatch):
    # an LP that failed below the largest box once ended the search admissible,
    # "no dominator found within budget", though the search had stopped
    boxes = []

    def failed(*args):
        boxes.append(args[4])
        return SimpleNamespace(status=2)

    monkeypatch.setattr(conditional_module, "_moment_oracle", lambda *args: (None, ""))
    monkeypatch.setattr(conditional_module, "rank_one_lp", failed)
    model = make_model("polynomial", space=interval(-1.0, 1.0), degree=3)
    d1, grid = _sweep_draw(model, 0.02, 4)
    verdict = find_dominator(d1, grid, model)
    assert boxes == [(-1e3, 1e3)]
    assert verdict.inconclusive and not verdict.admissible and verdict.dominator is None
    assert verdict.note == "the LP failed (HiGHS status 2)"


def test_weights_dominator_merges_equal_points():
    # the LP's columns hold the candidates and d1's atoms, which may coincide:
    # their weights are summed at the first of them
    model = make_model("weighted-polynomial", space=interval(0.0, 2.0), degree=0,
                       efficiency={"kind": "affine"})
    d1 = design([[0.5]])
    dom = _weights_dominator(np.array([0.3, 0.3, 0.4]), np.array([[2.0], [2.0], [1.0]]), d1, model)
    assert np.array_equal(dom.points, [[2.0], [1.0]]) and np.allclose(dom.weights, [0.6, 0.4])
    assert reference_dominates(dom, d1, model)


CONSISTENCY_FAMILIES = [
    ("interaction-2f", {}, 0.1),
    ("exp-growth-2f", {"theta": [1.0, 1.0, 2.0]}, 0.1),
    ("exp-product-2f", {"theta": [1.0, 1.0, 2.0]}, 0.1),
    ("mixture-poly-exp", {"theta3": 1.0}, 0.2),
    ("linear-2f-no-intercept", {}, 0.1),
]


# the diagonal map finds a dominator on 20 of exp-product-2f's 30 draws;
# (1, 1) finds none on any family
SLICE_MAPS = (
    SliceMap("coordinate", axis=0), SliceMap("coordinate", axis=1),
    SliceMap("linear", coeffs=(1.0, -1.0)),
)


def _proved(verdict):
    return verdict.admissible and verdict.note.startswith("no design on")


@pytest.mark.parametrize("family, params, step", CONSISTENCY_FAMILIES,
                         ids=[c[0] for c in CONSISTENCY_FAMILIES])
def test_search_finds_what_the_audits_find(family, params, step):
    # 30 designs of k to k + 2 atoms on the boundary of the grid C, with
    # uniform(0.05, 1) weights from default_rng(7). An audit's dominator D,
    # on a coordinate slice or on a diagonal x0 - x1 = t, splices a slice
    # back into the design, so it lies on C' = C + supp D: the search on C'
    # must find a verified dominator, a dominator on C must stay one on C',
    # and a proof on C cannot stand beside a dominator on C
    model = make_model(family, **params)
    grid = discretize(model.space, step).points
    lo, hi = np.array(model.space.bounds).T
    edge = grid[np.any((grid == lo) | (grid == hi), axis=1)]
    rng = np.random.default_rng(7)
    for _ in range(30):
        size = rng.integers(model.k, model.k + 3)
        idx = rng.choice(len(edge), size, replace=False)
        d1 = design(edge[idx], rng.uniform(0.05, 1.0, size), normalize=True)
        on_grid = find_dominator(d1, grid, model)
        if on_grid.dominator is not None:
            assert dominates(on_grid.dominator, d1, model)
        for tmap in SLICE_MAPS:
            audit = conditional_audit(d1, tmap, model)
            if audit.dominator is None:
                continue
            wider = find_dominator(d1, np.vstack([grid, audit.dominator.points]), model)
            assert wider.dominator is not None and dominates(wider.dominator, d1, model)
            on_c = np.abs(audit.dominator.points[:, None] - grid).max(axis=2).min(axis=1) == 0.0
            assert not (_proved(on_grid) and on_c.all())


@pytest.mark.parametrize("seed", [20, 30, 36])
def test_search_returns_no_near_copy_of_an_index_design(seed, monkeypatch):
    # every index design is admissible; with the index proof off, a
    # cutting-plane loop once returned a near copy for one design of each of
    # these seeds (d1 with atoms of weight 2.5e-10 to 4e-8 added, losing
    # 1e-8 to 5e-8 relative to M1 + M2)
    monkeypatch.setattr(conditional_module, "_index_proof", lambda *args: False)
    for degree in (2, 3, 4):
        for lo, hi in ((-1.0, 1.0), (0.0, 3.0)):
            model = make_model("polynomial", space=interval(lo, hi), degree=degree)
            grid = discretize(model.space, 0.05).points
            for d1 in _index_designs(np.random.default_rng(seed), grid, degree):
                verdict = find_dominator(d1, grid, model)
                assert verdict.admissible, verdict.note


def test_find_dominator_reads_a_grid_as_its_points(line2f):
    # a search with another model leaves the grid's kept matrix in place, and
    # the grid gives the verdict its points give, bit for bit
    full = make_model("interaction-2f")
    grid = discretize(full.space, 0.05)
    F = grid.features(full)
    for d1 in (design([[0.2, 0.3], [0.6, 0.1], [0.4, 0.9]], [0.2, 0.5, 0.3]), design([[0.0, 1.0], [1.0, 0.0]])):
        verdict = find_dominator(d1, grid, line2f)
        assert grid.features(full) is F
        same = find_dominator(d1, grid.points, line2f)
        assert (verdict.admissible, verdict.inconclusive, verdict.note) == (
            same.admissible, same.inconclusive, same.note
        )
        if verdict.dominator is not None:
            assert verdict.dominator.points.tobytes() == same.dominator.points.tobytes()
            assert verdict.dominator.weights.tobytes() == same.dominator.weights.tobytes()
        else:
            assert same.dominator is None


def test_find_dominator_rank_precondition(line2f):
    d = design([[1.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
    with pytest.raises(ValidationError):
        find_dominator(d, np.array([[1.0, 1.0]]), line2f)


@pytest.mark.parametrize("b", [1.0, 0.01])
def test_find_dominator_rank_precondition_is_scale_free(b):
    # four atoms of a cubic span four dimensions, two candidates only two, at
    # every scale b; an absolute rank tolerance on M(d1) missed it at b = 0.01
    cubic = make_model("polynomial", space=interval(0.0, 1.0), degree=3)
    d1 = design(b * np.array([[0.1], [0.4], [0.7], [1.0]]))
    with pytest.raises(ValidationError, match="spans less"):
        find_dominator(d1, np.array([[0.0], [b]]), cubic)


def test_find_dominator_one_candidate_is_one_comparison(line2f, monkeypatch):
    calls = _count_linprog(monkeypatch)
    # f = (x0, x1): (1, 1) is parallel to (0.5, 0.5) and longer, so it dominates
    d1 = design([[0.5, 0.5]])
    verdict = find_dominator(d1, np.array([[1.0, 1.0]]), line2f)
    assert not verdict.admissible and reference_dominates(verdict.dominator, d1, line2f)
    # the only design on the design's own point is the design itself
    verdict = find_dominator(d1, np.array([[0.5, 0.5]]), line2f)
    assert verdict.admissible and not verdict.inconclusive
    assert verdict.note == (
        "no design on these candidates dominates (the only candidate does not dominate)"
    )
    assert calls == []


def test_splice_slice(growth):
    d = design([[0, 0], [0, 0.5], [1, 0], [1, 1]], [0.25, 0.25, 0.25, 0.25])
    repl = design([[0.0, 0.0], [0.0, 1.0]], [0.6, 0.4])
    spliced = splice_slice(d, SliceMap("coordinate", axis=0), 0.0, repl)
    got = dict((tuple(x), w) for x, w in spliced.atoms())
    assert got[(0.0, 0.0)] == pytest.approx(0.3)
    assert got[(0.0, 1.0)] == pytest.approx(0.2)
    assert got[(1.0, 0.0)] == pytest.approx(0.25)


def test_conditional_audit_detects_off_class_atom(growth):
    d = design([[0, 0], [0, 0.5], [1, 0], [1, 1]], [0.25, 0.25, 0.25, 0.25])
    verdict = conditional_audit(d, SliceMap("coordinate", axis=0), growth)
    assert not verdict.admissible and not verdict.inconclusive
    # the spliced dominator is itself verified in the full model
    assert reference_dominates(verdict.dominator, d, growth)


def test_conditional_audit_passes_on_class(growth):
    d = design([[0, 0], [0, 1], [1, 0], [1, 1]], [0.25, 0.25, 0.25, 0.25])
    verdict = conditional_audit(d, SliceMap("coordinate", axis=0), growth)
    assert verdict.admissible
    assert all(v.admissible for _, v in verdict.evidence)


def _no_gap_lp(*args, **kwargs):
    raise AssertionError("the primal-dual LP ran")


def test_conditional_audit_linear_slices(monkeypatch):
    # the quadratic conditional on a diagonal slice has dimension three; its
    # two interior atoms reach d = 2, so the moment
    # LP dominates it with the de la Garza design on three points, and the
    # splice verifies in full. The corner slice t = 0 is one candidate.
    monkeypatch.setattr(conditional_module, "_gap_lp", _no_gap_lp)
    calls = _count_linprog(monkeypatch)
    m = make_model("interaction-2f")
    d = design([[0.3, 0.7], [0.6, 0.4], [0.0, 0.0]], [0.3, 0.3, 0.4])
    verdict = conditional_audit(d, SliceMap("linear", coeffs=(1.0, 1.0)), m)
    assert not verdict.admissible and not verdict.inconclusive
    assert reference_dominates(verdict.dominator, d, m)
    (t0, corner), (t1, diagonal) = verdict.evidence
    assert (t0, t1) == (0.0, 1.0)
    assert corner.admissible and corner.note.startswith("no design on these candidates dominates")
    assert diagonal.dominator.m == 3
    assert sorted(diagonal.dominator.points[:, 0])[::2] == [0.0, 1.0]
    assert calls == [1]


def _moment_case(d1, points, model):
    F1 = model.eval_many(d1.points)
    return _moment_oracle(d1, F1, points, model.eval_many(points), model)


def test_moment_stage_at_degree_zero_solves_no_lp(monkeypatch):
    # at d = 0 the moment LP maximizes sum_i w_i h_i^2 over the simplex: all
    # mass on the candidate of largest h, which the stage now takes with no
    # LP, returning the LP's dominator and so the LP's verdict; where that
    # design does not dominate, no design does, and the stage says so
    from scipy.optimize import linprog

    model = make_model("weighted-polynomial", degree=0, efficiency={"kind": "exp"})
    grid = discretize(model.space, 0.01).points
    assert len(grid) == 101
    rng = np.random.default_rng(11)
    draws = []
    for _ in range(40):
        idx = rng.choice(len(grid), int(rng.integers(1, 4)), replace=False)
        draws.append(design(grid[idx], rng.dirichlet(np.ones(idx.size))))
    h = model.eval_many(grid)[:, 0]
    res = linprog(-((h / h.max()) ** 2), A_eq=np.ones((1, len(grid))), b_eq=[1.0],
                  bounds=(0.0, None), method="highs")
    calls = _count_linprog(monkeypatch)
    got = [_moment_case(d1, grid, model) for d1 in draws]
    assert calls == []
    for d1, (dom, proof) in zip(draws, got):
        F1 = model.eval_many(d1.points)
        want = _weights_dominator(np.maximum(res.x, 0.0), grid, d1, model)
        assert (dom is None) == (want is None)
        assert proof == ("" if want is not None else DEGREE_ZERO_PROOF)
        if want is not None:
            assert np.array_equal(dom.points, want.points)
            assert np.array_equal(dom.weights, want.weights)
        verdict = find_dominator(d1, grid, model)
        assert _verdict_class(verdict) == ("admissible" if want is None else "inadmissible")
        if want is None:
            assert verdict.note == f"no design on these candidates dominates ({DEGREE_ZERO_PROOF})"
    assert sum(dom is not None for dom, _ in got) == 39


DEGREE_ZERO_PROOF = "degree 0: all mass on the largest h does not dominate"


def test_degree_zero_design_on_the_largest_h_is_proved_admissible(monkeypatch):
    # exp efficiency on [0, 1] peaks at x = 1: the design all on x = 1 has
    # the largest sum w h^2, so no design on the 101 candidates dominates it,
    # with no LP
    model = make_model("weighted-polynomial", degree=0, efficiency={"kind": "exp"})
    grid = discretize(model.space, 0.01).points
    d1 = design([[1.0]], [1.0])
    calls = _count_linprog(monkeypatch)
    verdict = find_dominator(d1, grid, model)
    assert verdict.admissible and calls == []
    assert verdict.note == f"no design on these candidates dominates ({DEGREE_ZERO_PROOF})"


def _stratified_draw(rng, n, d):
    """Grid indices of one interior atom in each of d equal strata of n
    points, plus up to two more grid points, anywhere."""
    cuts = np.linspace(1, n - 1, d + 1).astype(int)
    inner = [int(rng.integers(a + 1, b)) for a, b in zip(cuts[:-1], cuts[1:])]
    extra = rng.choice(n, int(rng.integers(0, 3)), replace=False)
    return np.unique(np.concatenate([inner, extra]).astype(int))


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 3.0)])
@pytest.mark.parametrize("degree", [2, 3, 4])
def test_moment_oracle_dominates_designs_with_d_interior_atoms(degree, lo, hi, monkeypatch):
    # with d interior atoms at least two grid steps apart, no polynomial of
    # degree 2d with a negative leading coefficient is nonnegative on the
    # grid and vanishes on d1's support (it would need 2d + 2 roots), so by
    # LP duality the LP raises the top moment
    monkeypatch.setattr(conditional_module, "_gap_lp", _no_gap_lp)
    model = make_model("polynomial", space=interval(lo, hi), degree=degree)
    grid = discretize(model.space, 0.05)
    rng = np.random.default_rng(degree)
    for _ in range(4):
        idx = _stratified_draw(rng, len(grid), degree)
        d1 = design(grid.points[idx], rng.uniform(0.5, 1.0, idx.size), normalize=True)
        verdict = find_dominator(d1, grid, model)
        dom = verdict.dominator
        assert dom is not None and reference_dominates(dom, d1, model)
        assert gram_rank(info_matrix(dom, model) - info_matrix(d1, model)) == 1
        assert dom.m <= 2 * degree + 1


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_moment_oracle_skips_designs_with_fewer_interior_atoms(degree, monkeypatch):
    # at most d - 1 interior atoms: d1 is the only measure with its lower
    # moments, or their upper principal representation, so no LP is solved,
    # and on all of P_d that is a proof
    calls = _count_linprog(monkeypatch)
    model = make_model("polynomial", space=interval(0.0, 3.0), degree=degree)
    grid = discretize(model.space, 0.05).points
    rng = np.random.default_rng(degree)
    proof = f"Karlin-Studden index: at most {degree - 1} interior atoms under P_{degree}"
    for inner in range(degree):
        pts = np.concatenate([[0.0, 3.0], rng.choice(grid[1:-1, 0], inner, replace=False)])
        d1 = design(pts[:, None], rng.dirichlet(np.ones(pts.size)))
        assert _moment_case(d1, grid, model) == (None, proof)
    assert calls == []


def _index_designs(rng, grid, degree):
    """Designs of at most degree - 1 interior grid atoms, with both ends of
    the grid, one of them, or neither."""
    lo, hi = grid[0, 0], grid[-1, 0]
    out = []
    for ends in ([lo, hi], [lo], [hi], []):
        for inner in range(max(1 - len(ends), 0), degree):
            pts = np.concatenate([ends, rng.choice(grid[1:-1, 0], inner, replace=False)])
            out.append(design(pts[:, None], rng.dirichlet(np.ones(pts.size))))
    return out


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 3.0)])
@pytest.mark.parametrize("degree", [2, 3, 4])
def test_index_proof_decides_designs_with_fewer_interior_atoms(degree, lo, hi, monkeypatch):
    # on all of P_d with constant h, at most d - 1 interior atoms prove
    # admissibility with no LP; with the proof off, the primal-dual LP finds
    # no dominator either
    model = make_model("polynomial", space=interval(lo, hi), degree=degree)
    grid = discretize(model.space, 0.05).points
    designs = _index_designs(np.random.default_rng(degree), grid, degree)
    calls = _count_linprog(monkeypatch)
    for d1 in designs:
        verdict = find_dominator(d1, grid, model)
        assert verdict.admissible and verdict.note == (
            "no design on these candidates dominates "
            f"(Karlin-Studden index: at most {degree - 1} interior atoms under P_{degree})"
        )
    assert calls == []
    monkeypatch.setattr(conditional_module, "_index_proof", lambda *args: False)
    for d1 in designs:
        verdict = find_dominator(d1, grid, model)
        assert verdict.dominator is None and not verdict.inconclusive
    assert calls


def test_index_proof_needs_all_of_p_d_and_constant_h():
    # (1, x, x^3) is a proper subspace of P_3, and h = e^{-x} > 0 makes sum w = 1
    # no moment of h^2: neither is proven, though both skip the LP
    gap = make_model("cubic-gap", space=interval(-1.0, 1.0))
    wpoly = make_model(
        "weighted-polynomial", space=interval(0.0, 2.0), degree=2,
        efficiency={"kind": "exp", "rate": 1.0},
    )
    for model in (gap, wpoly):
        grid = discretize(model.space, 0.05).points
        d1 = design(grid[[0, len(grid) // 3, -1]], [0.3, 0.3, 0.4])
        assert _moment_case(d1, grid, model) == (None, "")


def _quartic_draw(seed, grid):
    """Equal weights on 4 to 6 distinct interior grid points, from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 7))
    idx = np.sort(rng.choice(np.arange(1, len(grid) - 1), m, replace=False))
    return design(grid[idx], np.full(m, 1.0 / m))


@pytest.mark.parametrize("seed", [6, 7, 12, 13, 19])
def test_moment_oracle_gap_is_material_in_a_whitened_frame(seed, monkeypatch):
    # on a quartic over [0, 3] the entries of M reach 3^8; the moment LP's
    # rank-one gap on these draws is below 1e-5 of that largest entry, which
    # an entry-wise materiality rule rejected, and a cutting-plane loop then ran;
    # in the frame whitened by M1 + M2 its eigenvalue is near 1
    monkeypatch.setattr(conditional_module, "_gap_lp", _no_gap_lp)
    model = make_model("polynomial", space=interval(0.0, 3.0), degree=4)
    grid = discretize(model.space, 0.01).points
    d1 = _quartic_draw(seed, grid)
    dom = find_dominator(d1, grid, model).dominator
    assert dom is not None and reference_dominates(dom, d1, model)
    M1, M2 = info_matrix(d1, model), info_matrix(dom, model)
    assert gram_rank(M2 - M1) == 1
    assert np.abs(M2 - M1).max() <= MATERIAL_FACTOR * DOMINANCE_TOL * np.abs(M2).max()


def _generalized_gap(M2, M1):
    """The eigenvalues of M2 - M1 relative to M1 + M2, by scipy's generalized
    symmetric eigensolver: the reference for the whitened gap."""
    return scipy.linalg.eigh(M2 - M1, M1 + M2, eigvals_only=True)


# grid indices and weights of designs near two quartic index designs on
# [0, 3] (designs 11 and 14 of _index_designs(default_rng(4), grid, 4) at
# step 0.05): weights a cutting-plane loop once tried while searching them
NEAR_MOMENT_DESIGNS = {
    11: ([28, 29, 37, 38, 60], [0.34867594475938574, 0.1301669505794566, 0.043036500041137835,
                                0.2729972983557171, 0.20512330626430278]),
    14: ([14, 17, 18, 53, 54, 60], [0.010744028386740066, 0.09957663046290062,
                                    0.04776371735509061, 0.42295313858458033,
                                    0.39908064575540725, 0.019881839455281238]),
}


def test_dominates_rejects_stage_b_gaps_negative_where_m_is_small():
    # the entries of M reach 3^8 here; the absolute rule accepts these gaps,
    # though relative to M1 + M2 they fall below -0.5, and dominates rejects them
    model = make_model("polynomial", space=interval(0.0, 3.0), degree=4)
    grid = discretize(model.space, 0.05).points
    designs = _index_designs(np.random.default_rng(4), grid, 4)
    for i, (idx, w) in NEAR_MOMENT_DESIGNS.items():
        d1, cand = designs[i], design(grid[idx], w)
        M1, M2 = info_matrix(d1, model), info_matrix(cand, model)
        assert _absolute_rule(M2, M1, 1e-7) and _generalized_gap(M2, M1)[0] < -0.5
        assert not dominates(cand, d1, model, tol=1e-7)


@pytest.mark.parametrize("seed", [4, 77, 79, 140, 154])
def test_dominates_accepts_rank_one_gaps_small_against_m(seed, monkeypatch):
    # the moment LP's rank-one, nonnegative definite gap on these quartic
    # draws is 2e-8 to 1e-7 of M's largest entry, which the absolute rule
    # took as no gain, so a cutting-plane loop once ran 30-46 LPs; relative to
    # M1 + M2 it is material, and the moment stage's one LP decides
    monkeypatch.setattr(conditional_module, "_gap_lp", _no_gap_lp)
    calls = _count_linprog(monkeypatch)
    model = make_model("polynomial", space=interval(0.0, 3.0), degree=4)
    grid = discretize(model.space, 0.01).points
    d1 = _quartic_draw(seed, grid)
    dom = find_dominator(d1, grid, model).dominator
    assert dom is not None and calls == [1]
    assert dominates(dom, d1, model) and dominates(dom, d1, model, tol=1e-7)
    M1, M2 = info_matrix(d1, model), info_matrix(dom, model)
    assert gram_rank(M2 - M1) == 1 and not _absolute_rule(M2, M1, 1e-7)


def test_search_dominator_loses_nothing_where_m_is_small():
    # on this quartic draw over [0, 3] a cutting-plane loop once returned a design
    # whose gap relative to M1 + M2 is -0.32 along a direction where M1 + M2
    # is 3e-13 of its largest eigenvalue, which a frame cut at 1e-10 of it
    # dropped; the regression rows resolve that direction
    model = make_model("polynomial", space=interval(0.0, 3.0), degree=4)
    grid = discretize(model.space, 0.05).points
    rng = np.random.default_rng(4)
    m = int(rng.integers(1, 7))
    d1 = design(grid[rng.choice(len(grid), m, replace=False)], rng.dirichlet(np.ones(m)))
    dom = find_dominator(d1, grid, model).dominator
    assert dom is not None
    gap = _generalized_gap(info_matrix(dom, model), info_matrix(d1, model))
    assert gap[0] >= -MATERIAL_FACTOR * DOMINANCE_TOL and gap[-1] > MATERIAL_FACTOR * DOMINANCE_TOL


def _same_verdict(a, b):
    assert (a.admissible, a.inconclusive, a.note) == (b.admissible, b.inconclusive, b.note)
    assert (a.dominator is None) == (b.dominator is None)
    if a.dominator is not None:
        assert np.array_equal(a.dominator.points, b.dominator.points)
        assert np.array_equal(a.dominator.weights, b.dominator.weights)


def test_moment_oracle_declines_and_the_chain_runs_on(growth, monkeypatch):
    calls = _count_linprog(monkeypatch)
    # exp-growth-2f on x0 = 0.5 spans {1, x1 e^{-x1}}, P_1 in g = x1 e^{-x1}:
    # the two ends of g at d1's mean of g dominate, in closed form, no LP
    d = design([[0.5, 0.2], [0.5, 0.5], [0.5, 0.8]], [0.3, 0.3, 0.4])
    sl = decompose(d, SliceMap("coordinate", axis=0), growth).slices[0]
    cm, d1 = sl.conditional, sl.conditional_design
    dom, proof = _moment_case(d1, cm.grid, cm)
    assert proof == "" and reference_dominates(dom, d1, cm)
    assert sorted(dom.points[:, 1]) == [0.0, 1.0] and calls == []
    # two close atoms off a coarse grid: no grid measure has their moments,
    # so the one LP is infeasible
    quad = make_model("polynomial", space=interval(-1.0, 1.0), degree=2)
    grid = discretize(quad.space, 0.5).points
    off = design([[0.2], [0.3]])
    assert _moment_case(off, grid, quad) == (None, "") and calls == [1]
    # the verdict class is the one of the chain with the stage off, and where
    # the stage declines, the verdict is that chain's to the last bit
    got = [find_dominator(d1, cm.grid, cm), find_dominator(off, grid, quad)]
    monkeypatch.setattr(conditional_module, "_moment_oracle", lambda *args: (None, ""))
    assert _verdict_class(got[0]) == _verdict_class(find_dominator(d1, cm.grid, cm))
    _same_verdict(got[1], find_dominator(off, grid, quad))


def _two_end_stage(d1: Design, F1: np.ndarray, points, F, model):
    """De la Garza's closed form where f spans the constants plus one function g,
    as a stage of its own: the reference for the moment stage at d = 1.

    It applies when k = 2 and the constants lie in the span of f on the
    candidates and d1's atoms; g is then the span's direction off the
    constants. In the basis (1, g) the gap M(w) - M(d1) has entry 0 in the
    corner (sum w = 1), so a nonnegative definite gap matches d1's mean of g,
    and among the measures on [g_lo, g_hi] with that mean the one on the two
    ends alone has the largest mean of g^2. Hence:

    - d1's atoms all at an end of g over the candidates and its atoms
      (within SLICE_TOL of the range) is a proof that no design dominates;
    - d1's atoms inside the candidates' range of g are dominated by the
      two-end design of mass (E g - g_lo) / (g_hi - g_lo) on the candidates'
      g-maximizer, returned once it verifies.

    Returns (dominator or None, proof or ""); both empty leave d1 to the
    rest of the chain.
    """
    G = np.vstack([F, F1])
    if F.shape[1] != 2 or gram_rank(G) != 2 or not _spans(G, np.ones((len(G), 1))):
        return None, ""
    centered = G - G.mean(axis=0)
    g = centered @ np.linalg.svd(centered, full_matrices=False)[2][0]
    n, lo, hi = len(points), g.min(), g.max()
    tol = SLICE_TOL * (hi - lo)
    g1 = g[n:]
    if np.all((g1 <= lo + tol) | (g1 >= hi - tol)):
        return None, "de la Garza: its atoms sit at the two ends of g"
    i_lo, i_hi = int(g[:n].argmin()), int(g[:n].argmax())
    if g1.min() < g[i_lo] - tol or g1.max() > g[i_hi] + tol:
        return None, ""
    w = np.zeros(n)
    w[i_hi] = np.clip((d1.weights @ g1 - g[i_lo]) / (g[i_hi] - g[i_lo]), 0.0, 1.0)
    w[i_lo] = 1.0 - w[i_hi]
    return _weights_dominator(w, points, d1, model), ""


def _agrees_with_two_end_stage(d1, cands, model):
    """The chain's verdict on d1, after checking it against ``_two_end_stage``:
    the same verdict class and, where it dominates, the same dominator to
    the last bit."""
    verdict = find_dominator(d1, cands, model)
    if isinstance(cands, np.ndarray):
        points, F = cands, model.eval_many(cands)
    else:
        points, F = cands.points, np.ascontiguousarray(cands.features(model))
    F1 = model.eval_many(d1.points)
    dom, proof = _two_end_stage(d1, F1, points, F, model)
    assert dom is not None or proof
    assert verdict.admissible == bool(proof) and not verdict.inconclusive
    if dom is not None:
        assert np.array_equal(verdict.dominator.points, dom.points)
        assert np.array_equal(verdict.dominator.weights, dom.weights)
    return verdict


# k = 2 models that span the constants plus g: (name, family or two-factor
# model, its parameter), with g read off the one-factor family of the span
K2_CASES = [
    ("xexp-0.5", "xexp-decay", 0.5),
    ("xexp-1", "xexp-decay", 1.0),
    ("xexp-2", "xexp-decay", 2.0),
    ("poly1", "polynomial", None),
    ("growth-x0", "exp-growth-2f", 0),
    ("growth-x1", "exp-growth-2f", 1),
    ("mixture-x1", "mixture-poly-exp", 1),
]


def _k2_case(family, arg):
    """(model, candidate points, g as a function of points)."""
    if family == "xexp-decay":
        model = make_model(family, space=interval(0.0, 3.0), rate=arg)
        return model, discretize(model.space, 0.05).points, lambda p: model.eval_many(p)[:, 1]
    if family == "polynomial":
        model = make_model(family, space=interval(-1.0, 1.0), degree=1)
        return model, discretize(model.space, 0.05).points, lambda p: p[:, 0]
    full = make_model(family, **({"theta": [1.0, 1.0, 1.0]} if "growth" in family else {"theta3": 1.0}))
    mm, ref = marginal_model(full, arg), registered_marginal(full, arg)
    return mm, mm.grid, lambda p: ref.eval_many(p[:, [arg]])[:, 1]


def _verdict_class(v):
    return "inconclusive" if v.inconclusive else ("admissible" if v.admissible else "inadmissible")


@pytest.mark.parametrize("family, arg", [c[1:] for c in K2_CASES], ids=[c[0] for c in K2_CASES])
def test_two_end_stage_agrees_with_the_chain(family, arg, monkeypatch):
    # random designs on 2 to 4 candidates: the moment stage at d = 1 gives
    # the two-end stage's verdict and dominator bit for bit, with the
    # chain's verdict class, a dominator on the ends of g, and no LP
    model, cands, g = _k2_case(family, arg)
    rng = np.random.default_rng(5)
    draws = []
    for _ in range(10):
        idx = rng.choice(len(cands), int(rng.integers(2, 5)), replace=False)
        draws.append(design(cands[idx], rng.uniform(0.05, 1.0, idx.size), normalize=True))
    calls = _count_linprog(monkeypatch)
    got = [_agrees_with_two_end_stage(d1, cands, model) for d1 in draws]
    assert calls == []
    gc = g(cands)
    for d1, verdict in zip(draws, got):
        if verdict.dominator is not None:
            assert reference_dominates(verdict.dominator, d1, model)
            gd = g(verdict.dominator.points)
            assert np.all(np.minimum(abs(gd - gc.min()), abs(gd - gc.max())) <= 1e-12)
    monkeypatch.setattr(conditional_module, "_moment_oracle", lambda *args: (None, ""))
    old = [find_dominator(d1, cands, model) for d1 in draws]
    assert [_verdict_class(v) for v in got] == [_verdict_class(v) for v in old]
    assert "inadmissible" in {_verdict_class(v) for v in got}


def test_two_end_stage_agrees_on_the_benchmark_draws(monkeypatch):
    # the benchmark's xexp dominator inputs, seeds 1-3: every one is
    # dominated by the two-end stage's design, bit for bit, with no LP
    calls = _count_linprog(monkeypatch)
    for model, grid, d1 in _xexp_draws():
        assert not _agrees_with_two_end_stage(d1, grid, model).admissible
    assert calls == []


DE_LA_GARZA = (
    "no design on these candidates dominates (Karlin-Studden index: at most 0 interior atoms under P_1)"
)


def test_two_end_stage_proves_designs_at_the_ends(xexp_grid, monkeypatch):
    # g = x e^{-x} on [0, 3] has its ends at x = 0 and x = 1
    m, grid = xexp_grid
    pts = grid.points
    inside = pts[pts[:, 0] >= 0.5]  # g from g(3) = 0.149 up to g(1)
    coarse = discretize(m.space, 0.03).points  # misses x = 1, the top of g
    cases = [
        (design([[0.0]]), pts),
        (design([[1.0]]), pts),
        (design([[0.0], [1.0]], [0.3, 0.7]), pts),
        # atoms beyond the candidates' range of g
        (design([[0.0], [1.0]], [0.6, 0.4]), inside),
        (design([[0.0], [1.0]], [0.5, 0.5]), coarse),
        (design([[1.0]]), coarse),
    ]
    calls = _count_linprog(monkeypatch)
    for d1, cands in cases:
        verdict = _agrees_with_two_end_stage(d1, cands, m)
        assert verdict.admissible and verdict.note == DE_LA_GARZA
    assert calls == []
    # one atom below the candidates' range and one inside it: the chain decides
    d1 = design([[0.0], [0.7]])
    F1 = m.eval_many(d1.points)
    args = (d1, F1, inside, m.eval_many(inside), m)
    assert _moment_oracle(*args) == _two_end_stage(*args) == (None, "")
    monkeypatch.setattr(conditional_module, "_moment_oracle", lambda *args: (None, ""))
    for d1, cands in cases:
        assert find_dominator(d1, cands, m).admissible


def test_conditional_audit_single_atom(growth):
    # a lone atom at (1/theta1, 1/theta2) has admissible one-point conditionals
    verdict = conditional_audit(design([[1.0, 1.0]]), SliceMap("coordinate", axis=0), growth)
    assert verdict.admissible
    # off the class, the single conditional is dominated and the audit fails
    verdict2 = conditional_audit(design([[0.3, 0.7]]), SliceMap("coordinate", axis=0), growth)
    assert not verdict2.admissible and not verdict2.inconclusive


def test_marginal_design_projection():
    d = design([[0, 0], [0, 1], [1, 0], [1, 1]], [0.1, 0.2, 0.3, 0.4])
    m0 = marginal_design(d, 0)
    got = dict((float(x[0]), w) for x, w in m0.atoms())
    assert got[0.0] == pytest.approx(0.3)
    assert got[1.0] == pytest.approx(0.7)


@pytest.mark.parametrize(
    "family, params, bounds, product_bound",
    [
        ("interaction-2f", {}, (2, 2), 4),
        ("exp-growth-2f", {"theta": [1.0, 1.0, 1.0]}, (2, 2), 4),
        ("exp-product-2f", {"theta": [2.0, 1.0, 1.5]}, (2, 2), 4),
        ("mixture-poly-exp", {"theta3": 1.0}, (4, 2), 8),
    ],
    ids=["interaction", "growth", "exp-product", "mixture"],
)
def test_marginal_model_from_the_span(family, params, bounds, product_bound):
    model = make_model(family, **params)
    for axis in (0, 1):
        mm = marginal_model(model, axis)
        ref = registered_marginal(model, axis)
        # the axis line through the other factor's lower bound
        other = 1 - axis
        lo = model.space.bounds[other][0]
        assert mm.t == lo and np.all(mm.grid[:, other] == lo)
        assert len(mm.grid) <= 200
        # spans exactly the registered family's functions, off its grid too
        line = np.full((401, 2), lo)
        line[:, axis] = np.linspace(*model.space.bounds[axis], 401)
        F, G = mm.eval_many(line), ref.eval_many(line[:, [axis]])
        assert mm.k == ref.k == gram_rank(F)
        assert np.max(np.sin(subspace_angles(F, G))) < 1e-12
        assert admissible_support_bound(mm) == bounds[axis]
    corners = design([[a, b] for a in model.space.bounds[0] for b in model.space.bounds[1]])
    assert product_audit(corners, model).support_bound == product_bound


@pytest.mark.parametrize(
    "family, params, tmap, t, bound",
    [
        # {1, x1 e^{-x1}}: the constants plus one function
        ("exp-growth-2f", {"theta": [1.0, 1.0, 1.0]}, SliceMap("coordinate", axis=0), 0.5, 2),
        # (1, x0, 1 - x0, x0 (1 - x0)) spans P_2
        ("interaction-2f", {}, SliceMap("linear", coeffs=(1.0, 1.0)), 1.0, 3),
        # (1, x0, 0.3, 0.3 x0) spans P_1
        ("interaction-2f", {}, SliceMap("coordinate", axis=1), 0.3, 2),
    ],
    ids=["growth-x0=0.5", "interaction-diagonal-t=1", "interaction-x1=0.3"],
)
def test_admissible_support_bound_on_slices(family, params, tmap, t, bound):
    cm = conditional_model(make_model(family, **params), tmap, t, np.empty((0, 2)))
    assert admissible_support_bound(cm) == bound


def test_marginal_model_needs_f_free_of_the_other_factor():
    # f = (x0, x1): on the line x1 = 0 it spans x0 alone, elsewhere x0 and 1
    line2f = make_model("linear-2f-no-intercept")
    for axis in (0, 1):
        with pytest.raises(NoConditionalModelError):
            marginal_model(line2f, axis)


def test_product_audit_growth(growth, monkeypatch):
    # both marginals sit on {0, 1}, the ends of g = x e^{-x}: a proof, no LP
    calls = _count_linprog(monkeypatch)
    d = design([[0, 0], [0, 1], [1, 0], [1, 1]], [0.25, 0.25, 0.25, 0.25])
    report = product_audit(d, growth)
    assert report.support_bound == 4
    assert [v.note for v in report.factor_verdicts] == [DE_LA_GARZA, DE_LA_GARZA]
    assert all(v.admissible for v in report.factor_verdicts)
    assert calls == []


@pytest.fixture(scope="module")
def mixture_solution(mixture):
    cands = discretize(mixture.space, 0.01)
    return solve(mixture, cands, parse_criterion("D"))


def test_product_audit_mixture(mixture, mixture_solution):
    report = product_audit(mixture_solution.design, mixture)
    assert report.support_bound == 8
    assert all(v.admissible for v in report.factor_verdicts)
    # each marginal design lies on its axis line through the other factor's lower bound
    m0, m1 = report.marginal_designs
    assert np.all(m0.points[:, 1] == 0.0) and np.all(m1.points[:, 0] == -1.0)
    # first marginal: at most four points, ends included, interior pair symmetric
    xs = sorted(float(x[0]) for x, _ in m0.atoms())
    assert len(xs) <= 4
    assert xs[0] == pytest.approx(-1.0) and xs[-1] == pytest.approx(1.0)
    interior = [x for x in xs if abs(abs(x) - 1.0) > 1e-9]
    if len(interior) == 2:
        assert interior[0] == pytest.approx(-interior[1], abs=0.02)
    # second marginal: supported on {0, x2*} with x2* = min(1/theta3, 2), the
    # ends of g = x e^{-x}; x2* = 1 is off the 200-point line, above its g
    assert report.factor_verdicts[1].note == DE_LA_GARZA
    xs1 = sorted(float(x[1]) for x, _ in m1.atoms())
    assert xs1[0] == pytest.approx(0.0, abs=0.02)
    assert xs1[-1] == pytest.approx(1.0, abs=0.02)


def test_slice_grid_layouts(growth):
    pts = slice_grid(growth, SliceMap("coordinate", axis=0), 0.5, step=0.25)
    assert np.allclose(pts[:, 0], 0.5)
    assert np.allclose(sorted(pts[:, 1]), [0, 0.25, 0.5, 0.75, 1.0])
    m = make_model("interaction-2f")
    seg = slice_grid(m, SliceMap("linear", coeffs=(1.0, 1.0)), 1.5, step=0.25)
    assert np.allclose(seg.sum(axis=1), 1.5)
    assert seg[:, 0].min() == pytest.approx(0.5) and seg[:, 0].max() == pytest.approx(1.0)
