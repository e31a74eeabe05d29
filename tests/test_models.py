import dataclasses
import math
import pickle

import numpy as np
import pytest

import optdesign.models as models_module
from optdesign import (
    CandidateSet,
    Criterion,
    DegenerateModelError,
    DesignSpace,
    DomainError,
    MustTruncateError,
    SliceMap,
    ValidationError,
    default_candidates,
    discretize,
    eval_f,
    interval,
    make_model,
    solve,
    truncate,
)
from optdesign.conditional import conditional_model
from optdesign.designs import SWEEP_BLOCK, sweep
from optdesign.models import gram_rank, model_from_dict, model_to_dict

from conftest import NearlyAffine, count_evaluations, random_psd


def test_eval_linear_2f():
    m = make_model("linear-2f-no-intercept")
    assert np.allclose(eval_f(m, [1.0, 0.0]), [1.0, 0.0])


def test_eval_growth_at_origin():
    m = make_model("exp-growth-2f", theta=[3.0, 1.0, 1.0])
    assert np.allclose(eval_f(m, [0.0, 0.0]), [1.0, 0.0, 0.0])


def test_eval_exponential_sum():
    m = make_model("exponential-sum", space=interval(0.0, 3.0), a=[1.0], **{"lambda": [1.0]})
    f = eval_f(m, [1.0])
    assert np.allclose(f, [math.exp(-1.0), -math.exp(-1.0)])


def test_eval_mixture_components():
    m = make_model("mixture-poly-exp", theta3=2.0)
    f = eval_f(m, [0.5, 1.0])
    assert np.allclose(f, [1.0, 0.5, 0.125, -math.exp(-2.0)])


def test_efficiency_must_be_positive():
    m = make_model("weighted-polynomial", degree=1, efficiency={"kind": "affine", "slope": -2.0})
    with pytest.raises(ValidationError):
        m.eval_many([[1.0]])


def test_discretize_counts():
    assert len(discretize(DesignSpace(((0, 1), (0, 1))), 0.5)) == 9
    grid = discretize(interval(0, 1), 0.25)
    assert np.allclose(sorted(grid.points[:, 0]), [0, 0.25, 0.5, 0.75, 1.0])
    assert len(discretize(DesignSpace(((-1, 1), (0, 2))), (0.5, 1.0))) == 15


def test_discretize_includes_endpoints_for_uneven_step():
    grid = discretize(interval(0, 1), 0.3)
    xs = grid.points[:, 0]
    assert xs.min() == 0.0 and xs.max() == 1.0
    assert len(grid) == 4  # floor(1/0.3) + 1


def test_discretize_rejects_nonpositive_and_nan_steps():
    # a NaN step once passed the check and failed in int(floor(nan))
    box = DesignSpace(((0, 1), (0, 1)))
    for bad in (0.0, -0.1, math.nan, (0.1, math.nan)):
        with pytest.raises(ValidationError, match="grid steps must be positive"):
            discretize(box, bad)


def test_discretize_unbounded_raises():
    with pytest.raises(MustTruncateError):
        discretize(DesignSpace(((0.0, math.inf),)), 0.1)


def test_candidate_set_rejects_duplicate_points():
    box = DesignSpace(((-1, 1), (-1, 1)))
    grid = discretize(box, 0.1).points
    shuffled = grid[np.random.default_rng(0).permutation(len(grid))]
    assert len(CandidateSet(box, shuffled, (0.1, 0.1))) == len(grid)
    # the twin of row 0 goes last, so sorting has to bring the pair together
    with pytest.raises(ValidationError, match="pairwise distinct"):
        CandidateSet(box, np.vstack([shuffled, shuffled[:1]]), (0.1, 0.1))
    with pytest.raises(ValidationError, match="pairwise distinct"):
        CandidateSet(box, [[0.0, 0.5], [-0.0, 0.5]], (0.5, 0.5))
    shared = CandidateSet(box, [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]], (1.0, 1.0))
    assert len(shared) == 3
    assert len(CandidateSet(box, [[0.5, 0.5]], (0.5, 0.5))) == 1

    rng = np.random.default_rng(11)
    verdicts = set()
    for _ in range(200):
        q = int(rng.integers(1, 4))
        pts = rng.integers(0, 3, size=(int(rng.integers(1, 9)), q)).astype(float)
        distinct = np.unique(pts, axis=0).shape[0] == pts.shape[0]
        try:
            CandidateSet(DesignSpace(((0, 2),) * q), pts, (1.0,) * q)
            accepted = True
        except ValidationError:
            accepted = False
        assert accepted == distinct, pts
        verdicts.add(accepted)
    assert verdicts == {True, False}


def test_candidate_set_distinctness_on_and_off_the_product_path(monkeypatch):
    box = DesignSpace(((-1, 1), (0, 1)))
    # an axis holding both -0.0 and 0.0 is not strictly increasing, so the
    # product path does not apply and the sort finds the equal rows
    axis = np.array([-1.0, -0.0, 0.0, 1.0])
    x0, x1 = (m.ravel() for m in np.meshgrid(axis, [0.0, 1.0], indexing="ij"))
    with pytest.raises(ValidationError, match="pairwise distinct"):
        CandidateSet(box, np.column_stack((x0, x1)), (1.0, 1.0))
    grid = discretize(box, 0.1).points
    shuffled = grid[np.random.default_rng(3).permutation(len(grid))]
    with pytest.raises(ValidationError, match="pairwise distinct"):
        CandidateSet(box, np.vstack([shuffled[:-1], shuffled[5:6]]), (0.1, 0.1))
    shuffled_set = CandidateSet(box, shuffled, (0.1, 0.1))
    assert shuffled_set.product_axes is None and len(shuffled_set) == len(grid)
    # a product grid proves its rows distinct with no sort
    def no_sort(keys):
        raise AssertionError("sorted the rows")

    monkeypatch.setattr(np, "lexsort", no_sort)
    product = CandidateSet(box, grid, (0.1, 0.1))
    assert product.product_axes is not None and len(product) == len(grid)
    with pytest.raises(AssertionError, match="sorted the rows"):
        CandidateSet(box, shuffled, (0.1, 0.1))


def test_grid_checks_read_every_axis():
    box = DesignSpace(((-1, 1), (0, 2), (0, 1)))
    good = [[0.0, 1.0, 0.5], [1.0, 2.0, 1.0]]
    assert box.contains(good).tolist() == [True, True]
    # rows equal but for their last coordinate are distinct points
    last_only = [[0.0, 1.0, 0.0], [0.0, 1.0, 0.5], [0.0, 1.0, 1.0]]
    assert len(CandidateSet(box, last_only, (1,) * 3)) == 3
    # out of the box on the last axis only, by more than the bound slack
    out_last = [[0.0, 1.0, 1.0 + 1e-6]]
    assert box.contains(out_last).tolist() == [False]
    assert box.contains([[0.0, 1.0, 1.0 + 1e-10]]).tolist() == [True]
    with pytest.raises(ValidationError, match="outside design-space bounds"):
        CandidateSet(box, good + out_last, (1,) * 3)
    for axis in range(3):
        row = [0.0, 1.0, 0.5]
        row[axis] = math.nan
        assert box.contains([row]).tolist() == [False]
        with pytest.raises(ValidationError, match="outside design-space bounds"):
            CandidateSet(box, good + [row], (1,) * 3)


def test_eval_many_names_first_point_outside():
    m = make_model("linear-2f-no-intercept")
    pts = [[0.5, 0.5], [0.5, 1.5], [0.5, math.nan], [2.0, 0.0]]
    with pytest.raises(DomainError, match=r"point \[0\.5, 1\.5\] outside"):
        m.eval_many(pts)
    with pytest.raises(DomainError, match=r"point \[0\.5, nan\] outside"):
        m.eval_many(pts[2:])


def test_truncate():
    sp = DesignSpace(((0.0, math.inf),))
    cut = truncate(sp, 0, 10.0)
    assert cut.bounds == ((0.0, 10.0),)
    assert cut.truncated == (0,)
    assert sp.truncated == ()

    again = truncate(cut, 0, 20.0)  # already bounded: the bound and the record stay
    assert again.bounds == ((0.0, 10.0),)
    assert again.truncated == (0,)
    assert truncate(DesignSpace(((0.0, 1.0), (0.0, 1.0))), 1, 0.5).truncated == (1,)

    with pytest.raises(ValidationError):
        truncate(sp, 0, -1.0)


def test_default_candidates_truncates_exponential_sum():
    m = make_model("exponential-sum", a=[1.0, 1.0], **{"lambda": [0.5, 1.5]})
    cands = default_candidates(m, 0.01)
    assert cands.space.bounds[0][1] == pytest.approx(3.0 / 0.5)
    assert cands.space.truncated == (0,)


def test_point_outside_bounds():
    m = make_model("linear-2f-no-intercept")
    with pytest.raises(DomainError):
        eval_f(m, [2.0, 0.0])


@pytest.mark.parametrize(
    "family,params",
    [
        ("exponential-sum", {"a": [1.0], "lambda": [-1.0]}),
        ("exponential-sum", {"a": [0.0], "lambda": [1.0]}),
        ("exponential-sum", {"a": [1.0, 1.0], "lambda": [2.0, 1.0]}),
        ("exp-growth-2f", {"theta": [1.0, 0.5, 1.0]}),
        ("exp-product-2f", {"theta": [0.0, 1.0, 1.0]}),
        ("mixture-poly-exp", {"theta3": -1.0}),
        ("xexp-decay", {"rate": 0.0}),
        ("polynomial", {"degree": -1}),
    ],
)
def test_parameter_invariants(family, params):
    with pytest.raises(ValidationError):
        make_model(family, **params)


SAMPLE_MODELS = [
    make_model("polynomial", degree=3),
    make_model("weighted-polynomial", degree=2, efficiency={"kind": "exp", "rate": 0.5}),
    make_model("linear-2f-no-intercept"),
    make_model("interaction-2f"),
    make_model("exponential-sum", space=interval(0, 3), a=[1.0, -0.5], **{"lambda": [1.0, 2.0]}),
    make_model("exp-growth-2f", theta=[1.0, 1.0, 2.0]),
    make_model("exp-product-2f", theta=[1.0, 0.5, 0.5]),
    make_model("mixture-poly-exp", theta3=1.0),
    make_model("xexp-decay", rate=1.0),
    make_model("cubic-gap"),
]


@pytest.mark.parametrize("model", SAMPLE_MODELS, ids=lambda m: m.family)
def test_grid_evaluations_finite(model):
    grid = discretize(model.space, 0.05)
    F = model.eval_many(grid.points)
    assert np.all(np.isfinite(F))
    norms = (F**2).sum(axis=1)
    # only the pure-linear family can vanish (at the origin)
    if model.family != "linear-2f-no-intercept":
        assert np.all(norms > 0)


@pytest.mark.parametrize("model", SAMPLE_MODELS, ids=lambda m: m.family)
def test_linear_independence_on_random_points(model):
    rng = np.random.default_rng(7)
    grid = discretize(model.space, 0.01)
    idx = rng.choice(len(grid), size=model.k + 5, replace=False)
    F = model.eval_many(grid.points[idx])
    assert gram_rank(F) == model.k


def test_exponential_sum_norm_identity():
    a = np.array([1.0, -0.5])
    lam = np.array([1.0, 2.0])
    m = make_model("exponential-sum", space=interval(0, 3), a=list(a), **{"lambda": list(lam)})
    grid = discretize(m.space, 0.05)
    F = m.eval_many(grid.points)
    norms = (F**2).sum(axis=1)
    x = grid.points[:, 0]
    expected = sum(np.exp(-2 * l * x) * (1 + av**2 * x**2) for av, l in zip(a, lam))
    assert np.allclose(norms, expected, rtol=0, atol=1e-12)


def test_weighted_polynomial_reduces_to_polynomial():
    wp = make_model("weighted-polynomial", degree=3, efficiency={"kind": "one"})
    p = make_model("polynomial", degree=3)
    grid = discretize(p.space, 0.1)
    assert np.array_equal(wp.eval_many(grid.points), p.eval_many(grid.points))


def test_model_json_roundtrip(tmp_path):
    m = make_model("exponential-sum", a=[1.0], **{"lambda": [2.0]})
    obj = model_to_dict(m, steps=(0.05,))
    m2, steps = model_from_dict(obj)
    assert m2.family == m.family
    assert steps == (0.05,)
    assert not m2.space.is_bounded  # null upper bound survives the round trip


def test_features_is_read_only_eval_many():
    m = make_model("weighted-polynomial", degree=2, efficiency={"kind": "exp", "rate": 1.0})
    grid = discretize(m.space, 0.01)
    F = grid.features(m)
    assert np.array_equal(F, m.eval_many(grid.points))
    assert not F.flags.writeable
    with pytest.raises(ValueError):
        F[0, 0] = 1.0
    assert grid.features(m) is F


def test_features_fill_is_column_major_in_blocks(monkeypatch):
    rows = count_evaluations(monkeypatch, "interaction-2f")
    m = make_model("interaction-2f")
    grid = discretize(m.space, 0.005)  # 40,401 points: 4 full blocks and a partial one
    full, partial = divmod(len(grid), SWEEP_BLOCK)
    assert full >= 3 and partial
    F = grid.features(m)
    assert rows == [SWEEP_BLOCK] * full + [partial]
    assert F.flags.f_contiguous and not F.flags.writeable
    assert np.array_equal(F, m.eval_many(grid.points))


def test_features_reuse_follows_model_values(monkeypatch):
    rows = count_evaluations(monkeypatch, "polynomial")
    grid = discretize(interval(-1.0, 1.0), 0.1)
    m = make_model("polynomial", space=interval(-1.0, 1.0), degree=2)
    F = grid.features(m)
    assert rows == [21]
    # an equal-valued new spec hits
    assert grid.features(make_model("polynomial", space=interval(-1.0, 1.0), degree=2)) is F
    assert rows == [21]
    # other params, or another space holding the same grid, miss
    assert grid.features(make_model("polynomial", space=interval(-1.0, 1.0), degree=3)).shape == (21, 4)
    assert grid.features(make_model("polynomial", space=interval(-1.0, 2.0), degree=2)).shape == (21, 3)
    assert rows == [21, 21, 21]
    # one entry per grid: the last model evaluated takes the slot
    assert grid.features(m) is not F
    assert rows == [21] * 4


def test_features_rank_is_kept_with_the_matrix(monkeypatch):
    ranks = []

    def recorded(F):
        ranks.append(gram_rank(F))
        return ranks[-1]

    monkeypatch.setattr(models_module, "gram_rank", recorded)
    grid = discretize(interval(-1.0, 1.0), 0.1)
    m = make_model("polynomial", space=interval(-1.0, 1.0), degree=2)
    assert grid.features_rank(m) == 3
    solve(m, grid, Criterion(0.0))
    assert ranks == [3]
    # a refill with another model computes it again
    assert grid.features_rank(make_model("polynomial", space=interval(-1.0, 1.0), degree=3)) == 4
    assert ranks == [3, 4]
    # the degenerate-grid error takes the rank once
    few = discretize(interval(-1.0, 1.0), 1.0)
    with pytest.raises(DegenerateModelError, match="rank 3 < k=4"):
        solve(make_model("polynomial", space=interval(-1.0, 1.0), degree=3), few, Criterion(0.0))
    assert ranks == [3, 4, 3]


def test_features_miss_after_params_mutation(monkeypatch):
    rows = count_evaluations(monkeypatch, "polynomial")
    params = {"degree": 2}
    m = make_model("polynomial", space=interval(-1.0, 1.0), **params)
    grid = discretize(m.space, 0.25)
    assert grid.features(m).shape == (9, 3)
    # params are frozen, so a kept matrix cannot go stale in place
    with pytest.raises(TypeError):
        m.params["degree"] = 3
    # a model rebuilt with the new params misses the cache
    params["degree"] = 3
    m = make_model("polynomial", space=interval(-1.0, 1.0), **params)
    assert grid.features(m).shape == (9, 4)
    assert rows == [9, 9]


def test_features_of_conditional_models():
    m = make_model("interaction-2f")
    grid = discretize(m.space, 0.05)
    tmap = SliceMap("coordinate", axis=0)
    near, far = (conditional_model(m, tmap, t, np.empty((0, 2))) for t in (0.25, 0.75))
    F = grid.features(near)
    assert np.array_equal(F, near.eval_many(grid.points))  # bit for bit
    assert grid.features(near) is F
    # another line's model on the same grid takes its own matrix
    G = grid.features(far)
    assert G is not F and np.array_equal(G, far.eval_many(grid.points))
    assert not np.array_equal(F, G)


def test_product_axes_of_a_discretized_grid():
    grid = discretize(DesignSpace(((0.0, 1.0), (-1.0, 1.0), (2.0, 2.0))), 0.5)
    axes = grid.product_axes
    assert [a.tolist() for a in axes] == [[0.0, 0.5, 1.0], [-1.0, -0.5, 0.0, 0.5, 1.0], [2.0]]
    assert grid.product_axes is axes  # computed once


def test_product_axes_none_off_a_full_product_in_order():
    grid = discretize(DesignSpace(((0.0, 1.0), (0.0, 1.0))), 0.25)
    shuffled = np.random.default_rng(0).permutation(len(grid))
    for points in (grid.points[shuffled], grid.points[::-1], grid.points[:-1]):
        assert CandidateSet(grid.space, points, grid.steps).product_axes is None


def test_screen_keeps_the_extremes_of_affine_lines():
    # interaction-2f is affine along both axes: the corners are left
    m = make_model("interaction-2f")
    grid = discretize(m.space, 0.0025)
    kept = grid.screen(m)
    assert grid.points[kept].tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    assert grid.screen(m) is kept  # kept beside the regression matrix
    # the same grid, shuffled, is not screened
    order = np.random.default_rng(1).permutation(len(grid))
    assert CandidateSet(grid.space, grid.points[order], grid.steps).screen(m) is None


def test_screen_keeps_every_x1_on_mixture():
    # f = (1, x1, x1^3, -x2 exp(-x2)): rank 2 along x1, affine in
    # g = -x2 exp(-x2) along x2, whose extremes on [0, 2] are x2 = 0 and 1
    m = make_model("mixture-poly-exp", theta3=1.0)
    grid = discretize(m.space, 0.0025)
    pts = grid.points[grid.screen(m)]
    assert len(pts) == 1602
    assert np.array_equal(np.unique(pts[:, 1]), [0.0, 1.0])
    assert np.unique(pts[:, 0]).size == 801


def test_screen_leaves_exp_product_whole():
    m = make_model("exp-product-2f", theta=[1.0, 1.0, 1.0])
    assert discretize(m.space, 0.0025).screen(m) is None


def test_screen_on_one_factor_keeps_the_extremes_of_g():
    # f = (1, x exp(-r x)): g peaks at 1 / r
    m = make_model("xexp-decay", space=interval(0.0, 3.0), rate=2.0)
    grid = discretize(m.space, 0.01)
    assert grid.points[grid.screen(m), 0].tolist() == [0.0, 0.5]
    # degree 2 is not affine in any scalar
    quad = make_model("polynomial", space=interval(0.0, 3.0), degree=2)
    assert grid.screen(quad) is None


@pytest.mark.parametrize(
    "family, params",
    [
        ("interaction-2f", {}),
        ("exp-growth-2f", {"theta": [1.0, 1.0, 1.0]}),
        ("linear-2f-no-intercept", {}),
        ("mixture-poly-exp", {"theta3": 1.0}),
    ],
)
def test_moving_line_mass_to_its_extremes_raises_m(family, params):
    # the screen's argument: on a line where f = a + g b, mass moved from s to
    # the points of smallest and largest g, keeping its mean g, adds a
    # nonnegative multiple of b b' to M
    m = make_model(family, **params)
    grid = discretize(m.space, 0.05)
    F = grid.features(m)
    kept = grid.screen(m)
    axes = grid.product_axes
    rng = np.random.default_rng(0)
    tested = 0
    for _ in range(40):
        axis = int(rng.integers(2))
        fixed = rng.choice(axes[1 - axis])
        on_line = np.flatnonzero(grid.points[:, 1 - axis] == fixed)
        diffs = F[on_line] - F[on_line[0]]
        _, sv, vt = np.linalg.svd(diffs, full_matrices=False)
        if sv.size > 1 and sv[1] > 1e-9 * sv[0]:
            continue  # not affine in one scalar
        g = diffs @ vt[0]
        lo, hi = on_line[np.argmin(g)], on_line[np.argmax(g)]
        # the screen keeps no other point of the line
        assert set(np.intersect1d(kept, on_line)) <= {lo, hi}
        span = F[hi] - F[lo]
        t = np.clip((F[on_line] - F[lo]) @ span / (span @ span), 0.0, 1.0)
        support = rng.choice(len(grid), size=5, replace=False)
        w_line = rng.uniform(0.0, 1.0, on_line.size) * (rng.uniform(size=on_line.size) < 0.3)
        w_rest = rng.uniform(0.1, 1.0, support.size)
        M = F[on_line].T @ (w_line[:, None] * F[on_line]) + F[support].T @ (w_rest[:, None] * F[support])
        moved = (
            (w_line * (1 - t)).sum() * np.outer(F[lo], F[lo])
            + (w_line * t).sum() * np.outer(F[hi], F[hi])
            + F[support].T @ (w_rest[:, None] * F[support])
        )
        assert np.linalg.eigvalsh(moved - M).min() >= -1e-12
        tested += 1
    assert tested >= 10


def _is_product(points: np.ndarray) -> bool:
    # distinct points fill the product of their coordinates when they are as many
    return len(points) == math.prod(np.unique(points[:, j]).size for j in range(points.shape[1]))


def test_screen_keeps_a_product_set():
    # every axis keeps its own coordinates, so the kept set is their product
    grids = []
    for family, params, h in [
        ("interaction-2f", {}, 0.05),
        ("exp-growth-2f", {"theta": [1.0, 2.0, 3.0]}, 0.05),
        ("linear-2f-no-intercept", {}, 0.02),
        ("mixture-poly-exp", {"theta3": 1.0}, 0.05),
        ("xexp-decay", {"rate": 2.0}, 0.01),
    ]:
        m = make_model(family, **params)
        grid = discretize(m.space, h)
        grids.append((grid, grid.features(m)))
    cube = discretize(DesignSpace(((0.0, 1.0),) * 3), 0.1)
    x = cube.points
    F = np.column_stack([np.ones(len(cube)), x, x.prod(axis=1)])
    grids += [(cube, np.asfortranarray(F)), (cube, np.asfortranarray(np.column_stack([F, x[:, 1] ** 2])))]
    for grid, F in grids:
        screened = models_module._screen(F, grid.product_axes)
        assert screened is not None and _is_product(grid.points[screened[0]])
    # f = (1, (x1 - x2)^2) is affine along each line, but in a g that moves
    # with the other coordinate: no axis shares one g, so nothing is screened
    # (a per-line screen kept the diagonal and two corners, not a product)
    square = discretize(DesignSpace(((0.0, 1.0),) * 2), 0.1)
    x = square.points
    F = np.asfortranarray(np.column_stack([np.ones(len(square)), (x[:, 0] - x[:, 1]) ** 2]))
    assert models_module._screen(F, square.product_axes) is None


def test_screen_on_three_factors():
    # f = (1, x1, x2, x3, x1 x2 x3) is affine along every axis: the 8 corners
    # are left; with x2^2 added, x2 keeps all of its values
    grid = discretize(DesignSpace(((0.0, 1.0),) * 3), 0.1)
    x = grid.points
    F = np.asfortranarray(np.column_stack([np.ones(len(grid)), x, x.prod(axis=1)]))
    kept = models_module._screen(F, grid.product_axes)[0]
    assert x[kept].tolist() == [[a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    F2 = np.asfortranarray(np.column_stack([F, x[:, 1] ** 2]))
    kept2 = models_module._screen(F2, grid.product_axes)[0]
    assert len(kept2) == 2 * 11 * 2
    assert np.array_equal(np.unique(x[kept2, 1]), grid.product_axes[1])


def test_kept_max_bounds_the_grid_where_an_axis_is_affine_up_to_a_residual():
    # f = (1, x1, x2 + 1e-8 x1^2) on [-1, 1] x [-1, 0]: x2 is affine, and x1
    # is affine in g = x1 up to a residual near 1e-8, within SCREEN_RTOL, so
    # the 4 corners are kept and x1 carries a residual rho > 0
    grid = discretize(DesignSpace(((-1.0, 1.0), (-1.0, 0.0))), 0.05)
    x = grid.points
    columns = [np.ones(len(grid)), x[:, 0], x[:, 1] + 1e-8 * x[:, 0] ** 2]
    F = np.asfortranarray(np.column_stack(columns))
    kept, rho = models_module._screen(F, grid.product_axes)
    assert x[kept].tolist() == [[-1, -1], [-1, 0], [1, -1], [1, 0]]
    assert 1e-10 < rho[0] < 1e-7 and rho[1] < 1e-15
    rng = np.random.default_rng(5)
    above = 0
    for draw in range(60):
        A = rng.normal(size=(3, 3 - draw % 3))  # N of rank 3, 2 and 1
        if draw % 2:
            A[1] = 0.0  # N b = 0 for b = (0, 1, 0): d is flat in g, the residual decides
        N = A @ A.T
        m, i, bound = models_module.kept_max(F, (kept, rho), N)
        full = sweep(F, N)
        assert i in kept and m == full[i] == full[kept].max()
        assert bound >= full.max()
        above += full.max() > m  # without rho the bound would be m
    assert above > 0


@pytest.mark.parametrize(
    "family, params",
    [
        ("interaction-2f", {}),
        ("exp-growth-2f", {"theta": [1.0, 1.0, 1.0]}),
        ("linear-2f-no-intercept", {}),
        ("mixture-poly-exp", {"theta3": 1.0}),
    ],
)
def test_screen_residual_is_at_rounding_level_on_the_catalog(family, params):
    m = make_model(family, **params)
    grid = discretize(m.space, 0.02)
    F = grid.features(m)
    kept, rho = models_module._screen(F, grid.product_axes)
    assert np.array_equal(grid.screen(m), kept)
    assert max(rho) <= 1e-14 * np.abs(F).max()
    N = random_psd(np.random.default_rng(0), m.k)
    top, i, bound = models_module.kept_max(F, (kept, rho), N)
    assert bound >= sweep(F, N).max()
    # the grid checks on its own kept rows and residuals: their bound meets this tol
    assert grid.grid_max(m, N, bound - 1.0) == (None, i, top)


def test_kept_max_is_off_on_a_truncated_grid():
    # the truncation check reads the boundary rows, which the kept set may
    # lack: a tol the kept bound meets still sweeps every row
    m = make_model("xexp-decay", space=truncate(interval(0.0, 0.5), 0, 0.5), rate=1.0)
    cands = discretize(m.space, 0.01)
    assert cands.screen(m) is not None
    N = np.eye(m.k)
    sens, row, worst = cands.grid_max(m, N, 1e9)
    assert np.array_equal(sens, sweep(cands.features(m), N))
    assert row == int(np.argmax(sens)) and worst == sens.max()
    assert cands.tight_truncation(sens, 1e-5) == sens[-1]


class _Kron3:
    """f = (1, x1) (x) (1, x2) (x) (1, x3), k = 8: affine along every axis."""

    k = 8

    def eval_many(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        one = np.ones((len(x), 1))
        f = np.hstack([one, x[:, :1]])
        for j in (1, 2):
            g = np.hstack([one, x[:, j : j + 1]])
            f = (f[:, :, None] * g[:, None, :]).reshape(len(x), -1)
        return f


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize(
    "space, steps, model",
    [
        (interval(-1.0, 2.0), 0.0003, make_model("polynomial", space=interval(-1.0, 2.0), degree=3)),
        (DesignSpace(((-1.0, 1.0), (0.0, 2.0))), 0.01, make_model("mixture-poly-exp", theta3=1.0)),
        (DesignSpace(((0.0, 1.0), (-1.0, 1.0), (0.0, 0.5))), (0.05, 0.1, 0.02), _Kron3()),
    ],
    ids=["1-axis", "2-axis", "3-axis"],
)
def test_discretized_grid_equals_its_explicit_points(space, steps, model):
    # the grid from discretize holds its axes; the same rows given as points
    # (np.linspace per axis, meshgrid in order) give every result bit for bit
    grid = discretize(space, steps)
    step = np.broadcast_to(steps, space.dimension)
    axes = [np.linspace(lo, hi, int(math.floor((hi - lo) / s + 1e-9)) + 1)
            for (lo, hi), s in zip(space.bounds, step)]
    mesh = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    given = CandidateSet(space, mesh, grid.steps)
    n = len(given)
    assert len(grid) == n > SWEEP_BLOCK
    assert _bits(grid.points) == _bits(mesh) and not grid.points.flags.writeable
    assert [_bits(a) for a in grid.product_axes] == [_bits(a) for a in given.product_axes]
    idx = np.random.default_rng(2).integers(n, size=50)
    for rows in (idx, [0, n - 1], slice(0, SWEEP_BLOCK), slice(SWEEP_BLOCK, None), slice(5, 50, 7)):
        assert _bits(grid.rows(rows)) == _bits(given.rows(rows))
    assert _bits(grid.features(model)) == _bits(given.features(model))
    assert grid.features_rank(model) == given.features_rank(model) == model.k
    kept = grid.screen(model)
    if space.dimension == 1:
        assert kept is None and given.screen(model) is None  # a cubic is affine in no g
    else:
        assert _bits(kept) == _bits(given.screen(model))
        assert grid._features[2]["screen"][1] == given._features[2]["screen"][1]  # residuals
        assert len(kept) == (8 if space.dimension == 3 else 2 * grid.product_axes[0].size)


def test_grid_rows_form_no_more_than_asked(monkeypatch):
    grid = discretize(DesignSpace(((0.0, 1.0), (0.0, 2.0))), 0.5)
    monkeypatch.setattr(models_module, "_mesh", _no_mesh)
    assert grid.rows([7, 0]).tolist() == [[0.5, 1.0], [0.0, 0.0]]
    assert grid.rows(slice(13, None)).tolist() == [[1.0, 1.5], [1.0, 2.0]]
    assert len(grid) == 15
    with pytest.raises(AttributeError, match="immutable"):
        grid.steps = (1.0, 1.0)


def test_grid_row_runs_match_their_axis_indices():
    # a run of rows is formed from tiled and repeated axis coordinates; any
    # other rows from their axis indices: both equal the rows of the points
    rng = np.random.default_rng(9)
    for _ in range(300):
        q = int(rng.integers(1, 5))
        space = DesignSpace(tuple((0.0, float(rng.integers(1, 4))) for _ in range(q)))
        grid = discretize(space, tuple(float(rng.choice([0.25, 0.5, 1.0])) for _ in range(q)))
        n = len(grid)
        start, stop = sorted(int(i) for i in rng.integers(0, n + 1, size=2))
        stop += start == stop and stop < n
        run = grid.rows(slice(start, stop))
        assert _bits(run) == _bits(grid.rows(np.arange(start, stop))) == _bits(grid.points[start:stop])


def _no_mesh(axes):
    raise AssertionError("formed the grid's points")


def test_model_params_are_frozen_and_keyed_once():
    efficiency = {"kind": "exp", "rate": 1.0}
    a = [1.0, 2.0]
    m = make_model("weighted-polynomial", degree=2, efficiency=efficiency)
    s = make_model("exponential-sum", a=a, **{"lambda": np.array([1.0, 3.0])})
    efficiency["rate"], a[0] = 5.0, 7.0  # the caller's values are not the model's
    assert m.params["efficiency"]["rate"] == 1.0 and s.params["a"] == (1.0, 2.0)
    for container, key in ((m.params, "degree"), (m.params["efficiency"], "kind"), (s.params["a"], 0)):
        with pytest.raises(TypeError):
            container[key] = 3
    # the file form holds plain dicts and lists
    assert model_to_dict(m)["params"] == {"degree": 2, "efficiency": {"kind": "exp", "rate": 1.0}}
    assert model_to_dict(s)["params"] == {"a": [1.0, 2.0], "lambda": [1.0, 3.0]}
    # the key is the values': a twin, a pickled copy and a replaced copy share it
    twin = make_model("weighted-polynomial", degree=2, efficiency={"kind": "exp", "rate": 1.0})
    assert twin._key == m._key == pickle.loads(pickle.dumps(m))._key
    assert dataclasses.replace(m)._key == m._key
    assert dataclasses.replace(m, space=interval(0.0, 2.0))._key != m._key
    grid = discretize(m.space, 0.1)
    assert grid.features(twin) is grid.features(m)


def _axis_keep_before_the_buffer(cols: list) -> tuple[np.ndarray, float]:
    """``_axis_keep`` as it was when each block stacked its k differences."""
    outer, m, inner = cols[0].shape
    spread = np.array([np.ptp(c, axis=1) for c in cols])
    c, a0, b0 = np.unravel_index(spread.argmax(), spread.shape)
    u = cols[c][a0, :, b0] - cols[c][a0, 0, b0]
    norm = np.linalg.norm(u)
    if norm == 0.0:
        return np.arange(1), 0.0
    u /= norm
    db = min(inner, max(1, SWEEP_BLOCK // m))
    da = max(1, SWEEP_BLOCK // (m * db))
    rho2 = 0.0
    for a in range(0, outer, da):
        for b in range(0, inner, db):
            D = np.stack([c[a : a + da, :, b : b + db] - c[a : a + da, :1, b : b + db] for c in cols])
            along = np.einsum("ciml,m->cil", D, u)
            D -= along[:, :, None, :] * u[:, None]
            r2 = np.einsum("ciml,ciml->iml", D, D)  # squared residual of each row
            line = r2.sum(axis=1)
            if np.any(line > models_module.SCREEN_RTOL**2 * (line + np.einsum("cil,cil->il", along, along))):
                return np.arange(m), 0.0
            rho2 = max(rho2, float(r2.max()))
    return np.unique([u.argmin(), u.argmax()]), math.sqrt(rho2)


def _catalog_2f(name, **params):
    m = make_model(name, **params)
    return m, m.space


@pytest.mark.parametrize(
    "model, space, step",
    [
        (*_catalog_2f("interaction-2f"), 0.01),
        (*_catalog_2f("linear-2f-no-intercept"), 0.01),
        (*_catalog_2f("exp-growth-2f", theta=[1.0, 1.0, 1.0]), 0.01),
        (*_catalog_2f("exp-product-2f", theta=[1.0, 1.0, 1.0]), 0.01),
        (*_catalog_2f("mixture-poly-exp", theta3=1.0), 0.005),
        (NearlyAffine(), DesignSpace(((-1.0, 1.0), (0.0, 1.0))), 0.01),
        (_Kron3(), DesignSpace(((0.0, 1.0),) * 3), 0.02),
    ],
    ids=["interaction", "line2f", "growth", "product", "mixture", "nearly-affine", "kron3"],
)
def test_axis_keep_matches_the_stacked_blocks(model, space, step):
    # the kept coordinates and the residual rho of every axis, bit for bit
    grid = discretize(space, step)
    F = grid.features(model)
    n, k = F.shape
    sizes = [a.size for a in grid.product_axes]
    for j, m in enumerate(sizes):
        outer = math.prod(sizes[:j])
        cols = [F[:, c].reshape(outer, m, n // (outer * m)) for c in range(k)]
        keep, rho = models_module._axis_keep(cols)
        want_keep, want_rho = _axis_keep_before_the_buffer(cols)
        assert np.array_equal(keep, want_keep) and rho == want_rho
