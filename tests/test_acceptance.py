"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import time

import numpy as np
import pytest

from optdesign import (
    Criterion,
    SliceMap,
    certify,
    design,
    discretize,
    dominates,
    find_dominator,
    garza_report,
    info_matrix,
    interval,
    make_model,
    mix_designs,
    polytope_report,
    recompose_check,
    rescale_invariance_check,
    solve,
)
from optdesign.criteria import NEG_INF, phi, polar

from conftest import random_psd, reference_dominates


def _report(number, name):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"\n[acceptance {number}] {name}: {status}")
            return False

    return _Ctx()


def weight_law(p):
    return 1.0 - 4.0 / (3.0 + 3.0 ** (1.0 / (1.0 - p)))


@pytest.fixture(scope="module")
def line_model():
    return make_model("linear-2f-no-intercept")


@pytest.fixture(scope="module")
def line_grid(line_model):
    return discretize(line_model.space, 0.01)  # 101 x 101


@pytest.fixture(scope="module")
def line_solutions(line_model, line_grid):
    reports = {}
    for p in (0.5, 0.0, -1.0, -2.0, NEG_INF):
        t0 = time.perf_counter()
        reports[p] = solve(line_model, line_grid, Criterion(p))
        assert time.perf_counter() - t0 < 5.0, f"solve for p={p} too slow"
    return reports


def test_criterion_1_weight_law(line_solutions):
    with _report(1, "two-factor weight law across exponents"):
        for p in (0.5, 0.0, -1.0, -2.0):
            rep = line_solutions[p]
            assert rep.converged
            atoms = dict((tuple(x), w) for x, w in rep.design.atoms())
            assert set(atoms) == {(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)}
            w_corner = weight_law(p)
            assert atoms[(1.0, 1.0)] == pytest.approx(w_corner, abs=1e-4)
            assert atoms[(1.0, 0.0)] == pytest.approx((1 - w_corner) / 2, abs=1e-4)
            assert atoms[(0.0, 1.0)] == pytest.approx((1 - w_corner) / 2, abs=1e-4)
        rep = line_solutions[NEG_INF]
        assert rep.converged
        atoms = dict((tuple(x), w) for x, w in rep.design.atoms())
        assert set(atoms) == {(1.0, 0.0), (0.0, 1.0)}
        for w in atoms.values():
            assert w == pytest.approx(0.5, abs=1e-4)


def test_criterion_2_information_matrices(line_model, line_solutions):
    with _report(2, "optimal information matrices"):
        M_d = info_matrix(line_solutions[0.0].design, line_model)
        assert np.abs(M_d - np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])).max() <= 1e-4
        M_e = info_matrix(line_solutions[NEG_INF].design, line_model)
        assert np.abs(M_e - np.eye(2) / 2).max() <= 1e-4


def test_criterion_3_duality_certification(line_model, line_grid, line_solutions):
    with _report(3, "duality certification of every solve"):
        for p, rep in line_solutions.items():
            check = certify(rep.design, line_model, line_grid, Criterion(p), tol=1e-5)
            tr, prod = check.duality_products
            assert abs(tr - 1.0) <= 1e-5
            assert abs(prod - 1.0) <= 1e-5
            assert check.max_violation <= 1e-5
            assert np.abs(check.support_equalities - 1.0).max() <= 1e-5
            assert check.optimal


def test_criterion_4_hyperplane_geometry(line_model, line_grid, line_solutions):
    with _report(4, "supporting-hyperplane geometry (determinant case)"):
        rep = line_solutions[0.0]
        check = certify(rep.design, line_model, line_grid, Criterion(0.0))
        geom = polytope_report(check.certificate, rep.design, line_model, line_grid)
        assert len(geom.hyperplanes) == 2
        planes = {}
        for c, pts in geom.hyperplanes:
            key = min(((0.5, 0.5), (0.0, 2.0)), key=lambda t: np.abs(np.array(t) - c).max())
            assert np.abs(np.array(key) - c).max() <= 1e-4
            planes[key] = sorted(pts)
        assert planes[(0.5, 0.5)] == [(0.0, 1.0), (1.0, 0.0)]
        assert planes[(0.0, 2.0)] == [(1.0, 1.0)]
        for pt in ((1.0, 0.0), (0.0, 1.0)):
            f = line_model.eval_many([pt])[0]
            assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_criterion_5_saturation_detection(degree):
    with _report(5, f"norm-injectivity saturation, degree {degree}"):
        model = make_model("weighted-polynomial", degree=degree)
        grid = discretize(model.space, 0.001)  # 1001 points
        assert garza_report(model, grid, norm_tol=1e-7).injective
        t0 = time.perf_counter()
        rep = solve(model, grid, Criterion(0.0))
        assert time.perf_counter() - t0 < 10.0
        assert rep.converged
        assert rep.design.m == degree + 1


def _draw_admissible_theta(rng, L):
    lam = np.sort(rng.uniform(0.5, 2.5, size=L))
    while np.any(np.diff(lam) < 0.3):
        lam = np.sort(rng.uniform(0.5, 2.5, size=L))
    signs = rng.choice([-1.0, 1.0], size=L)
    a = signs * rng.uniform(0.1, 2.0 * lam)
    return list(a), list(lam)


def _solve_exponential_sum(a, lam, step=0.01):
    """Solve on the default truncation, enlarging the box when the slack
    check fails (the solver's advice when the support reaches the boundary)."""
    from optdesign import TruncationSlackError, truncate

    base = make_model("exponential-sum", a=a, **{"lambda": lam})
    for factor in (1.0, 2.0, 4.0):
        space = truncate(base.space, 0, factor * 3.0 / min(lam))
        model = make_model("exponential-sum", space=space, a=a, **{"lambda": lam})
        cands = discretize(space, step)
        try:
            return model, cands, solve(model, cands, Criterion(0.0))
        except TruncationSlackError:
            continue
    raise AssertionError(f"no slack truncation found for a={a}, lambda={lam}")


@pytest.mark.parametrize("L", [1, 2])
def test_criterion_6_exponential_sum_saturation(L):
    with _report(6, f"exponential-sum saturation and rescale invariance, L={L}"):
        rng = np.random.default_rng(2024 + L)
        for trial in range(5):
            a, lam = _draw_admissible_theta(rng, L)
            model, cands, rep = _solve_exponential_sum(a, lam)
            assert rep.converged, (a, lam)
            check = certify(rep.design, model, cands, Criterion(0.0), tol=2e-5)
            assert check.optimal, (a, lam)
            assert rep.design.m == 2 * L, (a, lam, rep.design.m)
            for c in (0.5, 2.0):
                assert rescale_invariance_check(a, lam, c, cands), (a, lam, c)


def test_criterion_7_growth_model_quarter_masses():
    with _report(7, "two-factor growth model: quarter masses at the class points"):
        model = make_model("exp-growth-2f", theta=[1.0, 1.0, 1.0])
        grid = discretize(model.space, 0.01)
        rep = solve(model, grid, Criterion(0.0))
        assert rep.converged
        check = certify(rep.design, model, grid, Criterion(0.0), tol=2e-5)
        assert check.optimal
        atoms = dict((tuple(x), w) for x, w in rep.design.atoms())
        assert set(atoms) == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
        for w in atoms.values():
            assert w == pytest.approx(0.25, abs=1e-3)


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
]


def test_criterion_8_recomposition_identity():
    with _report(8, "slice recomposition identity"):
        rng = np.random.default_rng(88)
        t0 = time.perf_counter()
        for family, params, tmap in SUPPORTED_PAIRS:
            model = make_model(family, **params)
            grid = discretize(model.space, 0.05)
            for _ in range(50):
                m = int(rng.integers(2, 9))
                idx = rng.choice(len(grid), size=m, replace=False)
                d = design(grid.points[idx], rng.uniform(0.05, 1.0, m), normalize=True)
                assert recompose_check(d, tmap, model) <= 1e-10
        assert time.perf_counter() - t0 < 2.0


def test_criterion_9_admissibility_oracle_agreement():
    with _report(9, "dominator search agrees with the admissible class"):
        model = make_model("xexp-decay", rate=1.0, space=interval(0.0, 3.0))
        grid = discretize(model.space, 0.05)
        step = grid.max_step
        rng = np.random.default_rng(42)
        for _ in range(20):
            idx = rng.choice(len(grid), size=3, replace=False)
            d1 = design(grid.points[idx], rng.uniform(0.05, 1.0, 3), normalize=True)
            verdict = find_dominator(d1, grid, model)
            assert not verdict.admissible and not verdict.inconclusive
            assert verdict.dominator is not None
            for x, _ in verdict.dominator.atoms():
                assert min(abs(x[0]), abs(x[0] - 1.0)) <= step + 1e-9
            assert reference_dominates(verdict.dominator, d1, model)
        two_point = design([[0.0], [1.0]], [0.5, 0.5])
        assert find_dominator(two_point, grid, model).admissible


def test_criterion_10_mixture_structure():
    with _report(10, "mixture model support structure"):
        model = make_model("mixture-poly-exp", theta3=1.0)
        grid = discretize(model.space, 0.01)
        step = grid.max_step
        rep = solve(model, grid, Criterion(0.0))
        assert rep.converged
        check = certify(rep.design, model, grid, Criterion(0.0), tol=2e-5)
        assert check.optimal
        assert rep.design.m == 8
        x1 = np.sort(np.unique(np.round(rep.design.points[:, 0], 6)))
        x2 = np.sort(np.unique(np.round(rep.design.points[:, 1], 6)))
        assert len(x1) == 4 and len(x2) == 2
        # second factor sits on {0, x2*} with x2* = min(1/theta3, 2) = 1
        assert abs(x2[0] - 0.0) <= 2 * step
        assert abs(x2[1] - 1.0) <= 2 * step
        # first factor: the ends plus a symmetric interior pair
        assert abs(x1[0] + 1.0) <= 2 * step and abs(x1[-1] - 1.0) <= 2 * step
        u_neg, u_pos = x1[1], x1[2]
        assert abs(u_neg + u_pos) <= 2 * step  # u* = -v*
        assert 0.0 < u_pos < 1.0
        # full product form: every (x1, x2) combination carries an atom
        combos = {(round(p[0], 6), round(p[1], 6)) for p in rep.design.points}
        assert combos == {(a, b) for a in x1 for b in x2}


def test_criterion_11_property_suites(line_model):
    with _report(11, "seeded property suites"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(11)
        exponents = (0.0, -1.0, NEG_INF, 0.5, -2.0, 1.0)

        # criteria: homogeneity and isotonicity
        for _ in range(100):
            M = random_psd(rng, 3, jitter=0.05)
            c = rng.uniform(0.1, 10.0)
            L = rng.normal(size=(3, 3)) * 0.5
            for p in exponents:
                crit = Criterion(p)
                assert phi(crit, c * M) == pytest.approx(c * phi(crit, M), rel=1e-10)
                assert phi(crit, M + L @ L.T) >= phi(crit, M) - 1e-10

        # criteria: polar consistency against the definitional infimum
        for p in (0.0, -1.0, NEG_INF, -2.0):
            crit = Criterion(p, 3)
            N = random_psd(rng, 3, jitter=0.1)
            pol = polar(crit, N)
            vals, vecs = np.linalg.eigh(N)
            q = crit.conjugate
            if q == NEG_INF:
                minimizer = np.outer(vecs[:, 0], vecs[:, 0]) + 1e-12 * np.eye(3)
            else:
                minimizer = (vecs * vals ** (q - 1.0)) @ vecs.T
            probes = [random_psd(rng, 3, jitter=0.05) for _ in range(200)] + [minimizer]
            ratios = [float(np.trace(C @ N)) / phi(crit, C) for C in probes]
            assert min(ratios) >= pol - 1e-8
            assert min(ratios) == pytest.approx(pol, abs=1e-6)

        # design core: linearity of the information matrix
        for _ in range(100):
            model = make_model("interaction-2f")
            d1 = design(rng.uniform(size=(3, 2)), rng.uniform(0.05, 1, 3), normalize=True)
            d2 = design(rng.uniform(size=(4, 2)), rng.uniform(0.05, 1, 4), normalize=True)
            alpha = rng.uniform()
            lhs = info_matrix(mix_designs(d1, d2, alpha), model)
            rhs = alpha * info_matrix(d1, model) + (1 - alpha) * info_matrix(d2, model)
            assert np.abs(lhs - rhs).max() <= 1e-12

        # dominates: strict partial order along nested scaling chains
        from optdesign import DesignSpace

        big = make_model("linear-2f-no-intercept", space=DesignSpace(((0, 3), (0, 3))))
        for _ in range(50):
            s = np.sort(rng.uniform(0.5, 2.9, size=3))
            if s[1] - s[0] < 1e-3 or s[2] - s[1] < 1e-3:
                continue
            chain = [design([[v, 0.0], [0.0, v]]) for v in s]
            assert dominates(chain[1], chain[0], big)
            assert dominates(chain[2], chain[1], big)
            assert dominates(chain[2], chain[0], big)
            for d in chain:
                assert not dominates(d, d, big)

        assert time.perf_counter() - t0 < 60.0
