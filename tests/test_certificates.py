import tracemalloc
import warnings

import numpy as np
import pytest

import optdesign.certificates as certificates_module
import optdesign.models as models_module
import optdesign.solver as solver_module

from optdesign import (
    CandidateSet,
    Criterion,
    DesignSpace,
    InconsistencyError,
    ValidationError,
    build_certificate,
    certify,
    default_candidates,
    design,
    discretize,
    exp_saturation_check,
    garza_report,
    interval,
    make_model,
    parse_criterion,
    polytope_report,
    rescale_invariance_check,
    solve,
    truncate,
)
from optdesign.certificates import _e_eigenspace_minimax
from optdesign.criteria import NEG_INF, phi, polar, psd_eig
from optdesign.designs import SWEEP_BLOCK, _top_rows, info_matrix, sweep

from conftest import NearlyAffine, count_evaluations, random_psd

M21 = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])


def test_certificate_d(line2f, line2f_grid):
    cert = build_certificate(Criterion(0.0, 2), M21, line2f, line2f_grid)
    assert np.allclose(cert.N, [[1.0, -0.5], [-0.5, 1.0]], atol=1e-12)
    assert np.trace(M21 @ cert.N) == pytest.approx(1.0)
    # eigenvalues are reported in descending order
    assert cert.eigenvalues[0] >= cert.eigenvalues[-1]


def test_certificate_decomposes_n_on_first_read(monkeypatch):
    # Z and the eigenvalues are one eigh of N, made when first read; they must
    # be the bits an eager decomposition gives, and a decomposition that is
    # not orthogonal or does not recompose N still raises, on that first read
    rng = np.random.default_rng(5)
    eigh = np.linalg.eigh
    for s in (2, 4, 6):
        M = random_psd(rng, s, jitter=0.1)
        for p in (0.0, -1.0, 0.5):
            cert = build_certificate(Criterion(p, s), M, None, None)
            vals, vecs = eigh(cert.N)
            order = np.argsort(vals)[::-1]
            assert np.array_equal(cert.Z, vecs[:, order])
            assert np.array_equal(cert.eigenvalues, np.clip(vals[order], 0.0, None))
            assert not cert.Z.flags.writeable and not cert.eigenvalues.flags.writeable
    for corrupt, message in [
        (lambda vals, vecs: (vals, 2.0 * vecs), "not orthogonal"),
        (lambda vals, vecs: (vals + 1.0, vecs), "does not recompose"),
    ]:
        cert = build_certificate(Criterion(0.0, s), M, None, None)
        monkeypatch.setattr(np.linalg, "eigh", lambda a, corrupt=corrupt: corrupt(*eigh(a)))
        with pytest.raises(ValidationError, match=message):
            cert.Z
        monkeypatch.setattr(np.linalg, "eigh", eigh)


def test_solve_decomposes_no_certificate_until_z_is_read(monkeypatch):
    # the outer loop reads only N of its certificates: the one eigh of an N
    # in a solve is the verdict's polar(N) of the reported certificate
    import optdesign.solver as solver_module

    certs, inputs = [], []
    build, eigh = solver_module.build_certificate, np.linalg.eigh

    def built(*args, **kwargs):
        certs.append(build(*args, **kwargs))
        return certs[-1]

    def decomposed(a, *args, **kwargs):
        inputs.append(np.array(a))
        return eigh(a, *args, **kwargs)

    def decompositions(N):
        return sum(x.shape == N.shape and np.array_equal(x, N) for x in inputs)

    monkeypatch.setattr(solver_module, "build_certificate", built)
    monkeypatch.setattr(np.linalg, "eigh", decomposed)
    m = make_model("polynomial", degree=3, space=interval(-1.0, 1.0))
    rep = solve(m, discretize(m.space, 0.01), parse_criterion("p:0.5", m.k))
    assert rep.converged and len(certs) > 2
    assert [decompositions(c.N) for c in certs] == [int(c is rep.certificate) for c in certs]
    rep.certificate.Z
    assert decompositions(rep.certificate.N) == 2


def test_certificate_identity_matrix(line2f, line2f_grid):
    cert = build_certificate(Criterion(0.0, 2), np.eye(2), line2f, line2f_grid)
    assert np.allclose(cert.N, np.eye(2) / 2)


def test_certificate_e_multiplicity(line2f, line2f_grid):
    M = np.eye(2) / 2
    cert = build_certificate(Criterion(NEG_INF, 2), M, line2f, line2f_grid)
    N = cert.N
    assert np.trace(N) == pytest.approx(2.0, abs=1e-9)
    assert np.trace(M @ N) == pytest.approx(1.0, abs=1e-9)
    F = line2f.eval_many(line2f_grid.points)
    sens = np.einsum("ij,jk,ik->i", F, N, F)
    assert sens.max() <= 1.0 + 1e-9


def _full_row_minimax(H):
    """Optimum of the E-minimax LP with every candidate row and no definiteness cuts."""
    from scipy.optimize import linprog

    n, r = H.shape
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    nv = r + len(pairs) + 1
    A = np.zeros((n, nv))
    A[:, :r] = H**2
    for idx, (i, j) in enumerate(pairs):
        A[:, r + idx] = 2.0 * H[:, i] * H[:, j]
    A[:, -1] = -1.0
    A_eq = np.zeros((1, nv))
    A_eq[0, :r] = 1.0
    c = np.zeros(nv)
    c[-1] = 1.0
    res = linprog(
        c, A_ub=A, b_ub=np.zeros(n), A_eq=A_eq, b_eq=[1.0],
        bounds=[(0.0, 1.0)] * r + [(-0.5, 0.5)] * len(pairs) + [(0.0, None)], method="highs",
    )
    assert res.success
    return res.fun


@pytest.mark.parametrize(
    "family, bounds, step, M",
    [
        # r = 2: the smallest eigenvalue of I/2 is double
        ("linear-2f-no-intercept", ((0.0, 1.0), (0.0, 1.0)), 0.0025, np.eye(2) / 2),
        # r = 4: the 2x2 factorial on [-1, 1]^2 has M = I for the interaction model
        ("interaction-2f", ((-1.0, 1.0), (-1.0, 1.0)), 0.01, np.eye(4)),
    ],
    ids=["line2f-r2", "interaction-r4"],
)
def test_e_minimax_row_generation_matches_full_lp(monkeypatch, family, bounds, step, M):
    import scipy.optimize

    m = make_model(family, space=DesignSpace(bounds))
    cands = discretize(m.space, step)
    H = m.eval_many(cands.points) @ psd_eig(M)[1]
    full = _full_row_minimax(H)

    # the minimax is the dual of a column-generated LP: each candidate row it
    # reads is one LP column
    widths = []
    linprog = scipy.optimize.linprog

    def recorded(*args, **kwargs):
        widths.append(kwargs["A_eq"].shape[1])
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", recorded)
    E = _e_eigenspace_minimax(H)
    worst = float(np.einsum("ij,jk,ik->i", H, E, H).max())
    assert worst == pytest.approx(full, abs=1e-9)
    assert widths and max(widths) < 0.01 * len(cands)


def test_certificate_rejects_singular(line2f, line2f_grid):
    with pytest.raises(ValidationError):
        build_certificate(Criterion(0.0, 2), np.diag([1.0, 0.0]), line2f, line2f_grid)


def test_certify_optimal_design(line2f, line2f_grid, design_21d):
    rep = certify(design_21d, line2f, line2f_grid, Criterion(0.0))
    assert rep.optimal
    assert np.allclose(rep.support_equalities, 1.0, atol=1e-10)
    tr, prod = rep.duality_products
    assert tr == pytest.approx(1.0, abs=1e-12)
    assert prod == pytest.approx(1.0, abs=1e-12)


def test_certify_perturbed_design(line2f, line2f_grid):
    d = design([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [0.5, 0.25, 0.25])
    rep = certify(d, line2f, line2f_grid, Criterion(0.0))
    assert not rep.optimal
    assert rep.max_violation > 0.1
    assert rep.violating_point is not None


def test_certify_uniform_grid_design(line2f):
    grid = discretize(line2f.space, 0.25)
    d = design(grid.points)
    rep = certify(d, line2f, grid, Criterion(0.0))
    assert not rep.optimal
    # sensitivity peaks at an outer corner of the square
    assert tuple(rep.violating_point) in {(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)}


def test_polytope_d(line2f, line2f_grid, design_21d):
    check = certify(design_21d, line2f, line2f_grid, Criterion(0.0))
    geom = polytope_report(check.certificate, design_21d, line2f, line2f_grid)
    planes = {tuple(np.round(c, 6)): sorted(pts) for c, pts in geom.hyperplanes}
    assert len(planes) == 2
    assert (0.5, 0.5) in planes and (0.0, 2.0) in planes
    assert planes[(0.5, 0.5)] == [(0.0, 1.0), (1.0, 0.0)]
    assert planes[(0.0, 2.0)] == [(1.0, 1.0)]


def test_polytope_e(line2f, line2f_grid):
    d = design([[1.0, 0.0], [0.0, 1.0]])
    check = certify(d, line2f, line2f_grid, Criterion(NEG_INF))
    assert check.optimal
    geom = polytope_report(check.certificate, d, line2f, line2f_grid)
    assert len(geom.hyperplanes) == 1
    c, pts = geom.hyperplanes[0]
    assert np.allclose(c, [0.5, 0.5], atol=1e-6)
    assert len(pts) == 2
    assert len(geom.length_groups) == 1  # both support vectors have length one


def test_polytope_scalar_model():
    m = make_model("weighted-polynomial", degree=0, efficiency={"kind": "affine", "slope": 1.0})
    grid = discretize(m.space, 0.01)
    rep = solve(m, grid, parse_criterion("D"))
    check = certify(rep.design, m, grid, Criterion(0.0), tol=2e-5)
    assert check.optimal
    geom = polytope_report(check.certificate, rep.design, m, grid)
    assert len(geom.hyperplanes) == 1
    c, _ = geom.hyperplanes[0]
    assert c.shape == (1,) and c[0] == pytest.approx(2.0, abs=1e-6)


def test_polytope_rejects_inactive_atom(line2f, line2f_grid, design_21d):
    check = certify(design_21d, line2f, line2f_grid, Criterion(0.0))
    bad = design([[1.0, 1.0], [0.5, 0.5]], [0.5, 0.5])
    with pytest.raises(InconsistencyError):
        polytope_report(check.certificate, bad, line2f, line2f_grid)


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_garza_weighted_polynomial(degree):
    m = make_model("weighted-polynomial", degree=degree)
    grid = discretize(m.space, 0.001)
    rep = garza_report(m, grid, norm_tol=1e-7)
    assert rep.injective
    assert rep.saturation_bound == degree + 1
    assert "increasing" in rep.monotone_axis_note


def test_garza_exponential_sum_decreasing():
    m = make_model(
        "exponential-sum", space=interval(0, 3), a=[1.0, -1.0], **{"lambda": [1.0, 2.0]}
    )
    ok, margins = exp_saturation_check([1.0, -1.0], [1.0, 2.0])
    assert ok and np.allclose(margins, [0.5, 1.5])
    rep = garza_report(m, discretize(m.space, 0.01), norm_tol=1e-9)
    assert rep.injective
    assert rep.saturation_bound == 4
    assert "decreasing" in rep.monotone_axis_note


def test_garza_symmetric_norm_buckets():
    m = make_model("cubic-gap")
    grid = discretize(m.space, 0.01)
    rep = garza_report(m, grid, norm_tol=1e-9)
    assert not rep.injective
    assert rep.max_equal_group_size == 2  # x and -x share a length
    assert rep.saturation_bound == 6


def test_garza_rejects_negative_norm_tol():
    # with norm_tol = -1 every gap exceeds the tolerance, so the pairs x, -x of
    # equal norm once read as an injective norm map with bound 3
    m = make_model("polynomial", degree=2, space=interval(-1.0, 1.0))
    grid = discretize(m.space, 0.5)
    assert grid.points.ravel().tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
    rep = garza_report(m, grid)
    assert not rep.injective and rep.saturation_bound == 6
    for bad in (-1.0, float("nan")):  # NaN once put every point in one bucket
        with pytest.raises(ValidationError):
            garza_report(m, grid, norm_tol=bad)


def test_certify_rejects_negative_tol():
    # a negative tolerance once made certify reject this D-optimal design
    m = make_model("polynomial", degree=2, space=interval(-1.0, 1.0))
    grid = discretize(m.space, 0.5)
    d = design([[-1.0], [0.0], [1.0]])
    assert certify(d, m, grid, Criterion(0.0)).optimal
    for bad in (-1e-5, float("nan")):  # NaN once gave optimal=False with no violating point
        with pytest.raises(ValidationError):
            certify(d, m, grid, Criterion(0.0), tol=bad)


@pytest.mark.parametrize("norm_tol", [1e-9, 1e-4, 1e-3, 5e-3])
def test_garza_buckets_chain_like_a_loop(norm_tol):
    # reference: walk the sorted norms, starting a bucket after every gap > norm_tol
    m = make_model("polynomial", degree=1)
    grid = discretize(m.space, 0.01)
    vals = np.sort((m.eval_many(grid.points) ** 2).sum(axis=1))
    sizes, current = [], 1
    for gap in np.diff(vals):
        if gap > norm_tol:
            sizes.append(current)
            current = 1
        else:
            current += 1
    sizes.append(current)
    assert garza_report(m, grid, norm_tol=norm_tol).max_equal_group_size == max(sizes)


def _garza_fields(rep):
    return (
        rep.norm_values.tolist(), rep.max_equal_group_size, rep.saturation_bound,
        rep.injective, rep.monotone_axis_note,
    )


def test_garza_cached_per_tolerance_equals_fresh_grid():
    # on this grid the two tolerances give different largest buckets
    m = make_model("polynomial", degree=1)
    grid = discretize(m.space, 1e-4)
    reports = [garza_report(m, grid, norm_tol=t) for t in (1e-7, 1e-9, 1e-7)]
    assert [r.max_equal_group_size for r in reports] == [6, 1, 6]
    for rep, tol in zip(reports, (1e-7, 1e-9, 1e-7)):
        fresh = garza_report(m, discretize(m.space, 1e-4), norm_tol=tol)
        assert _garza_fields(rep) == _garza_fields(fresh)


def test_garza_cache_misses_after_params_mutation():
    m = make_model("exp-growth-2f", theta=[1.0, 1.0, 1.0])
    grid = discretize(m.space, 0.05)
    before = garza_report(m, grid)
    assert before.max_equal_group_size == 2
    # params are frozen, so a cached bucket cannot go stale in place
    with pytest.raises(TypeError):
        m.params["theta"][1] = 2.0
    with pytest.raises(TypeError):
        m.params["theta"] = [1.0, 2.0, 1.0]
    # a model rebuilt with the new params misses the cache
    m = make_model("exp-growth-2f", theta=[1.0, 2.0, 1.0])
    after = garza_report(m, grid)
    assert after.max_equal_group_size == 1
    assert _garza_fields(after) == _garza_fields(garza_report(m, discretize(m.space, 0.05)))


def test_garza_norm_values_belong_to_the_caller():
    m = make_model("cubic-gap")
    grid = discretize(m.space, 0.01)
    first = garza_report(m, grid, norm_tol=1e-9)
    assert first.norm_values.flags.writeable
    expected = _garza_fields(first)
    first.norm_values[:] = 0.0  # every point one bucket, were it kept
    assert _garza_fields(garza_report(m, grid, norm_tol=1e-9)) == expected


def test_grid_derived_cache_holds_no_grid_sized_array():
    m = make_model("interaction-2f")
    grid = discretize(m.space, 0.05)
    crit = Criterion(0.0)
    check = certify(solve(m, grid, crit).design, m, grid, crit)
    assert check.optimal
    for tol in (1e-7, 1e-9):
        garza_report(m, grid, norm_tol=tol)
    derived = grid._features[2]
    assert {"rank", "screen", ("garza", 1e-7), ("garza", 1e-9)} <= set(derived)

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple):
            for item in value:
                yield from arrays(item)

    sizes = [a.size for v in derived.values() for a in arrays(v)]
    assert sizes and all(size < len(grid) for size in sizes)


def test_exp_saturation_check_boundary():
    ok, margins = exp_saturation_check([3.0], [1.0])
    assert not ok and margins[0] == pytest.approx(-0.5)
    ok, margins = exp_saturation_check([2.0], [1.0])
    assert ok and margins[0] == pytest.approx(0.0)


def test_rescale_invariance_unit_amplitude():
    m = make_model("exponential-sum", space=interval(0, 3), a=[5.0], **{"lambda": [1.0]})
    cands = discretize(m.space, 0.01)
    assert rescale_invariance_check([5.0], [1.0], 1.0, cands)


def test_rescale_invariance_two_components():
    cands = discretize(truncate(interval(0, 3), 0, 3), 0.01)
    assert rescale_invariance_check([1.0, -1.0], [1.0, 2.0], 2.0, cands)


def test_duality_sandwich_on_random_designs(line2f, line2f_grid):
    rng = np.random.default_rng(5)
    F = line2f.eval_many(line2f_grid.points)
    crit = Criterion(0.0, 2)
    for _ in range(20):
        idx = rng.choice(len(line2f_grid), size=4, replace=False)
        d = design(line2f_grid.points[idx], rng.uniform(0.05, 1.0, 4), normalize=True)
        M_prime = random_psd(rng, 2, jitter=0.1)
        cert = build_certificate(crit, M_prime, line2f, line2f_grid)
        # rescale so the normality inequality holds over the grid (weak duality
        # requires a feasible dual matrix)
        worst = float(np.einsum("ij,jk,ik->i", F, cert.N, F).max())
        N_feas = cert.N / worst
        assert phi(crit, info_matrix(d, line2f)) <= 1.0 / polar(crit, N_feas) + 1e-8


def test_certified_designs_attain_the_sandwich(line2f, line2f_grid, design_21d):
    crit = Criterion(0.0, 2)
    rep = certify(design_21d, line2f, line2f_grid, crit)
    value = phi(crit, info_matrix(design_21d, line2f))
    assert abs(value - 1.0 / polar(crit, rep.certificate.N)) <= 2e-5


def test_certify_warns_on_tight_truncation():
    from optdesign import refine_weights, truncate

    base = make_model("exponential-sum", a=[1.0], **{"lambda": [1.0]})
    space = truncate(base.space, 0, 0.8)  # cuts through the optimal support
    model = make_model("exponential-sum", space=space, a=[1.0], **{"lambda": [1.0]})
    grid = discretize(space, 0.01)
    d = refine_weights(model, [[0.0], [0.8]], Criterion(0.0, 2))
    with pytest.warns(RuntimeWarning, match="truncated"):
        certify(d, model, grid, Criterion(0.0))


def test_certify_does_not_warn_on_truncation_for_a_design_it_rejects():
    # axis 1 cut at 2: f'Nf is 1.6 at (0, 2), on the truncated boundary, but
    # the design is far from optimal on the grid, so no larger domain is
    # needed to say so
    space = truncate(DesignSpace(((0.0, 1.0), (0.0, float("inf")))), 1, 2.0)
    m = make_model("linear-2f-no-intercept", space=space)
    grid = discretize(space, (0.25, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        chk = certify(design(E_DESIGN), m, grid, Criterion(NEG_INF, 2))
    assert not chk.optimal and chk.max_violation == pytest.approx(0.6)


def test_full_grid_evaluated_once_per_model(monkeypatch):
    rows = count_evaluations(monkeypatch, "interaction-2f")
    m = make_model("interaction-2f")
    grid = discretize(m.space, 0.05)
    crit = Criterion(0.0)
    rep = solve(m, grid, crit)
    check = certify(rep.design, m, grid, crit)
    polytope_report(check.certificate, rep.design, m, grid)
    garza_report(m, grid)
    assert check.optimal
    assert rows.count(len(grid)) == 1


def test_certify_same_on_warm_and_fresh_grid(line2f):
    crit = Criterion(NEG_INF)
    d = design([[0.0, 1.0], [1.0, 0.0]])
    warm = discretize(line2f.space, 0.05)
    warm.features(line2f)
    a = certify(d, line2f, warm, crit)
    b = certify(d, line2f, discretize(line2f.space, 0.05), crit)
    assert a.optimal and b.optimal
    assert np.array_equal(a.certificate.N, b.certificate.N)
    assert np.array_equal(a.support_equalities, b.support_equalities)
    assert a.duality_products == b.duality_products


def test_garza_column_norms_match_row_sum():
    m = make_model("mixture-poly-exp", theta3=1.0)
    grid = discretize(m.space, 0.02)
    assert len(grid) > SWEEP_BLOCK and len(grid) % SWEEP_BLOCK
    F = m.eval_many(grid.points)
    assert np.array_equal(garza_report(m, grid).norm_values, (F**2).sum(axis=1))


def test_e_certificate_on_its_own_support():
    # a design optimal on the full grid is optimal on any subset that holds
    # its support: growth E at h = 0.02 certifies on the 2,601-point grid with
    # violation 1.8e-9. On its 4 atoms every eigenspace LP point is
    # indefinite, and the trace-one projection of one meets the LP's bound
    m = make_model("exp-growth-2f", theta=[1.0, 1.0, 1.0])
    cands = discretize(m.space, 0.02)
    crit = parse_criterion("E", m.k)
    rep = solve(m, cands, crit)
    assert certify(rep.design, m, cands, crit, tol=2e-5).optimal
    own = CandidateSet(cands.space, rep.design.points, cands.steps)
    assert certify(rep.design, m, own, crit, tol=2e-5).optimal


def test_top_rows_matches_a_stable_descending_argsort():
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(1, 60))
        values = rng.integers(0, 4, n).astype(float) if trial % 2 else rng.normal(size=n)
        count = int(rng.integers(1, 70))
        expected = np.sort(np.argsort(-values, kind="stable")[:count])
        assert np.array_equal(_top_rows(values, count), expected)


_SCREENED = {
    "interaction": ("interaction-2f", {}),
    "growth": ("exp-growth-2f", {"theta": [1.0, 1.0, 1.0]}),
    "line2f": ("linear-2f-no-intercept", {}),
    "mixture": ("mixture-poly-exp", {"theta3": 1.0}),
}


def _checks(dsgn, model, cands, criterion):
    """What certify and polytope_report decide: (optimal, max_violation,
    violating_point, the polytope error), the last None when it passes."""
    chk = certify(dsgn, model, cands, criterion)
    try:
        polytope_report(chk.certificate, dsgn, model, cands)
        error = None
    except InconsistencyError as exc:
        error = str(exc)
    point = None if chk.violating_point is None else chk.violating_point.tolist()
    return chk.optimal, chk.max_violation, point, error


def _checks_on_and_off_the_screen(monkeypatch, dsgn, model, cands, criterion, exact=True):
    """``_checks`` with the screen on and off, which must agree bit for bit,
    or with ``exact`` False in all but ``max_violation``, both within tol."""
    on = _checks(dsgn, model, cands, criterion)
    with monkeypatch.context() as patch:
        patch.setattr(CandidateSet, "screen", lambda self, model: None)
        off = _checks(dsgn, model, cands, criterion)
    if exact:
        assert on == off
    else:
        assert (on[0], on[2:]) == (off[0], off[2:]) and max(on[1], off[1]) <= 1e-5
    return on


@pytest.mark.parametrize("h", (0.05, 0.02))
@pytest.mark.parametrize("crit", ("D", "A", "p:-2", "p:0.5", "E"))
@pytest.mark.parametrize("key", list(_SCREENED))
def test_kept_set_checks_match_the_full_grid_on_optima(monkeypatch, key, crit, h):
    family, params = _SCREENED[key]
    m = make_model(family, **params)
    cands = default_candidates(m, h)
    c = parse_criterion(crit, m.k)
    rep = solve(m, cands, c)
    # the kept set's bound accepts here, so the screen is what decides. With
    # the screen off the E minimax reads every row, not the kept rows, so its
    # certificate and max_violation may differ by rounding: E compares the
    # verdict, the violating point and the polytope outcome
    assert cands.grid_max(m, rep.certificate.N, 1e-5)[0] is None
    optimal, _, point, error = _checks_on_and_off_the_screen(
        monkeypatch, rep.design, m, cands, c, exact=crit != "E"
    )
    # (mixture D at h = 0.05 groups its support on more than k hyperplanes:
    # the grid has no point at its interior atoms +-0.58)
    assert optimal and point is None and (error is None or "on the grid" not in error)


@pytest.mark.parametrize("h", (0.05, 0.02))
@pytest.mark.parametrize("crit", ("D", "A", "E"))
def test_kept_set_checks_match_the_full_grid_off_the_optimum(monkeypatch, crit, h):
    # the growth design of the CI audit, with an atom at x2 = 0.5, the
    # interaction corners with perturbed weights, and the corners with a
    # centre atom of weight 1e-6, which fails only its support equality under
    # D: there the kept set accepts the normality inequality
    growth = make_model(_SCREENED["growth"][0], **_SCREENED["growth"][1])
    off = design([[0.0, 0.0], [0.0, 0.5], [1.0, 0.0], [1.0, 1.0]])
    interaction = make_model("interaction-2f")
    corners = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    rng = np.random.default_rng(11)
    cases = [(growth, off)] + [
        (interaction, design(corners, 0.25 + rng.uniform(-0.1, 0.1, 4), normalize=True))
        for _ in range(3)
    ]
    cases.append((interaction, design(corners + [[0.5, 0.5]], [0.25] * 4 + [1e-6], normalize=True)))
    for model, dsgn in cases:
        c = parse_criterion(crit, model.k)
        cands = default_candidates(model, h)
        assert not _checks_on_and_off_the_screen(monkeypatch, dsgn, model, cands, c)[0]


def test_grid_violation_still_raises_in_polytope_report(monkeypatch):
    # a uniform growth design on k = 3 atoms is active at each atom on its own
    # D certificate, which exceeds 1 on the grid: the kept set cannot accept
    # it, and the full grid raises the same error as without the screen
    m = make_model(_SCREENED["growth"][0], **_SCREENED["growth"][1])
    dsgn = design([[0.0, 0.0], [0.0, 0.5], [1.0, 1.0]])
    cands = default_candidates(m, 0.02)
    _, viol, point, error = _checks_on_and_off_the_screen(
        monkeypatch, dsgn, m, cands, parse_criterion("D", m.k)
    )
    assert viol > 1e-4 and point is not None
    assert error.startswith("certificate violates the normality inequality on the grid")


def test_accepting_checks_sweep_the_kept_rows_only(monkeypatch):
    # the A optimum of interaction-2f is on its 4 corners: the exchange loop,
    # certify and polytope_report each accept on the kept set, and no sweep
    # reads the full grid
    m = make_model("interaction-2f")
    cands = discretize(m.space, 0.05)
    c = parse_criterion("A", m.k)
    rows = []

    def recorded(F, N):
        rows.append(F.shape[0])
        return sweep(F, N)

    for module in (solver_module, certificates_module, models_module):
        monkeypatch.setattr(module, "sweep", recorded)
    rep = solve(m, cands, c)
    chk = certify(rep.design, m, cands, c)
    polytope_report(chk.certificate, rep.design, m, cands)
    assert rep.converged and chk.optimal
    assert 4 in rows and len(cands) not in rows


def test_violator_off_the_kept_set_comes_from_the_full_grid(monkeypatch):
    # the E certificate of the corners is v v' / lambda with v orthogonal to
    # the x1 direction, so f'Nf is flat along x1 but for the residual, which
    # lifts the middle of the line x2 = 0 about 5e-8 above its kept ends: the
    # bound does not accept, and certify reports the full grid's violator
    model = NearlyAffine()
    cands = discretize(DesignSpace(((-1.0, 1.0), (0.0, 1.0))), 0.05)
    corners = design([[-1.0, 0.0], [-1.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    assert cands.screen(model).size == 4
    optimal, _, point, _ = _checks_on_and_off_the_screen(
        monkeypatch, corners, model, cands, Criterion(NEG_INF, 3)
    )
    assert not optimal and point == [0.0, 0.0]


def _minimax_rows(monkeypatch):
    """Record the row count of every E minimax."""
    rows = []

    def recorded(H):
        rows.append(H.shape[0])
        return _e_eigenspace_minimax(H)

    monkeypatch.setattr(certificates_module, "_e_eigenspace_minimax", recorded)
    return rows


# equal mass on (0, 1) and (1, 0): M = I / 2, so the E eigenspace is all of R^2
E_DESIGN = [[0.0, 1.0], [1.0, 0.0]]


def test_e_minimax_reads_the_kept_rows_on_a_screened_grid(monkeypatch):
    m = make_model("linear-2f-no-intercept")
    cands = discretize(m.space, 0.05)
    rows = _minimax_rows(monkeypatch)
    chk = certify(design(E_DESIGN), m, cands, Criterion(NEG_INF, 2))
    assert chk.optimal and rows == [cands.screen(m).size] == [4]


def test_e_minimax_reads_every_row_when_the_grid_sweeps(monkeypatch):
    rows = _minimax_rows(monkeypatch)
    # a truncated axis: every check sweeps, so the minimax reads every row too
    space = truncate(DesignSpace(((0.0, 1.0), (0.0, float("inf")))), 1, 2.0)
    m = make_model("linear-2f-no-intercept", space=space)
    grid = discretize(space, (0.25, 0.5))
    assert grid.screen(m) is not None
    assert not certify(design(E_DESIGN), m, grid, Criterion(NEG_INF, 2)).optimal
    # the screen off
    m = make_model("linear-2f-no-intercept")
    cands = discretize(m.space, 0.05)
    monkeypatch.setattr(CandidateSet, "screen", lambda self, model: None)
    certify(design(E_DESIGN), m, cands, Criterion(NEG_INF, 2))
    assert rows == [len(grid), len(cands)]


def test_kept_row_e_certificate_of_the_line_model_equals_the_full_row_one(monkeypatch):
    # the CI byte step's certify and geometry on line2f E at h = 0.0025
    m = make_model("linear-2f-no-intercept")
    cands = discretize(m.space, 0.0025)
    M = info_matrix(design(E_DESIGN), m)
    rows = _minimax_rows(monkeypatch)
    kept = build_certificate(Criterion(NEG_INF, 2), M, m, cands).N
    monkeypatch.setattr(CandidateSet, "screen", lambda self, model: None)
    full = build_certificate(Criterion(NEG_INF, 2), M, m, cands).N
    assert rows == [4, len(cands)] and np.array_equal(kept, full)


@pytest.mark.parametrize("key", ("growth", "line2f", "interaction"))
def test_kept_row_e_certificate_holds_on_the_full_grid(key):
    family, params = _SCREENED[key]
    m = make_model(family, **params)
    cands = discretize(m.space, 0.02)
    c = parse_criterion("E", m.k)
    N = certify(solve(m, cands, c).design, m, cands, c).certificate.N
    F = cands.features(m)
    bound = models_module.kept_max(F, models_module._screen(F, cands.product_axes), N)[2]
    assert sweep(F, N).max() <= bound <= 1.0 + 1e-5


def test_shrink_off_diagonal_keeps_the_trace_and_meets_the_psd_boundary():
    rng = np.random.default_rng(3)
    for r in (2, 3, 4):
        for _ in range(20):
            X = rng.uniform(-0.5, 0.5, (r, r))
            X = X + X.T
            np.fill_diagonal(X, rng.dirichlet(np.ones(r)))
            X[0, 0] = 0.0 if r > 2 else X[0, 0]  # a zero diagonal drops its row
            E = certificates_module._shrink_off_diagonal(X)
            low = np.linalg.eigvalsh(E)[0]
            assert np.trace(E) == pytest.approx(np.trace(X)) and low >= -1e-12
            assert np.array_equal(np.diag(E), np.diag(X))
            if np.linalg.eigvalsh(X)[0] < 0:
                assert low <= 1e-12  # the largest PSD step is on the boundary


def test_e_certificate_of_a_free_off_diagonal_takes_one_lp(monkeypatch):
    # growth E on its 4 kept rows leaves the eigenspace LP's off-diagonal
    # free: the first vertex is indefinite, and shrinking its off-diagonal
    # until it is PSD meets the LP's bound, so no eigenvalue cut is needed
    import scipy.optimize

    calls = []
    linprog = scipy.optimize.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counted)
    family, params = _SCREENED["growth"]
    m = make_model(family, **params)
    cands = discretize(m.space, 0.02)
    c = parse_criterion("E", m.k)
    rep = solve(m, cands, c)
    calls.clear()
    chk = certify(rep.design, m, cands, c)
    assert chk.optimal and len(calls) == 1


def _watch_rows(monkeypatch):
    """Make forming a product grid's points raise, and record the row count
    of every lookup by index."""

    def no_mesh(axes):
        raise AssertionError("formed the grid's points")

    monkeypatch.setattr(models_module, "_mesh", no_mesh)
    sizes = []
    rows = CandidateSet.rows

    def recorded(self, idx):
        out = rows(self, idx)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(CandidateSet, "rows", recorded)
    return sizes


@pytest.mark.parametrize(
    "family, params",
    [
        ("interaction-2f", {}),  # D on the marginal product, A on the screen's corners
        ("exp-product-2f", {"theta": [1.0, 1.0, 1.0]}),  # no screen: the spread start
        ("mixture-poly-exp", {"theta3": 1.0}),
    ],
)
def test_solve_and_reports_on_a_product_grid_never_form_its_points(monkeypatch, family, params):
    m = make_model(family, **params)
    grid = discretize(m.space, 0.01)  # 10,201 or 40,401 rows: several blocks
    assert len(grid) > SWEEP_BLOCK
    sizes = _watch_rows(monkeypatch)
    for crit in (Criterion(0.0), Criterion(-1.0)):
        rep = solve(m, grid, crit)
        chk = certify(rep.design, m, grid, crit)
        assert rep.converged and chk.optimal
        if family != "mixture-poly-exp":  # its squared coordinates group past k
            polytope_report(chk.certificate, rep.design, m, grid)
    # a design that is not optimal: its violator is read by index
    some = np.random.default_rng(0).choice(len(grid), size=6, replace=False)
    off = certify(design(grid.rows(some)), m, grid, Criterion(0.0))
    assert not off.optimal and off.violating_point is not None
    assert garza_report(m, grid).norm_values.size == len(grid)
    assert sizes and max(sizes) <= SWEEP_BLOCK


def test_truncated_product_grid_reads_its_boundary_slab():
    # axis 1 truncated at 2: the rows with x1 = 2 are read as one slab of sens
    space = truncate(DesignSpace(((0.0, 1.0), (0.0, float("inf")))), 1, 2.0)
    grid = discretize(space, (0.25, 0.5))
    given = CandidateSet(space, grid.points, grid.steps)
    rng = np.random.default_rng(4)
    on_edge = grid.points[:, 1] == 2.0
    for top in (0.5, 0.99995, 1.0):
        sens = rng.uniform(0.0, 0.9, len(grid))
        sens[np.flatnonzero(on_edge)[2]] = top
        sens[np.flatnonzero(~on_edge)[3]] = 1.0  # off the boundary: never read
        got = grid.tight_truncation(sens, 1e-5)
        assert got == given.tight_truncation(sens, 1e-5) == (None if top < 0.9999 else top)


def _biggest_bucket_by_sort_and_diff(norms2, norm_tol):
    """``_biggest_bucket`` as first written, with n-sized gaps: the oracle."""
    sorted_vals = np.sort(norms2)
    ends = np.concatenate([np.flatnonzero(np.diff(sorted_vals) > norm_tol), [norms2.size - 1]])
    return int(np.diff(ends, prepend=-1).max())


def _bucket_draws():
    rng = np.random.default_rng(8)
    draws = [np.zeros(1), np.zeros(3 * SWEEP_BLOCK + 5), np.arange(2 * SWEEP_BLOCK + 1.0)]
    # one long run from just before the first block edge to past the second
    run = np.arange(3 * SWEEP_BLOCK, dtype=float)
    run[SWEEP_BLOCK - 3 : 2 * SWEEP_BLOCK + 4] = SWEEP_BLOCK
    draws.append(rng.permutation(run))
    # a run ending at a block edge, and one starting there
    edge = np.arange(2 * SWEEP_BLOCK + 7, dtype=float)
    edge[SWEEP_BLOCK - 9 : SWEEP_BLOCK + 1] = -1.0
    edge[SWEEP_BLOCK + 1 : SWEEP_BLOCK + 40] = -2.0
    draws.append(edge)
    for _ in range(8):  # few distinct values with small jitter: ties and near-ties
        n = int(rng.integers(2, 4 * SWEEP_BLOCK))
        pool = rng.uniform(0.0, 1.0, int(rng.integers(1, 50)))
        draws.append(pool[rng.integers(pool.size, size=n)] + rng.choice([0.0, 1e-9, 1e-6], size=n))
    return draws


@pytest.mark.parametrize("norm_tol", [0.0, 1e-9, 1e-7, 1e-3])
def test_biggest_bucket_matches_sort_and_diff(norm_tol):
    for norms2 in _bucket_draws():
        want = _biggest_bucket_by_sort_and_diff(norms2, norm_tol)
        assert certificates_module._biggest_bucket(norms2, norm_tol) == want


def test_rank_and_garza_hold_no_grid_sized_copy(monkeypatch):
    m = make_model("mixture-poly-exp", theta3=1.0)
    grid = discretize(m.space, 0.005)  # 160,801 rows
    n, k = grid.features(m).shape
    # LAPACK's own copies are not traced, so record the rows each factorization sees
    factored = []
    for name in ("svd", "qr"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, _original=original, **kwargs):
            factored.append(np.shape(a)[0])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert grid.features_rank(m) == k
        rank_peak = tracemalloc.get_traced_memory()[1] - start
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rep = garza_report(m, grid)
        garza_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    vector = n * 8
    # the blocked QR factors a block and the R so far, and the SVD only R:
    # far less than one n-vector, let alone n x k
    assert factored and max(factored) <= SWEEP_BLOCK + k
    assert rank_peak < vector
    # norm_values and the sorted copy, besides block-sized temporaries
    assert rep.norm_values.nbytes == vector
    assert garza_peak <= 2 * vector + 8 * SWEEP_BLOCK * 8
