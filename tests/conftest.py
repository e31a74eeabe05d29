import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def line2f():
    from optdesign import make_model

    return make_model("linear-2f-no-intercept")


@pytest.fixture(scope="session")
def line2f_grid(line2f):
    from optdesign import discretize

    return discretize(line2f.space, 0.01)


@pytest.fixture(scope="session")
def design_21d():
    """Determinant-optimal design of the two-factor line model."""
    from optdesign import design

    return design([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [1 / 3, 1 / 3, 1 / 3])


def random_psd(rng, s, scale=1.0, jitter=0.0):
    L = rng.normal(size=(s, s))
    M = L @ L.T * scale / s + jitter * np.eye(s)
    return 0.5 * (M + M.T)


class NearlyAffine:
    """f = (1, x1, x2 + 1e-8 x1^2): x1 is affine in g = x1 up to a residual of about 1e-8."""

    k = 3

    def eval_many(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.column_stack([np.ones(len(x)), x[:, 0], x[:, 1] + 1e-8 * x[:, 0] ** 2])


def count_evaluations(monkeypatch, family):
    """Patch a family's evaluator to record the row count of every call."""
    from optdesign.models import FAMILIES

    fam = FAMILIES[family]
    rows = []

    def evaluate(params, X):
        rows.append(X.shape[0])
        return fam.evaluate(params, X)

    monkeypatch.setitem(FAMILIES, family, dataclasses.replace(fam, evaluate=evaluate))
    return rows


def registered_marginal(model, axis):
    """The one-factor family that spans a two-factor family's marginal on one
    axis, over that axis's interval: the reference for the derived marginals."""
    from optdesign import interval, make_model

    space = interval(*model.space.bounds[axis])
    p = model.params
    if model.family == "interaction-2f":
        return make_model("polynomial", space=space, degree=1)
    if model.family == "exp-growth-2f":
        return make_model("xexp-decay", space=space, rate=float(p["theta"][1 + axis]))
    if model.family == "exp-product-2f":
        rate = 2.0 * float(p["theta"][1 + axis])
        return make_model(
            "weighted-polynomial", space=space, degree=1, efficiency={"kind": "exp", "rate": rate}
        )
    if model.family == "mixture-poly-exp":
        if axis == 0:
            return make_model("cubic-gap", space=space)
        return make_model("xexp-decay", space=space, rate=float(p["theta3"]))
    raise KeyError(f"no registered marginal for {model.family}")


def stub_inconclusive_audit(monkeypatch, branch):
    """Stub the dominator search's stages so that a conditional audit of the
    exp-growth-2f corners by axis 0 ends inconclusive, by one of its two ways.

    - "slice": on the slice x0 = 1 the moment stage finds nothing and the
      primal-dual LP's bound is still falling at its round cap; the slice
      x0 = 0 keeps de la Garza's proof.
    - "splice": the moment stage hands back each slice's own design as its
      dominator, so the spliced design equals the audited one and dominates
      nothing.
    """
    import optdesign.conditional as conditional_module

    if branch == "splice":
        monkeypatch.setattr(conditional_module, "_moment_oracle", lambda d1, *args: (d1, ""))
        return
    moment_oracle = conditional_module._moment_oracle

    def moment(d1, F1, points, F, model):
        if points[0, 0] == 1.0:
            return None, ""
        return moment_oracle(d1, F1, points, F, model)

    monkeypatch.setattr(conditional_module, "_moment_oracle", moment)
    monkeypatch.setattr(
        conditional_module, "_gap_lp", lambda *args: (None, "", "the dual bound was still falling")
    )


def _exact_gap(d2, d1, model):
    """M(d1) + M(d2) and M(d2) - M(d1) formed at 40 digits from the rows of f."""
    import mpmath

    def info(d):
        F = mpmath.matrix(model.eval_many(d.points).tolist())
        return F.T * mpmath.diag([mpmath.mpf(float(w)) for w in d.weights]) * F

    M1, M2 = info(d1), info(d2)
    return M1 + M2, M2 - M1


def reference_dominates(d2, d1, model, tol=None):
    """``dominates`` recomputed at 40 digits from the formed information
    matrices, by an eigendecomposition of M1 + M2 rather than an SVD of the
    rows: the whitened gap on the eigenvectors of M1 + M2 above 1e-20 of its
    largest eigenvalue has no eigenvalue below -100 tol; on those above 1e-10
    none below -tol and one above 100 tol. None where the answer turns on a
    tenth of a threshold or a factor 10 in a cut."""
    import mpmath

    from optdesign.conditional import DOMINANCE_TOL, MATERIAL_FACTOR

    tol = DOMINANCE_TOL if tol is None else tol
    with mpmath.workdps(40):
        S, G = _exact_gap(d2, d1, model)
        vals, vecs = mpmath.eigsy(S)
        top = max(vals)

        def whitened(cut):
            keep = [j for j in range(S.rows) if vals[j] > cut * top]
            if not keep:
                return []
            W = mpmath.matrix(S.rows, len(keep))
            for c, j in enumerate(keep):
                for i in range(S.rows):
                    W[i, c] = vecs[i, j] / mpmath.sqrt(vals[j])
            return sorted(float(x) for x in mpmath.eigsy(W.T * G * W, eigvals_only=True))

        verdicts = set()
        for weak_cut in (1e-21, 1e-19):
            for strong_cut in (1e-11, 1e-9):
                lam, strong = whitened(weak_cut), whitened(strong_cut)
                for slack in (0.9, 1.1):
                    verdicts.add(
                        bool(strong) and lam[0] >= -slack * MATERIAL_FACTOR * tol
                        and strong[0] >= -slack * tol and strong[-1] > MATERIAL_FACTOR * tol / slack
                    )
    return verdicts.pop() if len(verdicts) == 1 else None
