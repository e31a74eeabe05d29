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
