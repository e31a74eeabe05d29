"""Solve the polynomial-exponential mixture model and report its structure:
the converged support, the supporting-hyperplane groups of the certificate
eigenbasis, and the marginal admissibility audit.

Usage: python scripts/mixture_structure.py [--theta3 1.0] [--step 0.01]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from optdesign import (  # noqa: E402
    Criterion,
    certify,
    discretize,
    make_model,
    polytope_report,
    product_audit,
    solve,
)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--theta3", type=float, default=1.0)
    parser.add_argument("--step", type=float, default=0.01)
    args = parser.parse_args()

    model = make_model("mixture-poly-exp", theta3=args.theta3)
    grid = discretize(model.space, args.step)
    rep = solve(model, grid, Criterion(0.0))
    print(f"converged={rep.converged} value={rep.criterion_value:.8f} atoms={rep.design.m}")
    for x, w in sorted(rep.design.atoms()):
        print(f"  x=({x[0]:+.4f}, {x[1]:.4f})  w={w:.6f}")

    check = certify(rep.design, model, grid, Criterion(0.0), tol=2e-5)
    print(f"certified optimal: {check.optimal} "
          f"(max violation {check.max_violation:.2e})")
    geom = polytope_report(check.certificate, rep.design, model, grid)
    print(f"{len(geom.hyperplanes)} active hyperplane(s):")
    for c, pts in geom.hyperplanes:
        lengths = {round(float(np.linalg.norm(model.eval_many([p])[0])), 6) for p in pts}
        print(f"  c={np.round(c, 4)}  active at {len(pts)} point(s), lengths {sorted(lengths)}")

    audit = product_audit(rep.design, model)
    print(f"marginal audit bound: {audit.support_bound}")
    for axis, (verdict, marg) in enumerate(zip(audit.factor_verdicts, audit.marginal_designs)):
        # each marginal design lies on its axis line: read the axis's own coordinate
        xs = sorted(round(float(x[axis]), 4) for x, _ in marg.atoms())
        print(f"  axis {axis}: admissible={verdict.admissible} support={xs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
