"""Command-line entry points: solve, certify, geometry, garza, audit, decompose,
and a bundled golden-example suite.

Reports are JSON (sorted keys, embedding the config hash and package version)
plus CSV traces for per-candidate quantities, so runs with identical config
and seed are byte-stable. Exit codes: 0 success, 2 validation error, 3
non-convergence (a solve whose design its certificate does not prove
optimal) or an inconclusive result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .certificates import certify, garza_report, polytope_report
from .conditional import SliceMap, conditional_audit, decompose, recompose_check
from .criteria import parse_criterion
from .designs import Design, load_design, sweep
from .errors import OptDesignError, TruncationSlackError, ValidationError
from .models import default_candidates, load_model, model_from_dict
from .solver import SolverOptions, solve

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNSETTLED = 3
CSV_BLOCK = 8192

# Range of |x| that _exact_text formats. There x = m * 2**e with a 53-bit m,
# q = 16 - floor(log10|x|) lies in 2..26 (1..27 where log10 is one off), so
# 5**q fits in 64 bits, m * 5**q in 116, and the shift e + q in -62..-1. The
# decimal exponent lies in -10..14, and no value rounds up to the next power
# of ten at 17 digits.
_EXACT_MIN, _EXACT_MAX = 1e-10, 1e15
_POW5 = np.array([5**q for q in range(28)], dtype=np.uint64)
# Byte slots of one value's text: sign, "0.000", 18 slots of digits and point,
# "e-XX". Unused slots hold 0 bytes, which the writer deletes.
_WIDTH = 28


def _layouts():
    """%g's layout of 17 significant digits for each decimal exponent X in -10..14.

    Row X + 10 holds the number of digits before the point, the digit-region
    slots of those digits, the slots of the fraction digits for each count of
    significant digits kept, and the fixed bytes with and without a point:
    "0." and leading zeros below 1, "e-XX" below 1e-4. In the digit region,
    slot j holds digit j before the point and digit j - 1 after it.
    """
    xs = np.arange(-10, 15)
    before = np.where(xs < -4, 1, np.maximum(xs + 1, 0))
    slot = np.arange(18)
    int_mask = (slot < before[:, None]).astype(np.uint8)
    frac_mask = (slot > before[:, None, None]) & (slot <= slot[:, None])
    fixed = np.zeros((xs.size, 2, _WIDTH), np.uint8)
    for row, x in enumerate(xs.tolist()):
        if -4 <= x < 0:
            fixed[row, :, 1 : 2 - x] = np.frombuffer(b"0.000"[: 1 - x], np.uint8)
        else:
            fixed[row, 1, 6 + before[row]] = ord(".")
        if x < -4:
            fixed[row, :, 24:] = np.frombuffer(b"e-%02d" % -x, np.uint8)
    return before, int_mask, frac_mask.astype(np.uint8).reshape(-1, 18), fixed.reshape(-1, _WIDTH)


_BEFORE, _INT_SLOTS, _FRAC_SLOTS, _FIXED = _layouts()


def _config_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _scaled(m, e, q):
    """m * 5**q * 2**(e + q) for -63 < e + q < 0: truncated, and rounded half to even.

    m * 5**q is formed exactly in 128 bits from 32-bit halves.
    """
    b = _POW5[q]
    m0, m1, b0, b1 = m & 0xFFFFFFFF, m >> 32, b & 0xFFFFFFFF, b >> 32
    lo = m0 * b0
    mid = m1 * b0 + m0 * b1 + (lo >> 32)  # < 2**63 + 2**53 + 2**32
    hi = m1 * b1 + (mid >> 32)
    lo = (mid << 32) | (lo & 0xFFFFFFFF)
    r = (-(e + q)).astype(np.uint64)
    t = (hi << (64 - r)) | (lo >> r)
    rem = lo & ((1 << r) - 1)
    half = 1 << (r - 1)
    return t, t + ((rem > half) | ((rem == half) & (t & 1 == 1)))


def _exact_text(x: np.ndarray) -> np.ndarray:
    """"%.17g" % v of each v in x, _EXACT_MIN <= |v| < _EXACT_MAX, as _WIDTH byte slots.

    The 17 significant digits are round(|v| * 10**q) with q = 16 - floor(log10|v|),
    computed in exact integer arithmetic and rounded half to even, as printf does.
    """
    bits = x.view(np.uint64)
    m = (bits & (1 << 52) - 1) | 1 << 52
    e = (bits >> 52 & 0x7FF).astype(np.int64) - 1075
    q = 16 - np.floor(np.log10(np.abs(x))).astype(np.int64)
    t, d = _scaled(m, e, q)
    # log10 can be one off next to a power of ten; t then has 16 or 18 digits
    off = (t >= 10**17).astype(np.int64) - (t < 10**16)
    fix = np.flatnonzero(off)
    if fix.size:
        q[fix] -= off[fix]
        d[fix] = _scaled(m[fix], e[fix], q[fix])[1]
    row = 26 - q  # decimal exponent + 10
    # digit i in column i + 1: column j of buf[:, 1:] holds digit j, and of
    # buf[:, :-1] digit j - 1, as the digit region wants before and after the point
    buf = np.zeros((x.size, 19), np.uint8)
    for i in range(17, 0, -1):
        rest = d // 10
        buf[:, i] = d - rest * 10 + ord("0")
        d = rest
    # significant digits up to the last nonzero one; the first digit is never 0
    keep = np.full(x.size, 17)
    z = np.flatnonzero(buf[:, 17] == ord("0"))
    keep[z] = 17 - np.argmax(buf[z, 17:0:-1] != ord("0"), axis=1)
    text = np.take(_FIXED, 2 * row + (keep > np.take(_BEFORE, row)), axis=0)
    text[:, 0] = (x < 0) * ord("-")
    ints = buf[:, 1:] * np.take(_INT_SLOTS, row, axis=0)
    fracs = buf[:, :-1] * np.take(_FRAC_SLOTS, 18 * row + keep, axis=0)
    text[:, 6:24] += ints + fracs
    return text


def _format_17g(x: np.ndarray) -> np.ndarray:
    """"%.17g" % v of every v in x, as rows of _WIDTH byte slots padded with 0 bytes.

    _exact_text formats the exact range; every other value (zeros, NaN,
    infinities, subnormals, tiny or huge) goes through "%.17g" itself.
    """
    mag = np.abs(x)
    other = np.flatnonzero(~((mag >= _EXACT_MIN) & (mag < _EXACT_MAX)))
    inside = x.copy()
    inside[other] = 1.0  # formatted below
    text = _exact_text(inside)
    text[other] = (
        np.array(["%.17g" % v for v in x[other].tolist()], dtype=f"S{_WIDTH}")
        .view(np.uint8)
        .reshape(-1, _WIDTH)
    )
    return text


def _write_csv(path: Path, name: str, axes: tuple, values: np.ndarray) -> None:
    """The grid of ``axes`` (``CandidateSet.product_axes``) with one value
    per point: a header line, then one line per point in grid order, its
    coordinates and then its value, every number in %.17g.

    The grid's points are never formed. Each axis's coordinates are
    formatted once, and row r reads the text of coordinate
    ``r // stride % size`` of each axis, the last axis varying fastest. Rows
    are written CSV_BLOCK at a time, so the text of a grid-sized table is
    never held whole in memory. The values repeat little, so each block
    formats its own. Each number fills fixed byte slots whose unused ones
    hold 0 bytes; the block's bytes are written with those deleted.
    """
    q = len(axes)
    sizes = [a.size for a in axes]
    strides = [math.prod(sizes[j + 1 :]) for j in range(q)]
    texts = [_format_17g(a) for a in axes]
    n = values.size
    slots = np.empty((min(n, CSV_BLOCK), q + 1, _WIDTH + 1), np.uint8)
    slots[:, :, _WIDTH] = ord(",")
    slots[:, -1, _WIDTH] = ord("\n")
    with open(path, "wb") as fh:
        fh.write((",".join([f"x{j}" for j in range(q)] + [name]) + "\n").encode("utf-8"))
        for start in range(0, n, CSV_BLOCK):
            r = np.arange(start, min(start + CSV_BLOCK, n))
            rows = slots[: r.size]
            for j, (text, stride, size) in enumerate(zip(texts, strides, sizes)):
                rows[:, j, :_WIDTH] = np.take(text, r // stride % size, axis=0)
            rows[:, -1, :_WIDTH] = _format_17g(values[start : start + CSV_BLOCK])
            fh.write(rows.tobytes().translate(None, b"\0"))


def _write_report(args, name: str, fields: dict) -> Path:
    """Write ``name`` into the output directory ``args.out``, made if missing:
    ``fields`` beside the command, its config hash and the package version.
    Returns the directory. The hash covers the computation, not where its
    results are written.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    base = {"command": args.command, "config_hash": _config_hash(payload), "version": __version__}
    _write_json(out / name, {**base, **fields})
    return out


def _load_model_and_grid(args):
    model, file_steps = load_model(args.model)
    steps = args.steps if args.steps is not None else file_steps
    cands = default_candidates(model, steps if steps is not None else 0.01)
    return model, cands


def _parse_steps(text: str):
    vals = tuple(float(s) for s in text.split(","))
    return vals[0] if len(vals) == 1 else vals


def _parse_slice_map(text: str) -> SliceMap:
    kind, _, rest = text.partition(":")
    try:
        parsed = int(rest) if kind == "axis" else tuple(float(v) for v in rest.split(","))
    except ValueError:
        parsed = None
    if kind == "axis" and parsed is not None:
        return SliceMap("coordinate", axis=parsed)
    if kind == "linear" and parsed is not None:
        return SliceMap("linear", coeffs=parsed)
    raise ValidationError(f"cannot parse slice map {text!r}; use axis:<j> or linear:<a1,a2>")


def _write_sensitivity(out: Path, model, candidates, certificate) -> None:
    """sensitivity.csv: every candidate with its sensitivity f(x)^T N f(x)."""
    sens = sweep(candidates.features(model), certificate.N)
    _write_csv(out / "sensitivity.csv", "sensitivity", candidates.product_axes, sens)


def _write_certificate(out: Path, model, candidates, certificate) -> None:
    """certificate.json (N, its eigenbasis and the bound), then sensitivity.csv."""
    _write_json(out / "certificate.json", {
        "N": certificate.N.tolist(),
        "Z": certificate.Z.tolist(),
        "eigenvalues": certificate.eigenvalues.tolist(),
        "bound": certificate.bound,
    })
    _write_sensitivity(out, model, candidates, certificate)


def cmd_solve(args) -> int:
    model, cands = _load_model_and_grid(args)
    criterion = parse_criterion(args.criterion, model.k)
    opts = SolverOptions(
        max_outer_iters=args.max_iters,
        kkt_tol=args.tol,
        seed=args.seed,
        init=load_design(args.init_design) if args.init_design else "spread",
    )
    report = solve(model, cands, criterion, opts)
    out = _write_report(args, "report.json", {
        "criterion": criterion.name,
        "converged": report.converged,
        "iterations": report.iterations,
        "criterion_value": report.criterion_value,
        "max_sensitivity_violation": report.max_sensitivity_violation,
        "certified_optimal": report.converged,
        "design": report.design.to_dict(),
        "n_candidates": len(cands),
    })
    _write_sensitivity(out, model, cands, report.certificate)
    print(f"solve[{criterion.name}] converged={report.converged} certified={report.converged} "
          f"value={report.criterion_value:.8g} atoms={report.design.m}")
    return EXIT_OK if report.converged else EXIT_UNSETTLED


def cmd_certify(args) -> int:
    model, cands = _load_model_and_grid(args)
    criterion = parse_criterion(args.criterion, model.k)
    dsgn = load_design(args.design)
    check = certify(dsgn, model, cands, criterion, tol=args.tol)
    tr, prod = check.duality_products
    out = _write_report(args, "certify.json", {
        "criterion": criterion.name,
        "optimal": check.optimal,
        "trace_product": tr,
        "polar_product": prod,
        "max_violation": check.max_violation,
        "violating_point": None if check.violating_point is None else list(check.violating_point),
        "support_equalities": check.support_equalities.tolist(),
    })
    _write_certificate(out, model, cands, check.certificate)
    print(f"certify[{criterion.name}] optimal={check.optimal} "
          f"max_violation={check.max_violation:.3g}")
    return EXIT_OK


def cmd_geometry(args) -> int:
    model, cands = _load_model_and_grid(args)
    criterion = parse_criterion(args.criterion, model.k)
    dsgn = load_design(args.design)
    check = certify(dsgn, model, cands, criterion, tol=args.tol)
    if not check.optimal:
        print("design is not certified optimal; geometry needs an optimal design", file=sys.stderr)
        return EXIT_UNSETTLED
    geom = polytope_report(check.certificate, dsgn, model, cands)
    out = _write_report(args, "polytope.json", {
        "criterion": criterion.name,
        "hyperplanes": [
            {"c": list(map(float, c)), "active_support": [list(p) for p in pts]}
            for c, pts in geom.hyperplanes
        ],
        "squared_coords": {
            json.dumps(list(k)): list(map(float, v)) for k, v in geom.squared_coords.items()
        },
        "length_groups": [[list(p) for p in grp] for grp in geom.length_groups],
    })
    _write_certificate(out, model, cands, check.certificate)
    print(f"geometry: {len(geom.hyperplanes)} hyperplane(s), "
          f"{len(geom.length_groups)} length group(s)")
    return EXIT_OK


def cmd_garza(args) -> int:
    model, cands = _load_model_and_grid(args)
    rep = garza_report(model, cands, norm_tol=args.norm_tol)
    out = _write_report(args, "garza.json", {
        "injective": rep.injective,
        "max_equal_group_size": rep.max_equal_group_size,
        "saturation_bound": rep.saturation_bound,
        "monotone_axis_note": rep.monotone_axis_note,
    })
    _write_csv(out / "norms.csv", "norm_sq", cands.product_axes, rep.norm_values)
    print(f"garza: injective={rep.injective} bound={rep.saturation_bound}")
    return EXIT_OK


def cmd_audit(args) -> int:
    model, _ = load_model(args.model)
    dsgn = load_design(args.design)
    tmap = _parse_slice_map(args.slice_map)
    verdict = conditional_audit(dsgn, tmap, model)
    _write_report(args, "audit.json", {
        "admissible": verdict.admissible,
        "inconclusive": verdict.inconclusive,
        "note": verdict.note,
        "dominator": None if verdict.dominator is None else verdict.dominator.to_dict(),
        "slices": [
            {"t": t, "admissible": v.admissible, "inconclusive": v.inconclusive}
            for t, v in verdict.evidence
        ],
    })
    print(f"audit: admissible={verdict.admissible} inconclusive={verdict.inconclusive}")
    return EXIT_UNSETTLED if verdict.inconclusive else EXIT_OK


def cmd_decompose(args) -> int:
    model, _ = load_model(args.model)
    dsgn = load_design(args.design)
    tmap = _parse_slice_map(args.slice_map)
    deco = decompose(dsgn, tmap, model)
    err = recompose_check(dsgn, tmap, model)
    _write_report(args, "decomposition.json", {
        "recompose_error": err,
        "slices": [
            {
                "t": sl.t,
                "weight": sl.weight,
                "conditional_design": sl.conditional_design.to_dict(),
                "conditional_basis": sl.conditional.slice_space,
                "p_t": sl.conditional.k,
                "lift": sl.conditional.lift.tolist(),
            }
            for sl in deco.slices
        ],
    })
    print(f"decompose: {len(deco.slices)} slice(s), recompose error {err:.3g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bundled golden examples
# ---------------------------------------------------------------------------

GOLDEN = [
    {
        "name": "two-factor-line-D",
        "model": {"family": "linear-2f-no-intercept", "params": {}},
        "criterion": "D",
        "steps": 0.01,
        "value": 0.5773502691896257,
        "atoms": [([0.0, 1.0], 1 / 3), ([1.0, 0.0], 1 / 3), ([1.0, 1.0], 1 / 3)],
    },
    {
        "name": "two-factor-line-E",
        "model": {"family": "linear-2f-no-intercept", "params": {}},
        "criterion": "E",
        "steps": 0.01,
        "value": 0.5,
        "atoms": [([0.0, 1.0], 0.5), ([1.0, 0.0], 0.5)],
    },
    {
        "name": "two-factor-line-A",
        "model": {"family": "linear-2f-no-intercept", "params": {}},
        "criterion": "A",
        "steps": 0.01,
        "value": 0.5358983848622454,
        "atoms": [
            ([0.0, 1.0], 0.4226497308103742),
            ([1.0, 0.0], 0.4226497308103742),
            ([1.0, 1.0], 0.1547005383792515),
        ],
    },
    {
        "name": "quadratic-wpoly-D",
        "model": {"family": "weighted-polynomial", "params": {"degree": 2}},
        "criterion": "D",
        "steps": 0.005,
        "value": 0.13228342099734935,
        "atoms": [([0.0], 1 / 3), ([0.5], 1 / 3), ([1.0], 1 / 3)],
    },
    {
        "name": "exp-sum-L1-D",
        "model": {"family": "exponential-sum", "params": {"a": [1.0], "lambda": [1.0]}},
        "criterion": "D",
        "steps": 0.01,
        "value": 0.18393972058572114,
        "atoms": [([0.0], 0.5), ([1.0], 0.5)],
    },
    {
        "name": "growth-2f-D",
        "model": {"family": "exp-growth-2f", "params": {"theta": [1.0, 1.0, 1.0]}},
        "criterion": "D",
        "steps": 0.02,
        "value": 0.10460859358517782,
        "atoms": [
            ([0.0, 0.0], 0.25),
            ([0.0, 1.0], 0.25),
            ([1.0, 0.0], 0.25),
            ([1.0, 1.0], 0.25),
        ],
    },
    {
        "name": "mixture-poly-exp-D",
        "model": {"family": "mixture-poly-exp", "params": {"theta3": 1.0}},
        "criterion": "D",
        "steps": 0.02,
        "value": 0.1881438162374693,
        "n_atoms": 8,
    },
    {
        "name": "interaction-slice-decompose",
        "kind": "decompose",
        "model": {"family": "interaction-2f", "params": {}},
        "slice_map": "linear:1,1",
        "design": {
            "atoms": [
                {"x": [a, b], "w": 1 / 9} for a in (0.0, 0.5, 1.0) for b in (0.0, 0.5, 1.0)
            ]
        },
        "slice_weights": {0.0: 1 / 9, 0.5: 2 / 9, 1.0: 3 / 9, 1.5: 2 / 9, 2.0: 1 / 9},
    },
]

VALUE_TOL = 1e-4
WEIGHT_TOL = 1e-3


def _run_golden(entry) -> tuple[bool, str]:
    model, _ = model_from_dict(entry["model"])
    if entry.get("kind") == "decompose":
        dsgn = Design.from_dict(entry["design"])
        tmap = _parse_slice_map(entry["slice_map"])
        err = recompose_check(dsgn, tmap, model)
        if err > 1e-12:
            return False, f"recompose error {err:.3g}"
        deco = decompose(dsgn, tmap, model)
        got = {round(sl.t, 9): sl.weight for sl in deco.slices}
        want = entry["slice_weights"]
        if set(got) != set(want):
            return False, f"slice values {sorted(got)} != {sorted(want)}"
        worst = max(abs(got[t] - want[t]) for t in want)
        if worst > 1e-12:
            return False, f"marginal weight off by {worst:.3g}"
        return True, "recomposition exact"

    cands = default_candidates(model, entry["steps"])
    criterion = parse_criterion(entry["criterion"], model.k)
    rep = solve(model, cands, criterion)
    if not rep.converged:
        return False, "did not converge"
    if abs(rep.criterion_value - entry["value"]) > VALUE_TOL * max(1.0, abs(entry["value"])):
        return False, f"value {rep.criterion_value:.8g} != {entry['value']:.8g}"
    if "n_atoms" in entry and rep.design.m != entry["n_atoms"]:
        return False, f"{rep.design.m} atoms != {entry['n_atoms']}"
    if "atoms" in entry:
        if rep.design.m != len(entry["atoms"]):
            return False, f"{rep.design.m} atoms != {len(entry['atoms'])}"
        got = sorted(rep.design.atoms())
        want = sorted((tuple(x), w) for x, w in entry["atoms"])
        for (gx, gw), (wx, ww) in zip(got, want):
            if max(abs(a - b) for a, b in zip(gx, wx)) > 2 * max(
                s for s in cands.steps
            ) or abs(gw - ww) > WEIGHT_TOL:
                return False, f"atom {gx} w={gw:.6f} != {wx} w={ww:.6f}"
    return True, f"value {rep.criterion_value:.8g}"


def cmd_examples(args) -> int:
    failed = 0
    name_w = max(len(e["name"]) for e in GOLDEN)
    for entry in GOLDEN:
        if args.filter and not entry["name"].startswith(args.filter.rstrip("*")):
            continue
        try:
            ok, msg = _run_golden(entry)
        except OptDesignError as exc:
            ok, msg = False, f"error: {exc}"
        status = "pass" if ok else "FAIL"
        print(f"{entry['name']:<{name_w}}  {status}  {msg}")
        if not ok:
            failed += 1
    return EXIT_OK if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optdesign",
        description="Optimal experimental design: solver, certificates, geometry, audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", default=".", help="output directory for report files")

    def add_grid(p):
        add_common(p)
        p.add_argument(
            "--steps", type=_parse_steps, default=None,
            help="grid step(s), e.g. 0.01 or 0.01,0.02 (default: model file or 0.01)",
        )

    p = sub.add_parser("solve", help="compute an optimal design")
    add_grid(p)
    p.add_argument("--criterion", default="D", help="D, A, E, or p:<real>")
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init-design", default=None, help="design JSON to start from")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("certify", help="equivalence-theorem check of a design")
    add_grid(p)
    p.add_argument("--design", required=True)
    p.add_argument("--criterion", default="D")
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("geometry", help="supporting-hyperplane structure of an optimal design")
    add_grid(p)
    p.add_argument("--design", required=True)
    p.add_argument("--criterion", default="D")
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("garza", help="norm-injectivity saturation bound")
    add_grid(p)
    p.add_argument("--norm-tol", type=float, default=1e-7)
    p.set_defaults(func=cmd_garza)

    p = sub.add_parser("audit", help="conditional-model admissibility audit")
    add_common(p)
    p.add_argument("--design", required=True)
    p.add_argument("--slice-map", required=True, help="axis:<j> or linear:<a1,a2>")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("decompose", help="slice a design by a scalar map")
    add_common(p)
    p.add_argument("--design", required=True)
    p.add_argument("--slice-map", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("examples", help="run the bundled golden suite")
    p.add_argument("--filter", default=None, help="only run examples with this name prefix")
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TruncationSlackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSETTLED
    except (ValidationError, FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OptDesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSETTLED


if __name__ == "__main__":
    sys.exit(main())
