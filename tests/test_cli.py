import json

import numpy as np
import pytest

from optdesign import (
    DesignSpace,
    default_candidates,
    discretize,
    garza_report,
    interval,
    load_model,
    parse_criterion,
    solve,
)
from optdesign.cli import (
    CSV_BLOCK,
    GOLDEN,
    _EXACT_MAX,
    _EXACT_MIN,
    _WIDTH,
    _format_17g,
    _write_csv,
    main,
)
from optdesign.models import model_from_dict

from conftest import stub_inconclusive_audit


@pytest.fixture()
def model21(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            {
                "family": "linear-2f-no-intercept",
                "params": {},
                "space": {"bounds": [[0, 1], [0, 1]], "steps": [0.05, 0.05]},
            }
        )
    )
    return path


@pytest.fixture()
def design21(tmp_path):
    path = tmp_path / "design.json"
    path.write_text(
        json.dumps(
            {
                "atoms": [
                    {"x": [1.0, 1.0], "w": 1 / 3},
                    {"x": [1.0, 0.0], "w": 1 / 3},
                    {"x": [0.0, 1.0], "w": 1 / 3},
                ]
            }
        )
    )
    return path


def test_solve_command(tmp_path, model21):
    out = tmp_path / "out"
    code = main(["solve", "--model", str(model21), "--criterion", "D", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["criterion"] == "D"
    assert report["version"]
    assert report["config_hash"]
    weights = sorted(a["w"] for a in report["design"]["atoms"])
    assert all(abs(w - 1 / 3) < 1e-5 for w in weights)
    assert (out / "sensitivity.csv").exists()


def test_solve_reports_are_byte_stable(tmp_path, model21):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(
            ["solve", "--model", str(model21), "--criterion", "A", "--out", str(out)]
        ) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "sensitivity.csv").read_bytes() == (out2 / "sensitivity.csv").read_bytes()


def test_certify_command_suboptimal_design(tmp_path, model21):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "atoms": [
                    {"x": [1.0, 1.0], "w": 0.5},
                    {"x": [1.0, 0.0], "w": 0.25},
                    {"x": [0.0, 1.0], "w": 0.25},
                ]
            }
        )
    )
    out = tmp_path / "out"
    code = main(
        ["certify", "--model", str(model21), "--design", str(bad), "--out", str(out)]
    )
    assert code == 0  # verification always succeeds as a computation
    report = json.loads((out / "certify.json").read_text())
    assert report["optimal"] is False
    assert report["max_violation"] > 0
    assert (out / "certificate.json").exists()


def test_geometry_command(tmp_path, model21, design21):
    out = tmp_path / "out"
    code = main(
        ["geometry", "--model", str(model21), "--design", str(design21), "--out", str(out)]
    )
    assert code == 0
    geom = json.loads((out / "polytope.json").read_text())
    cs = sorted(tuple(round(v, 4) for v in h["c"]) for h in geom["hyperplanes"])
    assert cs == [(0.0, 2.0), (0.5, 0.5)]


@pytest.mark.parametrize("command, name", (("certify", "certify.json"), ("geometry", "polytope.json")))
def test_certify_and_geometry_read_a_solve_report(tmp_path, model21, command, name):
    # a solve report once exited 2 with "design file has no atoms"
    assert main(["solve", "--model", str(model21), "--criterion", "D", "--out", str(tmp_path / "solve")]) == 0
    report = tmp_path / "solve" / "report.json"
    extracted = tmp_path / "design.json"
    extracted.write_text(json.dumps(json.loads(report.read_text())["design"]))
    outputs = []
    for path in (report, extracted):
        out = tmp_path / path.stem
        assert main([command, "--model", str(model21), "--design", str(path), "--out", str(out)]) == 0
        outputs.append({k: v for k, v in json.loads((out / name).read_text()).items() if k != "config_hash"})
    assert outputs[0] == outputs[1]


def test_garza_command(tmp_path):
    model = tmp_path / "wpoly.json"
    model.write_text(
        json.dumps(
            {
                "family": "weighted-polynomial",
                "params": {"degree": 2},
                "space": {"bounds": [[0, 1]], "steps": [0.001]},
            }
        )
    )
    out, again = tmp_path / "out", tmp_path / "again"
    for target in (out, again):
        assert main(["garza", "--model", str(model), "--out", str(target)]) == 0
    rep = json.loads((out / "garza.json").read_text())
    assert rep["injective"] is True
    assert rep["saturation_bound"] == 3

    spec, steps = load_model(model)
    cands = default_candidates(spec, steps)
    lines = (out / "norms.csv").read_text().splitlines()
    assert lines[0] == "x0,norm_sq"
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert table.shape == (len(cands), 2)
    assert np.array_equal(table[:, :1], cands.points)
    assert np.array_equal(table[:, 1], garza_report(spec, cands).norm_values)
    for name in ("garza.json", "norms.csv"):
        assert (out / name).read_bytes() == (again / name).read_bytes()


def test_garza_negative_norm_tol_exits_2(tmp_path, model21):
    for bad in ("-1", "nan", "inf"):
        out = tmp_path / f"out{bad}"
        assert main(["garza", "--model", str(model21), "--norm-tol", bad, "--out", str(out)]) == 2
        assert not (out / "garza.json").exists()


def test_certify_nan_tol_exits_2(tmp_path, model21, design21):
    out = tmp_path / "out"
    argv = ["certify", "--model", str(model21), "--design", str(design21), "--tol", "nan"]
    assert main(argv + ["--out", str(out)]) == 2
    assert not (out / "certify.json").exists()


@pytest.mark.parametrize("command", ("solve", "certify", "geometry"))
def test_infinite_tol_exits_2(tmp_path, capsys, model21, command):
    # an infinite tolerance once certified a design 7.65 above the normality
    # bound, warned of a truncated axis on a grid with none, and made solve
    # exit 3 at a "tight (-inf)" truncated boundary
    design = tmp_path / "off.json"
    design.write_text(json.dumps({"atoms": [{"x": [0.5, 0.5], "w": 0.5}, {"x": [0.2, 0.9], "w": 0.5}]}))
    out = tmp_path / "out"
    argv = [command, "--model", str(model21), "--criterion", "D", "--tol", "inf", "--out", str(out)]
    if command != "solve":
        argv += ["--design", str(design)]
    assert main(argv) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("flag", ("--tol", "--steps"))
def test_solve_nan_tol_or_steps_exits_2(tmp_path, model21, flag):
    # a NaN tolerance once ran every Newton loop to its budget and exited 3
    # (one outer iteration keeps that short); a NaN step once ended in a
    # ValueError traceback
    out = tmp_path / "out"
    argv = ["solve", "--model", str(model21), "--criterion", "D", "--max-iters", "1", flag, "nan"]
    argv += ["--out", str(out)]
    assert main(argv) == 2
    assert not (out / "report.json").exists()


def test_solve_negative_seed_exits_2(tmp_path, capsys, model21):
    # a negative seed once ended in numpy's ValueError traceback
    out = tmp_path / "out"
    argv = ["solve", "--model", str(model21), "--criterion", "A", "--seed", "-1", "--out", str(out)]
    assert main(argv) == 2
    assert "seed must be a nonnegative integer" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def _assert_csv_matches_per_value_format(path, axes, values):
    """The grid of ``axes`` written with ``values``, checked against Python's
    %.17g of every number of its meshgrid table."""
    _write_csv(path, "value", axes, values)
    mesh = [m.ravel() for m in np.meshgrid(*axes, indexing="ij")]
    header = [f"x{j}" for j in range(len(axes))] + ["value"]
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in np.column_stack((*mesh, values))]
    written = path.read_bytes()
    assert written == ("\n".join(lines) + "\n").encode("utf-8")
    return written


def test_write_csv_matches_per_value_format(tmp_path):
    rng = np.random.default_rng(5)
    a0, a1 = (rng.standard_normal(m) * 10.0 ** rng.integers(-300, 300, size=m) for m in (100, 200))
    n = a0.size * a1.size  # two full blocks and a partial third
    assert 2 * CSV_BLOCK < n < 3 * CSV_BLOCK
    value = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n)
    a0[0], a1[0], value[0] = -0.0, 5e-324, 1e-300
    # rows CSV_BLOCK - 1 and CSV_BLOCK, on both sides of the first block boundary
    row0, col0 = divmod(CSV_BLOCK - 1, a1.size)
    a0[row0], a1[col0 : col0 + 2], value[CSV_BLOCK - 1 : CSV_BLOCK + 1] = 1.0, [1e22, -5e-324], [-1.5, 0.0]
    a0[row0 + 1] = -1e22
    a0[-1], a1[-1], value[-1] = 0.0, -1e-300, 1.0
    # the value column is formatted value by value, not per distinct value
    specials = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.5e-320, 2.2e-308]
    value[1 : 1 + len(specials)] = specials
    value[CSV_BLOCK - 5 : CSV_BLOCK - 1] = 0.1  # a repeat across the block boundary
    value[CSV_BLOCK + 1 : CSV_BLOCK + 5] = 0.1
    value[-10:-1] = specials[::-1]
    written = _assert_csv_matches_per_value_format(tmp_path / "blocked.csv", (a0, a1), value)
    assert b"\n-0,4.9406564584124654e-324,1e-300\n" in written
    assert b"\n1,1e+22,-1.5\n1,-4.9406564584124654e-324,0\n" in written
    values = [line.rsplit(b",", 1)[1] for line in written.splitlines()[2 : 2 + len(specials)]]
    assert values == [
        b"-0", b"0", b"nan", b"nan", b"inf", b"-inf",
        b"4.9406564584124654e-324", b"-2.4999721679567075e-320", b"2.2000000000000002e-308",
    ]


def test_write_csv_formats_repeated_values_per_row(tmp_path):
    # a 2-D grid: each coordinate repeats many times per block
    axis = np.linspace(-1.0, 1.0, 151)
    n = axis.size**2
    assert 2 * CSV_BLOCK < n < 3 * CSV_BLOCK
    rng = np.random.default_rng(11)
    # few distinct values in the last column, so signed zeros and NaN repeat too
    pool = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 0.1, 1 / 3, 5e-324])
    value = pool[rng.integers(pool.size, size=n)]
    value[:4] = [0.0, -0.0, -0.0, 0.0]  # both zeros in one column of one block
    # one value on both sides of the first block boundary, and a zero whose sign flips there
    value[CSV_BLOCK - 3 : CSV_BLOCK + 3] = 0.7
    value[CSV_BLOCK - 1], value[CSV_BLOCK] = -0.0, 0.0
    written = _assert_csv_matches_per_value_format(tmp_path / "grid.csv", (axis, axis), value)
    lines = written.decode("utf-8").splitlines()[1:]
    assert [line.split(",")[2] for line in lines[:4]] == ["0", "-0", "-0", "0"]
    assert [line.split(",")[2] for line in lines[CSV_BLOCK - 2 : CSV_BLOCK + 2]] == [
        "0.69999999999999996", "-0", "0", "0.69999999999999996",
    ]
    assert any(line.endswith(",nan") for line in lines)
    assert lines[0].startswith("-1,-1,") and lines[-1].startswith("1,1,")


def test_write_csv_formats_coordinates_once_per_table(tmp_path, monkeypatch):
    # the 151 x 151 grid of the test above, written in three blocks
    axis = np.linspace(-1.0, 1.0, 151)
    n = axis.size**2
    blocks = -(-n // CSV_BLOCK)
    assert blocks == 3
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return _format_17g(x)

    monkeypatch.setattr("optdesign.cli._format_17g", counted)
    _write_csv(tmp_path / "grid.csv", "value", (axis, axis), np.arange(n) / 7.0)
    # each axis's 151 coordinates once, then each block's value column
    assert sizes == [151, 151] + [CSV_BLOCK] * (blocks - 1) + [n - (blocks - 1) * CSV_BLOCK]


def _write_table_csv(path, header, table):
    """The CSV writer as it was before it read the grid's axes: a table of
    point coordinates and values, each coordinate column's distinct values
    (by bit pattern) formatted once. The reference for the axis writer."""
    n, ncol = table.shape
    coords = []  # (text of each distinct value, index of each row's value) per column
    for j in range(ncol - 1):
        bits, inverse = np.unique(table[:, j].view(np.int64), return_inverse=True)
        coords.append((_format_17g(bits.view(np.float64)), inverse))
    slots = np.empty((min(n, CSV_BLOCK), ncol, _WIDTH + 1), np.uint8)
    slots[:, :, _WIDTH] = ord(",")
    slots[:, -1, _WIDTH] = ord("\n")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, n, CSV_BLOCK):
            block = table[start : start + CSV_BLOCK]
            rows = slots[: block.shape[0]]
            for j, (text, inverse) in enumerate(coords):
                rows[:, j, :_WIDTH] = np.take(text, inverse[start : start + CSV_BLOCK], axis=0)
            rows[:, -1, :_WIDTH] = _format_17g(block[:, -1])
            fh.write(rows.tobytes().translate(None, b"\0"))


@pytest.mark.parametrize(
    "space, steps",
    [
        (interval(-1.0, 2.0), 1e-4),  # 30,001 rows in four blocks
        (DesignSpace(((0.0, 1.0), (-1.0, 1.0), (1e-12, 3.0))), (0.05, 0.1, 0.06)),  # 22,491 rows
    ],
    ids=["1-axis", "3-axis"],
)
def test_axis_writer_matches_the_table_writer(tmp_path, space, steps):
    grid = discretize(space, steps)
    n = len(grid)
    assert n > 2 * CSV_BLOCK
    value = np.random.default_rng(7).standard_normal(n) / 3.0
    value[:3] = [-0.0, np.nan, 1e-310]
    _write_csv(tmp_path / "axes.csv", "value", grid.product_axes, value)
    header = [f"x{j}" for j in range(space.dimension)] + ["value"]
    _write_table_csv(tmp_path / "table.csv", header, np.column_stack((grid.points, value)))
    assert (tmp_path / "axes.csv").read_bytes() == (tmp_path / "table.csv").read_bytes()


def _formatted(values):
    """The text _format_17g gives each value, formatted CSV_BLOCK values at a time."""
    out = []
    for start in range(0, values.size, CSV_BLOCK):
        text = _format_17g(values[start : start + CSV_BLOCK])
        lines = np.empty((text.shape[0], text.shape[1] + 1), np.uint8)
        lines[:, :-1] = text
        lines[:, -1] = ord("\n")
        out += lines.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    return out


def _printf_cases(rng):
    def both_signs(x):
        return np.concatenate([x, -x])

    # random bit patterns over all finite doubles, both signs
    bits = rng.integers(0, 2**64, size=300_000, dtype=np.uint64).view(np.float64)
    parts = [bits[np.isfinite(bits)]]
    # every decade of the exact range
    for k in range(-10, 15):
        parts.append(both_signs(10.0**k * rng.uniform(1.0, 10.0, 12_000)))
    # both range edges, the powers of ten, and their neighbours up to 3 ulps away
    marks = np.array([_EXACT_MIN, _EXACT_MAX] + [float(f"1e{k}") for k in range(-12, 18)])
    for _ in range(3):
        marks = np.concatenate([marks, np.nextafter(marks, 0.0), np.nextafter(marks, np.inf)])
    parts.append(both_signs(np.unique(marks)))
    # integers of 1 to 17 digits, their halves and their eighths: short exact
    # expansions, so trailing zeros and ties at the 17th digit
    for digits in range(1, 18):
        n = rng.integers(10 ** (digits - 1), 10**digits, size=3_000).astype(np.float64)
        parts.append(both_signs(np.concatenate([n, n / 2, n / 8])))
    # exact halfway cases at 17 digits: x = r * 2**-(q + 1), r odd, so that
    # x * 10**q = r * 5**q / 2 ends in .5 and round-half-even sets the last
    # digit; for q >= 25 every odd r gives 18 or more digits, so no such case
    for q in range(1, 28):
        lo = -(-2 * 10**16 // 5**q)
        hi = min(2 * 10**17 // 5**q, 2**53)
        if lo >= hi:
            assert q >= 25
            continue
        r = rng.integers(lo, hi, size=4_000) | 1
        r = r[r < hi]
        parts.append(both_signs(r.astype(np.float64) * 2.0 ** -(q + 1)))
    return np.concatenate(parts)


def test_format_17g_matches_printf():
    values = _printf_cases(np.random.default_rng(17))
    assert values.size >= 1_000_000
    exact = (np.abs(values) >= _EXACT_MIN) & (np.abs(values) < _EXACT_MAX)
    assert exact.sum() >= 800_000  # most values go through the integer kernel
    want = ["%.17g" % v for v in values.tolist()]
    got = _formatted(values)
    wrong = [(repr(v), g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want)
    assert not wrong, f"{len(wrong)} values misformatted, first: {wrong[:5]}"


def test_solve_exits_3_when_certify_rejects_the_converged_design(tmp_path, capsys):
    # p:0.9 on the mixture: the solver stops with violation 6.9e-15, but a
    # support atom fails certify's support equality, so the solve is unconverged
    model = tmp_path / "mixture.json"
    model.write_text(json.dumps({"family": "mixture-poly-exp", "params": {"theta3": 1.0}}))
    out = tmp_path / "out"
    argv = ["solve", "--model", str(model), "--steps", "0.02", "--criterion", "p:0.9"]
    assert main(argv + ["--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert report["certified_optimal"] is False
    assert "converged=False certified=False" in capsys.readouterr().out


def test_singular_p09_solve_is_unconverged_and_exits_3(tmp_path, capsys):
    # poly-4 on [0, 1] at p:0.9 ends on 3 atoms for k = 5: its optimum's small
    # weights lie below double precision, so M is singular. The solve reports
    # it unconverged, where it once claimed convergence and the CLI's certify
    # raised "singular information matrix" (exit 2)
    spec = {"family": "polynomial", "params": {"degree": 4}}
    m = model_from_dict(spec)[0]
    cands = default_candidates(m, 0.01)
    rep = solve(m, cands, parse_criterion("p:0.9", m.k))
    assert not rep.converged
    assert rep.design.m == 3
    model = tmp_path / "poly4.json"
    model.write_text(json.dumps(spec))
    out = tmp_path / "out"
    argv = ["solve", "--model", str(model), "--steps", "0.01", "--criterion", "p:0.9"]
    assert main(argv + ["--out", str(out)]) == 3
    assert json.loads((out / "report.json").read_text())["certified_optimal"] is False
    assert len((out / "sensitivity.csv").read_text().splitlines()) == 1 + len(cands)
    assert "converged=False certified=False" in capsys.readouterr().out


_GOOD_MODEL = {"family": "linear-2f-no-intercept", "params": {}}


@pytest.mark.parametrize(
    "model, dsgn, field",
    [
        ({**_GOOD_MODEL, "space": [[-1, 1]]}, None, "'space'"),
        ({**_GOOD_MODEL, "space": {"bounds": 5}}, None, "'space.bounds'"),
        ({**_GOOD_MODEL, "space": {"bounds": [[0]]}}, None, "'space.bounds'"),
        ({**_GOOD_MODEL, "space": {"bounds": [["a", 1]]}}, None, "'space.bounds'"),
        ({**_GOOD_MODEL, "space": "x"}, None, "'space'"),
        ({**_GOOD_MODEL, "params": [1]}, None, "'params'"),
        ({"family": "mixture-poly-exp", "params": {"theta3": "a"}}, None, "'params'"),
        (_GOOD_MODEL, {"atoms": 3}, "'atoms'"),
        (_GOOD_MODEL, [], "'atoms'"),
        (_GOOD_MODEL, {"atoms": [{"x": [0.0, "a"], "w": 1}]}, "'x'"),
        (_GOOD_MODEL, {"atoms": [{"x": [0.0, 1.0]}]}, "'w'"),
        (_GOOD_MODEL, {"atoms": [{"x": [[0.0, 1.0]], "w": 1}]}, "'x'"),
    ],
    ids=[
        "space-list", "bounds-number", "bounds-short-pair", "bounds-string", "space-string",
        "params-list", "params-value-string",
        "atoms-number", "design-list", "x-string", "atom-without-w", "x-nested",
    ],
)
def test_malformed_input_file_exits_2_naming_the_field(tmp_path, capsys, model, dsgn, field):
    model_path, design_path = tmp_path / "model.json", tmp_path / "design.json"
    model_path.write_text(json.dumps(model))
    design_path.write_text(json.dumps(dsgn if dsgn is not None else {"atoms": [
        {"x": [1.0, 0.0], "w": 0.5}, {"x": [0.0, 1.0], "w": 0.5},
    ]}))
    argv = ["certify", "--model", str(model_path), "--design", str(design_path)]
    assert main(argv + ["--criterion", "D", "--steps", "0.5", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert ("design" if dsgn is not None else "model") in err
    assert not (tmp_path / "out").exists()


def _audit(tmp_path, model, dsgn, slice_map):
    out = tmp_path / "out"
    code = main(
        [
            "audit",
            "--model", str(model),
            "--design", str(dsgn),
            "--slice-map", slice_map,
            "--out", str(out),
        ]
    )
    return code, out


def test_audit_missing_conditional_model_exits_2(tmp_path, model21, design21):
    code, out = _audit(tmp_path, model21, design21, "axis:2")
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("slice_map,message", [
    ("linear:1,0", "use axis:0"), ("linear:1,1,1", "use linear:<a1,a2>"),
])
def test_audit_linear_map_without_two_nonzero_coefficients_exits_2(
    tmp_path, capsys, model21, design21, slice_map, message
):
    code, out = _audit(tmp_path, model21, design21, slice_map)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ("audit", "decompose"))
@pytest.mark.parametrize("slice_map", ("axis:abc", "axis:", "linear:1,x"))
def test_malformed_slice_map_exits_2(tmp_path, capsys, model21, design21, command, slice_map):
    # int() and float() once raised their ValueError as a traceback
    out = tmp_path / "out"
    argv = [command, "--model", str(model21), "--design", str(design21)]
    assert main(argv + ["--slice-map", slice_map, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "use axis:<j> or linear:<a1,a2>" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ("audit", "decompose"))
@pytest.mark.parametrize("slice_map", ("linear:nan,1", "linear:1,inf"))
def test_non_finite_slice_map_exits_2_naming_the_slice_map(
    tmp_path, capsys, recwarn, model21, design21, command, slice_map
):
    # a NaN coefficient once exited 2 as a point outside the design-space
    # bounds, after numpy's RuntimeWarnings
    out = tmp_path / "out"
    argv = [command, "--model", str(model21), "--design", str(design21)]
    assert main(argv + ["--slice-map", slice_map, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: linear slice map needs finite coefficients")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("branch", ("slice", "splice"))
def test_inconclusive_audit_exits_3(tmp_path, monkeypatch, branch):
    # one slice left open, or a slice dominator whose splice does not verify
    stub_inconclusive_audit(monkeypatch, branch)
    model, dsgn = tmp_path / "growth.json", tmp_path / "corners.json"
    model.write_text(json.dumps({"family": "exp-growth-2f", "params": {"theta": [1.0, 1.0, 1.0]}}))
    dsgn.write_text(json.dumps(
        {"atoms": [{"x": [a, b], "w": 0.25} for a in (0.0, 1.0) for b in (0.0, 1.0)]}
    ))
    code, out = _audit(tmp_path, model, dsgn, "axis:0")
    assert code == 3
    rep = json.loads((out / "audit.json").read_text())
    assert rep["inconclusive"] is True and rep["admissible"] is False and rep["dominator"] is None
    assert rep["note"] == "some slices were inconclusive within budget"
    want = [{"t": 0.0, "admissible": True, "inconclusive": False},
            {"t": 1.0, "admissible": False, "inconclusive": True}]
    if branch == "splice":
        want = [{"t": t, "admissible": False, "inconclusive": False} for t in (0.0, 1.0)]
    assert rep["slices"] == want


def test_audit_line_model_by_axis(tmp_path, model21, design21):
    code, out = _audit(tmp_path, model21, design21, "axis:0")
    assert code == 0
    rep = json.loads((out / "audit.json").read_text())
    assert [s["t"] for s in rep["slices"]] == [0.0, 1.0]


def test_audit_command(tmp_path):
    model = tmp_path / "growth.json"
    model.write_text(
        json.dumps({"family": "exp-growth-2f", "params": {"theta": [1.0, 1.0, 1.0]}})
    )
    dsgn = tmp_path / "d.json"
    dsgn.write_text(
        json.dumps(
            {
                "atoms": [
                    {"x": [0.0, 0.0], "w": 0.25},
                    {"x": [0.0, 0.5], "w": 0.25},
                    {"x": [1.0, 0.0], "w": 0.25},
                    {"x": [1.0, 1.0], "w": 0.25},
                ]
            }
        )
    )
    out = tmp_path / "out"
    code = main(
        [
            "audit",
            "--model", str(model),
            "--design", str(dsgn),
            "--slice-map", "axis:0",
            "--out", str(out),
        ]
    )
    assert code == 0
    rep = json.loads((out / "audit.json").read_text())
    assert rep["admissible"] is False
    assert rep["dominator"] is not None


def test_decompose_command(tmp_path, design21):
    model = tmp_path / "interaction.json"
    model.write_text(json.dumps({"family": "interaction-2f", "params": {}}))
    out = tmp_path / "out"
    code = main(
        [
            "decompose",
            "--model", str(model),
            "--design", str(design21),
            "--slice-map", "linear:1,1",
            "--out", str(out),
        ]
    )
    assert code == 0
    rep = json.loads((out / "decomposition.json").read_text())
    assert rep["recompose_error"] <= 1e-10
    assert len(rep["slices"]) == 2  # t = 1 (two atoms) and t = 2


def test_missing_model_file_exits_2(tmp_path):
    code = main(["solve", "--model", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 2


def test_solve_non_convergence_exits_3(tmp_path, model21):
    init = tmp_path / "init.json"
    init.write_text(
        json.dumps(
            {
                "atoms": [
                    {"x": [0.1, 0.1], "w": 1 / 3},
                    {"x": [0.1, 0.9], "w": 1 / 3},
                    {"x": [0.9, 0.1], "w": 1 / 3},
                ]
            }
        )
    )
    code = main(
        [
            "solve",
            "--model", str(model21),
            "--max-iters", "1",
            "--init-design", str(init),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["converged"] is False


def test_e_solve_from_a_start_that_does_not_span_exits_2(tmp_path, capsys):
    # a one-atom start once ended in a numpy LinAlgError and its traceback
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"family": "interaction-2f", "params": {}}))
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"atoms": [{"x": [0.5, 0.5], "w": 1.0}]}))
    argv = ["solve", "--model", str(model), "--steps", "0.05", "--criterion", "E"]
    code = main(argv + ["--init-design", str(init), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "start design" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_geometry_on_suboptimal_design_exits_3(tmp_path, model21):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "atoms": [
                    {"x": [1.0, 1.0], "w": 0.5},
                    {"x": [1.0, 0.0], "w": 0.25},
                    {"x": [0.0, 1.0], "w": 0.25},
                ]
            }
        )
    )
    code = main(
        ["geometry", "--model", str(model21), "--design", str(bad), "--out", str(tmp_path)]
    )
    assert code == 3


def test_thread_cap_env_var():
    import os
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parents[1]
    script = (
        "import os; import optdesign; print(os.environ.get('OMP_NUM_THREADS'))"
    )
    env = {**os.environ, "OPTDESIGN_THREADS": "1", "PYTHONPATH": str(repo / "src")}
    env.pop("OMP_NUM_THREADS", None)
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "1"


def test_examples_filter_runs_single_row(capsys):
    code = main(["examples", "--filter", "two-factor-line-D"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("pass") == 1


def test_examples_detect_corrupted_golden(capsys, monkeypatch):
    corrupted = [dict(GOLDEN[0])]
    corrupted[0]["value"] = 0.9
    monkeypatch.setattr("optdesign.cli.GOLDEN", corrupted)
    code = main(["examples"])
    out = capsys.readouterr().out
    assert code != 0
    assert "FAIL" in out


def test_cli_on_a_grid_never_forms_its_points(tmp_path, monkeypatch):
    def no_mesh(axes):
        raise AssertionError("formed the grid's points")

    monkeypatch.setattr("optdesign.models._mesh", no_mesh)
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"family": "interaction-2f", "params": {}}))
    corners = tmp_path / "corners.json"
    atoms = [{"x": [a, b], "w": 0.25} for a in (0.0, 1.0) for b in (0.0, 1.0)]
    corners.write_text(json.dumps({"atoms": atoms}))
    grid = ["--model", str(model), "--steps", "0.01"]  # 10,201 rows
    for argv in (
        ["solve", *grid, "--criterion", "A"],
        ["certify", *grid, "--design", str(corners)],
        ["geometry", *grid, "--design", str(corners)],
        ["garza", *grid],
    ):
        out = tmp_path / argv[0]
        assert main([*argv, "--out", str(out)]) == 0
        csv = out / ("norms.csv" if argv[0] == "garza" else "sensitivity.csv")
        lines = csv.read_text().splitlines()
        assert len(lines) == 10_202 and lines[1].startswith("0,0,") and lines[-1].startswith("1,1,")
