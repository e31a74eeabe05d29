"""Solve/certify/audit benchmark for optdesign.

Run from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each workload is a closed loop: one process, one caller, with
``OPTDESIGN_THREADS=1`` set before the package is imported. The seed draws
the random dominator inputs (the solver's start is pinned, see
``workloads.SOLVER_SEED``); the library receives only the generated inputs.
Set-up (imports, models, candidate sets) is paid and timed before the op list
starts. The op list runs in whole passes until ``--seconds`` would be exceeded
(at least one pass); times are medians over passes.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one untraced
pass, then installs the span wrappers and repeats set-up and one pass, and
reports the per-layer metrics plus the tracing overhead. Spans are written to
``bench/.runs/`` when the run ends, and the deterministic counts are compared
with an earlier traced run of the same seed and source. The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
``correct`` is false when a returned dominator does not verify or a count
that must repeat does not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / ".runs"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import optdesign, scipy.optimize; "
    "print(time.perf_counter() - t)"
)

# (name, unit) of the gated metrics; see BENCHMARK.json. Every gated metric
# must be present and nonzero on every workload, so the failure share is
# gated as ok_frac = 1 - fail_frac, and audit_s / report_s (each run by one
# workload only) are printed but not gated.
END_TO_END = [
    ("wall_s", "s"), ("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("certified_frac", "ratio"), ("ok_frac", "ratio"),
]
EXTRA_END_TO_END = [("audit_s", "s"), ("report_s", "s"), ("fail_frac", "ratio")]
# per-op counts that must repeat exactly between passes and runs of one seed
DETERMINISTIC = (
    "solver.outer_iters", "solver.lp.calls", "certificates.lp.calls", "conditional.lp.calls",
    "models.eval_many.rows", "linalg.eigh.calls", "conditional.verdicts.inadmissible",
    "conditional.verdicts.admissible", "conditional.verdicts.inconclusive",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package() -> None:
    """Import optdesign from this checkout's ``src`` with one BLAS thread."""
    os.environ["OPTDESIGN_THREADS"] = "1"
    for var in THREAD_VARS:
        os.environ.pop(var, None)  # the package caps them from OPTDESIGN_THREADS
    sys.path.insert(0, str(SRC))
    import optdesign
    import scipy.optimize  # noqa: F401  (lazy in the package, paid at set-up)

    if Path(optdesign.__file__).resolve().parent != (SRC / "optdesign").resolve():
        raise SystemExit(f"error: imported optdesign from {optdesign.__file__}, not {SRC}")


def import_samples(n: int) -> list[float]:
    """Import time of the package in fresh interpreters (what a user pays per process)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(n):
        res = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPTDESIGN_THREADS": os.environ.get("OPTDESIGN_THREADS"),
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "optdesign").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_pass(ops, ctx):
    t0 = time.perf_counter()
    outcomes = [op(ctx) for op in ops]
    return time.perf_counter() - t0, outcomes


def pass_metrics(wall: float, outcomes) -> dict:
    solves = [o for o in outcomes if o.kind in ("solve", "cli")]
    ok = sum(o.ok for o in outcomes)
    m = {"wall_s": wall}
    for cls in ("solve", "audit", "report"):
        if any(cls in o.times for o in outcomes):
            m[f"{cls}_s"] = sum(o.times.get(cls, 0.0) for o in outcomes)
    m["certified_frac"] = sum(o.certified for o in solves) / len(solves)
    m["ok_frac"] = ok / len(outcomes)
    m["fail_frac"] = 1.0 - ok / len(outcomes)
    return m


def signature(outcomes) -> list:
    """What must repeat exactly between passes of one seed."""
    return [(o.name, o.ok, o.outer_iters, o.converged, o.certified, tuple(o.verdicts))
            for o in outcomes]


def layer_metrics(tracer, ctx) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced pass (set-up included)."""
    st = tracer.layer_stats()
    counts = tracer.counts

    def s(name, field="s"):
        return st[name][field] if name in st else 0.0

    def calls(name):
        return st[name]["calls"] if name in st else 0

    m = {}
    for layer in ("solver", "conditional", "certificates"):
        m[f"{layer}.lp.calls"] = calls(f"{layer}.lp")
        m[f"{layer}.lp.s"] = s(f"{layer}.lp")
        m[f"{layer}.lp.vars"] = counts[f"{layer}.lp.vars"]
        m[f"{layer}.lp.rows"] = counts[f"{layer}.lp.rows"]
    fd = "conditional.find_dominator"
    m[f"{fd}.calls"] = calls(fd)
    m[f"{fd}.s"] = s(fd)
    m[f"{fd}.self_s"] = s(fd) - tracer.child_time(fd, lambda name: name.endswith(".lp"))
    m["conditional.conditional_audit.s"] = s("conditional.conditional_audit")
    m["conditional.product_audit.s"] = s("conditional.product_audit")
    for cls in ("inadmissible", "admissible", "inconclusive"):
        m[f"conditional.verdicts.{cls}"] = counts[f"conditional.verdicts.{cls}"]
    m["solver.sweeps"] = counts["solver.sweeps"]
    m["solver.sweep.bytes_computed"] = counts["solver.sweep.bytes_computed"]
    bc = "certificates.build_certificate"
    m[f"{bc}.calls"] = calls(bc)
    m[f"{bc}.s"] = s(bc)
    m["criteria.psd_eig.calls"] = calls("criteria.psd_eig")
    m["criteria.psd_eig.s"] = s("criteria.psd_eig")
    m["linalg.eigh.calls"] = counts["linalg.eigh.calls"]
    m["solver.solve.s"] = s("solver.solve")
    m["solver.self_s"] = s("solver.solve", "self_s")
    for key in ("solver.outer_iters", "solver.converged", "solver.unconverged"):
        m[key] = counts[key]
    for name in ("designs.prune", "designs.merge_close", "designs.info_matrix"):
        m[f"{name}.calls"] = calls(name)
    m["models.eval_many.calls"] = calls("models.eval_many")
    m["models.eval_many.rows"] = counts["models.eval_many.rows"]
    m["models.eval_many.s"] = s("models.eval_many")
    m["models.discretize.points"] = counts["models.discretize.points"]
    m["models.discretize.s"] = s("models.discretize")
    for name in ("certificates.certify", "certificates.polytope_report",
                 "certificates.garza_report", "cli.solve"):
        m[f"{name}.s"] = s(name)
    m["cli.bytes_written"] = ctx.cli_bytes
    return m


def check_counts(workload: str, seed: int, counts: dict) -> str | None:
    """Compare deterministic counts with an earlier traced run of this seed and source."""
    path = RUNS / f"counts-{workload}-seed{seed}-{source_hash()}.json"
    mine = {k: counts[k] for k in DETERMINISTIC}
    if path.exists():
        before = json.loads(path.read_text(encoding="utf-8"))
        diff = {k: (before.get(k), v) for k, v in mine.items() if before.get(k) != v}
        if diff:
            return f"deterministic counts differ from an earlier run of this seed: {diff}"
        return None
    path.write_text(json.dumps(mine, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return None


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    return "bytes" if "bytes" in name else "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "optdesign" / "__init__.py").is_file():
        print(f"error: {SRC}/optdesign not found; run from the root of a repository checkout",
              file=sys.stderr)
        return 2
    import_package()
    import warnings

    import workloads  # imports numpy, after the package has capped the BLAS threads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")  # boundary warnings are expected on truncated grids
    wl = workloads.WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    RUNS.mkdir(exist_ok=True)
    env = environment(args.seed)
    print("env: " + json.dumps(env, sort_keys=True))

    def new_context():
        return workloads.Context(
            seed=args.seed, reference=reference["values"], workdir=RUNS / f"work-{os.getpid()}"
        )

    # set-up, repeated; each sample is a fresh-interpreter import plus one build
    imports = import_samples(SETUP_REPEATS)
    builds = []
    for _ in range(SETUP_REPEATS):
        ctx = new_context()
        t0 = time.perf_counter()
        wl.setup(ctx)
        builds.append(time.perf_counter() - t0)
    setup_s = statistics.median(i + b for i, b in zip(imports, builds))
    ops = wl.ops()

    problems = []
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, ctx))
        elapsed = time.perf_counter() - start
        if args.trace or elapsed + statistics.median(w for w, _ in passes) > args.seconds:
            break
    sig = signature(passes[0][1])
    if any(signature(o) != sig for _, o in passes[1:]):
        problems.append("op outcomes differ between passes of one seed")

    all_outcomes = [o for _, outs in passes for o in outs]
    per_pass = [pass_metrics(w, outs) for w, outs in passes]
    e2e = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            # set-up is traced too, so models.discretize sees the candidate grids
            tctx = new_context()
            wl.setup(tctx)
            t_wall, t_outcomes = run_pass(ops, tctx)
        finally:
            tracer.uninstall()
        if signature(t_outcomes) != sig:
            problems.append("traced pass outcomes differ from the untraced pass")
        all_outcomes += t_outcomes
        layer = layer_metrics(tracer, tctx)
        layer["trace.overhead_s"] = t_wall - passes[0][0]
        children = tracer.child_time("solver.solve")
        msg = check_counts(args.workload, args.seed, layer)
        if msg:
            problems.append(msg)
        tracer.write(RUNS / f"spans-{args.workload}-seed{args.seed}.csv")

    # per-op table
    for o in passes[0][1]:
        t = sum(o.times.values())
        status = "ok  " if o.ok else "FAIL"
        print(f"  {status} {o.name:<32} {t:8.3f} s  {o.reason}")
    wrong = [o.name for o in all_outcomes if o.wrong]
    if wrong:
        problems.append(f"returned dominators fail verification: {sorted(set(wrong))}")
    baseline = reference["baseline_failures"].get(args.workload, {})
    failing = {o.name for o in passes[0][1] if not o.ok}
    print(f"failures: {len(failing)}/{len(ops)} ops; seed-0 baseline {len(baseline)}; "
          f"new vs baseline {sorted(failing - set(baseline))}; "
          f"fixed vs baseline {sorted(set(baseline) - failing)}")
    print(f"passes: {len(passes)}  set-up samples (import + build): "
          + ", ".join(f"{i:.3f}+{b:.3f}" for i, b in zip(imports, builds)))

    for name, unit in END_TO_END + EXTRA_END_TO_END:
        shown = f"{e2e[name]:.6g} {unit}" if name in e2e else "not exercised by this workload"
        print(f"metric {name} = {shown}")
    if layer is not None:
        print(f"layer solver.solve.s {layer['solver.solve.s']:.6f} = self "
              f"{layer['solver.self_s']:.6f} + child spans {children:.6f}")
        for name, value in layer.items():
            print(f"layer {name} = {value:.9g}")
    for p in problems:
        print(f"problem: {p}")

    if args.trace:
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in layer.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "setup_samples": {"import_s": imports, "build_s": builds},
        "passes": [{"wall_s": w, "ops": [vars(o) for o in outs]} for w, outs in passes],
        "end_to_end": e2e, "per_layer": layer, "problems": problems,
    }
    shutil.rmtree(ctx.workdir, ignore_errors=True)
    (RUNS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8"
    )
    result = {
        "correct": not problems,
        "attempted": len(all_outcomes),
        "failed": sum(not o.ok for o in all_outcomes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
