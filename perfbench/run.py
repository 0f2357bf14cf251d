"""Benchmark of tikmor solve batches, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 36 --trace 0

One process runs one workload as a closed loop: one solve at a time, the
next starting when the previous one (its trace CSV written and its output
checked) is done. BLAS runs on one thread. The solves repeat in passes
until the next pass would end after ``--seconds``; at least one pass runs.
``--seed`` picks the generated problems (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes (at least one of each), records layer spans in
the traced ones and prints the per-layer metrics, each for one set-up
plus one traced pass. The last line of standard output is the result as
JSON; the lines before it describe the run. Each run also writes its full
record to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 3  # set-ups timed per run: this process plus two children

END_TO_END_UNITS = {
    "solves_per_s": "1/s",
    "solve_s.p50": "s",
    "solve_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "converged_ratio": "1",
    "iters": "count",
}
SELF_TIMED = ("ntm.solve", "pntm.solve", "bidiag.expand", "reference.gbit", "reference.cgls")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small problems, for the smoke test")
    ap.add_argument("--setup-only", action="store_true",
                    help="time import and problem build, print them, exit")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_tikmor():
    """Import the package from this checkout's src/ and time it."""
    src = ROOT / "src"
    if not (src / "tikmor" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tikmor package under {src}")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import tikmor
    seconds = perf_counter() - t0
    if Path(tikmor.__file__).resolve().parent != src / "tikmor":
        raise SystemExit(f"perfbench: imported tikmor from {tikmor.__file__}, not {src}")
    return seconds


def child_setups(args):
    """Set-up times of fresh interpreters doing this run's import and build."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up child failed:\n{proc.stderr}")
        timing = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(timing["import_s"] + timing["build_s"])
    return samples


def environment():
    import numpy as np
    import scipy

    info = {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "unknown",
        "git_sha": git_sha(),
    }
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return info


def git_sha():
    """HEAD of the checkout, read from .git directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(items, tmp, tracer, solve_ids):
    """Solve every (problem, method) once; return one record per solve."""
    from workloads import check, morozov_gap

    records = []
    for item in items:
        for label, solve in item.methods:
            rec = {"problem": item.pid, "method": label}
            solve_id = next(solve_ids)
            if tracer is not None:
                tracer.begin_solve(solve_id)
            t0 = perf_counter()
            try:
                out = solve(item.problem)
            except Exception as exc:  # a raw or typed failure counts; the loop goes on
                rec.update(seconds=perf_counter() - t0, errors=[repr(exc)])
                rec["cycle_s"] = rec["seconds"]
                traceback.print_exc(file=sys.stderr)
                records.append(rec)
                continue
            finally:
                if tracer is not None:
                    tracer.end_solve()
            rec["seconds"] = perf_counter() - t0
            path = tmp / (re.sub(r"[^A-Za-z0-9_.-]", "_", f"{item.pid}-{label}") + ".csv")
            try:
                out.trace.write_csv(path)
                rec.update(trace_rows=len(out.trace), trace_bytes=path.stat().st_size)
                errors = check(item.problem, out)
            except Exception as exc:
                errors = [repr(exc)]
            rec.update(
                iters=out.iters, alpha=out.alpha, converged=bool(out.converged),
                newton_iters=out.newton_iters, krylov_iters=out.krylov_iters,
                errors=errors, outcome=out,
            )
            if out.morozov and out.converged and not errors:
                rec["morozov_gap"] = morozov_gap(item.problem, out)
            rec["cycle_s"] = perf_counter() - t0
            records.append(rec)
    return records


def digest_line(workload, rec):
    if "iters" not in rec:
        return f"{workload},{rec['problem']},{rec['method']},error,{rec['errors'][0]}"
    return (f"{workload},{rec['problem']},{rec['method']},{rec['iters']},"
            f"{rec['alpha']!r},{rec['converged']}")


def timing_metrics(passes):
    """solves_per_s, solve_s.p50 and solve_s.tail of a run.

    Passes repeat the same solves, so each (problem, method) is timed once
    per pass. Noise on a shared machine only ever slows a solve down, and
    it comes in spells of seconds, so a solve's fastest time over the
    passes is its steadiest estimate and is the time used here. The p50 is
    the lower median, so it is always one solve's time and never the mean
    of a fast and a slow solver's times. solves_per_s divides the solves
    of a pass by the sum of their fastest cycle times (solve, trace write
    and output check). No workload has the eleven or more solves per pass
    that a percentile with ten solves above it needs, so the tail is the
    slowest solve.
    """
    best, best_cycle = {}, {}
    for _, _, records in passes:
        for r in records:
            key = (r["problem"], r["method"])
            best[key] = min(best.get(key, r["seconds"]), r["seconds"])
            best_cycle[key] = min(best_cycle.get(key, r["cycle_s"]), r["cycle_s"])
    completed = sum(1 for r in passes[0][2] if "iters" in r)
    return {
        "solves_per_s": completed / sum(best_cycle.values()),
        "solve_s.p50": statistics.median_low(best.values()),
        "solve_s.tail": max(best.values()),
    }


def alpha_gap(items, records):
    by_key = {(r["problem"], r["method"]): r for r in records}
    worst = 0.0
    for item in items:
        for a, b in item.pairs:
            ra, rb = by_key.get((item.pid, a)), by_key.get((item.pid, b))
            if ra and rb and ra.get("converged") and rb.get("converged"):
                worst = max(worst, abs(ra["alpha"] - rb["alpha"]) / abs(rb["alpha"]))
    return worst


def solver_figures(items, records):
    """Figures of one pass that need no timing: counts, ratios, gaps."""
    from workloads import full_steps, inner_converged

    n = len(records)
    ok = [r for r in records if "iters" in r and not r["errors"]]
    full = steps = reached = outer = inner_total = 0
    for r in ok:
        out = r["outcome"]
        if out.method == "ntm":
            f, s = full_steps(out)
            full, steps = full + f, steps + s
        elif out.method == "pntm":
            c, o = inner_converged(out)
            reached, outer = reached + c, outer + o
            inner_total += out.newton_iters
    gaps = [r["morozov_gap"] for r in records if "morozov_gap" in r]
    return {
        "converged_ratio": sum(r["converged"] for r in ok) / n,
        "fail_ratio": (n - len(ok)) / n,
        "unconverged_ratio": sum(not r["converged"] for r in ok) / n,
        "newton_iters": sum(r.get("newton_iters", 0) for r in records),
        "krylov_iters": sum(r.get("krylov_iters", 0) for r in records),
        "morozov_gap.max": max(gaps, default=0.0),
        "alpha_gap.max": alpha_gap(items, records),
        "ntm.full_step_ratio": full / steps if steps else 0.0,
        "pntm.inner_per_outer": inner_total / outer if outer else 0.0,
        "pntm.inner_converged_ratio": reached / outer if outer else 0.0,
        "trace.write_csv.rows": sum(r.get("trace_rows", 0) for r in records),
        "trace.write_csv.bytes": sum(r.get("trace_bytes", 0) for r in records),
    }


def layer_metrics(tracer, traced_walls, untraced_walls, figures):
    """Per-layer metrics: one set-up plus one traced pass."""
    import numpy as np
    from tracer import SPAN_NAMES

    n_traced = len(traced_walls)
    spans = tracer.spans()
    in_setup = spans["solve_id"] < 0

    def per_pass(values, sel):
        return float(values[sel & in_setup].sum() + values[sel & ~in_setup].sum() / n_traced)

    ones = np.ones(len(in_setup))
    out = {}
    for name_id, name in enumerate(SPAN_NAMES):
        sel = spans["name_id"] == name_id
        out[f"{name}.calls"] = (per_pass(ones, sel), "count")
        out[f"{name}.s"] = (per_pass(spans["duration"], sel), "s")
        if name in SELF_TIMED:
            out[f"{name}.self_s"] = (per_pass(spans["self"], sel), "s")
    setup_bytes, setup_flops = tracer.setup_dense
    out["linop.dense.bytes_computed"] = (
        setup_bytes + (tracer.dense_bytes - setup_bytes) / n_traced, "B")
    out["linop.dense.flops_computed"] = (
        setup_flops + (tracer.dense_flops - setup_flops) / n_traced, "flop")
    out["trace_overhead_ratio"] = (min(traced_walls) / min(untraced_walls) - 1, "1")
    out["untraced_s"] = (tracer.untraced_seconds(spans) / n_traced, "s")
    out["tracer.missing_entries"] = (len(tracer.missing), "count")
    units = {"trace.write_csv.rows": "count", "trace.write_csv.bytes": "B",
             "newton_iters": "count", "krylov_iters": "count", "ntm.full_step_ratio": "1",
             "pntm.inner_per_outer": "1", "pntm.inner_converged_ratio": "1",
             "fail_ratio": "1", "unconverged_ratio": "1",
             "morozov_gap.max": "1", "alpha_gap.max": "1"}
    for name, unit in units.items():
        out[name] = (figures[name], unit)
    return out, spans


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads, in this process and its children
        os.environ[var] = "1"
    import_s = import_tikmor()

    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    t0 = perf_counter()
    items = WORKLOADS[args.workload](args.seed, args.tiny)
    build_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"import_s": import_s, "build_s": build_s}))
        return 0
    if tracer is not None:
        tracer.remove()
        tracer.end_setup()
        setup = [import_s + build_s]
    else:
        setup = [import_s + build_s] + child_setups(args)

    work = BENCH_DIR / ".work"
    work.mkdir(exist_ok=True)
    solve_ids = itertools.count()
    passes = []  # (traced, wall, records)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        t_start = perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install()
            t0 = perf_counter()
            try:
                records = run_pass(items, Path(tmp), tracer if traced else None, solve_ids)
            finally:
                if traced:
                    tracer.remove()
            if passes:  # only the first pass's outputs feed the figures
                for r in records:
                    r.pop("outcome", None)
            passes.append((traced, perf_counter() - t0, records))
            elapsed = perf_counter() - t_start
            need_more = tracer is not None and len(passes) < 2
            if not need_more and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    all_records = [r for _, _, recs in passes for r in recs]
    first = passes[0][2]
    lines = [digest_line(args.workload, r) for r in first]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    repeated = all(
        [digest_line(args.workload, r) for r in recs] == lines for _, _, recs in passes
    )
    attempted = len(all_records)
    failed = sum(1 for r in all_records if r["errors"])
    figures = solver_figures(items, first)

    env = environment()
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {len(passes)} solves {attempted} failed {failed}")
    print("# env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(f"# solve {line}")
    print(f"# digest {digest} repeated_in_every_pass={repeated}")
    for r in all_records:
        for err in r["errors"]:
            print(f"# FAILED {r['problem']} {r['method']}: {err}")

    if tracer is None:
        values = timing_metrics(passes)
        values.update({
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "converged_ratio": figures["converged_ratio"],
            "iters": figures["newton_iters"] + figures["krylov_iters"],
        })
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"# times are the best of {len(passes)} passes; set-up samples {setup}")
        spans = None
    else:
        traced_walls = [w for t, w, _ in passes if t]
        untraced_walls = [w for t, w, _ in passes if not t]
        layer, spans = layer_metrics(tracer, traced_walls, untraced_walls, figures)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        if tracer.missing:
            print(f"# missing entry points (not traced): {', '.join(tracer.missing)}")
    for name, m in metrics.items():
        print(f"# {name:<34} {m['value']!r:>24} {m['unit']}")

    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if spans is not None:
        tracer.save(results / f"{stem}-spans.npz", spans)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "env": env, "digest": digest,
        "passes": [{"traced": t, "wall_s": w} for t, w, _ in passes],
        "setup_samples_s": setup, "figures": figures, "metrics": metrics,
        "missing_entry_points": tracer.missing if tracer else [],
        "solves": [{k: v for k, v in r.items() if k != "outcome"} for r in all_records],
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    result = {"correct": failed == 0 and repeated, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
