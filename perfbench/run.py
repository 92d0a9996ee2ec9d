"""Benchmark runner for parisi_lab.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout.  One process, closed loop: the workload's fixed operation
list runs in passes, one operation after another, until ``--seconds`` have
passed; a pass is never cut, so a run measures at least one whole pass.
Every output is checked against its reference outside the timed calls.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` the run repeats the untraced
passes, then runs one more pass with every layer's entry points wrapped in
spans, and reports the per-layer metrics.  Full results, the environment and
the spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAYERS = ("measures", "recursion", "saddle", "matrices", "gaussian", "pde", "cascades", "sk", "cli")


@dataclass(frozen=True)
class Outcome:
    name: str
    kind: str
    seconds: float
    failure: str | None
    checked: bool           # the reference check ran to a verdict


def import_library() -> None:
    """Import parisi_lab from this checkout's ``src`` and nowhere else, with
    one BLAS thread unless the caller set a count: at these array sizes a
    second BLAS thread made no workload faster on a shared two-core host."""
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import parisi_lab

    if Path(parisi_lab.__file__).resolve().parent != ROOT / "src" / "parisi_lab":
        raise ImportError(f"parisi_lab imported from {parisi_lab.__file__}, not from this checkout")


def run_pass(ops, index: int, tracer=None) -> list[Outcome]:
    outcomes = []
    for op in ops:
        if tracer is not None:
            tracer.run_id = f"{index}:{op.name}"
        checked = False
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception:
            seconds = time.perf_counter() - start
            failure = traceback.format_exc()
        else:
            seconds = time.perf_counter() - start
            try:
                failure = op.check(result)
                checked = True
            except Exception:
                failure = traceback.format_exc()
        if failure is not None:
            print(f"FAILED {op.name}: {failure}", file=sys.stderr)
        outcomes.append(Outcome(op.name, op.kind, seconds, failure, checked))
    return outcomes


def run_passes(ops, seconds: float) -> list[list[Outcome]]:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, len(passes)))
    return passes


def wall(outcomes: list[Outcome]) -> float:
    return sum(o.seconds for o in outcomes)


def median_of_kind(passes, kind: str) -> float:
    times = [o.seconds for outcomes in passes for o in outcomes if o.kind == kind]
    return statistics.median(times) if times else 0.0


def setup_seconds(workload: str, seed: int, probes: int) -> list[float]:
    """Wall time of fresh processes that import the library, build the
    workload's inputs and run its warm-up operation."""
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
    }


def layer_metrics(tracer, outcomes: list[Outcome], index: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    totals = tracer.totals()
    c = tracer.counters

    def calls(name):
        return totals[name]["calls"] if name in totals else 0

    def seconds(name):
        return totals[name]["total_s"] if name in totals else 0.0

    objective = c["saddle.objective_evals"]
    accepted = calls("saddle.local_functional") - tracer.errors.get("saddle.local_functional", 0)
    cli_eval_ids = {f"{index}:{o.name}" for o in outcomes if o.kind == "cli_eval"}
    cli_evals = tracer.totals(cli_eval_ids).get("recursion.eval", {"calls": 0})["calls"]
    n16 = c["sk.enum_n16_calls"]
    out = {
        "measures.g_calls": calls("measures.g"),
        "measures.g_points": c["measures.g_points"],
        "measures.g_s": seconds("measures.g"),
        "recursion.propagate_calls": calls("recursion.propagate"),
        "recursion.propagate_s": seconds("recursion.propagate"),
        "recursion.spline_builds": calls("recursion.spline_build"),
        "recursion.spline_build_s": seconds("recursion.spline_build"),
        "recursion.grid_points": c["recursion.grid_points"],
        "recursion.evals": calls("recursion.eval"),
        "recursion.eval_s": seconds("recursion.eval"),
        "recursion.mc_s": c["recursion.mc_s"],
        "recursion.evals_per_cli_eval": cli_evals / len(cli_eval_ids) if cli_eval_ids else 0.0,
        "saddle.objective_evals": objective,
        "saddle.rejected_evals": objective - accepted,
        "saddle.useful_eval_ratio": accepted / objective if objective else 0.0,
        "saddle.local_functional_s": seconds("saddle.local_functional"),
        "saddle.optimizer_self_s": totals["saddle.inner_minimize"]["self_s"] if "saddle.inner_minimize" in totals else 0.0,
        "matrices.eigh_jacobi_calls": calls("matrices.eigh_jacobi"),
        "matrices.eigh_jacobi_s": seconds("matrices.eigh_jacobi"),
        "gaussian.closed_form_s": seconds("gaussian.closed_form"),
        "gaussian.minimize_1d_calls": calls("gaussian.minimize_1d"),
        "gaussian.minimize_1d_s": seconds("gaussian.minimize_1d"),
        "pde.solve_s": seconds("pde.solve"),
        "pde.fixpoint_iters": c["pde.fixpoint_iters"],
        "pde.grid_cells": c["pde.grid_cells"],
        "pde.csv_s": seconds("pde.to_csv"),
        "pde.csv_bytes": c["pde.csv_bytes"],
        "cascades.builds": calls("cascades.build"),
        "cascades.leaves": c["cascades.leaves"],
        "cascades.build_s": seconds("cascades.build"),
        "sk.enumerations": calls("sk.enumerate"),
        "sk.states": c["sk.states"],
        "sk.enum_s": seconds("sk.enumerate"),
        "sk.enum_s_per_sample_n16": c["sk.enum_n16_s"] / n16 if n16 else 0.0,
        "cli.commands": calls("cli.run_config"),
        "cli.write_s": seconds("cli.write"),
        "cli.artifact_bytes": c["cli.artifact_bytes"],
        "cli.reruns_identical": sum(
            1 for o in outcomes if o.name.endswith(" rerun") and o.failure is None
        ),
        "trace.spans": len(tracer.spans),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            (row["self_s"] for name, row in totals.items() if name.split(".", 1)[0] == layer), 0.0
        )
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool, sizes=None, probes=SETUP_PROBES) -> dict:
    """One benchmark run; returns the full result record."""
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="scratch-") as scratch:
        ctx = workloads.Context(Path(scratch))
        ops, warm_up = workload.build(seed, sizes or workloads.FULL, ctx)
        warm_up()
        passes = run_passes(ops, seconds)
        walls = [wall(p) for p in passes]
        named = {metric: median_of_kind(passes, kind) for metric, kind in workload.named.items()}
        record = {
            "workload": workload_name,
            "trace": int(trace),
            "environment": environment(seed),
            "passes": len(passes),
            "pass_walls_s": walls,
            "named": named,
        }
        if not trace:
            record["metrics"] = {
                "setup_s": statistics.median(setup_seconds(workload_name, seed, probes)),
                "wall_s": statistics.median(walls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        else:
            import spans

            tracer = spans.Tracer()
            uninstall = spans.install(tracer)
            ctx.path_type = spans.traced_path_type(tracer)
            try:
                traced = run_pass(ops, len(passes), tracer)
            finally:
                uninstall()
                ctx.path_type = Path
            passes.append(traced)
            metrics = layer_metrics(tracer, traced, len(passes) - 1)
            # Every workload reports every named timing; a foreign one reads 0.
            for other in workloads.WORKLOADS.values():
                for metric, kind in other.named.items():
                    metrics[metric] = median_of_kind(passes[:-1], kind)
            metrics["trace.wall_untraced_s"] = statistics.median(walls)
            metrics["trace.wall_traced_s"] = wall(traced)
            metrics["trace.overhead_s"] = wall(traced) - statistics.median(walls)
            record["metrics"] = metrics
            record["uninstrumented"] = tracer.missing
            record["tracer"] = tracer
    outcomes = [o for p in passes for o in p]
    failed = sum(1 for o in outcomes if o.failure is not None)
    record["attempted"] = len(outcomes)
    record["failed"] = failed
    record["metrics"]["ops_failed_frac"] = failed / len(outcomes)
    record["ops"] = [{"op": o.name, "seconds": o.seconds, "failure": o.failure} for o in outcomes]
    record["outcomes"] = passes
    return record


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, build the inputs and warm up, then exit (set-up probe)")
    args = parser.parse_args(argv)

    try:
        import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import parisi_lab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="scratch-", dir=OUT) as scratch:
            _, warm_up = workloads.WORKLOADS[args.workload].build(
                args.seed, workloads.FULL, workloads.Context(Path(scratch)))
            warm_up()
        return 0

    end_to_end, per_layer = declared_metrics()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    declared = per_layer if args.trace else end_to_end
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record.pop("outcomes")
    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.dump(OUT / f"{tag}-spans.json")
        violations = tracer.nesting_violations()
        if violations:
            print(f"perfbench: {len(violations)} spans lie outside their parent", file=sys.stderr)
            record["failed"] += 1
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2, default=float) + "\n")

    print(f"perfbench {tag}: {record['attempted']} ops, {record['failed']} failed, "
          f"{record['passes']} passes")
    for name, value in {**record["named"], **record["metrics"]}.items():
        print(f"  {name} = {value!r}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
