"""Smoke test of the benchmark: every workload at a tiny size through the
same code path as a real run, untraced and traced.

    python3 perfbench/smoke.py

Checks that every metric BENCHMARK.json declares is reported, that every
operation's reference check ran to a verdict (at tiny sizes a verdict may be
a failure: the saddle solve, for one, cannot converge in 30 evals), and that
every child span lies inside its parent and shares its run id.  Lists every
broken expectation and exits 1 if there is one.
"""

from __future__ import annotations

import sys

import run


def main() -> int:
    run.import_library()
    import workloads

    end_to_end, per_layer = run.declared_metrics()
    problems = []
    for name in workloads.WORKLOADS:
        for trace, declared in ((False, end_to_end), (True, per_layer)):
            record = run.run(name, seed=1, seconds=0.0, trace=trace, sizes=workloads.TINY, probes=1)
            tag = f"{name} trace={int(trace)}"
            missing = sorted(set(declared) - set(record["metrics"]))
            if missing:
                problems.append(f"{tag}: metrics not reported: {missing}")
            unchecked = [o.name for p in record["outcomes"] for o in p if not o.checked]
            if unchecked:
                problems.append(f"{tag}: reference check did not run for {unchecked}")
            if trace:
                tracer = record["tracer"]
                if not tracer.spans:
                    problems.append(f"{tag}: no spans recorded")
                if tracer.nesting_violations():
                    problems.append(f"{tag}: child spans outside their parents")
                if tracer.missing:
                    problems.append(f"{tag}: entry points not instrumented: {tracer.missing}")
            print(f"smoke {tag}: {record['attempted']} ops, {record['failed']} failed checks")
    for problem in problems:
        print(f"smoke FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
