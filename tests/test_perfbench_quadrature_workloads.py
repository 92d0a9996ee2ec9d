"""The benchmark's ``saddle_sk`` and ``recursion_ref`` workloads run at the
smoke size, untraced and traced.

``perfbench/spans.py`` instruments the quadrature engine by name and reads
``propagate_segment``'s arguments by position (the grid axes are the fourth),
so a change to that engine's entry points would otherwise surface first in a
benchmark run.  One untraced pass of each workload at ``workloads.TINY`` must
meet every reference check; one traced pass must raise nowhere, find every
entry point it instruments and count quadrature grid points.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload", ["saddle_sk", "recursion_ref"])
def test_quadrature_workload_passes_untraced_and_traced(workload, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import spans
    import workloads

    ops, _ = workloads.WORKLOADS[workload].build(41, workloads.TINY, workloads.Context(tmp_path))
    outcomes = run.run_pass(ops, 0)
    assert len(outcomes) == len(ops) > 0
    assert [(o.name, o.failure) for o in outcomes if o.failure is not None or not o.checked] == []

    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        traced = run.run_pass(ops, 1, tracer)
    finally:
        uninstall()
    assert [(o.name, o.failure) for o in traced if not o.checked] == []
    assert tracer.missing == []
    assert tracer.counters["recursion.grid_points"] > 0
