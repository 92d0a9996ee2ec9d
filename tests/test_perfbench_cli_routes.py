"""The benchmark's ``cli_routes`` checks hold at the smoke size.

One pass of ``perfbench``'s ``cli_routes`` workload at ``workloads.TINY``
runs every cheap CLI command twice through ``cli.run_config`` and checks each
op against its reference: exit status 0, the pde origin value within 1e-3 of
the recursion, and byte-identical reruns.  An artifact change that breaks
one of those checks fails here, in the fast suite, and not first in a
benchmark run.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_cli_routes_pass_meets_every_reference_check(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads

    ctx = workloads.Context(tmp_path)
    ops, _ = workloads.WORKLOADS["cli_routes"].build(41, workloads.TINY, ctx)
    outcomes = run.run_pass(ops, 0)
    assert len(outcomes) == len(ops) == 14
    assert [(o.name, o.failure) for o in outcomes if o.failure is not None or not o.checked] == []
