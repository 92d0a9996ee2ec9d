"""In-memory span and counter recorder for the traced benchmark run.

A span has a name, a start, an end, the index of its parent span and the
run id of the benchmark operation that caused it.  Spans nest because every
instrumented call is synchronous on one thread: a call made while another
instrumented call is open becomes its child.  Nothing is written while the
run is going; ``Tracer.dump`` writes everything once at the end.

``install`` wraps the public entry point of each ``parisi_lab`` module with a
span, in every module namespace where callers look the name up (several
modules import functions by name), and returns a function that restores the
originals.  Names that a later version of the library no longer has are
skipped and listed, so a refactor leaves their metrics at zero instead of
breaking the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1, run id].
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.run_id = ""
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, after=None):
        """``fn`` with a span around each call; ``after(tracer, result, args,
        seconds)`` runs on return to record counters."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(self, result, args, record[2] - record[1])
            return result

        return traced

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def totals(self, run_ids=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (duration minus
        the time covered by direct children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, run_id) in enumerate(self.spans):
            if run_ids is not None and run_id not in run_ids:
                continue
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def nesting_violations(self) -> list[int]:
        """Indices of spans that do not lie inside their parent's interval or
        do not share its run id."""
        bad = []
        for i, (_, start, end, parent, run_id) in enumerate(self.spans):
            if end < start:
                bad.append(i)
            elif parent >= 0:
                _, p_start, p_end, _, p_run = self.spans[parent]
                if start < p_start or end > p_end or run_id != p_run:
                    bad.append(i)
        return bad

    def dump(self, path: Path) -> None:
        payload = {
            "fields": ["name", "start", "end", "parent", "run_id"],
            "spans": self.spans,
            "counters": dict(self.counters),
            "errors": dict(self.errors),
            "uninstrumented": self.missing,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


# ---------------------------------------------------------------------------
# Counter hooks, one per instrumented entry point


def _g_points(tr, result, args, seconds):
    tc, size = args[0], np.size(args[1])
    tr.count("measures.g_points", size // tc.dim if tc.dim > 1 else size)


def _propagate_points(tr, result, args, seconds):
    axes = args[3]
    points = 1
    for axis in axes:
        points *= len(axis)
    tr.count("recursion.grid_points", points)


def _eval_engine(tr, result, args, seconds):
    if getattr(result, "engine", "") == "monte_carlo":
        tr.count("recursion.mc_s", seconds)


def _saddle_evals(tr, result, args, seconds):
    tr.count("saddle.objective_evals", result.evaluations)


def _pde_solution(tr, result, args, seconds):
    tr.count("pde.grid_cells", result.values.size)
    tr.counters["pde.fixpoint_iters"] = max(tr.counters["pde.fixpoint_iters"], result.fixpoint_iters)


def _csv_bytes(tr, result, args, seconds):
    tr.count("pde.csv_bytes", len(result.encode()))


def _cascade_leaves(tr, result, args, seconds):
    tr.count("cascades.leaves", result.leaf_weights.size)


def _sk_states(tr, result, args, seconds):
    disorder, space = args[0], args[3]
    tr.count("sk.states", space.size**disorder.n_sites)
    if disorder.n_sites == 16:
        tr.count("sk.enum_n16_calls")
        tr.count("sk.enum_n16_s", seconds)


def install(tracer: Tracer):
    """Wrap each layer's entry points; return a function that undoes it."""
    from parisi_lab import (
        acceptance,
        cascades,
        cli,
        gaussian,
        matrices,
        measures,
        pde,
        recursion,
        saddle,
        sk,
    )

    # (name looked up in these namespaces, span name, counter hook)
    targets = [
        ([measures.TerminalCondition], "__call__", "measures.g", _g_points),
        ([recursion, pde], "propagate_segment", "recursion.propagate", _propagate_points),
        ([recursion.GridFunction], "__init__", "recursion.spline_build", None),
        ([recursion, cli, cascades, acceptance], "recursion_value", "recursion.recursion_value", None),
        ([recursion, acceptance], "recursion_from_levels", "recursion.eval", _eval_engine),
        ([recursion, cli], "local_functional", "recursion.local_functional", None),
        ([saddle], "local_functional", "saddle.local_functional", None),
        ([saddle, cli, acceptance], "inner_minimize", "saddle.inner_minimize", _saddle_evals),
        ([matrices, saddle, measures, gaussian], "eigh_jacobi", "matrices.eigh_jacobi", None),
        ([gaussian], "closed_form_recursion", "gaussian.closed_form", None),
        ([gaussian, saddle], "minimize_parisi_1d", "gaussian.minimize_1d", None),
        ([gaussian], "minimize_cs_1d", "gaussian.minimize_1d", None),
        ([pde, cli, acceptance], "solve_parisi_pde", "pde.solve", _pde_solution),
        ([pde.PdeSolution], "to_csv", "pde.to_csv", _csv_bytes),
        ([cascades], "build_cascade", "cascades.build", _cascade_leaves),
        ([sk], "exact_local_free_energy", "sk.enumerate", _sk_states),
        ([cli], "run_config", "cli.run_config", None),
    ]
    undo = []
    for owners, attr, name, after in targets:
        # Every namespace that imported the name shares one wrapper.
        original = owners[0].__dict__.get(attr)
        traced = tracer.wrap(original, name, after) if original is not None else None
        for owner in owners:
            if traced is None or owner.__dict__.get(attr) is not original:
                tracer.missing.append(f"{owner.__name__}.{attr}")
                continue
            setattr(owner, attr, traced)
            undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def _bytes_written(tr, result, args, seconds):
    tr.count("cli.artifact_bytes", len(args[1].encode()))


def traced_path_type(tracer: Tracer):
    """A ``Path`` type whose ``write_text`` records a ``cli.write`` span and
    the bytes written, for the output directory handed to ``run_config``."""
    base = type(Path())
    write_text = tracer.wrap(base.write_text, "cli.write", _bytes_written)
    return type("TracedPath", (base,), {"write_text": write_text})
