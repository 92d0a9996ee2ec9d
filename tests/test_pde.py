import numpy as np
import pytest
from scipy.linalg import solve_banded

from parisi_lab.matrices import sqrt_factor
from parisi_lab.measures import AprioriMeasure, EvalConfig, TerminalCondition
from parisi_lab.paths import DiscretePath, MonotoneChain, UnitPartition
from parisi_lab.pde import (
    CELL_BUDGET,
    PdeError,
    PdeProblem,
    _apply_banded,
    _grad,
    _second_diff_banded,
    simulate_control_value,
    solve_parisi_pde,
)
from parisi_lab.recursion import GRID_PAD, propagate_segment, recursion_value
from parisi_lab.sk import BudgetError

RADEMACHER = AprioriMeasure.rademacher()


def sk_path(x_int=(0.25, 0.6), qs=(0.3, 0.7)):
    part = UnitPartition.from_interior(list(x_int))
    chain = MonotoneChain([np.zeros((1, 1))] + [[[q]] for q in qs] + [np.ones((1, 1))])
    return DiscretePath(part, chain)


class Const:
    dim = 1

    def __call__(self, pts):
        return np.full(np.asarray(pts).shape[0], 1.7)


class Linear:
    dim = 1

    def __init__(self, a):
        self.a = a

    def __call__(self, pts):
        return self.a * np.asarray(pts)[:, 0]


def test_constant_terminal_is_fixed_point():
    sol = solve_parisi_pde(PdeProblem(sk_path(), Const(), spacing=0.02))
    assert sol.at_origin() == pytest.approx(1.7, abs=1e-10)
    assert np.allclose(sol.values, 1.7, atol=1e-10)


def test_linear_terminal_closed_form():
    a = 0.8
    sol = solve_parisi_pde(PdeProblem(sk_path(), Linear(a), spacing=0.01))
    expected = 0.25 * a**2 * 0.4 / 2 + 0.6 * a**2 * 0.3 / 2
    assert sol.at_origin() == pytest.approx(expected, abs=1e-8)


def test_sk_terminal_matches_recursion_and_refines():
    path = sk_path()
    tc = TerminalCondition(0.5, np.zeros((1, 1)), RADEMACHER)
    rec = recursion_value(path.partition, path.chain, tc).value
    e1 = abs(solve_parisi_pde(PdeProblem(path, tc, spacing=0.01)).at_origin() - rec)
    e2 = abs(solve_parisi_pde(PdeProblem(path, tc, spacing=0.005)).at_origin() - rec)
    assert e1 <= 1e-3
    assert e2 <= e1 / 3.0


def _solve_banded_sweep(problem):
    """Reference table of the backward Crank-Nicolson sweep with one
    ``solve_banded`` call, which factors the matrix again, per fixed-point
    iteration."""
    y = problem.grid()
    m, h = y.size, problem.spacing
    d2 = _second_diff_banded(m, h)
    f = np.asarray(problem.terminal(y.reshape(-1, 1)), dtype=float).reshape(m)
    rows = [f]
    for seg in range(problem.path.partition.levels, -1, -1):
        t0, t1, qdot, xw = problem.segment(seg)
        steps = problem.time_steps()[seg]
        dt = (t1 - t0) / steps
        a = qdot * dt / 4.0
        lhs = np.zeros((3, m))
        lhs[0, 1:] = -a * d2[0, 1:]
        lhs[1] = 1.0 - a * d2[1]
        lhs[2, :-1] = -a * d2[2, :-1]
        for _ in range(steps):
            expl = f + a * _apply_banded(d2, f) + a * xw * _grad(f, h) ** 2
            fk = f
            for _ in range(50):
                fn = solve_banded((1, 1), lhs, expl + a * xw * _grad(fk, h) ** 2, check_finite=False)
                delta = np.max(np.abs(fn - fk))
                fk = fn
                if delta <= 1e-10:
                    break
            else:
                raise AssertionError("reference sweep did not converge")
            f = fk
            rows.append(f)
    return np.array(rows[::-1])


@pytest.mark.parametrize("spacing", [0.05, 0.01])
def test_prefactored_sweep_equals_solve_banded_sweep(spacing):
    # Check 4's path and terminal.
    tc = TerminalCondition(0.5, np.zeros((1, 1)), RADEMACHER)
    problem = PdeProblem(sk_path(), tc, spacing=spacing)
    assert np.array_equal(solve_parisi_pde(problem).values, _solve_banded_sweep(problem))


def test_hopf_cole_composition_equals_recursion():
    # Composing the per-segment propagators is the recursion engine itself.
    path = sk_path()
    tc = TerminalCondition(0.5, np.zeros((1, 1)), RADEMACHER)
    cfg = EvalConfig()
    rec = recursion_value(path.partition, path.chain, tc, cfg).value
    incs = path.chain.increments()
    weights = path.partition.values[:-1]
    reach = [2.0 * np.sqrt(inc[0, 0]) * 7.2 for inc in incs]
    w1 = GRID_PAD + reach[0]
    w2 = w1 + reach[1]
    f = propagate_segment(tc, weights[2], sqrt_factor(incs[2]), [np.linspace(-w2, w2, cfg.grid_points)], cfg.nodes)
    f = propagate_segment(f, weights[1], sqrt_factor(incs[1]), [np.linspace(-w1, w1, cfg.grid_points)], cfg.nodes)
    f = propagate_segment(f, weights[0], sqrt_factor(incs[0]), [np.linspace(-1.0, 1.0, 33)], cfg.nodes)
    assert f([0.0])[0] == pytest.approx(rec, abs=1e-9)


def test_grid_refinement_second_order():
    path = sk_path()
    tc = TerminalCondition(0.7, np.zeros((1, 1)), RADEMACHER)
    rec = recursion_value(path.partition, path.chain, tc).value
    errs = [
        abs(solve_parisi_pde(PdeProblem(path, tc, spacing=h)).at_origin() - rec)
        for h in (0.02, 0.01)
    ]
    assert errs[1] <= errs[0] / 3.0


def test_control_values():
    a = 0.8
    path = sk_path()
    problem = PdeProblem(path, Linear(a), spacing=0.01)
    sol = solve_parisi_pde(problem)
    expected = 0.25 * a**2 * 0.4 / 2 + 0.6 * a**2 * 0.3 / 2

    # zero control: linear payoff is a martingale, value g(y0) = 0
    est0, se0 = simulate_control_value(problem, lambda t, y: np.zeros_like(y), paths=20000, seed=1)
    assert abs(est0 - 0.0) <= 3 * se0

    # the feedback control attains the solution value
    estf, sef = simulate_control_value(problem, sol.feedback, paths=20000, seed=2)
    assert abs(estf - expected) <= 3 * sef

    # any bounded control is suboptimal
    estb, seb = simulate_control_value(problem, lambda t, y: 0.4 * np.sin(3 * y + t), paths=20000, seed=3)
    assert estb <= estf + 3 * np.hypot(sef, seb)


def test_sk_feedback_attains_pde_value():
    path = sk_path()
    tc = TerminalCondition(0.5, np.zeros((1, 1)), RADEMACHER)
    problem = PdeProblem(path, tc, spacing=0.01)
    sol = solve_parisi_pde(problem)
    est, se = simulate_control_value(problem, sol.feedback, paths=30000, seed=4)
    assert abs(est - sol.at_origin()) <= 3 * se + 5e-3


def test_csv_export():
    sol = solve_parisi_pde(PdeProblem(sk_path(), Const(), spacing=0.05))
    text = sol.to_csv()
    assert text.startswith("t,y,f\n")
    assert len(text.splitlines()) == 1 + sol.values.size
    parsed = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()[1:]])
    tt, yy = np.meshgrid(sol.times, sol.y, indexing="ij")
    assert np.array_equal(parsed, np.column_stack([tt.ravel(), yy.ravel(), sol.values.ravel()]))
    # Byte for byte the line-by-line format.
    lines = (f"{t!r},{y!r},{f!r}\n" for t, row in zip(sol.times.tolist(), sol.values.tolist())
             for y, f in zip(sol.y.tolist(), row))
    assert text == "t,y,f\n" + "".join(lines)


def test_segment_reads_the_step_path():
    problem = PdeProblem(sk_path(), Const())
    expected = [(0.0, 0.25, 0.3 / 0.25, 0.0), (0.25, 0.6, 0.4 / 0.35, 0.25), (0.6, 1.0, 0.3 / 0.4, 0.6)]
    for seg, row in enumerate(expected):
        assert problem.segment(seg) == pytest.approx(row, rel=1e-14)
    assert problem.grid()[-1] >= 7.0  # six standard deviations of Q(1) = 1, plus one
    chain = MonotoneChain([np.zeros((2, 2)), np.eye(2)])
    with pytest.raises(ValueError, match="one-dimensional"):
        PdeProblem(DiscretePath(UnitPartition([0.0, 1.0]), chain), Const())


def test_budget_refuses_before_any_work():
    class Untouched:
        dim = 1

        def __call__(self, pts):
            raise AssertionError("a refused solve evaluates no terminal condition")

    # The finest solve of check 4 (spacing 0.005, Q(1) = 1) stays well inside.
    fine = PdeProblem(sk_path(), Untouched(), spacing=0.005)
    assert (1 + sum(fine.time_steps())) * (2 * fine.half_points() + 1) <= CELL_BUDGET / 16
    # A subnormal spacing is refused as well, before its grid size overflows.
    for spacing in (1e-4, 1e-320):
        with pytest.raises(BudgetError, match="exceeds the budget of 16777216 cells"):
            solve_parisi_pde(PdeProblem(sk_path(), Untouched(), spacing=spacing))


@pytest.mark.parametrize("beta, verdict", [(10.0, "stalled"), (20.0, "diverged")])
def test_nonconvergence_raises_pde_error(beta, verdict):
    # Too coarse a time step for a steep terminal: at beta = 20 the iterate
    # overflows, which is refused without a RuntimeWarning.
    path = DiscretePath(UnitPartition([0.0, 0.5, 1.0]), MonotoneChain([[[0.0]], [[0.5]], [[1.0]]]))
    tc = TerminalCondition(beta, np.zeros((1, 1)), RADEMACHER)
    with pytest.raises(PdeError, match=f"fixed point {verdict} on segment 1"):
        solve_parisi_pde(PdeProblem(path, tc, spacing=0.05))


def test_empty_top_segment_is_refused_before_any_solve():
    # x_2 = 1: the top segment [x_2, 1] has no length, and its slope would
    # divide by zero.  The recursion folds that level; the solver refuses it.
    path = DiscretePath(UnitPartition([0.0, 0.25, 1.0, 1.0]), sk_path().chain)
    with pytest.raises(ValueError, match=r"the top segment \[x_n, 1\] is empty \(x_n = 1\)"):
        PdeProblem(path, Const())
