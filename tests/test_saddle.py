import json
from types import SimpleNamespace

import numpy as np
import pytest

from parisi_lab import saddle
from parisi_lab.gaussian import PAIR_SCALE, closed_form_value, minimize_parisi_1d, optimal_self_overlap
from parisi_lab.measures import AprioriMeasure, EvalConfig, TerminalCondition
from parisi_lab.paths import PathError
from parisi_lab.recursion import FunctionalGradient, local_functional_gradient
from parisi_lab.saddle import (
    REJECTED_VALUE,
    SaddleProblem,
    SelfOverlapError,
    diagonal_inner,
    inner_minimize,
    outer_maximize,
)

RADEMACHER = AprioriMeasure.rademacher()


def quick_problem(beta, levels=1, **kw):
    defaults = dict(
        beta=beta,
        mu=RADEMACHER,
        levels=levels,
        engine=EvalConfig(grid_points=801),
        restarts=2,
        max_evals=600,
        seed=0,
    )
    defaults.update(kw)
    return SaddleProblem(**defaults)


def test_beta_zero_minimizer():
    res = inner_minimize([[1.0]], quick_problem(0.0, max_evals=200))
    assert res.value == pytest.approx(np.log(2), abs=1e-6)


def test_sk_inner_matches_rs_value():
    # High temperature: the optimum collapses to the replica-symmetric value.
    res = inner_minimize([[1.0]], quick_problem(0.5, levels=2, restarts=2, max_evals=1200))
    assert res.value == pytest.approx(np.log(2) + 0.125, abs=2e-4)


def test_inner_deterministic():
    prob = quick_problem(0.5, levels=1, restarts=1, max_evals=400)
    a = inner_minimize([[1.0]], prob)
    b = inner_minimize([[1.0]], prob)
    assert a.value == b.value


def test_levels_nesting_never_increases():
    v1 = inner_minimize([[1.0]], quick_problem(0.8, levels=1, restarts=2, max_evals=900)).value
    v2 = inner_minimize([[1.0]], quick_problem(0.8, levels=2, restarts=2, max_evals=1500)).value
    assert v2 <= v1 + 2e-3


def test_gaussian_inner_matches_closed_form():
    mu = AprioriMeasure.gaussian(np.array([[3.0]]))
    prob = quick_problem(1.0, levels=1, mu=mu, restarts=3, max_evals=1200)
    res = inner_minimize([[0.5]], prob)
    assert res.value_paired == pytest.approx(PAIR_SCALE * res.value)
    assert res.value_paired == pytest.approx(closed_form_value(3.0, 0.5, 1.0), abs=1e-3)


def test_outer_grid_gaussian():
    mu = AprioriMeasure.gaussian(np.array([[3.0]]))
    prob = quick_problem(1.0, levels=1, mu=mu, restarts=2, max_evals=700)
    res = outer_maximize(prob, lambda u: [[u]], 0.2, 0.9)
    sol = optimal_self_overlap(3.0, 1.0)
    assert abs(res.self_overlap[0, 0] - sol.self_overlap) <= 0.06
    assert res.value_paired == pytest.approx(sol.value, abs=5e-3)


def test_diagonal_inner_and_outer():
    res = diagonal_inner([3.0, 4.0], [0.5, 0.5], 1.0, 1, seed=0)
    target = closed_form_value(3.0, 0.5, 1.0) + closed_form_value(4.0, 0.5, 1.0)
    assert res.value_paired == pytest.approx(target, abs=1e-6)
    assert res.value == pytest.approx(target / PAIR_SCALE, abs=1e-6)
    u, opt = saddle._bounded_max(lambda t: minimize_parisi_1d(3.0, t, 0.0, 1.0, 1, seed=0), 0.1, 1.0)
    assert u == pytest.approx(0.5, abs=0.05)
    assert opt.value == pytest.approx(0.15546510810816438, abs=1e-4)


def test_bounded_max_off_grid_optimum():
    # u* = 1 - 1/sqrt(2) at c = 4, beta = 1: no round grid holds it.
    _, opt = saddle._bounded_max(lambda t: minimize_parisi_1d(4.0, t, 0.0, 1.0, 1, seed=0), 0.1, 1.0)
    assert opt.value == pytest.approx(optimal_self_overlap(4.0, 1.0).value, abs=1e-6)


def test_bounded_max_solves_each_point_once():
    # The result is the best evaluated point as it was solved, so no t is
    # solved twice and the winner is not solved again.
    solved = []

    def solve(t):
        solved.append((t, SimpleNamespace(value=-((t - 0.43) ** 2))))
        return solved[-1][1]

    t, opt = saddle._bounded_max(solve, 0.1, 1.0)
    assert len({s for s, _ in solved}) == len(solved)
    assert abs(t - 0.43) <= saddle.OUTER_XATOL
    assert opt is max(solved, key=lambda pair: pair[1].value)[1]


def test_general_matches_diagonal_d2():
    # Simultaneously diagonal problem: the general-scenario search must not
    # undercut the diagonal optimum beyond solver tolerance.
    mu = AprioriMeasure.gaussian(np.diag([3.0, 4.0]))
    prob = SaddleProblem(
        beta=1.0,
        mu=mu,
        levels=1,
        engine=EvalConfig(nodes=12, grid_points_2d=81),
        restarts=1,
        max_evals=400,
        seed=0,
    )
    res = inner_minimize(np.diag([0.5, 0.5]), prob)
    diag = diagonal_inner([3.0, 4.0], [0.5, 0.5], 1.0, 1, seed=0)
    assert abs(res.value - diag.value) <= 2e-3


def _stationarity_residual(res, prob) -> float:
    """Largest analytic derivative of the functional at the reported optimum
    in the interior chain matrices and the tilt."""
    tc = TerminalCondition(prob.beta, res.tilt, prob.mu)
    _, grad = local_functional_gradient(res.partition, res.chain, tc, prob.engine)
    return float(max(np.max(np.abs(grad.chain)), np.max(np.abs(grad.tilt))))


def test_stationarity_residual_beta_zero():
    mu = AprioriMeasure.gaussian(np.array([[3.0]]))
    prob = quick_problem(0.0, levels=1, mu=mu, restarts=2, max_evals=800)
    res = inner_minimize([[0.5]], prob)
    assert _stationarity_residual(res, prob) <= 1e-5


def test_stationarity_residual_gaussian_optimum():
    mu = AprioriMeasure.gaussian(np.array([[3.0]]))
    prob = quick_problem(1.0, levels=1, mu=mu, restarts=3, max_evals=1500)
    res = inner_minimize([[0.5]], prob)
    assert _stationarity_residual(res, prob) <= 1e-3


def test_result_serializes():
    res = inner_minimize([[1.0]], quick_problem(0.3, levels=1, restarts=1, max_evals=300))
    blob = res.to_json()
    assert '"value"' in blob and '"restart_values"' in blob


def test_objective_counts_infeasible_rejections(monkeypatch):
    original = saddle.local_functional_gradient
    calls = []

    def every_third_infeasible(*args):
        calls.append(1)
        if len(calls) % 3 == 0:
            raise PathError("partition values must be strictly increasing")
        return original(*args)

    monkeypatch.setattr(saddle, "local_functional_gradient", every_third_infeasible)
    res = inner_minimize([[1.0]], quick_problem(0.5, restarts=1, max_evals=60,
                                                engine=EvalConfig(grid_points=101)))
    assert res.evaluations == len(calls) == sum(res.restart_evaluations)
    assert res.rejections == {"PathError": len(calls) // 3}
    assert res.value < REJECTED_VALUE


@pytest.mark.parametrize(
    "mu, expected",
    [
        (AprioriMeasure.hypercube(2), {}),
        # The third start's tilt leaves the set where C - 2 tilt is positive
        # definite: that restart is rejected at its start, where the zero
        # gradient stops it.
        (AprioriMeasure.gaussian(np.array([[1.0, 0.3], [0.3, 1.2]])), {"MeasureError": 1}),
    ],
)
def test_d2_rejections_are_infeasibility_errors(mu, expected):
    prob = SaddleProblem(
        beta=1.0,
        mu=mu,
        levels=1,
        engine=EvalConfig(nodes=8, grid_points_2d=41),
        restarts=3,
        max_evals=40,
        seed=0,
    )
    # U has unit diagonal: inside the hypercube's hull conv{s s^T}.
    res = inner_minimize(np.array([[1.0, 0.2], [0.2, 1.0]]), prob)
    assert res.evaluations == sum(res.restart_evaluations)
    assert len(res.restart_evaluations) == len(res.nit) == len(res.converged) == 3
    assert res.rejections == expected == json.loads(res.to_json())["rejections"]
    assert res.value < REJECTED_VALUE
    if expected:
        assert res.restart_evaluations[2] == 1 and not res.converged[2]


def test_objective_propagates_programming_errors(monkeypatch):
    def broken(*args):
        raise TypeError("not an infeasible point")

    monkeypatch.setattr(saddle, "local_functional_gradient", broken)
    with pytest.raises(TypeError):
        inner_minimize([[1.0]], quick_problem(0.5, restarts=1, max_evals=20))


@pytest.mark.parametrize(
    "mu, u",
    [
        (AprioriMeasure.hypercube(2), [[0.6, 0.2], [0.2, 0.5]]),  # diagonal must be 1
        (RADEMACHER, [[1.5]]),
        (AprioriMeasure.discrete([[0.0], [2.0]]), [[4.5]]),
        (RADEMACHER, [[1.0, 0.0], [0.0, 1.0]]),  # wrong dimension
    ],
)
def test_infeasible_self_overlap_is_rejected(mu, u):
    prob = SaddleProblem(beta=1.0, mu=mu, levels=1, restarts=1, max_evals=5)
    with pytest.raises(SelfOverlapError):
        inner_minimize(np.array(u), prob)


def test_self_overlap_within_the_psd_tolerance_is_projected():
    # An eigenvalue above -PSD_TOL (1 + ||U||) is rounding and is clipped;
    # one below it is refused, quoting the U that was given.
    mu = AprioriMeasure.gaussian(np.array([[3.0]]))
    assert np.array_equal(saddle._admissible_self_overlap(np.array([[-1e-12]]), mu), [[0.0]])
    # d = 2 with eigenvalues 1 and about -1e-12: the projection is symmetric
    # and PSD.
    u = np.array([[0.5, 0.5 + 1e-12], [0.5 + 1e-12, 0.5]])
    assert np.linalg.eigvalsh(u)[0] == pytest.approx(-1e-12, rel=1e-3)
    u_mat = saddle._admissible_self_overlap(u, AprioriMeasure.gaussian(np.eye(2)))
    assert np.array_equal(u_mat, u_mat.T) and np.linalg.eigvalsh(u_mat)[0] >= 0.0
    with pytest.raises(SelfOverlapError, match=r"self-overlap \[\[-1e-09\]\] is not positive semidefinite"):
        saddle._admissible_self_overlap(np.array([[-1e-9]]), mu)


def test_feasible_self_overlap_inside_the_hull():
    # conv{s s^T} for the support {0, 2} is [0, 4].
    prob = quick_problem(0.5, mu=AprioriMeasure.discrete([[0.0], [2.0]]), restarts=1, max_evals=30,
                         engine=EvalConfig(grid_points=101))
    assert inner_minimize([[1.0]], prob).value < REJECTED_VALUE


def test_monte_carlo_engine_is_refused():
    prob = quick_problem(0.5, restarts=1, max_evals=5, engine=EvalConfig(engine="monte_carlo"))
    with pytest.raises(ValueError, match="quadrature"):
        inner_minimize([[1.0]], prob)


def test_result_reports_solver_state():
    res = inner_minimize([[1.0]], quick_problem(0.5, levels=2, restarts=2, max_evals=200))
    blob = json.loads(res.to_json())
    assert blob["restart_evaluations"] == res.restart_evaluations
    assert sum(res.restart_evaluations) == res.evaluations == blob["evaluations"]
    assert blob["nit"] == res.nit and blob["converged"] == res.converged
    assert res.converged[0] and 0 < res.nit[0] < res.restart_evaluations[0] <= 200


@pytest.mark.parametrize("d, n", [(1, 1), (1, 3), (2, 2)])
def test_unpack_pullback_is_the_chain_rule(d, n):
    # For a linear functional of (x, Q, tilt) the pullback must equal central
    # differences of that functional through _unpack.
    rng = np.random.default_rng(5)
    u = np.array([[1.0]]) if d == 1 else np.array([[0.7, 0.2], [0.2, 0.5]])
    ntri = d * (d + 1) // 2
    theta = rng.normal(scale=0.7, size=(n + 1) * (1 + ntri) + ntri)
    sym = lambda a: a + np.swapaxes(a, -1, -2)
    coef = FunctionalGradient(rng.normal(size=n), sym(rng.normal(size=(n, d, d))), sym(rng.normal(size=(d, d))))

    def linear(th):
        part, chain, tilt, _ = saddle._unpack(th, d, n, u)
        return (coef.x @ part.interior + np.sum(coef.chain * chain.matrices[1:-1])
                + np.sum(coef.tilt * tilt))

    pullback = saddle._unpack(theta, d, n, u)[3]
    h = 1e-6
    central = [(linear(theta + h * e) - linear(theta - h * e)) / (2 * h) for e in np.eye(theta.size)]
    assert np.allclose(pullback(coef), central, rtol=0.0, atol=1e-7)
