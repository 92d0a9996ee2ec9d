import numpy as np
import pytest

from parisi_lab import saddle
from parisi_lab.gaussian import PAIR_SCALE, closed_form_value, optimal_self_overlap
from parisi_lab.measures import AprioriMeasure, EvalConfig
from parisi_lab.paths import PathError
from parisi_lab.saddle import (
    REJECTED_VALUE,
    SaddleProblem,
    diagonal_inner,
    diagonal_outer,
    inner_minimize,
    outer_maximize,
    stationarity_residual,
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
    res = outer_maximize(prob, "grid", grid=[[[u]] for u in np.linspace(0.2, 0.9, 8)])
    sol = optimal_self_overlap(3.0, 1.0)
    assert abs(res.self_overlap[0, 0] - sol.self_overlap) <= 0.06
    assert res.value_paired == pytest.approx(sol.value, abs=5e-3)


def test_outer_fixed_is_inner():
    prob = quick_problem(0.5, levels=1, restarts=1, max_evals=400)
    a = outer_maximize(prob, "fixed", u_init=[[1.0]])
    b = inner_minimize([[1.0]], prob)
    assert a.value == b.value


def test_diagonal_inner_and_outer():
    res = diagonal_inner([3.0, 4.0], [0.5, 0.5], 1.0, 1, seed=0)
    target = closed_form_value(3.0, 0.5, 1.0) + closed_form_value(4.0, 0.5, 1.0)
    assert res.value_paired == pytest.approx(target, abs=1e-6)
    assert res.value == pytest.approx(target / PAIR_SCALE, abs=1e-6)
    out = diagonal_outer([3.0], 1.0, 1, [np.linspace(0.1, 1.0, 10)], seed=0)
    assert out.u_eigs[0] == pytest.approx(0.5, abs=0.05)
    assert out.value_paired == pytest.approx(0.15546510810816438, abs=1e-4)


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
    assert res.value >= diag.value - 2e-3


def test_stationarity_residual_beta_zero():
    mu = AprioriMeasure.gaussian(np.array([[3.0]]))
    prob = quick_problem(0.0, levels=1, mu=mu, restarts=2, max_evals=800)
    res = inner_minimize([[0.5]], prob)
    assert stationarity_residual(res, prob) <= 1e-5


def test_stationarity_residual_gaussian_optimum():
    mu = AprioriMeasure.gaussian(np.array([[3.0]]))
    prob = quick_problem(1.0, levels=1, mu=mu, restarts=3, max_evals=1500)
    res = inner_minimize([[0.5]], prob)
    assert stationarity_residual(res, prob) <= 1e-3


@pytest.mark.parametrize("error, propagates", [(TypeError, True), (PathError, False)])
def test_stationarity_residual_rejects_only_infeasible_points(monkeypatch, error, propagates):
    prob = quick_problem(0.0, max_evals=30, restarts=1)
    res = inner_minimize([[1.0]], prob)
    original = saddle.local_functional
    calls = []

    def fails_once(*args):
        calls.append(1)
        if len(calls) == 1:
            raise error("raised by the first chain perturbation")
        return original(*args)

    monkeypatch.setattr(saddle, "local_functional", fails_once)
    if propagates:
        with pytest.raises(TypeError):
            stationarity_residual(res, prob)
    else:
        assert np.isfinite(stationarity_residual(res, prob))


def test_result_serializes():
    res = inner_minimize([[1.0]], quick_problem(0.3, levels=1, restarts=1, max_evals=300))
    blob = res.to_json()
    assert '"value"' in blob and '"restart_values"' in blob


def test_objective_counts_infeasible_rejections(monkeypatch):
    original = saddle.local_functional
    calls = []

    def every_third_infeasible(*args):
        calls.append(1)
        if len(calls) % 3 == 0:
            raise PathError("partition values must be strictly increasing")
        return original(*args)

    monkeypatch.setattr(saddle, "local_functional", every_third_infeasible)
    res = inner_minimize([[1.0]], quick_problem(0.5, restarts=1, max_evals=60,
                                                engine=EvalConfig(grid_points=101)))
    assert res.evaluations == len(calls)
    assert res.rejections == {"PathError": len(calls) // 3}
    assert res.value < REJECTED_VALUE


@pytest.mark.parametrize(
    "mu, expected",
    [
        (AprioriMeasure.hypercube(2), {}),
        # The third start's tilt leaves the set where C - 2 tilt is positive
        # definite, so every eval of that restart is rejected.
        (AprioriMeasure.gaussian(np.array([[1.0, 0.3], [0.3, 1.2]])), {"MeasureError": 40}),
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
    res = inner_minimize(np.array([[0.6, 0.2], [0.2, 0.5]]), prob)
    assert res.evaluations == 120
    assert res.rejections == expected
    assert res.value < REJECTED_VALUE


def test_objective_propagates_programming_errors(monkeypatch):
    def broken(*args):
        raise TypeError("not an infeasible point")

    monkeypatch.setattr(saddle, "local_functional", broken)
    with pytest.raises(TypeError):
        inner_minimize([[1.0]], quick_problem(0.5, restarts=1, max_evals=20))
