import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parisi_lab import gaussian
from parisi_lab.gaussian import (
    FeasibilityError,
    PAIR_SCALE,
    closed_form_recursion,
    closed_form_value,
    crisanti_sommers,
    diagonal_value,
    equivalence_check,
    level_precisions,
    minimize_cs_1d,
    minimize_parisi_1d,
    optimal_overlap,
    optimal_self_overlap,
    parisi_1d,
)
from parisi_lab.measures import AprioriMeasure, EvalConfig, TerminalCondition
from parisi_lab.paths import MonotoneChain, UnitPartition, cumulative_fractions
from parisi_lab.recursion import recursion_value


def scalar_chain(qs, u=1.0):
    return MonotoneChain([np.zeros((1, 1))] + [[[q]] for q in qs] + [[[u]]])


def test_level_precisions_beta_zero():
    x = UnitPartition.from_interior([0.5])
    chain = scalar_chain([0.4], u=0.8)
    tilt = np.array([[0.3]])
    c = np.array([[3.0]])
    mats = level_precisions(x, chain, tilt, c, 0.0)
    for m in mats:
        assert m == pytest.approx(np.array([[3.0 - 0.6]]))


def test_level_precisions_single_level():
    x = UnitPartition.from_interior([0.5])
    chain = scalar_chain([0.3], u=0.8)
    mats = level_precisions(x, chain, np.zeros((1, 1)), np.array([[3.0]]), 1.0)
    assert mats[0][0, 0] == pytest.approx(3.0 - 2 * 0.5 * 0.5)
    assert mats[1][0, 0] == pytest.approx(3.0)


def test_level_precision_infeasible():
    x = UnitPartition.from_interior([0.9])
    chain = scalar_chain([0.1], u=1.0)
    with pytest.raises(FeasibilityError):
        level_precisions(x, chain, np.zeros((1, 1)), np.array([[0.5]]), 1.5)


def test_closed_form_trivial():
    x = UnitPartition.from_interior([0.5])
    chain = scalar_chain([0.4], u=0.8)
    val = closed_form_recursion(x, chain, np.zeros((1, 1)), np.array([[3.0]]), np.zeros(1), 0.0)
    assert val == pytest.approx(0.0, abs=1e-14)


def test_closed_form_matches_recursion_1d():
    x = UnitPartition.from_interior([0.35, 0.7])
    chain = scalar_chain([0.15, 0.4], u=0.8)
    c = np.array([[3.0]])
    h = np.array([0.1])
    tilt = np.array([[0.3]])
    mu = AprioriMeasure.gaussian(c, h)
    tc = TerminalCondition(1.0, tilt, mu)
    rec = recursion_value(x, chain, tc, EvalConfig()).value
    closed = closed_form_recursion(x, chain, tilt, c, h, 1.0)
    assert closed == pytest.approx(rec, abs=1e-6)


def test_closed_form_d2_diagonal_decouples():
    x = UnitPartition.from_interior([0.4])
    c_eigs = [3.0, 4.0]
    u_eigs = [0.5, 0.7]
    chain2 = MonotoneChain(
        [np.zeros((2, 2)), np.diag([0.2, 0.3]), np.diag(u_eigs)]
    )
    val2 = closed_form_recursion(x, chain2, np.zeros((2, 2)), np.diag(c_eigs), np.zeros(2), 0.9)
    total = 0.0
    for cv, uv, qv in zip(c_eigs, u_eigs, [0.2, 0.3]):
        ch1 = scalar_chain([qv], u=uv)
        total += closed_form_recursion(
            x, ch1, np.zeros((1, 1)), np.array([[cv]]), np.zeros(1), 0.9
        )
    assert val2 == pytest.approx(total, abs=1e-12)


def test_parisi_1d_beta_zero():
    # With no interaction the functional keeps only the multiplier terms.
    val, _ = parisi_1d([0.5], [0.3], 0.8, 0.4, 3.0, 0.0, 0.0)
    assert val == pytest.approx(-0.4 * 0.8 + math.log(3.0 / 2.6), abs=1e-14)


def test_parisi_1d_matches_matrix_assembly():
    # Doubled units: the scalar functional equals twice the matrix-form
    # functional with tilt = lam/2.
    x = UnitPartition.from_interior([0.4, 0.75])
    chain = scalar_chain([0.2, 0.45], u=0.8)
    lam, c, h, beta, u = 0.5, 3.0, 0.2, 0.9, 0.8
    x0 = closed_form_recursion(
        x, chain, np.array([[lam / 2]]), np.array([[c]]), np.array([h]), beta
    )
    energy = 0.5 * beta**2 * (0.4 * (0.45**2 - 0.2**2) + 0.75 * (0.8**2 - 0.45**2))
    f_true = -(lam / 2) * u - energy + x0
    assert parisi_1d([0.4, 0.75], [0.2, 0.45], u, lam, c, h, beta)[0] == pytest.approx(
        PAIR_SCALE * f_true, abs=1e-12
    )


def test_parisi_1d_stationary_in_q():
    # finite differences vanish at the minimizer
    opt = minimize_parisi_1d(3.0, 0.5, 0.0, 1.0, 1, seed=0)
    h = 1e-5
    if 1e-4 < opt.q[0] < 0.5 - 1e-4:
        up, _ = parisi_1d(opt.x, opt.q + h, 0.5, opt.lam, 3.0, 0.0, 1.0)
        dn, _ = parisi_1d(opt.x, opt.q - h, 0.5, opt.lam, 3.0, 0.0, 1.0)
        assert abs(up - dn) / (2 * h) <= 1e-4
    # lam direction is always interior
    up, _ = parisi_1d(opt.x, opt.q, 0.5, opt.lam + h, 3.0, 0.0, 1.0)
    dn, _ = parisi_1d(opt.x, opt.q, 0.5, opt.lam - h, 3.0, 0.0, 1.0)
    assert abs(up - dn) / (2 * h) <= 1e-4


def test_cs_functional_example():
    val, _ = crisanti_sommers([1.0], [0.0], 0.5, 4.0, 0.0, 1.0)
    assert val == pytest.approx(1 - 2 + math.log(2) + 0.25, abs=1e-14)


def test_cs_boundary_blowup():
    vals = [crisanti_sommers([1.0], [q], 0.5, 4.0, 0.0, 1.0)[0] for q in (0.45, 0.49, 0.4999)]
    assert vals[0] < vals[1] < vals[2] or vals[2] > vals[0]
    assert crisanti_sommers([1.0], [0.4999999], 0.5, 4.0, 0.0, 1.0)[0] > 10.0


def test_closed_form_values():
    assert closed_form_value(3.0, 0.5, 1.0) == pytest.approx(math.log(1.5) - 0.25, abs=1e-14)
    # second clause: (2 sqrt2 - 1) - (1 + log 2)/2 at c = u = beta = 1
    assert closed_form_value(1.0, 1.0, 1.0) == pytest.approx(
        2 * math.sqrt(2) - 1.5 - 0.5 * math.log(2), abs=1e-14
    )
    assert closed_form_value(4.0, 0.5, 1.0) == pytest.approx(math.log(2) - 0.75, abs=1e-14)


def test_closed_form_clause_continuity():
    for beta in (0.5, 1.0, 2.0):
        u0 = math.sqrt(2) / (2 * beta)
        for c in (1.0, 3.0):
            lo = closed_form_value(c, u0 * (1 - 1e-12), beta)
            hi = closed_form_value(c, u0 * (1 + 1e-12), beta)
            assert lo == pytest.approx(hi, abs=1e-10)


def test_closed_form_concave_in_u():
    us = np.linspace(0.05, 2.0, 400)
    vals = np.array([closed_form_value(3.0, u, 1.0) for u in us])
    second = np.diff(vals, 2)
    assert np.max(second) <= 1e-8


def test_optimal_overlap():
    assert optimal_overlap(0.5, 1.0).overlap == 0.0
    sol = optimal_overlap(1.0, 1.0)
    assert sol.overlap == pytest.approx(1 - math.sqrt(2) / 2)
    assert sol.regime == "high_u"


def test_optimal_overlap_beats_grid():
    u, beta, c = 1.0, 1.0, 3.0
    q_star = optimal_overlap(u, beta).overlap
    best, _ = crisanti_sommers([1.0], [q_star], u, c, 0.0, beta)
    for q in np.linspace(0.0, u - 1e-6, 1000):
        assert best <= crisanti_sommers([1.0], [q], u, c, 0.0, beta)[0] + 1e-12


def test_optimal_self_overlap():
    sol = optimal_self_overlap(3.0, 1.0)
    assert sol.self_overlap == 0.5
    assert sol.value == pytest.approx(0.25 + math.log(1.5) - 0.5, abs=1e-14)
    edge = optimal_self_overlap(2 * math.sqrt(2), 1.0)
    assert edge.self_overlap == pytest.approx(math.sqrt(2) / 2)
    assert optimal_self_overlap(2.0, 1.0).diverges
    flat = optimal_self_overlap(3.0, 0.0)
    assert flat.self_overlap == pytest.approx(1 / 3) and flat.value == 0.0


def test_self_overlap_is_saddle():
    sol = optimal_self_overlap(3.0, 1.0)
    for u in np.linspace(0.05, 2.0, 50):
        assert sol.value >= closed_form_value(3.0, u, 1.0) - 1e-12


def test_diagonal_value():
    assert diagonal_value([3.0], [0.5], 1.0) == closed_form_value(3.0, 0.5, 1.0)
    both = diagonal_value([3.0, 4.0], [0.5, 0.5], 1.0)
    assert both == pytest.approx(
        closed_form_value(3.0, 0.5, 1.0) + closed_form_value(4.0, 0.5, 1.0)
    )
    assert diagonal_value([4.0, 3.0], [0.5, 0.5], 1.0) == pytest.approx(both)


def test_equivalence_and_collapse():
    rep1 = equivalence_check(3.0, 0.5, 0.0, 1.0, 1)
    assert rep1.gap <= 1e-4
    assert rep1.parisi_value == pytest.approx(0.15546510810816438, abs=1e-4)
    rep2 = equivalence_check(3.0, 0.5, 0.0, 1.0, 2)
    assert rep2.gap <= 1e-4
    assert abs(rep2.parisi_value - rep1.parisi_value) <= 1e-4


@pytest.mark.parametrize("c, u, h, beta", [(3.0, 0.5, 0.3, 1.0), (4.0, 0.8, -0.7, 1.1),
                                           (3.0, 1.0, 0.3, 0.6), (4.0, 0.3, -0.7, 0.0)])
def test_equivalence_with_field_three_levels(c, u, h, beta):
    # The one pinned search per functional reaches the shared infimum with a
    # field and more levels than the optimum needs.
    assert equivalence_check(c, u, h, beta, 3).gap <= 1e-10


def test_equivalence_beta_zero():
    repo = equivalence_check(3.0, 0.5, 0.0, 0.0, 1)
    # both reduce to the same deterministic expression
    assert repo.gap <= 1e-8
    assert repo.parisi_value == pytest.approx(1 - 1.5 + math.log(1.5), abs=1e-6)


def test_stationarity_identities_at_optimum():
    # At the pinned-top optimum: tail mass s equals 1/d per level and the
    # multiplier matches c - 2 beta^2 (u - q) - 1/(u - q).
    c, u, beta = 3.0, 1.0, 1.0
    opt = minimize_parisi_1d(c, u, 0.0, beta, 1, seed=1)
    q = float(opt.q[0])
    lam = opt.lam
    gap = u - q
    assert lam == pytest.approx(c - 2 * beta**2 * gap - 1.0 / gap, abs=1e-5)
    s1 = opt.x[0] * gap
    d1 = c - lam - 2 * beta**2 * s1
    assert s1 == pytest.approx(1.0 / d1, abs=1e-5)


def test_equal_weights_merge_levels():
    # Two levels that share a weight act as one level spanning both gaps.
    u, lam, c, h, beta = 0.8, 0.3, 4.0, 0.2, 1.1
    merged = parisi_1d([0.4, 0.7], [0.1, 0.5], u, lam, c, h, beta)[0]
    assert parisi_1d([0.4, 0.4, 0.7], [0.1, 0.3, 0.5], u, lam, c, h, beta)[0] == pytest.approx(merged, abs=1e-14)
    merged = crisanti_sommers([0.4, 1.0], [0.1, 0.5], u, c, h, beta)[0]
    assert crisanti_sommers([0.4, 0.4, 1.0], [0.1, 0.3, 0.5], u, c, h, beta)[0] == pytest.approx(merged, abs=1e-14)


def test_order_violations_are_infeasible():
    with pytest.raises(FeasibilityError):
        parisi_1d([0.6, 0.4], [0.1, 0.2], 0.5, 0.0, 3.0, 0.0, 1.0)  # x decreasing
    with pytest.raises(FeasibilityError):
        crisanti_sommers([1.0], [0.7], 0.5, 3.0, 0.0, 1.0)  # q above u
    # d[0] rounds to a positive number while 2 beta^2 x_1 dq_1 / d[1] rounds
    # to at least 1, which math.log1p rejects with a plain ValueError.
    with pytest.raises(FeasibilityError):
        parisi_1d([0.6854133486410346], [0.2919856310257475], 0.7507573844567521,
                  1.649469901384772, 3.0, 0.0, 1.465421373617181)


@pytest.mark.parametrize(
    "functional, minimizer",
    [("parisi_1d", minimize_parisi_1d), ("crisanti_sommers", minimize_cs_1d)],
)
def test_scalar_minimizers_propagate_programming_errors(functional, minimizer, monkeypatch):
    def broken(*args):
        raise ValueError("not an infeasible point")

    monkeypatch.setattr(gaussian, functional, broken)
    with pytest.raises(ValueError, match="not an infeasible point"):
        minimizer(3.0, 0.5, 0.0, 1.0, 1)


def test_minimize_cs_matches_closed_form():
    opt = minimize_cs_1d(3.0, 0.5, 0.0, 1.0, 1, seed=2)
    assert opt.value == pytest.approx(closed_form_value(3.0, 0.5, 1.0), abs=1e-6)


def _central_difference(f, v, step=1e-6):
    out = np.empty(v.size)
    for i in range(v.size):
        e = np.zeros(v.size)
        e[i] = step
        out[i] = (f(v + e) - f(v - e)) / (2.0 * step)
    return out


def _check_scalar_gradient(functional, x, q, lam, pinned, rtol=1e-6, atol=1e-8):
    """Compare ``functional(x, q, lam)``'s gradient with central differences
    in the free weights (a pinned top weight sits on the boundary x = 1), the
    levels and, when lam is not None, the multiplier."""
    free = x.size - 1 if pinned else x.size
    _, grad = functional(x, q, lam)
    fd_x = _central_difference(lambda v: functional(np.concatenate((v, x[free:])), q, lam)[0], x[:free])
    fd_q = _central_difference(lambda v: functional(x, v, lam)[0], q)
    np.testing.assert_allclose(grad.x[:free], fd_x, rtol=rtol, atol=atol)
    np.testing.assert_allclose(grad.q, fd_q, rtol=rtol, atol=atol)
    if lam is None:
        assert grad.lam == 0.0
    else:
        fd_lam = _central_difference(lambda v: functional(x, q, v[0])[0], np.array([lam]))
        assert grad.lam == pytest.approx(fd_lam[0], rel=rtol, abs=atol)


SCALAR_POINTS = {
    1: ([0.55], [0.3]),
    2: ([0.3, 0.7], [0.15, 0.45]),
    3: ([0.2, 0.5, 0.85], [0.1, 0.3, 0.6]),
}


@pytest.mark.parametrize("pinned", [True, False])
@pytest.mark.parametrize("h, beta", [(0.3, 1.1), (0.3, 0.0)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_scalar_gradients_match_central_differences(n, h, beta, pinned):
    x, q = (np.array(v) for v in SCALAR_POINTS[n])
    if pinned:
        x[-1] = 1.0
    u, c = 0.8, 4.0
    _check_scalar_gradient(lambda x, q, lam: parisi_1d(x, q, u, lam, c, h, beta), x, q, 0.3, pinned)
    _check_scalar_gradient(lambda x, q, lam: crisanti_sommers(x, q, u, c, h, beta), x, q, None, pinned)


def test_scalar_gradients_at_vanishing_weights():
    # The x-derivative of a log term stays finite and continuous as the
    # weight vanishes, below where x^2 underflows too.
    q, u, lam, c, h, beta = np.array([0.2, 0.4]), 0.5, 0.3, 3.0, 0.0, 1.0
    functionals = (
        lambda x: parisi_1d(x, q, u, lam, c, h, beta)[1].x[0],
        lambda x: crisanti_sommers(x, q, u, c, h, beta)[1].x[0],
    )
    for functional in functionals:
        reference = functional(np.array([1e-9, 1.0]))
        for x1 in (1e-20, 1e-170, 5e-324):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                g = functional(np.array([x1, 1.0]))
            assert np.isfinite(g)
            assert g == pytest.approx(reference, rel=1e-6)


@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_cumfrac_pullback_matches_central_differences(count):
    rng = np.random.default_rng(count)
    raw = rng.normal(size=count)
    weights = rng.normal(size=count)
    # One more logit pinned at zero, as the scalar minimizers pin it.
    y, pullback = cumulative_fractions(np.append(raw, 0.0))
    assert np.all(np.diff(y) > 0.0) and 0.0 < y[0] and y[-1] == 1.0
    fd = _central_difference(lambda r: float(weights @ cumulative_fractions(np.append(r, 0.0))[0][:-1]), raw)
    np.testing.assert_allclose(pullback(weights)[:-1], fd, rtol=1e-6, atol=1e-10)


@st.composite
def _scalar_instances(draw):
    """A feasible (x, q, lam) with every step of the central differences
    feasible too: weights and level gaps at least 0.05 apart."""
    n = draw(st.integers(1, 3))
    pinned = draw(st.booleans())
    a = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n + 1, max_size=n + 1)))
    x = np.cumsum(a)[:n] / a.sum()
    if pinned:
        x[-1] = 1.0
    u = draw(st.floats(0.2, 1.5))
    b = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n + 1, max_size=n + 1)))
    q = u * np.cumsum(b)[:n] / b.sum()
    c = draw(st.floats(0.5, 5.0))
    h = draw(st.floats(-1.0, 1.0))
    beta = draw(st.floats(0.0, 1.5))
    d1 = draw(st.floats(0.2, 5.0))
    lam = c - 2.0 * beta**2 * float(np.sum(x * np.diff(np.append(q, u)))) - d1
    return x, q, u, lam, c, h, beta, pinned


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_scalar_instances())
def test_scalar_gradients_property(case):
    x, q, u, lam, c, h, beta, pinned = case
    _check_scalar_gradient(
        lambda x, q, lam: parisi_1d(x, q, u, lam, c, h, beta), x, q, lam, pinned, rtol=1e-5, atol=1e-6
    )
    _check_scalar_gradient(
        lambda x, q, lam: crisanti_sommers(x, q, u, c, h, beta), x, q, None, pinned, rtol=1e-5, atol=1e-6
    )


@pytest.mark.parametrize(
    "functional, minimizer",
    [("parisi_1d", minimize_parisi_1d), ("crisanti_sommers", minimize_cs_1d)],
)
def test_scalar_minimizers_count_rejected_evaluations(functional, minimizer, monkeypatch):
    calls = 0
    real = getattr(gaussian, functional)

    def flaky(*args):
        nonlocal calls
        calls += 1
        if calls % 5 == 0:
            raise FeasibilityError("rejected on purpose")
        return real(*args)

    monkeypatch.setattr(gaussian, functional, flaky)
    opt = minimizer(3.0, 0.5, 0.0, 1.0, 1)
    assert opt.evaluations == calls
    assert opt.rejections == {"rejected on purpose": calls // 5}


def test_minimizer_objectives_pull_gradients_back_exactly(monkeypatch):
    # The gradient L-BFGS-B sees, in the search parameters of every start.
    searches = []
    solve = gaussian.minimize

    def recording(fun, x0, args=(), **kwargs):
        searches.append((fun, x0, args))
        return solve(fun, x0, args=args, **kwargs)

    monkeypatch.setattr(gaussian, "minimize", recording)
    minimize_parisi_1d(4.0, 0.8, 0.3, 1.1, 3)
    minimize_cs_1d(4.0, 0.8, 0.3, 1.1, 3)
    assert len(searches) == 6 + 6
    # A Parisi search's last parameter is eta, with d[1] = exp(eta).
    fun, theta, args = searches[0]
    assert fun(np.append(theta[:-1], 800.0), *args)[0] == gaussian.REJECTED_VALUE
    for fun, theta, args in searches:
        value, grad = fun(theta, *args)
        assert value < gaussian.REJECTED_VALUE
        fd = _central_difference(lambda t: fun(t, *args)[0], theta)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)
