"""Closed forms for Gaussian a priori spins.

With the Gaussian density mu(ds) ~ exp(-<C s, s>/2 + <h, s>) ds every level of
the recursion is a Gaussian integral of the exponential of a quadratic, so
X_0 collapses to determinants and inverses of the level precision matrices

    D[l] = C - 2*tilt - 2 beta^2 sum_{j=l..n} x_j (Q[j+1] - Q[j]),   l = 1..n+1,

(D[n+1] = C - 2*tilt).  Carrying the recursion through all levels, including
the terminal integral at weight x_{n+1} = 1, gives

    X_0 = ( 2 beta^2 <D[1]^-1, dQ[0]> + <D[1]^-1 h, h>
            + sum_{l=1..n} (1/x_l) log det(D[l+1] D[l]^-1)
            + log det(C (C - 2*tilt)^-1) ) / 2.

The scalar (simultaneously diagonal) layer works in doubled units: the
per-mode functionals below equal exactly twice the per-mode contribution to
the free-energy-scale functional, with the scalar multiplier lam equal to
twice the matching tilt eigenvalue.  Conversions happen only at module
boundaries (PAIR_SCALE).  Both scalar functionals return their exact
gradient with their value.  Both are minimized where the top weight is one,
so each scalar minimizer runs L-BFGS-B on that closure alone: n - 1 free
weights under a top weight of 1 and n overlap levels (plus the multiplier),
with the gradient pulled back through the parameterization that keeps the
order parameters feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from parisi_lab.matrices import MatrixError, as_sym, eigh_jacobi
from parisi_lab.paths import MonotoneChain, UnitPartition, cumulative_fractions

# Scalar-layer values are twice the free-energy-scale functional.
PAIR_SCALE = 2.0


class FeasibilityError(ValueError):
    """Raised when a level precision matrix fails to be positive definite."""


# ---------------------------------------------------------------------------
# Matrix closed form


def level_precisions(x: UnitPartition, chain: MonotoneChain, tilt, precision, beta: float):
    """The family D[1..n+1] above, positive definiteness checked.

    The terminal cap C (without the tilt) is returned separately; it enters
    only through the final determinant ratio at weight one.
    """
    c = as_sym(precision)
    t = as_sym(tilt)
    incs = chain.increments()
    n = chain.levels
    base = c - 2.0 * t
    mats = []
    for l in range(1, n + 2):
        tail = sum(
            (x.values[j] * incs[j] for j in range(l, n + 1)),
            start=np.zeros_like(c),
        )
        d = base - 2.0 * beta**2 * tail
        w, _ = eigh_jacobi(d)
        if w[0] <= 0.0:
            raise FeasibilityError(
                f"level precision {l} not positive definite (eigmin={w[0]:.3e}); "
                "the precision matrix needs larger eigenvalues"
            )
        mats.append(d)
    return mats


def closed_form_recursion(
    x: UnitPartition,
    chain: MonotoneChain,
    tilt,
    precision,
    shift,
    beta: float,
) -> float:
    """Exact X_0 for the Gaussian measure (see module docstring)."""
    c = as_sym(precision)
    h = np.asarray(shift, dtype=float)
    mats = level_precisions(x, chain, tilt, c, beta)
    d1_inv = np.linalg.inv(mats[0])
    dq0 = chain.increments()[0]
    total = 2.0 * beta**2 * float(np.sum(d1_inv * dq0)) + float(h @ d1_inv @ h)
    n = chain.levels
    for l in range(1, n + 1):
        _, ld_hi = np.linalg.slogdet(mats[l])
        _, ld_lo = np.linalg.slogdet(mats[l - 1])
        total += (ld_hi - ld_lo) / x.values[l]
    _, ld_c = np.linalg.slogdet(c)
    _, ld_top = np.linalg.slogdet(mats[n])
    total += ld_c - ld_top
    return 0.5 * total


# ---------------------------------------------------------------------------
# Scalar (simultaneously diagonal) layer, doubled units


def _scalar_orders(x, q, u: float):
    """Checked order parameters: x, the levels full_q = (0, q_1..q_n, u),
    the gaps full_q[l+1] - full_q[l] (l = 1..n) and the tail overlap masses
    s[l] = sum_{j>=l} x_j gap_j.  Equal weights are feasible: two levels
    with one weight act as a single level, and the minimizers approach such
    points whenever the optimum has fewer levels than they search."""
    xv = np.asarray(x, dtype=float)
    qv = np.asarray(q, dtype=float)
    if xv.ndim != 1 or qv.ndim != 1 or xv.size != qv.size:
        raise ValueError("x and q must be 1-D arrays of equal length")
    if xv.size and ((xv[1:] < xv[:-1]).any() or xv[0] <= 0.0 or xv[-1] > 1.0):
        raise FeasibilityError("x must be nondecreasing inside (0, 1]")
    full_q = np.concatenate(([0.0], qv, [u]))
    steps = np.diff(full_q)
    if (steps < 0.0).any():
        raise FeasibilityError("q must be nondecreasing from 0 to u")
    gaps = steps[1:]
    return xv, full_q, gaps, np.cumsum((xv * gaps)[::-1])[::-1]


@dataclass(frozen=True)
class ScalarGradient:
    """First derivatives of a scalar functional in the weights x_1..x_n, the
    overlap levels q_1..q_n and the multiplier lam (zero for the
    Crisanti-Sommers form, which has no multiplier)."""

    x: np.ndarray
    q: np.ndarray
    lam: float


def _order_gradient(xv, full_q, gaps, energy: float, g_x, g_gaps, g_tails, g_full):
    """Finish a scalar functional's gradient in (x, q) by reverse mode.

    The functional reaches (x, q) through the gaps (adjoints ``g_gaps``),
    the tails (``g_tails``), the term
    energy * sum_l x_l (full_q[l+1]^2 - full_q[l]^2) and the levels
    themselves (``g_full``, indexed like full_q); ``g_x`` holds the
    remaining direct dependence on x."""
    cum = np.cumsum(g_tails)  # x_j gap_j enters every s[l] with l <= j
    g_x = g_x + gaps * cum + energy * (full_q[2:] ** 2 - full_q[1:-1] ** 2)
    g_gaps = g_gaps + xv * cum
    g_full[2:] += g_gaps + 2.0 * energy * xv * full_q[2:]
    g_full[1:-1] -= g_gaps + 2.0 * energy * xv * full_q[1:-1]
    return g_x, g_full[1:-1]


# Below this |r| _log_slope sums the series, whose tail past three terms is
# under 1e-21 there.  Above it the closed form loses at most 2 eps / |r|
# < 5e-9 of its relative accuracy to cancellation; below, the loss grows
# without bound and x^2 underflows near x = 1e-162.
PHI_SERIES_BELOW = 1e-7


def _log_slope(r: np.ndarray, k: np.ndarray, closed) -> np.ndarray:
    """x-derivative of a log term (1/x) log(1/(1 - x k)) at r = x k:

        k^2 phi(r),  phi(r) = sum_j (j+1)/(j+2) r^j = (r/(1-r) + log(1-r)) / r^2,

    from the series below |r| = PHI_SERIES_BELOW and from ``closed()``, the
    same slope in closed form, above it.  The CS term (1/x) log(1 + x k)
    is minus this term at -k."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(r) < PHI_SERIES_BELOW, k**2 * (0.5 + r * (2.0 / 3.0 + 0.75 * r)), closed())


def parisi_1d(x, q, u: float, lam: float, c: float, h: float, beta: float) -> tuple[float, ScalarGradient]:
    """Scalar variational functional (doubled units) and its gradient:

        -lam*u + (2 beta^2 q[1] + h^2)/d[1]
        + sum_{l=1..n} (1/x_l) log(d[l+1]/d[l]) + log(c/(c - lam))
        - beta^2 sum_{l=1..n} x_l (q[l+1]^2 - q[l]^2),

    with d[l] = c - lam - 2 beta^2 sum_{j>=l} x_j (q[j+1]-q[j]) and
    d[n+1] = c - lam.  Equals 2x the per-mode free-energy functional with the
    matching tilt eigenvalue lam/2; the terminal determinant ratio
    log(c/(c-lam)) carries weight one.  Returns (value, ScalarGradient).
    """
    xv, full_q, gaps, tails = _scalar_orders(x, q, u)
    if c - lam <= 0.0:
        raise FeasibilityError("c - lam must be positive")
    a = 2.0 * beta**2
    # d[l] = c - lam - 2 beta^2 s[l], l = 1..n+1, with s[n+1] = 0
    d = c - lam - a * np.append(tails, 0.0)
    if (d <= 0.0).any():
        raise FeasibilityError("scalar level precision not positive")
    n = xv.size
    first = (a * full_q[1] + h * h) / d[0]
    total = -lam * u + first
    ratios = np.empty(n)
    logs = np.empty(n)
    for l in range(1, n + 1):
        # d[l-1] = d[l] (1 - 2 beta^2 x_l dq_l / d[l]); log1p keeps the ratio
        # accurate down to vanishing weights (plain log cancels catastrophically);
        # every x_l > 0 after _scalar_orders.
        ratio = a * xv[l - 1] * gaps[l - 1] / d[l]
        if ratio >= 1.0:
            # d[l-1] > 0 only up to rounding: the level is at the boundary.
            raise FeasibilityError("scalar level precision not positive")
        ratios[l - 1] = ratio
        logs[l - 1] = -math.log1p(-ratio)
        total += logs[l - 1] / xv[l - 1]
        total -= beta**2 * xv[l - 1] * (full_q[l + 1] ** 2 - full_q[l] ** 2)
    total += math.log(c / (c - lam))

    # The l-th log term depends on x_l, gap_l and d[l+1]; its derivatives in
    # gap_l and d[l+1] simplify through d[l] = d[l+1] (1 - ratio_l).
    g_d = np.empty(n + 1)
    g_d[0] = -first / d[0]
    g_d[1:] = -ratios / (xv * d[:n])
    g_full = np.zeros(n + 2)
    g_full[1] = a / d[0]
    g_x, g_q = _order_gradient(
        xv, full_q, gaps, -(beta**2),
        _log_slope(ratios, a * gaps / d[1:], lambda: (ratios / (1.0 - ratios) - logs) / xv**2),
        a / d[:n], -a * g_d[:n], g_full,
    )
    g_lam = -u + 1.0 / (c - lam) - float(g_d.sum())
    return float(total), ScalarGradient(g_x, g_q, g_lam)


def crisanti_sommers(x, q, u: float, c: float, h: float, beta: float) -> tuple[float, ScalarGradient]:
    """Crisanti-Sommers form (doubled units) and its gradient:

        1 - c*u + h^2 s[1] + q[1]/s[1] + sum_{l=1..n-1} (1/x_l) log(s[l]/s[l+1])
        + log(c (u - q[n])) + beta^2 sum_{l=1..n} x_l (q[l+1]^2 - q[l]^2),

    with s[l] = sum_{j>=l} x_j (q[j+1]-q[j]).  The functional realizes the
    equivalence with parisi_1d on the closure where the top weight x_n is one;
    the minimizers keep that convention.  Returns (value, ScalarGradient)
    with a zero multiplier derivative.
    """
    xv, full_q, gaps, s = _scalar_orders(x, q, u)
    n = xv.size
    if n == 0:
        raise ValueError("Crisanti-Sommers form needs at least one level")
    if u - full_q[n] <= 0.0:
        raise FeasibilityError("u must exceed the largest overlap level")
    if (s <= 0.0).any():
        raise FeasibilityError("tail overlap masses must be positive")
    total = 1.0 - c * u + h * h * s[0] + full_q[1] / s[0]
    for l in range(1, n):
        # s[l-1] = s[l] + x_l gap_l; log1p form is stable for small weights
        total += math.log1p(xv[l - 1] * gaps[l - 1] / s[l]) / xv[l - 1]
    total += math.log(c * (u - full_q[n]))
    for l in range(n):
        total += beta**2 * xv[l] * (full_q[l + 2] ** 2 - full_q[l + 1] ** 2)

    # The l-th log term depends on x_l, gap_l and s[l+1]; its derivatives in
    # gap_l and s[l+1] simplify through s[l] = s[l+1] (1 + rho_l).
    rhos = xv[:-1] * gaps[:-1] / s[1:]
    g_x = np.zeros(n)
    g_x[:-1] = -_log_slope(
        -rhos, -gaps[:-1] / s[1:], lambda: -(rhos / (1.0 + rhos) - np.log1p(rhos)) / xv[:-1] ** 2
    )
    g_gaps = np.zeros(n)
    g_gaps[:-1] = 1.0 / s[:-1]
    g_s = np.empty(n)
    g_s[0] = h * h - full_q[1] / s[0] ** 2
    # rho_l / x_l written as gap_l / s[l+1]: no 0 / 0 at a subnormal weight.
    g_s[1:] = -(gaps[:-1] / s[1:]) / s[:-1]
    g_full = np.zeros(n + 2)
    g_full[1] = 1.0 / s[0]
    g_full[n] -= 1.0 / (u - full_q[n])
    g_x, g_q = _order_gradient(xv, full_q, gaps, beta**2, g_x, g_gaps, g_s, g_full)
    return float(total), ScalarGradient(g_x, g_q, 0.0)


# ---------------------------------------------------------------------------
# Replica-symmetric closed forms


def closed_form_value(c: float, u: float, beta: float) -> float:
    """Two-clause closed-form value of the scalar problem (doubled units)."""
    if c <= 0.0 or u <= 0.0:
        raise ValueError("c and u must be positive")
    if beta == 0.0 or u <= math.sqrt(2.0) / (2.0 * beta):
        return beta**2 * u**2 + math.log(c * u) - c * u + 1.0
    return (2.0 * math.sqrt(2.0) * beta - c) * u + math.log(c / beta) - 0.5 * (1.0 + math.log(2.0))


@dataclass(frozen=True)
class RsSolution:
    overlap: float
    regime: str  # "low_u" (overlap 0) or "high_u"


def optimal_overlap(u: float, beta: float) -> RsSolution:
    """Minimizing overlap level of the restricted scalar problem."""
    if u <= 0.0:
        raise ValueError("u must be positive")
    if beta == 0.0 or u <= math.sqrt(2.0) / (2.0 * beta):
        return RsSolution(0.0, "low_u")
    return RsSolution(u - math.sqrt(2.0) / (2.0 * beta), "high_u")


@dataclass(frozen=True)
class SelfOverlapSolution:
    diverges: bool
    self_overlap: float | None
    value: float | None


def optimal_self_overlap(c: float, beta: float) -> SelfOverlapSolution:
    """sup over u of the closed-form value: finite only for c >= 2 sqrt(2) beta."""
    if c <= 0.0:
        raise ValueError("c must be positive")
    if beta == 0.0:
        return SelfOverlapSolution(False, 1.0 / c, 0.0)
    if c < 2.0 * math.sqrt(2.0) * beta:
        return SelfOverlapSolution(True, None, None)
    disc = math.sqrt(c * c - 8.0 * beta**2)
    u_star = (c - disc) / (4.0 * beta**2)
    val = beta**2 * u_star**2 + math.log(c * u_star) - c * u_star + 1.0
    return SelfOverlapSolution(False, u_star, val)


def diagonal_value(c_eigs, u_eigs, beta: float) -> float:
    """Sum of per-mode closed-form values over shared eigenmodes (doubled units)."""
    cs = np.asarray(c_eigs, dtype=float)
    us = np.asarray(u_eigs, dtype=float)
    if cs.shape != us.shape:
        raise MatrixError("eigenvalue lists must have equal length")
    return float(sum(closed_form_value(c, u, beta) for c, u in zip(cs, us)))


# ---------------------------------------------------------------------------
# Scalar minimizers and the equivalence check


def _orders_from(theta: np.ndarray, n: int, u: float):
    """Weights and overlap levels from their raw parameters: n - 1 free
    weights under a top weight of 1, then n levels.  Each group is the
    ``cumulative_fractions`` of its parameters and one more logit pinned at
    zero.  Returns (x, q, pullback), where pullback(g_x, g_q) is the
    gradient in theta[:2n - 1]."""
    x, pull_x = cumulative_fractions(np.append(theta[: n - 1], 0.0))
    y, pull_y = cumulative_fractions(np.append(theta[n - 1 : 2 * n - 1], 0.0))

    def pullback(g_x: np.ndarray, g_q: np.ndarray) -> np.ndarray:
        # The pinned logits are not parameters.
        return np.concatenate((pull_x(g_x[:-1])[:-1], u * pull_y(g_q)[:-1]))

    return x, u * y[:-1], pullback


@dataclass(frozen=True)
class ScalarOptimum:
    """Best of a multistart search.  ``iterations`` and ``converged`` belong
    to the winning search; ``evaluations`` counts the value-and-gradient
    calls of all searches and ``rejections`` their infeasible points by
    reason."""

    value: float
    x: np.ndarray
    q: np.ndarray
    lam: float | None
    iterations: int
    converged: bool
    evaluations: int
    rejections: dict


# Value and gradient L-BFGS-B sees at an infeasible point.
REJECTED_VALUE = 1e6

# Random starts of each scalar minimizer.
RESTARTS = 5


def _multistart(functional, unpack, starts) -> ScalarOptimum:
    """L-BFGS-B on ``functional(*unpack(theta)[:3])`` from each start in
    turn; the lowest value wins, the earliest on ties.  ``unpack`` maps a
    parameter vector to (x, q, lam, pullback), where ``pullback`` maps the
    functional's ScalarGradient to the gradient in the parameters.  An
    infeasible point (FeasibilityError) is rejected with REJECTED_VALUE and
    a zero gradient; any other error propagates."""
    evaluations = 0
    rejections: dict[str, int] = {}

    def objective(theta):
        nonlocal evaluations
        evaluations += 1
        try:
            x, q, lam, pullback = unpack(theta)
            value, grad = functional(x, q, lam)
        except FeasibilityError as exc:
            rejections[str(exc)] = rejections.get(str(exc), 0) + 1
            return REJECTED_VALUE, np.zeros_like(theta)
        return value, pullback(grad)

    best = None
    for s0 in starts:
        res = minimize(
            objective,
            s0,
            jac=True,
            method="L-BFGS-B",
            # Optima often sit where a level merges or vanishes, which the
            # softmax parameters reach only at infinity with an exponentially
            # vanishing gradient: the relative-reduction test ends the search.
            options={"maxiter": 4000, "ftol": 1e-15, "gtol": 1e-14},
        )
        if best is None or res.fun < best.fun:
            best = res
    x, q, lam, _ = unpack(best.x)
    return ScalarOptimum(
        float(best.fun), x, q, lam, int(best.nit), bool(best.success and best.fun < REJECTED_VALUE),
        evaluations, dict(sorted(rejections.items())),
    )


def minimize_parisi_1d(c: float, u: float, h: float, beta: float, n: int, seed: int = 0) -> ScalarOptimum:
    """Minimize parisi_1d over (x, q, lam) at fixed level count.

    The top weight is fixed at 1, the closure point where the optimum sits,
    and one search runs from each start.  The n - 1 free weights and the n
    overlap levels are searched through cumulative-fraction transforms so
    monotonicity holds by construction, and the multiplier as
    lam = c - 2 beta^2 s[1] - exp(eta), so that every level precision
    d[l] >= d[1] = exp(eta) is positive by construction.  Each start is
    drawn in (x, q, lam) and mapped to eta; a start whose lam leaves no
    positive d[1] starts from d[1] = 1.
    """
    rng = np.random.default_rng(seed)
    a = 2.0 * beta**2

    def unpack(theta):
        x, q, pull_orders = _orders_from(theta, n, u)
        gaps = np.diff(np.append(q, u))
        eta = float(theta[-1])
        if eta > 700.0:
            raise FeasibilityError("level precision d[1] = exp(eta) overflows")
        d1 = math.exp(eta)
        lam = c - a * float(x @ gaps) - d1

        def pullback(grad: ScalarGradient) -> np.ndarray:
            # lam moves with s[1] = sum_l x_l (q[l+1] - q[l]) and with eta.
            g_x = grad.x - grad.lam * a * gaps
            g_q = grad.q - grad.lam * a * (np.append(0.0, x[:-1]) - x)
            return np.append(pull_orders(g_x, g_q), -grad.lam * d1)

        return x, q, lam, pullback

    def start(theta):
        """A start drawn as (raw x, raw q, lam), with lam mapped to eta."""
        x, q, _ = _orders_from(theta, n, u)
        d1 = c - a * float(x @ np.diff(np.append(q, u))) - theta[-1]
        return np.append(theta[:-1], math.log(d1) if d1 > 0.0 else 0.0)

    # Warm start near the restricted-problem stationary point.
    gap = u - optimal_overlap(u, beta).overlap
    warm = np.zeros(2 * n)
    warm[-1] = c - 2.0 * beta**2 * gap - 1.0 / gap
    starts = [np.zeros(2 * n), warm] + [rng.normal(scale=1.0, size=2 * n) for _ in range(RESTARTS - 1)]
    return _multistart(
        lambda x, q, lam: parisi_1d(x, q, u, lam, c, h, beta), unpack, [start(s0) for s0 in starts]
    )


def minimize_cs_1d(c: float, u: float, h: float, beta: float, n: int, seed: int = 0) -> ScalarOptimum:
    """Minimize crisanti_sommers over (q, interior x) with the top weight at 1."""
    rng = np.random.default_rng(seed)

    def unpack(theta):
        x, q, pull_orders = _orders_from(theta, n, u)
        return x, q, None, lambda grad: pull_orders(grad.x, grad.q)

    starts = [np.zeros(2 * n - 1)] + [rng.normal(scale=1.0, size=2 * n - 1) for _ in range(RESTARTS)]
    return _multistart(lambda x, q, lam: crisanti_sommers(x, q, u, c, h, beta), unpack, starts)


@dataclass(frozen=True)
class EquivalenceReport:
    parisi_value: float
    cs_value: float
    gap: float
    parisi_opt: ScalarOptimum
    cs_opt: ScalarOptimum


def equivalence_check(c: float, u: float, h: float, beta: float, n: int, seed: int = 0) -> EquivalenceReport:
    """Minimize both scalar functionals at fixed n and report the gap."""
    p = minimize_parisi_1d(c, u, h, beta, n, seed=seed)
    cs = minimize_cs_1d(c, u, h, beta, n, seed=seed)
    return EquivalenceReport(p.value, cs.value, abs(p.value - cs.value), p, cs)
