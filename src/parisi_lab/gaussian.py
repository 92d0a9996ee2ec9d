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
boundaries (PAIR_SCALE).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.optimize import minimize

from parisi_lab.matrices import MatrixError, as_sym, eigh_jacobi
from parisi_lab.paths import MonotoneChain, UnitPartition

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


def _check_scalar_order_params(x, q, u: float):
    xv = np.asarray(x, dtype=float)
    qv = np.asarray(q, dtype=float)
    if xv.ndim != 1 or qv.ndim != 1 or xv.size != qv.size:
        raise ValueError("x and q must be 1-D arrays of equal length")
    if xv.size and (np.any(np.diff(xv) <= 0.0) or xv[0] <= 0.0 or xv[-1] > 1.0):
        raise FeasibilityError("x must be strictly increasing inside (0, 1]")
    full_q = np.concatenate(([0.0], qv, [u]))
    if np.any(np.diff(full_q) < 0.0):
        raise FeasibilityError("q must be nondecreasing from 0 to u")
    return xv, qv


def _scalar_d(x, q, u: float, lam: float, c: float, beta: float):
    """d[l] = c - lam - 2 beta^2 s[l] with s[l] the tail overlap mass."""
    n = x.size
    full_q = np.concatenate(([0.0], q, [u]))
    gaps = np.diff(full_q)[1:]  # increments q[l+1] - q[l], l = 1..n
    tails = np.concatenate((np.cumsum((x * gaps)[::-1])[::-1], [0.0]))
    d = c - lam - 2.0 * beta**2 * tails
    if np.any(d <= 0.0):
        raise FeasibilityError("scalar level precision not positive")
    return d, tails


def parisi_1d(x, q, u: float, lam: float, c: float, h: float, beta: float) -> float:
    """Scalar variational functional (doubled units):

        -lam*u + (2 beta^2 q[1] + h^2)/d[1]
        + sum_{l=1..n} (1/x_l) log(d[l+1]/d[l]) + log(c/(c - lam))
        - beta^2 sum_{l=1..n} x_l (q[l+1]^2 - q[l]^2),

    with d[l] = c - lam - 2 beta^2 sum_{j>=l} x_j (q[j+1]-q[j]) and
    d[n+1] = c - lam.  Equals 2x the per-mode free-energy functional with the
    matching tilt eigenvalue lam/2; the terminal determinant ratio
    log(c/(c-lam)) carries weight one.
    """
    xv, qv = _check_scalar_order_params(x, q, u)
    if c - lam <= 0.0:
        raise FeasibilityError("c - lam must be positive")
    d, _ = _scalar_d(xv, qv, u, lam, c, beta)
    n = xv.size
    q1 = qv[0] if n else u
    total = -lam * u + (2.0 * beta**2 * q1 + h * h) / d[0]
    full_q = np.concatenate(([0.0], qv, [u]))
    for l in range(1, n + 1):
        # d[l-1] = d[l] (1 - 2 beta^2 x_l dq_l / d[l]); log1p keeps the ratio
        # accurate down to vanishing weights (plain log cancels catastrophically);
        # every x_l > 0 after _check_scalar_order_params.
        gap = full_q[l + 1] - full_q[l]
        ratio = 2.0 * beta**2 * xv[l - 1] * gap / d[l]
        if ratio >= 1.0:
            # d[l-1] > 0 only up to rounding: the level is at the boundary.
            raise FeasibilityError("scalar level precision not positive")
        total += -math.log1p(-ratio) / xv[l - 1]
        total -= beta**2 * xv[l - 1] * (full_q[l + 1] ** 2 - full_q[l] ** 2)
    total += math.log(c / (c - lam))
    return float(total)


def crisanti_sommers(x, q, u: float, c: float, h: float, beta: float) -> float:
    """Crisanti-Sommers form (doubled units):

        1 - c*u + h^2 s[1] + q[1]/s[1] + sum_{l=1..n-1} (1/x_l) log(s[l]/s[l+1])
        + log(c (u - q[n])) + beta^2 sum_{l=1..n} x_l (q[l+1]^2 - q[l]^2),

    with s[l] = sum_{j>=l} x_j (q[j+1]-q[j]).  The functional realizes the
    equivalence with parisi_1d on the closure where the top weight x_n is one;
    the minimizers keep that convention.
    """
    xv, qv = _check_scalar_order_params(x, q, u)
    n = xv.size
    if n == 0:
        raise ValueError("Crisanti-Sommers form needs at least one level")
    if u - qv[-1] <= 0.0:
        raise FeasibilityError("u must exceed the largest overlap level")
    full_q = np.concatenate(([0.0], qv, [u]))
    gaps = np.diff(full_q)[1:]
    s = np.concatenate((np.cumsum((xv * gaps)[::-1])[::-1], [np.nan]))
    if np.any(s[:-1] <= 0.0):
        raise FeasibilityError("tail overlap masses must be positive")
    total = 1.0 - c * u + h * h * s[0] + qv[0] / s[0]
    for l in range(1, n):
        # s[l-1] = s[l] + x_l gap_l; log1p form is stable for small weights
        total += math.log1p(xv[l - 1] * gaps[l - 1] / s[l]) / xv[l - 1]
    total += math.log(c * (u - qv[-1]))
    for l in range(n):
        total += beta**2 * xv[l] * (full_q[l + 2] ** 2 - full_q[l + 1] ** 2)
    return float(total)


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


def _cumfrac(raw: np.ndarray, count: int) -> np.ndarray:
    """Map ``count`` reals to ``count`` strictly increasing values in (0, 1)
    via cumulative fractions over count+1 exponential slots."""
    if count == 0:
        return np.zeros(0)
    full = np.concatenate((np.asarray(raw, dtype=float)[:count], [0.0]))
    e = np.exp(full - full.max())
    return np.cumsum(e)[:count] / e.sum()


@dataclass(frozen=True)
class ScalarOptimum:
    value: float
    x: np.ndarray
    q: np.ndarray
    lam: float | None
    iterations: int
    converged: bool


def _multistart(functional, searches, maxiter: int) -> ScalarOptimum:
    """Nelder-Mead on ``functional(*unpack(theta))`` from each (unpack, start)
    pair in turn; the lowest value wins, the earliest on ties.  ``unpack``
    maps a parameter vector to (x, q, lam).  An infeasible point scores 1e6;
    any other error propagates."""
    best = None
    for unpack, s0 in searches:

        def objective(theta, unpack=unpack) -> float:
            try:
                return functional(*unpack(theta))
            except FeasibilityError:
                return 1e6

        res = minimize(
            objective,
            s0,
            method="Nelder-Mead",
            options={"maxiter": maxiter, "xatol": 1e-10, "fatol": 1e-12},
        )
        x, q, lam = unpack(res.x)
        cand = ScalarOptimum(float(res.fun), x, q, lam, int(res.nit), bool(res.success))
        if best is None or cand.value < best.value:
            best = cand
    return best


def minimize_parisi_1d(
    c: float,
    u: float,
    h: float,
    beta: float,
    n: int,
    restarts: int = 5,
    seed: int = 0,
    pin_top: bool = True,
    maxiter: int = 4000,
) -> ScalarOptimum:
    """Minimize parisi_1d over (x, q, lam) at fixed level count.

    Weights and overlap levels are searched through cumulative-fraction
    transforms so monotonicity holds by construction.  With pin_top the top
    weight is fixed at 1 (the closure point where the optimum sits); the open
    and pinned searches are both run and the better value kept.
    """
    rng = np.random.default_rng(seed)

    def unpack(theta, pinned: bool):
        nx = n - 1 if pinned else n
        x = _cumfrac(theta[:nx], nx)
        if pinned:
            x = np.concatenate((x, [1.0]))
        q = u * _cumfrac(theta[nx : nx + n], n)
        lam = float(theta[nx + n])
        return x, q, lam

    # Warm start near the restricted-problem stationary point.
    gap = u - optimal_overlap(u, beta).overlap
    lam_warm = c - 2.0 * beta**2 * gap - 1.0 / gap

    searches = []
    for pinned in (True, False) if pin_top else (False,):
        size = (n - 1 if pinned else n) + n + 1
        warm = np.zeros(size)
        warm[-1] = lam_warm
        starts = [np.zeros(size), warm]
        starts += [rng.normal(scale=1.0, size=size) for _ in range(max(0, restarts - 1))]
        searches += [(partial(unpack, pinned=pinned), s0) for s0 in starts]
    return _multistart(
        lambda x, q, lam: parisi_1d(x, q, u, lam, c, h, beta), searches, maxiter
    )


def minimize_cs_1d(
    c: float,
    u: float,
    h: float,
    beta: float,
    n: int,
    restarts: int = 5,
    seed: int = 0,
    maxiter: int = 4000,
) -> ScalarOptimum:
    """Minimize crisanti_sommers over (q, interior x) with the top weight at 1."""
    rng = np.random.default_rng(seed)
    size = (n - 1) + n

    def unpack(theta):
        x = np.concatenate((_cumfrac(theta[: n - 1], n - 1), [1.0]))
        q = u * _cumfrac(theta[n - 1 :], n)
        return x, q, None

    starts = [np.zeros(size)] + [rng.normal(scale=1.0, size=size) for _ in range(restarts)]
    return _multistart(
        lambda x, q, lam: crisanti_sommers(x, q, u, c, h, beta),
        [(unpack, s0) for s0 in starts],
        maxiter,
    )


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
