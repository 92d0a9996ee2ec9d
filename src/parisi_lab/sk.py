"""Finite-size vector-spin simulator: exact enumeration, disorder averages,
and the concentration and superadditivity experiments.

The interaction energy is X(s) = (1/N) sum_{i,j} g_ij <s_i, s_j> over all
ordered site pairs with an UNsymmetrized matrix of standard normals; the
model's covariance is then exactly the squared Frobenius norm of the mutual
overlap matrix, which the variance tests rely on.

Exact enumeration splits the sites into a, the first ceil(N/2), and b, the
rest, and enumerates the S^k configurations of each half of a discrete
measure with S support points.  With A and B the half configurations as
rows, N X = E_a + E_b + A kron(G_ab + G_ba^T, I_d) B^T gives all S^N
energies by one matrix product, in a table whose row-major order is the
lexicographic order of the configurations; log weights and self-overlaps
add over the halves the same way.  Each inverse temperature then takes one
log-sum-exp of the one table.

Disorder entries are rounded to the dyadic grid 2^-26.  For supports with
+-1 coordinates (Ising, hypercubes) every partial sum of the energies and
self-overlaps is then exact, far below the 53-bit mantissa limit, so the
values do not depend on the split, the summation order or BLAS; other
supports agree to rounding.  The rounding itself is ~1.5e-8 per entry,
negligible against every statistical tolerance used here.

``ENUMERATION_BUDGET`` bounds S^N and so memory: a few float64 tables of S^N
entries, 128 MiB each at the budget.  Under a ball the squared distances are
summed one self-overlap entry at a time, so no S^N x d x d table is built.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from parisi_lab.matrices import frobenius_norm
from parisi_lab.measures import AprioriMeasure
from parisi_lab.seeds import replicate

_QUANTUM = 2.0**26


class BudgetError(RuntimeError):
    """Raised when an enumeration would exceed the state budget."""


ENUMERATION_BUDGET = 2**24


@dataclass(frozen=True)
class Disorder:
    """One realization of the N x N interaction matrix; ``sample`` draws it
    reproducibly from a seed."""

    matrix: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def sample(cls, n_sites: int, seed: int) -> "Disorder":
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n_sites, n_sites))
        return cls(np.round(g * _QUANTUM) / _QUANTUM)


def hamiltonian(config: np.ndarray, disorder: Disorder) -> float:
    """X(s) = (1/N) sum_ij g_ij <s_i, s_j> for one configuration (N, d)."""
    s = np.atleast_2d(np.asarray(config, dtype=float))
    if s.shape[0] != disorder.n_sites:
        raise ValueError("configuration length differs from the disorder size")
    pair = s @ s.T
    return float(np.sum(disorder.matrix * pair) / disorder.n_sites)


def overlap(config1: np.ndarray, config2: np.ndarray) -> np.ndarray:
    """Mutual overlap matrix (1/N) s1^T s2, shape (d, d)."""
    s1 = np.atleast_2d(np.asarray(config1, dtype=float))
    s2 = np.atleast_2d(np.asarray(config2, dtype=float))
    if s1.shape != s2.shape:
        raise ValueError("configurations must share (N, d)")
    return s1.T @ s2 / s1.shape[0]


@dataclass(frozen=True)
class OverlapConstraint:
    """Frobenius ball ||R(s,s) - center|| <= radius, or unconstrained."""

    center: np.ndarray | None = None
    radius: float = 0.0

    @classmethod
    def ball(cls, center, radius: float | None = None) -> "OverlapConstraint":
        c = np.atleast_2d(np.asarray(center, dtype=float))
        r = 0.05 * frobenius_norm(c) if radius is None else float(radius)
        return cls(c, r)

    def admits(self, entry) -> np.ndarray:
        """Vectorized ball membership from ``entry(i, j)``, the (i, j) entries
        of the self-overlaps as arrays of any one shape.  The squared
        distances are added one entry at a time in row-major order, so no
        (..., d, d) table of self-overlaps is needed."""
        d = self.center.shape[0]
        total = 0.0
        for i, j in itertools.product(range(d), repeat=2):
            total += (entry(i, j) - self.center[i, j]) ** 2
        return np.sqrt(total) <= self.radius


def _check_budget(mu: AprioriMeasure, n_sites: int) -> None:
    """Raise BudgetError past ``ENUMERATION_BUDGET`` configurations.  S^N is
    never formed: with b the budget's bit length, S^N exceeds the budget
    exactly when S^min(N, b) does, since S^b >= 2^b > budget for S >= 2."""
    if mu.size ** min(n_sites, ENUMERATION_BUDGET.bit_length()) > ENUMERATION_BUDGET:
        raise BudgetError(f"{mu.size}^{n_sites} states exceed the enumeration budget of {ENUMERATION_BUDGET}")


def _split_sum(disorder: Disorder, mu: AprioriMeasure, constraint: OverlapConstraint):
    """N X(s) and log prod_i w(s_i) of the configurations s that the
    constraint admits, in lexicographic order, by the split sum of the
    module docstring."""
    n = disorder.n_sites
    _check_budget(mu, n)
    g, eye, m = disorder.matrix, np.eye(mu.dim), (n + 1) // 2
    halves = []
    for lo, k in ((0, m), (m, n - m)):
        digits = np.indices((mu.size,) * k).reshape(k, mu.size**k).T
        s = mu.points[digits]  # (S^k, k, d)
        flat = s.reshape(mu.size**k, k * mu.dim)
        energy = np.einsum("bi,ij,bj->b", flat, np.kron(g[lo : lo + k, lo : lo + k], eye), flat)
        halves.append((flat, energy, np.log(mu.weights)[digits].sum(axis=1), np.einsum("bnd,bne->bde", s, s)))
    (a, e_a, w_a, r_a), (b, e_b, w_b, r_b) = halves
    nx = (e_a[:, None] + e_b[None, :] + a @ np.kron(g[:m, m:] + g[m:, :m].T, eye) @ b.T).ravel()
    logw = (w_a[:, None] + w_b[None, :]).ravel()
    if constraint.center is not None:
        mask = constraint.admits(lambda i, j: (r_a[:, None, i, j] + r_b[None, :, i, j]) / n).ravel()
        if not np.any(mask):
            raise ValueError("empty constraint set: enlarge the overlap ball")
        nx, logw = nx[mask], logw[mask]
    return nx, logw


def exact_local_free_energy(
    disorder: Disorder,
    beta: float | np.ndarray,
    constraint: OverlapConstraint,
    mu: AprioriMeasure,
) -> float | np.ndarray:
    """(1/N) log sum over admissible configurations of
    exp(beta sqrt(N) X(s)) prod_i w(s_i), by full enumeration of discrete mu.

    ``beta`` is a scalar or a 1-D array.  The energy table is built once and
    the log-sum-exp is taken separately for each beta, so an array gives
    exactly the values of one scalar call per entry.  A scalar beta returns
    a float, an array an array.
    """
    n = disorder.n_sites
    nx, logw = _split_sum(disorder, mu, constraint)
    betas = np.asarray(beta, dtype=float)
    values = np.empty(betas.size)
    expo = np.empty_like(nx)
    for k, b in enumerate(betas.ravel()):
        np.multiply(nx, b, out=expo)
        expo /= np.sqrt(n)
        expo += logw
        top = expo.max()
        expo -= top
        values[k] = (top + np.log(np.sum(np.exp(expo, out=expo)))) / n
    return float(values[0]) if betas.ndim == 0 else values


def disorder_average(
    n_sites: int,
    beta: float | np.ndarray,
    constraint: OverlapConstraint,
    mu: AprioriMeasure,
    replicas: int,
    seed: int,
):
    """Mean and standard error over disorder of the exact local free energy,
    plus the per-sample values.

    ``beta`` is a scalar or a 1-D array; each disorder sample's energy table
    serves every beta.  For a scalar the mean and standard error are floats
    and the values have shape (replicas,); for an array they are arrays over
    beta and the values have shape (len(beta), replicas).  The budget is
    checked before any disorder is drawn.
    """
    _check_budget(mu, n_sites)
    mean, se, vals = replicate(
        lambda s: exact_local_free_energy(Disorder.sample(n_sites, s), beta, constraint, mu), replicas, seed
    )
    if np.ndim(beta) == 0:
        return float(mean), float(se), vals
    return mean, se, vals


# ---------------------------------------------------------------------------
# Experiments


@dataclass(frozen=True)
class TailTable:
    thresholds: np.ndarray
    empirical: np.ndarray
    upper_conf: np.ndarray
    bound: np.ndarray

    def all_below_bound(self) -> bool:
        return bool(np.all(self.upper_conf <= self.bound + 1e-12))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t,empirical,upper95,bound\n")
        rows = zip(*(a.tolist() for a in (self.thresholds, self.empirical, self.upper_conf, self.bound)))
        for t, e, u, b in rows:
            buf.write(f"{t!r},{e!r},{u!r},{b!r}\n")
        return buf.getvalue()


def clopper_pearson_upper(successes: int, trials: int) -> float:
    """One-sided 95% upper confidence bound for a binomial proportion."""
    if successes >= trials:
        return 1.0
    return float(betaincinv(successes + 1, trials - successes, 0.95))


def concentration_experiment(
    n_sites: int,
    beta: float,
    replicas: int,
    seed: int,
) -> TailTable:
    """Ising empirical tails of N * (p_N - mean) against the Gaussian
    concentration bound 2 exp(-t^2 / (4 beta^2 r^4 N)), with 95% binomial
    upper confidence.

    The thresholds are twelve evenly spaced points up to
    t_max = min(12, scale sqrt(log(2 / floor))), where floor is the upper
    confidence limit at zero exceedances.  Beyond t_max the bound lies below
    every limit the replicas can give, so no disorder sample could pass there.
    """
    mu = AprioriMeasure.rademacher()
    mean, _, vals = disorder_average(n_sites, beta, OverlapConstraint(), mu, replicas, seed)
    if beta == 0.0:
        ts = np.linspace(0.5, 4.0, 8)
        zeros = np.zeros_like(ts)
        return TailTable(ts, zeros, zeros, 2.0 * np.exp(-(ts**2)))
    dev = n_sites * np.abs(vals - mean)
    r = mu.support_radius()
    scale = np.sqrt(4.0 * beta**2 * r**4 * n_sites)
    floor = clopper_pearson_upper(0, replicas)
    t_max = min(12.0, float(scale * np.sqrt(np.log(2.0 / floor))))
    ts = np.linspace(t_max / 12.0, t_max, 12)
    emp = np.array([np.mean(dev > t) for t in ts])
    upper = np.array([clopper_pearson_upper(int(np.sum(dev > t)), replicas) for t in ts])
    bound = 2.0 * np.exp(-((ts / scale) ** 2))
    return TailTable(ts, emp, upper, bound)


def superadditivity_experiment(
    n_small: int,
    m_small: int,
    beta: float,
    replicas: int,
    seed: int,
    mu: AprioriMeasure | None = None,
    constraint: OverlapConstraint = OverlapConstraint(),
):
    """Margin (N+M) E[p_{N+M}] - N E[p_N] - M E[p_M] with its standard error.

    Superadditivity predicts a nonnegative margin up to the O(radius)
    correction of the overlap localization; the measured value is returned,
    nothing about the correction constant is assumed.  The budget of the
    largest system is checked before any disorder is drawn.
    """
    mu = mu or AprioriMeasure.rademacher()
    _check_budget(mu, n_small + m_small)

    def margin(s):
        kids = s.spawn(3)
        pn = exact_local_free_energy(Disorder.sample(n_small, kids[0]), beta, constraint, mu)
        pm = exact_local_free_energy(Disorder.sample(m_small, kids[1]), beta, constraint, mu)
        pnm = exact_local_free_energy(Disorder.sample(n_small + m_small, kids[2]), beta, constraint, mu)
        return (n_small + m_small) * pnm - n_small * pn - m_small * pm

    mean, se, _ = replicate(margin, replicas, seed)
    return float(mean), float(se)
