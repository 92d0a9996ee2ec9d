"""Finite-size vector-spin simulator: exact enumeration, disorder averages,
and the concentration and superadditivity experiments.

The interaction energy is X(s) = (1/N) sum_{i,j} g_ij <s_i, s_j> over all
ordered site pairs with an UNsymmetrized matrix of standard normals; the
model's covariance is then exactly the squared Frobenius norm of the mutual
overlap matrix, which the variance tests rely on.

Exact enumeration builds the table of N * X(s) over all S^N configurations
once per disorder sample, by batched einsum quadratic forms, and takes one
log-sum-exp per inverse temperature, so a vector of betas costs one table.

Disorder entries are rounded to the dyadic grid 2^-26.  For supports with
+-1 coordinates (Ising, hypercubes) every partial sum of those quadratic
forms is then an exact multiple of 2^-26 far below the 53-bit mantissa
limit, so the energies do not depend on summation order, batch size or
BLAS; the rounding itself is ~1.5e-8 per entry, negligible against every
statistical tolerance used here.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from parisi_lab.matrices import frobenius_norm
from parisi_lab.measures import AprioriMeasure
from parisi_lab.seeds import replicate

_QUANTUM = 2.0**26


class BudgetError(RuntimeError):
    """Raised when an enumeration would exceed the state budget."""


ENUMERATION_BUDGET = 2**24


@dataclass(frozen=True)
class SpinSpace:
    """Finite single-site configuration set with a priori weights."""

    points: np.ndarray      # (S, d)
    weights: np.ndarray     # (S,)

    @classmethod
    def from_measure(cls, mu: AprioriMeasure) -> "SpinSpace":
        if mu.kind != "discrete":
            raise ValueError("enumeration needs a discrete measure; discretize first")
        return cls(mu.points.copy(), mu.weights.copy())

    @classmethod
    def ising(cls) -> "SpinSpace":
        return cls(np.array([[-1.0], [1.0]]), np.ones(2))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def radius(self) -> float:
        return float(np.sqrt((self.points**2).sum(axis=1).max()))


@dataclass(frozen=True)
class Disorder:
    """One realization of the N x N interaction matrix, reproducible by seed."""

    n_sites: int
    matrix: np.ndarray
    seed: int

    @classmethod
    def sample(cls, n_sites: int, seed: int) -> "Disorder":
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n_sites, n_sites))
        g = np.round(g * _QUANTUM) / _QUANTUM
        return cls(n_sites, g, seed)


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
    def everything(cls) -> "OverlapConstraint":
        return cls(None, 0.0)

    @classmethod
    def ball(cls, center, radius: float | None = None) -> "OverlapConstraint":
        c = np.atleast_2d(np.asarray(center, dtype=float))
        r = 0.05 * frobenius_norm(c) if radius is None else float(radius)
        return cls(c, r)

    def admits(self, self_overlaps: np.ndarray) -> np.ndarray:
        """Vectorized membership for an array (..., d, d) of self-overlaps."""
        if self.center is None:
            return np.ones(self_overlaps.shape[:-2], dtype=bool)
        diff = self_overlaps - self.center
        return np.sqrt((diff**2).sum(axis=(-2, -1))) <= self.radius


def _all_configs(space: SpinSpace, n_sites: int) -> np.ndarray:
    """(S^N, N) table of per-site support indices, lexicographic order."""
    total = space.size**n_sites
    if total > ENUMERATION_BUDGET:
        raise BudgetError(f"{total} states exceed the enumeration budget")
    idx = np.arange(total)
    digits = np.empty((total, n_sites), dtype=np.int64)
    for j in range(n_sites):
        digits[:, j] = (idx // space.size ** (n_sites - 1 - j)) % space.size
    return digits


def _energies_fresh(digits: np.ndarray, space: SpinSpace, disorder: Disorder) -> np.ndarray:
    """N * X for every configuration via batched quadratic forms."""
    pts = space.points
    out = np.empty(digits.shape[0])
    batch = max(1, 2**22 // max(digits.shape[1] ** 2, 1))
    for lo in range(0, digits.shape[0], batch):
        sl = digits[lo : lo + batch]
        s = pts[sl]  # (b, N, d)
        gs = np.einsum("ij,bjd->bid", disorder.matrix, s)
        out[lo : lo + batch] = np.einsum("bid,bid->b", s, gs)
    return out


def exact_local_free_energy(
    disorder: Disorder,
    beta: float | np.ndarray,
    constraint: OverlapConstraint,
    space: SpinSpace,
) -> float | np.ndarray:
    """(1/N) log sum over admissible configurations of
    exp(beta sqrt(N) X(s)) prod_i w(s_i), by full enumeration.

    ``beta`` is a scalar or a 1-D array.  The energy table is built once and
    the log-sum-exp is taken separately for each beta, so an array gives
    exactly the values of one scalar call per entry.  A scalar beta returns
    a float, an array an array.
    """
    n = disorder.n_sites
    digits = _all_configs(space, n)
    nx = _energies_fresh(digits, space, disorder)
    logw = np.log(space.weights)[digits].sum(axis=1)
    if constraint.center is not None:
        pts = space.points
        s_all = pts[digits]
        self_ov = np.einsum("bnd,bne->bde", s_all, s_all) / n
        mask = constraint.admits(self_ov)
        if not np.any(mask):
            raise ValueError("empty constraint set: enlarge the overlap ball")
    else:
        mask = slice(None)
    betas = np.asarray(beta, dtype=float)
    values = np.empty(betas.size)
    for k, b in enumerate(betas.ravel()):
        expo = b * nx / np.sqrt(n) + logw
        expo = expo[mask]
        top = expo.max()
        values[k] = (top + np.log(np.sum(np.exp(expo - top)))) / n
    return float(values[0]) if betas.ndim == 0 else values


def disorder_average(
    n_sites: int,
    beta: float | np.ndarray,
    constraint: OverlapConstraint,
    space: SpinSpace,
    replicas: int,
    seed: int,
):
    """Mean and standard error over disorder of the exact local free energy,
    plus the per-sample values.

    ``beta`` is a scalar or a 1-D array; each disorder sample's energy table
    serves every beta.  For a scalar the mean and standard error are floats
    and the values have shape (replicas,); for an array they are arrays over
    beta and the values have shape (len(beta), replicas).
    """
    mean, se, vals = replicate(
        lambda s: exact_local_free_energy(Disorder.sample(n_sites, s), beta, constraint, space), replicas, seed
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
    from scipy.stats import beta as beta_dist

    if successes >= trials:
        return 1.0
    return float(beta_dist.ppf(0.95, successes + 1, trials - successes))


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
    space = SpinSpace.ising()
    constraint = OverlapConstraint.everything()
    mean, _, vals = disorder_average(n_sites, beta, constraint, space, replicas, seed)
    if beta == 0.0:
        ts = np.linspace(0.5, 4.0, 8)
        zeros = np.zeros_like(ts)
        return TailTable(ts, zeros, zeros, 2.0 * np.exp(-(ts**2)))
    dev = n_sites * np.abs(vals - mean)
    r = space.radius
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
    space: SpinSpace | None = None,
    constraint: OverlapConstraint | None = None,
):
    """Margin (N+M) E[p_{N+M}] - N E[p_N] - M E[p_M] with its standard error.

    Superadditivity predicts a nonnegative margin up to the O(radius)
    correction of the overlap localization; the measured value is returned,
    nothing about the correction constant is assumed.
    """
    space = space or SpinSpace.ising()
    constraint = constraint or OverlapConstraint.everything()

    def margin(s):
        kids = s.spawn(3)
        pn = exact_local_free_energy(Disorder.sample(n_small, kids[0]), beta, constraint, space)
        pm = exact_local_free_energy(Disorder.sample(m_small, kids[1]), beta, constraint, space)
        pnm = exact_local_free_energy(Disorder.sample(n_small + m_small, kids[2]), beta, constraint, space)
        return (n_small + m_small) * pnm - n_small * pn - m_small * pm

    mean, se, _ = replicate(margin, replicas, seed)
    return float(mean), float(se)
