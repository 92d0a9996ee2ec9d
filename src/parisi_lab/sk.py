"""Finite-size vector-spin simulator: exact enumeration, Monte Carlo
estimation, and the concentration / superadditivity / upper-bound experiments.

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
    seeds = np.random.SeedSequence(seed).spawn(replicas)
    vals = np.empty(np.shape(beta) + (replicas,))
    for i, s in enumerate(seeds):
        dis = Disorder.sample(n_sites, s)
        vals[..., i] = exact_local_free_energy(dis, beta, constraint, space)
    mean = vals.mean(axis=-1)
    se = vals.std(axis=-1, ddof=1) / np.sqrt(replicas)
    if np.ndim(beta) == 0:
        return float(mean), float(se), vals
    return mean, se, vals


# ---------------------------------------------------------------------------
# Monte Carlo estimator (thermodynamic integration with parallel tempering)


def mc_free_energy(
    disorder: Disorder,
    beta: float,
    constraint: OverlapConstraint,
    space: SpinSpace,
    sweeps: int = 400,
    ladder: int = 16,
    swap_every: int = 10,
    seed: int = 0,
):
    """Thermodynamic-integration estimate of the local free energy:

        p(beta) = p(0) + Int_0^beta <X>_b / sqrt(N) db,

    with the thermal averages estimated by parallel-tempering Metropolis over
    a ladder from 0 to beta (swaps every ``swap_every`` sweeps) and the
    integral taken by the trapezoid rule on the ladder.  Returns
    (estimate, std_error, diagnostics); the standard error combines batch
    means of the integrand across the ladder.
    """
    rng = np.random.default_rng(seed)
    n = disorder.n_sites
    if beta == 0.0:
        return _log_mass_constrained(space, n, constraint, rng), 0.0, {"acceptance": 1.0}
    betas = np.concatenate(([0.0], np.geomspace(beta / 50.0, beta, ladder - 1)))
    pts = space.points
    state_idx = rng.integers(0, space.size, size=(ladder, n))
    if constraint.center is not None:
        state_idx = _feasible_start(space, n, constraint, rng)[None, :].repeat(ladder, axis=0)
    g = disorder.matrix
    gsym = g + g.T
    logw = np.log(space.weights)

    def energy_of(idx_row):
        s = pts[idx_row]
        return float(np.einsum("id,ij,jd->", s, g, s))

    energies = np.array([energy_of(row) for row in state_idx])
    samples = [[] for _ in range(ladder)]
    swap_accepts = 0
    swap_trials = 0
    half = sweeps // 2
    for sweep in range(sweeps):
        for t in range(ladder):
            idx_row = state_idx[t]
            s = pts[idx_row]
            field = gsym @ s  # (n, d)
            for site in rng.permutation(n):
                old = idx_row[site]
                new = int(rng.integers(0, space.size))
                if new == old:
                    continue
                ds = pts[new] - pts[old]
                # field already counts 2 g_ii <old, ds>; the flip adds g_ii <ds, ds>.
                dE = float(field[site] @ ds) + float(g[site, site]) * float(ds @ ds)
                if constraint.center is not None:
                    trial = s.copy()
                    trial[site] = pts[new]
                    if not bool(constraint.admits((trial.T @ trial / n)[None, ...])[0]):
                        continue
                logr = betas[t] / np.sqrt(n) * dE + logw[new] - logw[old]
                if logr >= 0.0 or np.log(rng.uniform()) < logr:
                    idx_row[site] = new
                    field += np.outer(gsym[:, site], ds)
                    s[site] = pts[new]
                    energies[t] += dE
            if sweep >= half:
                samples[t].append(energies[t] / n)
        if sweep % swap_every == swap_every - 1:
            for t in range(ladder - 1):
                swap_trials += 1
                logr = (betas[t + 1] - betas[t]) / np.sqrt(n) * (energies[t] - energies[t + 1])
                if logr >= 0.0 or np.log(rng.uniform()) < logr:
                    state_idx[[t, t + 1]] = state_idx[[t + 1, t]]
                    energies[[t, t + 1]] = energies[[t + 1, t]]
                    swap_accepts += 1
    means = np.array([np.mean(s) for s in samples])  # <X>_b per rung
    # batch-mean errors per rung, propagated through the trapezoid weights
    errs = np.array([_batch_error(np.asarray(s)) for s in samples])
    integral = float(np.trapezoid(means, betas)) / np.sqrt(n)
    wts = _trapezoid_weights(betas) / np.sqrt(n)
    int_err = float(np.sqrt(np.sum((wts * errs) ** 2)))
    p0 = _log_mass_constrained(space, n, constraint, rng)
    acc = swap_accepts / max(swap_trials, 1)
    diag = {"acceptance": acc, "converged": acc >= 0.10}
    return p0 + integral, int_err, diag


def _trapezoid_weights(xs: np.ndarray) -> np.ndarray:
    w = np.zeros_like(xs)
    w[:-1] += np.diff(xs) / 2.0
    w[1:] += np.diff(xs) / 2.0
    return w


def _batch_error(series: np.ndarray, batches: int = 10) -> float:
    if series.size < 2 * batches:
        return float(series.std(ddof=1) / np.sqrt(series.size)) if series.size > 1 else 0.0
    cut = series.size // batches * batches
    means = series[:cut].reshape(batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(batches))


def _log_mass_constrained(space: SpinSpace, n: int, constraint: OverlapConstraint, rng) -> float:
    """(1/N) log of the a priori mass of the admissible set."""
    log_site_mass = float(np.log(space.weights.sum()))
    if constraint.center is None:
        return log_site_mass
    if space.size**n <= ENUMERATION_BUDGET:
        digits = _all_configs(space, n)
        s_all = space.points[digits]
        self_ov = np.einsum("bnd,bne->bde", s_all, s_all) / n
        mask = constraint.admits(self_ov)
        logw = np.log(space.weights)[digits].sum(axis=1)
        top = logw[mask].max()
        return float((top + np.log(np.sum(np.exp(logw[mask] - top)))) / n)
    probs = space.weights / space.weights.sum()
    draws = rng.choice(space.size, size=(20000, n), p=probs)
    s_all = space.points[draws]
    self_ov = np.einsum("bnd,bne->bde", s_all, s_all) / n
    frac = float(np.mean(constraint.admits(self_ov)))
    return log_site_mass + np.log(max(frac, 1e-300)) / n


def _feasible_start(space: SpinSpace, n: int, constraint: OverlapConstraint, rng) -> np.ndarray:
    for _ in range(100000):
        idx = rng.integers(0, space.size, size=n)
        s = space.points[idx]
        if bool(constraint.admits((s.T @ s / n)[None, ...])[0]):
            return idx
    raise ValueError("could not find a feasible start inside the overlap ball")


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


def clopper_pearson_upper(successes: int, trials: int, alpha: float = 0.05) -> float:
    """One-sided upper confidence bound for a binomial proportion."""
    from scipy.stats import beta as beta_dist

    if successes >= trials:
        return 1.0
    return float(beta_dist.ppf(1.0 - alpha, successes + 1, trials - successes))


def concentration_experiment(
    n_sites: int,
    beta: float,
    replicas: int,
    seed: int,
    space: SpinSpace | None = None,
    thresholds=None,
) -> TailTable:
    """Empirical tails of N * (p_N - mean) against the Gaussian concentration
    bound 2 exp(-t^2 / (4 beta^2 r^4 N)), with 95% binomial upper confidence."""
    space = space or SpinSpace.ising()
    constraint = OverlapConstraint.everything()
    mean, _, vals = disorder_average(n_sites, beta, constraint, space, replicas, seed)
    if beta == 0.0:
        ts = np.asarray(thresholds if thresholds is not None else np.linspace(0.5, 4.0, 8))
        zeros = np.zeros_like(ts)
        return TailTable(ts, zeros, zeros, 2.0 * np.exp(-(ts**2)))
    dev = n_sites * np.abs(vals - mean)
    r = space.radius
    scale = np.sqrt(4.0 * beta**2 * r**4 * n_sites)
    ts = np.asarray(thresholds if thresholds is not None else np.linspace(1.0, 12.0, 12))
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
    seeds = np.random.SeedSequence(seed).spawn(replicas)
    margins = np.empty(replicas)
    for i, s in enumerate(seeds):
        kids = s.spawn(3)
        pn = exact_local_free_energy(Disorder.sample(n_small, kids[0]), beta, constraint, space)
        pm = exact_local_free_energy(Disorder.sample(m_small, kids[1]), beta, constraint, space)
        pnm = exact_local_free_energy(
            Disorder.sample(n_small + m_small, kids[2]), beta, constraint, space
        )
        margins[i] = (n_small + m_small) * pnm - n_small * pn - m_small * pm
    return float(margins.mean()), float(margins.std(ddof=1) / np.sqrt(replicas))


@dataclass(frozen=True)
class BoundReport:
    n_sites: int
    beta: float
    mean: float
    std_error: float
    saddle_value: float

    @property
    def gap(self) -> float:
        return self.saddle_value - self.mean

    @property
    def holds(self) -> bool:
        return self.mean <= self.saddle_value + 3.0 * self.std_error


def bound_check(
    n_sites: int,
    beta: float,
    saddle_value: float,
    replicas: int = 200,
    seed: int = 0,
    space: SpinSpace | None = None,
) -> BoundReport:
    """E_disorder[p_N] against a variational upper-bound witness."""
    space = space or SpinSpace.ising()
    mean, se, _ = disorder_average(
        n_sites, beta, OverlapConstraint.everything(), space, replicas, seed
    )
    return BoundReport(n_sites, beta, mean, se, saddle_value)
