"""Truncated Ruelle probability cascades and their overlap identities.

A cascade with interior weights 0 < x_1 < ... < x_n < 1 is a depth-n tree in
which every node carries the top M atoms of a Poisson process with intensity
x_k t^{-x_k - 1} dt on (0, inf); leaf weights are products along the branch.
The atoms are generated in decreasing order as Gamma_i^{-1/x_k} with Gamma_i
the cumulative sums of standard exponentials, which enumerates the whole
point process from the largest atom down, so truncation keeps exactly the
top M.

All identity checks average over independent disorder replicas with
``seeds.replicate`` (the identities hold in expectation over the cascade,
not per realization) and report mean, standard error, and target side by side.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from parisi_lab.matrices import sqrt_factor
from parisi_lab.measures import TerminalCondition
from parisi_lab.paths import MonotoneChain, UnitPartition
from parisi_lab.recursion import recursion_value
from parisi_lab.seeds import replicate
from parisi_lab.sk import BudgetError

# Leaves of one cascade, the size of its weight and field arrays; the same
# bound as sk.ENUMERATION_BUDGET on states and recursion.MC_POINT_BUDGET.
LEAF_BUDGET = 2**24


@dataclass(frozen=True)
class CascadeSpec:
    """Interior weights and per-node branching cap of a truncated cascade."""

    weights: np.ndarray
    branching: int = 128

    def __init__(self, weights, branching: int = 128) -> None:
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("need at least one cascade level")
        if not (np.all(w > 0.0) and np.all(w < 1.0) and np.all(np.diff(w) > 0.0)):
            raise ValueError("weights must be strictly increasing inside (0, 1)")
        if branching < 2:
            raise ValueError("branching cap must be at least 2")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "branching", int(branching))

    @property
    def levels(self) -> int:
        return self.weights.size

    @property
    def leaves(self) -> int:
        return self.branching**self.levels


def top_poisson_atoms(x_k: float, shape, rng: np.random.Generator) -> np.ndarray:
    """Largest atoms of the Poisson process with intensity x_k t^{-x_k-1} dt,
    in strictly decreasing order along the last axis; every row along that
    axis is an independent process.  The standard exponentials are
    ``rng.standard_exponential`` draws, the stream of ``rng.exponential``;
    their cumulative sums and the power are taken in place, in the one
    array drawn."""
    if not 0.0 < x_k < 1.0:
        raise ValueError("the cascade exponent must lie in (0, 1)")
    gamma = rng.standard_exponential(size=shape)
    np.cumsum(gamma, axis=-1, out=gamma)
    return np.power(gamma, -1.0 / x_k, out=gamma)


@dataclass(frozen=True)
class CascadeTree:
    """One sampled cascade: ``leaf_weights`` are the products of the atoms
    along branches, flattened lexicographically; ``normalized`` sums to one.
    """

    spec: CascadeSpec
    leaf_weights: np.ndarray
    normalized: np.ndarray


def build_cascade(spec: CascadeSpec, seed) -> CascadeTree:
    """Draw one cascade level by level.  Raises BudgetError, before any
    draw, when its branching**levels leaves exceed LEAF_BUDGET."""
    if spec.leaves > LEAF_BUDGET:
        raise BudgetError(f"{spec.leaves} cascade leaves exceed the budget of {LEAF_BUDGET}")
    rng = np.random.default_rng(seed)
    m = spec.branching
    leaf = np.ones(1)
    for k, xk in enumerate(spec.weights):
        atoms = top_poisson_atoms(xk, (m**k, m), rng)
        atoms *= leaf[:, None]
        leaf = atoms.reshape(-1)
    return CascadeTree(spec, leaf, leaf / leaf.sum())


def _same_prefix(tree: CascadeTree) -> np.ndarray:
    """Pair measure of the leaf pairs that share their depth-k ancestor,
    k = 0..n (1 at the root): the sum of the squared normalized subtree
    masses of the depth-k nodes.  Exact weighted double sums, grouping pairs
    by common ancestor depth, in O(leaves).  The depth-n nodes are the
    leaves, whose masses are the normalized weights themselves."""
    m = tree.spec.branching
    w = tree.normalized
    masses = [w.reshape(m**k, -1).sum(axis=1) for k in range(1, tree.spec.levels)] + [w]
    return np.array([1.0] + [float(np.sum(mm**2)) for mm in masses])


@dataclass(frozen=True)
class IdentityCheck:
    labels: tuple
    estimates: np.ndarray
    std_errors: np.ndarray
    targets: np.ndarray

    @property
    def max_sigma(self) -> float:
        dev = np.abs(self.estimates - self.targets)
        return float(np.max(dev / np.maximum(self.std_errors, 1e-300)))

    def within(self, n_sigma: float = 3.0) -> bool:
        return bool(np.all(np.abs(self.estimates - self.targets) <= n_sigma * self.std_errors))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("k,estimate,se,target\n")
        rows = zip(self.labels, self.estimates.tolist(), self.std_errors.tolist(), self.targets.tolist())
        for lab, e, s, t in rows:
            buf.write(f"{lab},{e!r},{s!r},{t!r}\n")
        return buf.getvalue()


def overlap_distribution_check(
    spec: CascadeSpec,
    replicas: int = 256,
    seed: int = 0,
) -> IdentityCheck:
    """E[ pair measure {overlap <= k} ] = x_k for k = 1..n (and 1 at n+1)."""
    # A pair has overlap <= k unless it shares its depth-k ancestor.
    mean, se, _ = replicate(lambda s: 1.0 - _same_prefix(build_cascade(spec, s))[1:], replicas, seed)
    labels = tuple(range(1, spec.levels + 2))
    return IdentityCheck(labels, np.append(mean, 1.0), np.append(se, 1e-300), np.append(spec.weights, 1.0))


def pair_sum_check(spec: CascadeSpec, replicas: int = 256, seed: int = 0) -> IdentityCheck:
    """Pair-mass slabs by common ancestor depth:

        E[ sum over pairs with overlap exactly k+1 ] = x_{k+1} - x_k,  k < n,
        E[ sum of squared normalized weights ]       = 1 - x_n,

    the slabs and the diagonal add to one exactly in every replica.
    """
    n = spec.levels

    def slabs_and_diagonal(s):
        same = _same_prefix(build_cascade(spec, s))
        return np.append(same[:-1] - same[1:], same[-1])  # overlap exactly k+1, k = 0..n-1

    est, se, _ = replicate(slabs_and_diagonal, replicas, seed)
    x = np.concatenate(([0.0], spec.weights))
    targets = np.concatenate((np.diff(x), [1.0 - spec.weights[-1]]))
    labels = tuple([f"slab{k}" for k in range(1, n + 1)] + ["diagonal"])
    return IdentityCheck(labels, est, se, targets)


def sample_leaf_fields(
    tree: CascadeTree, chain: MonotoneChain, rng: np.random.Generator
) -> np.ndarray:
    """Hierarchical Gaussian field on the leaves: covariance between two
    leaves is Q[overlap], overlap their lexicographic depth.  Shape (M^n, d)."""
    m = tree.spec.branching
    n = tree.spec.levels
    d = chain.dim
    incs = chain.increments()
    total = np.zeros((m**n, d))
    for k in range(n + 1):
        fac = sqrt_factor(incs[k])
        draw = rng.standard_normal((m**k, fac.shape[1])) @ fac.T
        total += np.repeat(draw, m ** (n - k), axis=0)
    return total


def cascade_representation(
    spec: CascadeSpec,
    chain: MonotoneChain,
    tc: TerminalCondition,
    replicas: int = 256,
    seed: int = 0,
):
    """Cascade representation of the recursion:

        E[ log sum_a xi(a) exp(g(Y(a))) ] - E[ log sum_a xi(a) ]

    over independent (tree, field) replicas; the subtracted log-mass term
    normalizes the truncated cascade.  The cascade weights are the interior
    partition points.  Returns (estimate, std_error).
    """
    if spec.levels != chain.levels:
        raise ValueError("cascade and chain level counts differ")

    def log_ratio(s):
        rng = np.random.default_rng(s)
        tree = build_cascade(spec, rng)
        g = np.asarray(tc(sample_leaf_fields(tree, chain, rng)))
        logw = np.log(tree.leaf_weights)
        top = (logw + g).max()
        lhs = top + np.log(np.sum(np.exp(logw + g - top)))
        top0 = logw.max()
        rhs = top0 + np.log(np.sum(np.exp(logw - top0)))
        return lhs - rhs

    mean, se, _ = replicate(log_ratio, replicas, seed)
    return float(mean), float(se)


def representation_vs_recursion(
    spec: CascadeSpec,
    chain: MonotoneChain,
    tc: TerminalCondition,
    replicas: int = 256,
    seed: int = 0,
):
    """(cascade estimate, SE, recursion value) for the same order parameters;
    the recursion runs on the default quadrature engine."""
    x = UnitPartition.from_interior(spec.weights)
    est, se = cascade_representation(spec, chain, tc, replicas=replicas, seed=seed)
    rec = recursion_value(x, chain, tc).value
    return est, se, rec
