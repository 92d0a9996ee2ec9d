"""Truncated Ruelle probability cascades and their overlap identities.

A cascade with interior weights 0 < x_1 < ... < x_n < 1 is a depth-n tree in
which every node carries the top M atoms of a Poisson process with intensity
x_k t^{-x_k - 1} dt on (0, inf); leaf weights are products along the branch.
The atoms are generated in decreasing order as Gamma_i^{-1/x_k} with Gamma_i
the cumulative sums of standard exponentials, which enumerates the whole
point process from the largest atom down, so truncation keeps exactly the
top M.

All identity checks average over independent disorder replicas (the
identities hold in expectation over the cascade, not per realization) and
report mean, standard error, and target side by side.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from parisi_lab.matrices import sqrt_factor
from parisi_lab.measures import TerminalCondition
from parisi_lab.paths import MonotoneChain, UnitPartition
from parisi_lab.recursion import recursion_value
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
    axis is an independent process."""
    if not 0.0 < x_k < 1.0:
        raise ValueError("the cascade exponent must lie in (0, 1)")
    gamma = np.cumsum(rng.exponential(size=shape), axis=-1)
    return gamma ** (-1.0 / x_k)


@dataclass(frozen=True)
class CascadeTree:
    """One sampled cascade: per-level raw atoms and normalized leaf weights.

    ``level_atoms[k]`` has shape (M**k, M): the atoms of every level-(k+1)
    node, nodes in lexicographic order.  ``leaf_weights`` are the products
    along branches, flattened lexicographically; ``normalized`` sums to one.
    """

    spec: CascadeSpec
    level_atoms: tuple
    leaf_weights: np.ndarray
    normalized: np.ndarray
    truncation_share: float


def build_cascade(spec: CascadeSpec, seed) -> CascadeTree:
    """Draw one cascade level by level.  Raises BudgetError, before any
    draw, when its branching**levels leaves exceed LEAF_BUDGET."""
    if spec.leaves > LEAF_BUDGET:
        raise BudgetError(f"{spec.leaves} cascade leaves exceed the budget of {LEAF_BUDGET}")
    rng = np.random.default_rng(seed)
    m = spec.branching
    atoms = []
    leaf = np.ones(1)
    share = 0.0
    for k, xk in enumerate(spec.weights):
        a = top_poisson_atoms(xk, (m**k, m), rng)
        atoms.append(a)
        share = max(share, float(np.max(a[:, -1] / a.sum(axis=1))))
        leaf = (leaf[:, None] * a).reshape(-1)
    total = leaf.sum()
    return CascadeTree(spec, tuple(atoms), leaf, leaf / total, share)


def _prefix_masses(tree: CascadeTree) -> list[np.ndarray]:
    """Normalized subtree masses per level: entry k sums leaves below each
    depth-k node (k = 0 is the root, mass 1)."""
    m = tree.spec.branching
    n = tree.spec.levels
    masses = [np.array([1.0])]
    w = tree.normalized
    for k in range(1, n + 1):
        masses.append(w.reshape(m**k, -1).sum(axis=1))
    return masses


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


def _pair_mass_below(tree: CascadeTree) -> np.ndarray:
    """Per-replica values of the pair measure of {overlap <= k}, k = 1..n:
    exact weighted double sums, grouping pairs by common ancestor depth, in
    O(leaves) from the prefix masses."""
    same_prefix = np.array([float(np.sum(mm**2)) for mm in _prefix_masses(tree)])  # P(overlap >= k+1)
    return 1.0 - same_prefix[1:]  # k = 1..n; P(<= n+1) appended by caller


def overlap_distribution_check(
    spec: CascadeSpec,
    replicas: int = 256,
    seed: int = 0,
) -> IdentityCheck:
    """E[ pair measure {overlap <= k} ] = x_k for k = 1..n (and 1 at n+1)."""
    n = spec.levels
    seeds = np.random.SeedSequence(seed).spawn(replicas)
    rows = np.asarray([_pair_mass_below(build_cascade(spec, np.random.default_rng(s))) for s in seeds])
    est = np.concatenate((rows.mean(axis=0), [1.0]))
    se = np.concatenate((rows.std(axis=0, ddof=1) / np.sqrt(replicas), [1e-300]))
    targets = np.concatenate((spec.weights, [1.0]))
    return IdentityCheck(tuple(range(1, n + 2)), est, se, targets)


def pair_sum_check(spec: CascadeSpec, replicas: int = 256, seed: int = 0) -> IdentityCheck:
    """Pair-mass slabs by common ancestor depth:

        E[ sum over pairs with overlap exactly k+1 ] = x_{k+1} - x_k,  k < n,
        E[ sum of squared normalized weights ]       = 1 - x_n,

    the slabs and the diagonal add to one exactly in every replica.
    """
    n = spec.levels
    seeds = np.random.SeedSequence(seed).spawn(replicas)
    rows = []
    for s in seeds:
        rng = np.random.default_rng(s)
        tree = build_cascade(spec, rng)
        masses = _prefix_masses(tree)
        same = np.array([float(np.sum(mm**2)) for mm in masses])
        slabs = same[:-1] - same[1:]          # overlap exactly k+1, k = 0..n-1
        rows.append(np.concatenate((slabs, [same[-1]])))
    rows = np.asarray(rows)
    est = rows.mean(axis=0)
    se = rows.std(axis=0, ddof=1) / np.sqrt(replicas)
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
        nodes = m**k
        if fac.shape[1]:
            draw = rng.standard_normal((nodes, fac.shape[1])) @ fac.T
        else:
            draw = np.zeros((nodes, d))
        total += np.repeat(draw, m ** (n - k), axis=0)
    return total


def cascade_representation(
    spec: CascadeSpec,
    x: UnitPartition,
    chain: MonotoneChain,
    tc: TerminalCondition,
    replicas: int = 256,
    seed: int = 0,
):
    """Cascade representation of the recursion:

        E[ log sum_a xi(a) exp(g(Y(a))) ] - E[ log sum_a xi(a) ]

    over independent (tree, field) replicas; the subtracted log-mass term
    normalizes the truncated cascade.  Returns (estimate, std_error).
    """
    if not np.allclose(spec.weights, x.interior):
        raise ValueError("cascade weights must match the partition interior")
    if x.levels != chain.levels:
        raise ValueError("partition and chain level counts differ")
    seeds = np.random.SeedSequence(seed).spawn(replicas)
    vals = np.empty(replicas)
    for i, s in enumerate(seeds):
        rng = np.random.default_rng(s)
        tree = build_cascade(spec, rng)
        fields = sample_leaf_fields(tree, chain, rng)
        g = np.asarray(tc(fields))
        logw = np.log(tree.leaf_weights)
        top = (logw + g).max()
        lhs = top + np.log(np.sum(np.exp(logw + g - top)))
        top0 = logw.max()
        rhs = top0 + np.log(np.sum(np.exp(logw - top0)))
        vals[i] = lhs - rhs
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(replicas))


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
    est, se = cascade_representation(spec, x, chain, tc, replicas=replicas, seed=seed)
    rec = recursion_value(x, chain, tc).value
    return est, se, rec
