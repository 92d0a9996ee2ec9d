import numpy as np
import pytest
from scipy.stats import kstest

from parisi_lab.cascades import (
    LEAF_BUDGET,
    _same_prefix,
    CascadeSpec,
    build_cascade,
    cascade_representation,
    overlap_distribution_check,
    pair_sum_check,
    representation_vs_recursion,
    sample_leaf_fields,
    top_poisson_atoms,
)
from parisi_lab.measures import AprioriMeasure, TerminalCondition
from parisi_lab.paths import MonotoneChain
from parisi_lab.sk import BudgetError

RADEMACHER = AprioriMeasure.rademacher()


def test_atoms_decreasing_positive():
    rng = np.random.default_rng(0)
    atoms = top_poisson_atoms(0.3, 100, rng)
    assert np.all(atoms > 0)
    assert np.all(np.diff(atoms) < 0)


def test_atom_ratios_are_powers_of_uniforms():
    # Gamma_i / Gamma_{i+1} ~ Beta(i, 1), so (a_{i+1}/a_i)^{x i} is Uniform(0,1).
    rng = np.random.default_rng(1)
    x_k = 0.45
    us = []
    for _ in range(400):
        a = top_poisson_atoms(x_k, 21, rng)
        ratios = (a[1:] / a[:-1]) ** x_k
        us.extend(ratios ** np.arange(1, 21))
    assert kstest(np.asarray(us), "uniform").pvalue > 0.01


def test_concentration_increases_for_small_exponent():
    rng = np.random.default_rng(2)
    shares = {}
    for x_k in (0.2, 0.8):
        tops = [top_poisson_atoms(x_k, 64, rng) for _ in range(200)]
        shares[x_k] = np.mean([t[0] / t.sum() for t in tops])
    assert shares[0.2] > shares[0.8]


def test_build_cascade_shapes():
    spec = CascadeSpec([0.3, 0.6], branching=8)
    tree = build_cascade(spec, 3)
    assert tree.leaf_weights.shape == (64,)
    assert tree.normalized.sum() == pytest.approx(1.0)
    assert np.all(tree.normalized > 0)


def test_build_cascade_refuses_leaves_over_budget_before_drawing():
    # 4097**2 leaves is just above 2**24 = 4096**2.
    spec = CascadeSpec([0.2, 0.5], branching=4097)
    assert spec.leaves > LEAF_BUDGET == 2**24
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(BudgetError, match="16785409 cascade leaves exceed the budget of 16777216"):
        build_cascade(spec, rng)
    assert rng.bit_generator.state == state


def test_build_cascade_draws_atoms_level_by_level():
    # Each level's (nodes, M) block is Gamma^{-1/x_k} of row-wise cumulative
    # exponentials, drawn in row-major order from the cascade's generator;
    # a leaf weight is the product of the atoms along its branch.
    spec = CascadeSpec([0.3, 0.6], branching=8)
    tree = build_cascade(spec, 3)
    rng = np.random.default_rng(3)
    leaf = np.ones(1)
    for k, x_k in enumerate(spec.weights):
        gamma = np.cumsum(rng.exponential(size=(8**k, 8)), axis=1)
        leaf = (leaf[:, None] * gamma ** (-1.0 / x_k)).reshape(-1)
    assert np.array_equal(tree.leaf_weights, leaf)
    assert np.array_equal(tree.normalized, leaf / leaf.sum())


def _reference_cascade(spec, seed):
    """Leaf weights and same-prefix measures by the formulas the in-place
    code replaced: ``rng.exponential`` draws, a new product array per level
    and a reshape-sum at every depth, leaves included."""
    rng = np.random.default_rng(seed)
    m = spec.branching
    leaf = np.ones(1)
    for k, x_k in enumerate(spec.weights):
        gamma = np.cumsum(rng.exponential(size=(m**k, m)), axis=-1)
        leaf = (leaf[:, None] * gamma ** (-1.0 / x_k)).reshape(-1)
    w = leaf / leaf.sum()
    masses = (w.reshape(m**k, -1).sum(axis=1) for k in range(1, spec.levels + 1))
    return leaf, np.array([1.0] + [float(np.sum(mm**2)) for mm in masses])


@pytest.mark.parametrize("seed", [0, 5, 91])
@pytest.mark.parametrize("weights", [[0.4], [0.3, 0.6], [0.2, 0.5, 0.8]], ids=["1-level", "2-level", "3-level"])
def test_cascade_and_same_prefix_equal_the_reference_formulas(weights, seed):
    spec = CascadeSpec(weights, branching=8)
    tree = build_cascade(spec, seed)
    leaf, same = _reference_cascade(spec, seed)
    assert np.array_equal(tree.leaf_weights, leaf)
    assert np.array_equal(tree.normalized, leaf / leaf.sum())
    assert np.array_equal(_same_prefix(tree), same)


def test_normalization_scale_invariant():
    spec = CascadeSpec([0.4], branching=16)
    tree = build_cascade(spec, 5)
    scaled = tree.leaf_weights * 17.3
    assert np.allclose(scaled / scaled.sum(), tree.normalized, atol=1e-15)


def test_sibling_permutation_invariance():
    spec = CascadeSpec([0.3, 0.6], branching=8)
    tree = build_cascade(spec, 7)
    w = tree.normalized.reshape(8, 8)
    perm = np.random.default_rng(0).permutation(8)
    permuted = w[perm]
    # subtree masses (and hence all overlap statistics) are permutation-invariant
    assert np.allclose(np.sort(permuted.sum(axis=1)), np.sort(w.sum(axis=1)))
    assert np.sum(permuted**2) == pytest.approx(np.sum(w**2))


def test_overlap_distribution_identities():
    chk = overlap_distribution_check(CascadeSpec([0.3], branching=256), replicas=256, seed=11)
    assert chk.estimates[-1] == 1.0
    assert chk.within(3.0)
    chk2 = overlap_distribution_check(CascadeSpec([0.25, 0.6], branching=64), replicas=256, seed=12)
    assert chk2.within(3.0)


def test_pair_sums():
    chk = pair_sum_check(CascadeSpec([0.3], branching=256), replicas=256, seed=14)
    assert chk.within(3.0)
    assert chk.targets[-1] == pytest.approx(0.7)
    chk2 = pair_sum_check(CascadeSpec([0.25, 0.6], branching=64), replicas=256, seed=15)
    assert chk2.within(3.0)
    # slabs plus diagonal add to one exactly per replica, hence in the mean
    assert chk2.estimates.sum() == pytest.approx(1.0, abs=1e-12)


def test_leaf_field_covariance():
    spec = CascadeSpec([0.25, 0.6], branching=4)
    chain = MonotoneChain([[[0.0]], [[0.3]], [[0.7]], [[1.0]]])
    tree = build_cascade(spec, 1)
    rng = np.random.default_rng(2)
    reps = 100000 // 16
    prods = {"same": [], "prefix1": [], "prefix0": []}
    for _ in range(reps):
        f = sample_leaf_fields(tree, chain, rng)
        prods["same"].append(f[0, 0] * f[0, 0])
        prods["prefix1"].append(f[0, 0] * f[1, 0])
        prods["prefix0"].append(f[0, 0] * f[4, 0])
    for key, target in [("same", 1.0), ("prefix1", 0.7), ("prefix0", 0.3)]:
        arr = np.asarray(prods[key])
        se = arr.std(ddof=1) / np.sqrt(arr.size)
        assert abs(arr.mean() - target) <= 4 * se


def test_representation_constant_terminal():
    class Const:
        dim = 1

        def __call__(self, pts):
            return np.full(np.asarray(pts).shape[0], 2.5)

    spec = CascadeSpec([0.4], branching=64)
    chain = MonotoneChain([[[0.0]], [[0.5]], [[1.0]]])
    est, se = cascade_representation(spec, chain, Const(), replicas=8, seed=3)
    assert est == pytest.approx(2.5, abs=1e-12)


def test_representation_linear_probe():
    class Linear:
        dim = 1

        def __call__(self, pts):
            return 0.9 * np.asarray(pts)[:, 0]

    spec = CascadeSpec([0.4], branching=256)
    chain = MonotoneChain([[[0.0]], [[0.5]], [[1.0]]])
    est, se = cascade_representation(spec, chain, Linear(), replicas=256, seed=4)
    expected = 0.4 * 0.81 * 0.5 / 2
    assert abs(est - expected) <= 3 * se


def test_representation_vs_recursion_sk():
    spec = CascadeSpec([0.25, 0.6], branching=128)
    chain = MonotoneChain([[[0.0]], [[0.3]], [[0.7]], [[1.0]]])
    tc = TerminalCondition(0.5, np.zeros((1, 1)), RADEMACHER)
    est, se, rec = representation_vs_recursion(spec, chain, tc, replicas=256, seed=5)
    assert abs(est - rec) <= 3 * se


def test_identity_check_csv_holds_plain_numbers():
    chk = pair_sum_check(CascadeSpec([0.25, 0.6], branching=16), replicas=16, seed=3)
    header, *rows = chk.to_csv().splitlines()
    assert header == "k,estimate,se,target"
    assert [row.split(",")[0] for row in rows] == [str(lab) for lab in chk.labels]
    parsed = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])
    assert np.array_equal(parsed, np.column_stack([chk.estimates, chk.std_errors, chk.targets]))
