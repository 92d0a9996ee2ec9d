import numpy as np
import pytest

from parisi_lab.measures import AprioriMeasure
from parisi_lab.sk import (
    BudgetError,
    Disorder,
    OverlapConstraint,
    SpinSpace,
    _all_configs,
    _energies_fresh,
    concentration_experiment,
    disorder_average,
    exact_local_free_energy,
    hamiltonian,
    overlap,
    superadditivity_experiment,
)

ISING = SpinSpace.ising()


def test_hamiltonian_examples():
    d = Disorder.sample(1, 0)
    assert hamiltonian(np.array([[1.0]]), d) == pytest.approx(d.matrix[0, 0])
    assert hamiltonian(np.array([[-1.0]]), d) == pytest.approx(d.matrix[0, 0])
    d2 = Disorder.sample(3, 1)
    assert hamiltonian(np.zeros((3, 1)), d2) == 0.0


def test_variance_identity():
    # Var[X(s)] over disorder equals the squared Frobenius norm of the
    # self-overlap matrix.
    rng = np.random.default_rng(0)
    s = rng.choice([-1.0, 1.0], size=(6, 2))
    r = overlap(s, s)
    target = float(np.sum(r * r))
    vals = np.array([hamiltonian(s, Disorder.sample(6, 50_000 + k)) for k in range(10000)])
    se = vals.std(ddof=1) ** 2 * np.sqrt(2.0 / (vals.size - 1))  # SE of a variance
    assert abs(vals.var(ddof=1) - target) <= 4 * se


def test_overlap_examples():
    s1 = np.array([[1.0], [1.0]])
    s2 = np.array([[1.0], [-1.0]])
    assert overlap(s1, s2)[0, 0] == 0.0
    rng = np.random.default_rng(1)
    for _ in range(1000):
        s = rng.choice([-1.0, 1.0], size=(5, 2))
        r = overlap(s, s)
        assert np.all(np.linalg.eigvalsh(r) >= -1e-12)


def test_mutual_overlap_norm_inequality():
    # equal self-overlaps dominate the mutual overlap in Frobenius norm
    rng = np.random.default_rng(2)
    for _ in range(200):
        s1 = rng.choice([-1.0, 1.0], size=(8, 1))
        s2 = rng.choice([-1.0, 1.0], size=(8, 1))
        u = overlap(s1, s1)
        assert np.linalg.norm(overlap(s1, s2)) <= np.linalg.norm(u) + 1e-12


def test_paired_overlap_block_psd():
    rng = np.random.default_rng(3)
    for _ in range(200):
        s1 = rng.choice([-1.0, 1.0], size=(6, 2))
        s2 = rng.choice([-1.0, 1.0], size=(6, 2))
        block = np.block(
            [[overlap(s1, s1), overlap(s1, s2)], [overlap(s1, s2).T, overlap(s2, s2)]]
        )
        assert np.all(np.linalg.eigvalsh(block) >= -1e-10)


def test_energies_fresh_match_hamiltonian():
    # N = 4 and 8 are powers of two, so N * X(s) is exact on both sides.
    hypercube = SpinSpace.from_measure(AprioriMeasure.hypercube(2))
    for space, n in ((ISING, 4), (ISING, 8), (hypercube, 4)):
        dis = Disorder.sample(n, 42 + n)
        digits = _all_configs(space, n)
        direct = [n * hamiltonian(space.points[row], dis) for row in digits]
        assert np.array_equal(_energies_fresh(digits, space, dis), direct)


def _weighted_square():
    square = SpinSpace.from_measure(AprioriMeasure.hypercube(2))
    return SpinSpace(square.points, np.array([0.1, 0.2, 0.3, 0.4]))


@pytest.mark.parametrize(
    "space, constraint, n",
    [
        (ISING, OverlapConstraint.everything(), 8),
        (_weighted_square(), OverlapConstraint.everything(), 4),
        (_weighted_square(), OverlapConstraint.ball(np.eye(2), 0.8), 4),
    ],
    ids=["ising", "weighted-square", "overlap-ball"],
)
def test_beta_vector_equals_scalar_calls(space, constraint, n):
    betas = np.array([0.0, 0.3, 0.9, 1.7])
    dis = Disorder.sample(n, 5)
    vec = exact_local_free_energy(dis, betas, constraint, space)
    scalars = [exact_local_free_energy(dis, float(b), constraint, space) for b in betas]
    assert all(type(v) is float for v in scalars)
    assert vec.shape == betas.shape and np.array_equal(vec, scalars)
    mean, se, vals = disorder_average(n, betas, constraint, space, 6, 3)
    assert vals.shape == (betas.size, 6)
    for k, b in enumerate(betas):
        m, s, v = disorder_average(n, float(b), constraint, space, 6, 3)
        assert type(m) is float and type(s) is float
        assert mean[k] == m and se[k] == s and np.array_equal(vals[k], v)


def test_beta_zero_probability_measure():
    space = SpinSpace(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
    dis = Disorder.sample(6, 7)
    assert exact_local_free_energy(dis, 0.0, OverlapConstraint.everything(), space) == pytest.approx(0.0)


def test_ising_local_equals_global():
    # self-overlap is identically one, so any ball around it changes nothing
    dis = Disorder.sample(6, 8)
    p_all = exact_local_free_energy(dis, 0.8, OverlapConstraint.everything(), ISING)
    p_ball = exact_local_free_energy(dis, 0.8, OverlapConstraint.ball([[1.0]], 0.05), ISING)
    assert p_all == p_ball


def test_empty_constraint_raises():
    dis = Disorder.sample(4, 9)
    with pytest.raises(ValueError):
        exact_local_free_energy(dis, 0.5, OverlapConstraint.ball([[5.0]], 0.01), ISING)


def test_budget_guard():
    with pytest.raises(BudgetError):
        _all_configs(ISING, 30)


def test_annealed_bound():
    mean, se, _ = disorder_average(8, 1.0, OverlapConstraint.everything(), ISING, 200, 7)
    annealed = np.log(2) + 0.5
    assert mean <= annealed + 3 * se


def test_relabeling_and_flip_invariance():
    dis = Disorder.sample(5, 11)
    p = exact_local_free_energy(dis, 0.7, OverlapConstraint.everything(), ISING)
    # site relabeling permutes the interaction matrix consistently
    perm = np.random.default_rng(0).permutation(5)
    dis_p = Disorder(5, dis.matrix[np.ix_(perm, perm)], dis.seed)
    assert exact_local_free_energy(dis_p, 0.7, OverlapConstraint.everything(), ISING) == pytest.approx(p, abs=1e-12)
    # global spin flip is a symmetry of the +-1 configuration space
    space_flipped = SpinSpace(np.array([[1.0], [-1.0]]), np.ones(2))
    assert exact_local_free_energy(dis, 0.7, OverlapConstraint.everything(), space_flipped) == pytest.approx(p, abs=1e-12)


def test_concentration_beta_zero_and_table():
    table0 = concentration_experiment(6, 0.0, 50, 1)
    assert np.all(table0.empirical == 0.0)
    table = concentration_experiment(8, 1.0, 400, 2)
    assert np.all(np.diff(table.bound) < 0)  # bound decreasing in t
    assert table.all_below_bound()


def test_tail_table_csv_holds_plain_numbers():
    table = concentration_experiment(8, 1.0, 50, 3)
    header, *rows = table.to_csv().splitlines()
    assert header == "t,empirical,upper95,bound"
    parsed = np.array([[float(v) for v in row.split(",")] for row in rows])
    source = np.column_stack([table.thresholds, table.empirical, table.upper_conf, table.bound])
    assert np.array_equal(parsed, source)


def test_superadditivity_beta_zero_and_margin():
    margin0, se0 = superadditivity_experiment(3, 3, 0.0, 10, 4)
    assert margin0 == pytest.approx(0.0, abs=1e-12) and se0 == pytest.approx(0.0, abs=1e-12)
    margin, se = superadditivity_experiment(4, 4, 0.7, 200, 5)
    assert margin >= -3 * se


def test_superadditivity_constrained_d2_eps_grid():
    space = SpinSpace.from_measure(AprioriMeasure.hypercube(2))
    center = np.eye(2)
    margins = []
    for eps in (0.6, 0.8, 1.0):
        m, se = superadditivity_experiment(
            3, 3, 0.5, 60, 6, space=space, constraint=OverlapConstraint.ball(center, eps)
        )
        margins.append((m, se))
    for (m1, s1), (m2, s2) in zip(margins[:-1], margins[1:]):
        assert abs(m1 - m2) <= 0.5 + 3 * np.hypot(s1, s2)


