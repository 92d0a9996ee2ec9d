import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parisi_lab.measures import AprioriMeasure, MeasureError
from parisi_lab.sk import (
    BudgetError,
    Disorder,
    OverlapConstraint,
    ENUMERATION_BUDGET,
    _check_budget,
    _split_sum,
    concentration_experiment,
    disorder_average,
    exact_local_free_energy,
    hamiltonian,
    overlap,
    superadditivity_experiment,
)

ISING = AprioriMeasure.rademacher()


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


def _lexicographic(mu, n):
    """Every configuration of n sites as an (n, d) array, site 0 slowest."""
    return [mu.points[list(row)] for row in itertools.product(range(mu.size), repeat=n)]


def test_energies_fresh_match_hamiltonian():
    # N = 4 and 8 are powers of two, so N * X(s) is exact on both sides.
    for mu, n in ((ISING, 4), (ISING, 8), (AprioriMeasure.hypercube(2), 4)):
        dis = Disorder.sample(n, 42 + n)
        nx, _ = _split_sum(dis, mu, OverlapConstraint())
        direct = [n * hamiltonian(s, dis) for s in _lexicographic(mu, n)]
        assert np.array_equal(nx, direct)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(
    st.one_of(
        st.tuples(st.sampled_from(["ising", "flipped"]), st.integers(1, 8)),
        # 4^6 configurations keep the per-configuration reference fast.
        st.tuples(st.just("square"), st.integers(1, 6)),
    ),
    st.integers(0, 2**16),
    st.floats(0.0, 1.5),
)
def test_split_sum_matches_per_configuration(case, seed, radius):
    # The energies of a +-1 support are exact multiples of 2^-26, so they
    # equal the per-configuration sum exactly whatever the split.  The ball
    # keeps exactly the configurations whose overlap(s, s) it admits, and it
    # rounds as a sum over the (S^N, d, d) table of those overlaps would.
    support, n = case
    mu = {
        "ising": ISING,
        "flipped": AprioriMeasure.discrete([[1.0], [-1.0]]),
        "square": AprioriMeasure.hypercube(2),
    }[support]
    dis = Disorder.sample(n, seed)
    centre = 0.8 * np.eye(mu.dim) + 0.3 * (1.0 - np.eye(mu.dim))
    ball = OverlapConstraint.ball(centre, radius)
    configs = list(_lexicographic(mu, n))
    table = np.array([overlap(s, s) for s in configs])
    mask = ball.admits(lambda i, j: table[:, i, j])
    assert np.array_equal(mask, np.sqrt(((table - centre) ** 2).sum(axis=(-2, -1))) <= radius)
    admitted = [s for s, keep in zip(configs, mask) if keep]
    if not admitted:
        with pytest.raises(ValueError, match="empty constraint set"):
            _split_sum(dis, mu, ball)
        return
    nx, logw = _split_sum(dis, mu, ball)
    assert np.array_equal(nx, _split_sum(dis, mu, OverlapConstraint())[0][mask])
    assert np.array_equal(nx, [np.sum(dis.matrix * (s @ s.T)) for s in admitted])
    assert np.array_equal(logw, np.zeros(len(admitted)))


def _weighted_square():
    return AprioriMeasure.discrete(AprioriMeasure.hypercube(2).points, [0.1, 0.2, 0.3, 0.4])


@pytest.mark.parametrize(
    "mu, constraint, n",
    [
        (ISING, OverlapConstraint(), 8),
        (_weighted_square(), OverlapConstraint(), 4),
        (_weighted_square(), OverlapConstraint.ball(np.eye(2), 0.8), 4),
    ],
    ids=["ising", "weighted-square", "overlap-ball"],
)
def test_beta_vector_equals_scalar_calls(mu, constraint, n):
    betas = np.array([0.0, 0.3, 0.9, 1.7])
    dis = Disorder.sample(n, 5)
    vec = exact_local_free_energy(dis, betas, constraint, mu)
    scalars = [exact_local_free_energy(dis, float(b), constraint, mu) for b in betas]
    assert all(type(v) is float for v in scalars)
    assert vec.shape == betas.shape and np.array_equal(vec, scalars)
    mean, se, vals = disorder_average(n, betas, constraint, mu, 6, 3)
    assert vals.shape == (betas.size, 6)
    for k, b in enumerate(betas):
        m, s, v = disorder_average(n, float(b), constraint, mu, 6, 3)
        assert type(m) is float and type(s) is float
        assert mean[k] == m and se[k] == s and np.array_equal(vals[k], v)


@pytest.mark.parametrize(
    "mu, constraint, n",
    [
        (ISING, OverlapConstraint(), 9),
        (_weighted_square(), OverlapConstraint(), 5),
        (_weighted_square(), OverlapConstraint.ball(np.eye(2), 0.8), 5),
    ],
    ids=["ising", "weighted-square", "overlap-ball"],
)
def test_free_energy_is_the_plain_log_sum_exp(mu, constraint, n):
    # The reused exponent buffer changes no operation and no order.
    dis = Disorder.sample(n, 13)
    nx, logw = _split_sum(dis, mu, constraint)
    betas = np.array([0.0, 0.4, 1.3, 2.2])
    plain = []
    for b in betas:
        expo = b * nx / np.sqrt(n) + logw
        top = expo.max()
        plain.append((top + np.log(np.sum(np.exp(expo - top)))) / n)
    assert np.array_equal(exact_local_free_energy(dis, betas, constraint, mu), plain)
    assert exact_local_free_energy(dis, float(betas[2]), constraint, mu) == plain[2]


def test_beta_zero_probability_measure():
    mu = AprioriMeasure.discrete([[-1.0], [1.0]], [0.5, 0.5])
    dis = Disorder.sample(6, 7)
    assert exact_local_free_energy(dis, 0.0, OverlapConstraint(), mu) == pytest.approx(0.0)


def test_ising_local_equals_global():
    # self-overlap is identically one, so any ball around it changes nothing
    dis = Disorder.sample(6, 8)
    p_all = exact_local_free_energy(dis, 0.8, OverlapConstraint(), ISING)
    p_ball = exact_local_free_energy(dis, 0.8, OverlapConstraint.ball([[1.0]], 0.05), ISING)
    assert p_all == p_ball


def test_empty_constraint_raises():
    dis = Disorder.sample(4, 9)
    with pytest.raises(ValueError):
        exact_local_free_energy(dis, 0.5, OverlapConstraint.ball([[5.0]], 0.01), ISING)


def test_budget_guard():
    with pytest.raises(BudgetError, match="2\\^30 states exceed the enumeration budget"):
        exact_local_free_energy(Disorder.sample(30, 0), 1.0, OverlapConstraint(), ISING)
    gaussian = AprioriMeasure.gaussian([[1.0]])
    with pytest.raises(MeasureError, match="discrete"):
        exact_local_free_energy(Disorder.sample(2, 0), 1.0, OverlapConstraint(), gaussian)


def test_budget_check_never_forms_the_power():
    # S^N is not formed, so an absurd site count is refused at once.
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=r"2\^1000000000000000000 states exceed"):
        _check_budget(ISING, 10**18)
    assert time.perf_counter() - start < 1.0
    # The cut is exact: the largest N within the budget passes, N + 1 does not.
    for mu in (ISING, AprioriMeasure.discrete([[0.0], [1.0], [2.0]]), AprioriMeasure.hypercube(2)):
        n = int(np.log(ENUMERATION_BUDGET) / np.log(mu.size) + 1e-9)
        assert mu.size**n <= ENUMERATION_BUDGET < mu.size ** (n + 1)
        _check_budget(mu, n)
        with pytest.raises(BudgetError):
            _check_budget(mu, n + 1)


def test_budget_checked_before_any_draw(monkeypatch):
    def fail(*args):
        raise AssertionError("disorder drawn before the budget check")

    monkeypatch.setattr(Disorder, "sample", fail)
    with pytest.raises(BudgetError):
        disorder_average(3000, 1.0, OverlapConstraint(), ISING, 2, 0)
    with pytest.raises(BudgetError):
        concentration_experiment(3000, 1.0, 2, 0)
    with pytest.raises(BudgetError):
        superadditivity_experiment(2, 2998, 1.0, 2, 0)


def test_annealed_bound():
    mean, se, _ = disorder_average(8, 1.0, OverlapConstraint(), ISING, 200, 7)
    annealed = np.log(2) + 0.5
    assert mean <= annealed + 3 * se


def test_relabeling_and_flip_invariance():
    dis = Disorder.sample(5, 11)
    p = exact_local_free_energy(dis, 0.7, OverlapConstraint(), ISING)
    # site relabeling permutes the interaction matrix consistently
    perm = np.random.default_rng(0).permutation(5)
    dis_p = Disorder(dis.matrix[np.ix_(perm, perm)])
    assert dis_p.n_sites == 5
    assert exact_local_free_energy(dis_p, 0.7, OverlapConstraint(), ISING) == pytest.approx(p, abs=1e-12)
    # global spin flip is a symmetry of the +-1 configuration space
    flipped = AprioriMeasure.discrete([[1.0], [-1.0]])
    assert exact_local_free_energy(dis, 0.7, OverlapConstraint(), flipped) == pytest.approx(p, abs=1e-12)


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
    square = AprioriMeasure.hypercube(2)
    center = np.eye(2)
    margins = []
    for eps in (0.6, 0.8, 1.0):
        m, se = superadditivity_experiment(
            3, 3, 0.5, 60, 6, mu=square, constraint=OverlapConstraint.ball(center, eps)
        )
        margins.append((m, se))
    for (m1, s1), (m2, s2) in zip(margins[:-1], margins[1:]):
        assert abs(m1 - m2) <= 0.5 + 3 * np.hypot(s1, s2)


