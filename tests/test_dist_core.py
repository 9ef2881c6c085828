"""Distribution core: distances, conditional structure, CMI, sampling, file I/O."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats as scistats

from cit import dist_core
from cit.dist_core import (
    DistributionError,
    JointDistribution,
    NotNormalizedError,
    ShapeMismatchError,
    ci_distance_proxy,
    conditional_cell_counts,
    conditional_mutual_information,
    mixture_q,
    poissonized_count_tensor,
    product_table,
    read_distribution_file,
    read_sample_file,
    sample_fixed,
    sample_poissonized,
    tv_distance,
    write_distribution_file,
    write_sample_file,
)
from cit.instances import gen_random_ci, gen_random_far, paninski_reduction
from cit.seeding import child_seed, generator

N1 = np.array([[6, 24], [24, 46]]) / 100
N2 = np.array([[46, 24], [24, 6]]) / 100
N3 = np.array([[26, 24], [24, 26]]) / 100
Y1 = np.array([[16, 24], [24, 36]]) / 100
UNIFORM = np.full((2, 2), 0.25)
#: each example rewrites one file in the test's tmp_path
FILE_PROPERTY = settings(
    max_examples=60, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def random_joint(rng, l1=2, l2=2, n=5):
    mass = rng.dirichlet(np.ones(l1 * l2 * n)).reshape(l1, l2, n)
    return JointDistribution(mass / mass.sum())


class TestTVDistance:
    def test_identity(self):
        assert tv_distance(N1, N1) == 0.0

    def test_dependent_table_vs_product(self):
        # entrywise l1 gap of 12/100 -> TV 0.06
        assert tv_distance(N1, product_table(N1)) == pytest.approx(0.06, abs=1e-12)

    def test_uniform_vs_point_mass(self):
        assert tv_distance([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            tv_distance(np.ones(3) / 3, np.ones(4) / 4)


class TestConditionalStructure:
    def test_product_of_uniform_is_uniform(self):
        np.testing.assert_allclose(product_table(UNIFORM), UNIFORM, atol=1e-15)

    def test_independent_table_is_fixed_point(self):
        np.testing.assert_allclose(product_table(Y1), Y1, atol=1e-15)
        # the bin weight is untouched when the slice is replaced by its product
        q = mixture_q(JointDistribution.from_slices([0.5, 0.5], [Y1, N1]))
        np.testing.assert_allclose(q.slice_table(0), Y1, atol=1e-15)
        assert q.z_marginal[0] == pytest.approx(0.5, abs=1e-15)

    def test_symmetric_dependent_table(self):
        np.testing.assert_allclose(product_table(N3), np.full((2, 2), 0.25), atol=1e-15)

    def test_mixture_fixed_point_when_already_independent(self):
        p = JointDistribution.from_slices([0.3, 0.7], [Y1, UNIFORM])
        q = mixture_q(p)
        np.testing.assert_allclose(q.mass, p.mass, atol=1e-14)

    def test_mixture_preserves_bin_marginal(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = random_joint(rng, 3, 4, 6)
            q = mixture_q(p)
            assert tv_distance(p.z_marginal, q.z_marginal) < 1e-14

    def test_mixture_slices(self):
        p = JointDistribution.from_slices([0.5, 0.5], [N1, UNIFORM])
        q = mixture_q(p)
        np.testing.assert_allclose(
            q.slice_table(0), np.outer([0.3, 0.7], [0.3, 0.7]), atol=1e-14
        )
        np.testing.assert_allclose(q.slice_table(1), UNIFORM, atol=1e-14)

    def test_slice_of_a_bin_with_no_mass_is_uniform(self):
        mass = np.zeros((2, 3, 2))
        mass[:, :, 0] = 1 / 6
        p = JointDistribution(mass)
        assert p.z_marginal[1] == 0.0
        np.testing.assert_array_equal(p.slice_table(1), np.full((2, 3), 1 / 6))

    def test_mixture_slices_are_rank_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            q = mixture_q(random_joint(rng, 3, 3, 4))
            for z in range(4):
                t = q.slice_table(z)
                np.testing.assert_allclose(t, product_table(t), atol=1e-12)


class TestCIDistanceProxy:
    def test_zero_for_independent_instance(self):
        p = JointDistribution.from_slices([0.25, 0.75], [Y1, UNIFORM])
        assert ci_distance_proxy(p) < 1e-14

    def test_single_dependent_bin(self):
        p = JointDistribution.from_slices([1.0], [N1])
        assert ci_distance_proxy(p) == pytest.approx(0.06, abs=1e-12)

    def test_two_dependent_bins(self):
        p = JointDistribution.from_slices([0.5, 0.5], [N1, N2])
        assert ci_distance_proxy(p) == pytest.approx(0.06, abs=1e-12)

    def test_zero_iff_rank_one_slices(self):
        rng = np.random.default_rng(2)
        p = random_joint(rng, 2, 3, 4)
        assert ci_distance_proxy(p) > 1e-4  # generic instance is dependent
        assert ci_distance_proxy(mixture_q(p)) < 1e-13


class TestBinaryCovarianceShortcut:
    """For 2x2 tables the TV and l2 distances to the product of the
    marginals both equal twice the absolute covariance 2 |p00 p11 - p01 p10|."""

    def test_values(self):
        assert tv_distance(Y1, product_table(Y1)) == pytest.approx(0.0, abs=1e-15)
        assert tv_distance(N1, product_table(N1)) == pytest.approx(0.06, abs=1e-15)
        assert tv_distance(UNIFORM, product_table(UNIFORM)) == 0.0

    def test_matches_tv_and_l2(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t = rng.dirichlet(np.ones(4)).reshape(2, 2)
            cov = 2.0 * abs(t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0])
            prod = product_table(t)
            assert cov == pytest.approx(tv_distance(t, prod), abs=1e-12)
            assert cov == pytest.approx(np.linalg.norm(t - prod), abs=1e-12)


class TestTVDecomposition:
    def test_inequality_and_equality_cases(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            p = random_joint(rng, 2, 3, 5)
            q = random_joint(rng, 2, 3, 5)
            bound = sum(
                p.z_marginal[z] * tv_distance(p.slice_table(z), q.slice_table(z))
                for z in range(5)
            ) + tv_distance(p.z_marginal, q.z_marginal)
            d = tv_distance(p, q)
            assert d <= bound + 1e-12
            assert d < bound - 1e-9  # differing bin marginals: strictly slack
            # equal bin marginals force equality
            q_matched = JointDistribution.from_slices(
                p.z_marginal, np.stack([q.slice_table(z) for z in range(5)])
            )
            lhs = tv_distance(p, q_matched)
            rhs = sum(
                p.z_marginal[z] * tv_distance(p.slice_table(z), q_matched.slice_table(z))
                for z in range(5)
            )
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestConditionalMutualInformation:
    def test_zero_for_ci(self):
        p = JointDistribution.from_slices([0.25, 0.75], [Y1, UNIFORM])
        assert conditional_mutual_information(p) <= 1e-12

    def test_perfectly_correlated_bit(self):
        mass = np.zeros((2, 2, 1))
        mass[0, 0, 0] = 0.5
        mass[1, 1, 0] = 0.5
        assert conditional_mutual_information(JointDistribution(mass)) == pytest.approx(1.0)

    def test_pinsker_direction(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            p = random_joint(rng, 2, 2, 4)
            cmi = conditional_mutual_information(p)
            eps_lower = ci_distance_proxy(p) / 4
            assert cmi >= 2 * eps_lower**2 - 1e-12

    def test_upper_bound_direction(self):
        # CMI <= C * proxy * log2(4 l1 l2 / proxy): large conditional mutual
        # information forces a proportionally large TV distance (up to the
        # log factor), which is what lets a TV tester decide CMI questions
        rng = np.random.default_rng(21)
        fitted = 0.0
        for _ in range(150):
            l1, l2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            n = int(rng.integers(1, 12))
            mass = rng.dirichlet(np.ones(l1 * l2 * n)).reshape(l1, l2, n)
            p = JointDistribution(mass / mass.sum())
            proxy = ci_distance_proxy(p)
            if proxy < 1e-6:
                continue
            cmi = conditional_mutual_information(p)
            fitted = max(fitted, cmi / (proxy * np.log2(4 * l1 * l2 / proxy)))
        print(f"CMI upper-bound fitted constant: {fitted:.3f}")
        assert fitted <= 1.0

    def test_zero_mass_bins_ignored(self):
        p = JointDistribution.from_slices([1.0, 0.0], [N1, UNIFORM])
        q = JointDistribution.from_slices([1.0], [N1])
        assert conditional_mutual_information(p) == pytest.approx(
            conditional_mutual_information(q), abs=1e-14
        )


class TestSampling:
    def test_zero_count(self):
        p = JointDistribution.uniform(2, 2, 3)
        assert sample_fixed(p, 0, 1).shape == (0, 3)

    def test_point_mass(self):
        mass = np.zeros((2, 3, 4))
        mass[1, 2, 3] = 1.0
        s = sample_fixed(JointDistribution(mass), 25, 7)
        assert (s == [1, 2, 3]).all()

    def test_determinism(self):
        p = JointDistribution.uniform(2, 2, 10)
        np.testing.assert_array_equal(sample_fixed(p, 100, 42), sample_fixed(p, 100, 42))
        # both samplers' rows are `choice` codes (x l2 + y) n + z unraveled
        p = JointDistribution(generator(3, "codes").dirichlet(np.ones(60)).reshape(3, 4, 5))
        refs = [np.random.default_rng(42) for _ in range(4)]
        sizes = [100] + [int(ref.poisson(m)) for ref, m in zip(refs[1:], (0, 1, 100))]
        drawn = [sample_fixed(p, 100, 42)] + [sample_poissonized(p, m, 42) for m in (0, 1, 100)]
        for ref, size, rows in zip(refs, sizes, drawn, strict=True):
            codes = ref.choice(60, size=size, p=p.mass.ravel())
            assert codes.dtype == rows.dtype == np.int64 and rows.shape == (codes.size, 3)
            np.testing.assert_array_equal(codes, (rows[:, 0] * 4 + rows[:, 1]) * 5 + rows[:, 2])

    def test_frequencies_within_5_sigma(self):
        p = JointDistribution.uniform(2, 2, 5)
        count = 40000
        s = sample_fixed(p, count, 11)
        counts = np.bincount(np.ravel_multi_index(s.T, p.dims), minlength=20)
        expect = count / 20
        sigma = np.sqrt(count * (1 / 20) * (19 / 20))
        assert np.all(np.abs(counts - expect) < 5 * sigma)

    def test_poissonized_mean(self):
        p = JointDistribution.uniform(2, 2, 4)
        sizes = [
            sample_poissonized(p, 30.0, child_seed(8, t)).shape[0] for t in range(800)
        ]
        assert np.mean(sizes) == pytest.approx(30.0, abs=5 * np.sqrt(30 / 800))

    def test_poissonized_truncated_moment_ratio(self):
        # empirical Var[s 1{s>=4}] <= 4.22 E[s 1{s>=4}] per bin
        p = JointDistribution.uniform(2, 2, 8)
        per_bin = []
        for t in range(3000):
            s = sample_poissonized(p, 40.0, child_seed(9, t))
            per_bin.append(np.bincount(s[:, 2], minlength=8))
        sig = np.array(per_bin, dtype=float)  # bin rate lambda = 5
        y = sig * (sig >= 4)
        assert np.all(y.var(axis=0) <= 4.22 * y.mean(axis=0))

    def test_poissonized_bin_independence(self):
        p = JointDistribution.uniform(2, 2, 2)
        counts = []
        for t in range(1500):
            s = sample_poissonized(p, 8.0, child_seed(10, t))
            counts.append(np.bincount(s[:, 2], minlength=2))
        counts = np.array(counts)
        buckets = np.clip(counts, 0, 7)
        table = np.zeros((8, 8))
        np.add.at(table, (buckets[:, 0], buckets[:, 1]), 1)
        keep_r = table.sum(1) > 0
        keep_c = table.sum(0) > 0
        _, pval, _, _ = scistats.chi2_contingency(table[np.ix_(keep_r, keep_c)])
        assert pval > 1e-3

    def test_poisson_requires_positive_rate(self):
        p = JointDistribution.uniform(2, 2, 2)
        with pytest.raises(ValueError):
            sample_poissonized(p, -1.0, 0)
        # Poisson(0) draws nothing
        empty = sample_poissonized(p, 0.0, 0)
        assert empty.shape == (0, 3) and empty.dtype == np.int64


#: draw sizes from none to past 3 * 2^16 samples
DRAW_SIZES = (0, 1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5)


@pytest.fixture(scope="module")
def draw_masses():
    dense = generator(3, "codes").dirichlet(np.ones(60)).reshape(3, 4, 5)
    sparse = dense.copy()
    sparse.flat[[0, 1, 17, 30, 31, 58, 59]] = 0.0  # zero cells at both ends too
    point = np.zeros((2, 3, 4))
    point[1, 2, 3] = 1.0
    return {
        "bin_major": gen_random_far(3, 4, 50, 0.3, 1)[0],
        "c_order": JointDistribution(dense),
        "zero_cells": JointDistribution.from_mass(sparse)[0],
        "point": JointDistribution(point),
    }


class TestCategoricalDraw:
    """Both samplers' rows are `Generator.choice` with p, sample for sample:
    an inverse-CDF search of one double a sample in the C-order cumulative
    mass divided by its last entry."""

    @pytest.mark.parametrize("size", DRAW_SIZES)
    @pytest.mark.parametrize("mass", ["bin_major", "c_order", "zero_cells", "point"])
    def test_draw_matches_generator_choice(self, draw_masses, mass, size):
        p = draw_masses[mass]
        flat = p.mass.ravel()

        def choice_rows(rng, count):
            codes = rng.choice(flat.size, size=count, p=flat)
            return np.column_stack(np.unravel_index(codes, p.dims))

        ours, ref = np.random.default_rng(size), np.random.default_rng(size)
        rows = dist_core._draw_rows(p, size, ours)
        expect = choice_rows(ref, size)
        assert rows.dtype == expect.dtype == np.int64 and rows.shape == (size, 3)
        np.testing.assert_array_equal(rows, expect)
        assert ours.random() == ref.random()  # the same doubles were used up
        cdf = flat.cumsum()
        search = (cdf / cdf[-1]).searchsorted(np.random.default_rng(size).random(size), "right")
        np.testing.assert_array_equal(np.ravel_multi_index(rows.T, p.dims), search)
        np.testing.assert_array_equal(
            sample_fixed(p, size, 5), choice_rows(np.random.default_rng(5), size)
        )
        ref = np.random.default_rng(9)
        np.testing.assert_array_equal(
            sample_poissonized(p, size, 9), choice_rows(ref, int(ref.poisson(size)))
        )


class TestPoissonizedCountTensor:
    """Per-cell counts N(x, y, z) ~ Poisson(m p(x, y, z)), independent."""

    @staticmethod
    def draws(p, m, reps, seed):
        rng = generator(seed, "count-tensor")
        totals, counts = zip(*(poissonized_count_tensor([p], m, rng) for _ in range(reps)))
        return np.array(totals), np.concatenate(counts)

    def test_cell_moments_and_total(self):
        p = random_joint(np.random.default_rng(21), 2, 3, 4)
        m, reps = 60.0, 4000
        totals, counts = self.draws(p, m, reps, 22)
        lam = m * p.mass
        mean, var = counts.mean(axis=0), counts.var(axis=0, ddof=1)
        # Var of a Poisson sample mean is lam/reps, of its sample variance
        # about (lam + 2 lam^2)/reps
        assert np.all(np.abs(mean - lam) <= 5 * np.sqrt(lam / reps))
        assert np.all(np.abs(var - lam) <= 5 * np.sqrt((lam + 2 * lam**2) / reps))
        np.testing.assert_array_equal(totals, counts.sum(axis=(1, 2, 3)))
        assert abs(totals.mean() - m) <= 5 * np.sqrt(m / reps)

    def test_bin_totals_independent(self):
        p = JointDistribution.uniform(2, 2, 2)
        _, counts = self.draws(p, 8.0, 1500, 23)
        buckets = np.clip(counts.sum(axis=(1, 2)), 0, 7)
        table = np.zeros((8, 8))
        np.add.at(table, (buckets[:, 0], buckets[:, 1]), 1)
        keep_r = table.sum(1) > 0
        keep_c = table.sum(0) > 0
        _, pval, _, _ = scistats.chi2_contingency(table[np.ix_(keep_r, keep_c)])
        assert pval > 1e-3

    def test_zero_budget_and_layout(self):
        p = random_joint(np.random.default_rng(24), 3, 2, 5)
        big_m, counts = poissonized_count_tensor([p], 0, generator(25, "count-tensor"))
        assert big_m == 0 and counts.shape == (1, 3, 2, 5) and not counts.any()
        # the draw itself, in the layout of the mass, on a bin-major instance
        q = gen_random_ci(2, 2, 100, 0)[0]
        assert not q.mass.flags.c_contiguous
        big_m, counts = poissonized_count_tensor([q], 900.0, generator(25, "count-tensor"))
        want = generator(25, "count-tensor").poisson(900.0 * q.mass)
        assert counts.shape == (1, 2, 2, 100) and counts.flags.c_contiguous
        assert counts.tobytes() == want.tobytes() and big_m == want.sum()

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_one_call_takes_the_variates_of_k_calls(self, k):
        # rates 0, below 10 and from 10 on, where numpy switches Poisson
        # methods: one call over k stacked rate tensors leaves the counts
        # and the stream as k calls in a row do
        dists = [paninski_reduction(160, 0.5, "perturbed", t)[0] if t % 2
                 else gen_random_ci(2, 2, 40, t)[0] for t in range(k)]
        m = 3000
        rng = generator(27, "count-tensor")
        big_m, counts = poissonized_count_tensor(dists, m, rng)
        ref = generator(27, "count-tensor")
        want = np.stack([ref.poisson(m * p.mass) for p in dists])
        assert counts.shape == (k, 2, 2, 40) and counts.tobytes() == want.tobytes()
        assert big_m == want.sum()
        assert rng.bit_generator.state == ref.bit_generator.state
        if k > 1:  # one call holds rates of every method
            rates = m * np.stack([p.mass for p in dists])
            assert (rates == 0).any() and (rates >= 10).any()
            assert ((0 < rates) & (rates < 10)).any()

    def test_total_of_a_large_block_is_exact(self):
        # each trial's total fits in int64 at m = 2^62, but 50 of them do not
        p = JointDistribution.uniform(2, 2, 1)
        big_m, counts = poissonized_count_tensor([p] * 50, 2**62, generator(28, "count-tensor"))
        totals = [int(trial.sum()) for trial in counts]
        assert big_m == sum(totals) > 2**63 and type(big_m) is int
        assert all(abs(t - 2**62) < 2**40 for t in totals)


class _EdgeKeys:
    """A generator whose uniforms alternate between the extremes 0 and the
    largest double below 1, so every searched key sits on an edge of its
    bin's span; multinomials come from `rng`."""

    def __init__(self, rng):
        self.multinomial = rng.multinomial

    @staticmethod
    def random(size):
        return np.resize([0.0, np.nextafter(1.0, 0.0)], size)


class TestConditionalCellCounts:
    """Per-bin draws from p(x, y | z) as occupied bin-major cells and counts."""

    @staticmethod
    def edge_masses():
        # zero cells first and last in every bin, a one-cell bin and a bin of zero weight
        mass = generator(26, "edges").random((3, 4, 6))
        mass[0, 0, :] = mass[2, 3, :] = 0.0
        mass[:, :, 2] = 0.0
        mass[1, 2, 2] = 1.0
        mass[:, :, 4] = 0.0
        return [JointDistribution.from_mass(mass)[0],
                JointDistribution.from_mass(mass.transpose(2, 0, 1).copy().transpose(1, 2, 0))[0]]

    @pytest.mark.parametrize("edge_keys", [False, True])
    def test_never_a_zero_mass_cell(self, draw_masses, edge_keys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for p in [*draw_masses.values(), *self.edge_masses()]:
                l1, l2, n = p.dims
                width = l1 * l2
                positive = p.z_marginal > 0
                # searched (k < l1 l2) and multinomial (k >= l1 l2) bins, in one call
                sizes = [np.where(positive, k, 0) for k in (
                    np.arange(n) % 3, np.full(n, width - 1), np.full(n, width),
                    np.arange(n) % 2 * 10**6 + 1)]
                rng = np.random.default_rng(27)
                for (cells, counts), k in zip(
                    conditional_cell_counts(p, sizes, _EdgeKeys(rng) if edge_keys else rng),
                    sizes,
                ):
                    assert cells.dtype == counts.dtype == np.int64
                    assert np.all(np.diff(cells) > 0) and np.all(counts > 0)
                    table = p.mass.transpose(2, 0, 1).ravel()
                    assert np.all(table[cells] > 0)
                    np.testing.assert_array_equal(
                        np.bincount(cells // width, counts, minlength=n), k)

    def test_searched_bins_follow_their_tables(self, draw_masses):
        # k < l1 l2 searches the cumulative mass: its cell frequencies are p(x, y | z)
        p = draw_masses["zero_cells"]
        l1, l2, n = p.dims
        k = np.full(n, l1 * l2 - 1)
        counts = np.zeros(p.mass.size)
        rng = np.random.default_rng(28)
        for _ in range(3000):
            [(cells, f)] = conditional_cell_counts(p, [k], rng)
            counts[cells] += f
        want = (p.mass / p.z_marginal).transpose(2, 0, 1).ravel() * k[0] * 3000
        assert counts[want == 0].sum() == 0
        _, pval = scistats.chisquare(counts[want > 0], want[want > 0])
        assert pval > 1e-3


class TestTruncatedPoissonMoments:
    """Monte Carlo checks of the truncated-moment inequalities used by the
    tester analysis, with fitted constants reported on failure."""

    def test_weighted_truncated_moments(self):
        rng = generator(12, "poisson-claims")
        reps = 200000
        fitted_c_upper = 0.0
        fitted_c_lower = np.inf
        for lam in (0.1, 1.0, 5.0, 20.0):
            for a, b in ((2, 2), (2, 8), (4, 8)):
                x = rng.poisson(lam, size=reps).astype(float)
                y = x * np.sqrt(np.minimum(x, a) * np.minimum(x, b)) * (x >= 4)
                mean = y.mean()
                if mean == 0:
                    continue
                fitted_c_upper = max(fitted_c_upper, y.var() / mean)
                lower = min(lam * np.sqrt(min(lam, a) * min(lam, b)), lam**4)
                fitted_c_lower = min(fitted_c_lower, mean / lower)
        print(f"truncated-moment fitted constants: C={fitted_c_upper:.2f} "
              f"c={fitted_c_lower:.4f}")
        assert np.isfinite(fitted_c_upper) and fitted_c_upper < 60, fitted_c_upper
        assert fitted_c_lower > 0.01, fitted_c_lower


class TestInvariants:
    def test_negative_mass_rejected(self):
        with pytest.raises(DistributionError):
            JointDistribution(np.array([[[-0.1, 1.1]]]))

    def test_zero_size_dimension_rejected(self):
        with pytest.raises(ShapeMismatchError):
            JointDistribution(np.zeros((0, 2, 3)))

    @pytest.mark.parametrize("call, error, message", [
        (lambda: JointDistribution(np.full((2, 2), 0.25)), ShapeMismatchError,
         "joint mass must be a 3-D tensor (x, y, z)"),
        (lambda: JointDistribution.from_slices(np.full(2, 0.5), np.full((3, 2, 2), 0.25)),
         ShapeMismatchError, "need weights (n,) and tables (n, l1, l2)"),
        (lambda: tv_distance(np.array([-0.1, 1.1]), np.array([0.5, 0.5])), DistributionError,
         "tv_distance requires nonnegative inputs"),
        (lambda: product_table(np.full(4, 0.25)), ShapeMismatchError,
         "product_table needs a 2-D table"),
        (lambda: sample_fixed(JointDistribution.uniform(2, 2, 2), -1, 0), ValueError,
         "count must be >= 0"),
    ])
    def test_malformed_input_refused(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message

    def test_normalization_tolerance(self):
        mass = np.full((2, 2, 2), 1 / 8) * (1 + 1e-10)
        with pytest.raises(NotNormalizedError, match=r"total mass 1\.0000000001 not within"):
            JointDistribution(mass)
        JointDistribution(mass * (1 + 1e-13) / (1 + 1e-10))  # inside the tolerance

    def test_z_marginal_is_derived(self):
        rng = np.random.default_rng(6)
        p = random_joint(rng, 3, 2, 4)
        np.testing.assert_array_equal(p.z_marginal, p.mass.sum(axis=(0, 1)))

    def test_normalize_round_trip(self):
        pseudo = np.full((2, 2, 2), 0.25)
        norm, factor = JointDistribution.from_mass(pseudo)
        assert factor == 2.0
        np.testing.assert_array_equal(norm.mass, pseudo / 2.0)

    def test_from_mass_holds_one_copy(self):
        # the quotient was once copied again by the constructor: two copies at peak
        mass = np.random.default_rng(3).random((40, 50, 100))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            p, _ = JointDistribution.from_mass(mass)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert p.mass.nbytes == mass.nbytes and peak < 1.5 * mass.nbytes

    @pytest.mark.parametrize("make, args, bound", [
        (JointDistribution.uniform, lambda: (40, 50, 100), 1.5),
        (JointDistribution.from_slices,
         lambda: (np.full(100, 0.01), np.full((100, 40, 50), 1 / 2000)), 1.5),
        (mixture_q, lambda: (gen_random_ci(40, 50, 100, 2)[0],), 2.5),
        (gen_random_ci, lambda: (40, 50, 100, 1), 2.5),
        (paninski_reduction, lambda: (200_000, 0.2, "perturbed", 1), 3.3),
    ])
    def test_fresh_mass_is_not_copied_again(self, make, args, bound):
        # peaks in units of the result's 1.5 MiB mass, one copy below those of
        # a constructor that copied its fresh product: 1.13, 1.13, 2.17, 2.13
        # and 2.88 (2.13, 2.13, 3.17, 3.13 and 3.88 with the copy)
        args = args()
        make(*args)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            p = make(*args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        p = p[0] if isinstance(p, tuple) else p
        assert peak < bound * p.mass.nbytes

    @pytest.mark.parametrize("readonly_view", [False, True])
    def test_caller_writes_leave_distribution(self, readonly_view):
        mass = np.full((2, 2, 2), 1 / 8)
        given = mass
        if readonly_view:  # read-only, but its data is the caller's writeable array
            given = mass.view()
            given.setflags(write=False)
        p = JointDistribution(given)
        mass[0, 0, 0] = 0.5
        assert p.mass[0, 0, 0] == 1 / 8 and not p.mass.flags.writeable

    @pytest.mark.parametrize("mass, total", [
        (np.zeros((2, 2, 2)), "0.0"),
        (np.full((1, 1, 2), 1e308), "inf"),
        (np.array([[[np.inf, 0.5]]]), "inf"),
        (np.array([[[np.nan, 0.5]]]), "nan"),
    ])
    def test_from_mass_needs_positive_finite_total(self, mass, total):
        with pytest.raises(DistributionError) as info:
            JointDistribution.from_mass(mass)
        assert str(info.value) == f"total mass {total} is not positive and finite"


class TestFileFormats:
    def test_distribution_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        p = random_joint(rng, 3, 2, 4)
        path = tmp_path / "dist.tsv"
        write_distribution_file(path, p)
        q, factor = read_distribution_file(path)
        np.testing.assert_array_equal(p.mass, q.mass)
        assert factor == 1.0

    @pytest.mark.parametrize("prob, factor", [("0.25", 1.0), ("0.5", 2.0)])
    def test_distribution_built_once(self, monkeypatch, tmp_path, prob, factor):
        built = []
        post_init = JointDistribution.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(JointDistribution, "__post_init__", counting)
        path = tmp_path / "dist.tsv"
        path.write_text("#dims 2 2 1\n" + "".join(f"{i}\t{j}\t1\t{prob}\n"
                                                 for i in (1, 2) for j in (1, 2)))
        p, read_factor = read_distribution_file(path)
        assert read_factor == factor and len(built) == 1 and built[0] is p
        np.testing.assert_array_equal(p.mass, np.full((2, 2, 1), 0.25))

    def test_sample_round_trip(self, tmp_path):
        p = JointDistribution.uniform(2, 3, 4)
        s = sample_fixed(p, 50, 3)
        path = tmp_path / "samples.tsv"
        write_sample_file(path, s, p.dims)
        s2, dims = read_sample_file(path)
        np.testing.assert_array_equal(s, s2)
        assert dims == (2, 3, 4)
        assert path.read_text().splitlines()[0] == "#dims 2 3 4"

    def test_one_based_indices_on_disk(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("#dims 2 2 2\n1\t2\t1\n")
        s, _ = read_sample_file(path)
        np.testing.assert_array_equal(s, [[0, 1, 0]])

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#dim 2 2 2\n")
        with pytest.raises(DistributionError):
            read_sample_file(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("#dims 2 2 2\n1\t2\t1\n\n \t\n2\t1\t2\n")
        s, _ = read_sample_file(path)
        np.testing.assert_array_equal(s, [[0, 1, 0], [1, 0, 1]])

    def test_header_only_gives_zero_rows(self, tmp_path, recwarn):
        path = tmp_path / "s.tsv"
        path.write_text("#dims 2 2 2\n\n")
        s, dims = read_sample_file(path)
        assert s.shape == (0, 3) and s.dtype == np.int64 and dims == (2, 2, 2)
        with pytest.raises(DistributionError, match="total mass 0.0 is not positive"):
            read_distribution_file(path)
        assert not recwarn.list

    def test_pseudo_distribution_file_divided_by_its_total(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("#dims 1 1 2\n1\t1\t1\t0.5\n1\t1\t2\t1.5\n")
        p, factor = read_distribution_file(path)
        assert factor == 2.0
        np.testing.assert_array_equal(p.mass, [[[0.25, 0.75]]])

    @pytest.mark.parametrize("body, total", [
        ("1\t1\t1\t1e308\n1\t1\t2\t1e308\n", "inf"),  # finite cells, overflowing sum
        ("1\t1\t1\tinf\n", "inf"),
        ("", "0.0"),
        ("1\t1\t1\t0.0\n", "0.0"),
    ])
    def test_total_not_positive_and_finite_names_the_file(self, tmp_path, recwarn, body,
                                                          total):
        path = tmp_path / "d.tsv"
        path.write_text("#dims 1 1 2\n" + body)
        with pytest.raises(DistributionError) as info:
            read_distribution_file(path)
        assert str(info.value) == f"{path}: total mass {total} is not positive and finite"
        assert not recwarn.list

    def test_large_indices_read_exactly(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("#dims 1 1 9007199254740993\n1\t1\t9007199254740993\n")
        s, _ = read_sample_file(path)
        assert s.dtype == np.int64 and s[0, 2] == 9007199254740992

    @pytest.mark.parametrize("read, row", [(read_sample_file, "1\t1\t1\n"),
                                           (read_distribution_file, "1\t1\t1\t1.0\n")])
    def test_dims_past_numpy_index_range_name_the_file(self, tmp_path, read, row):
        path = tmp_path / "big.tsv"
        path.write_text(f"#dims 2 2 {2**62}\n" + row)
        with pytest.raises(DistributionError) as info:
            read(path)
        assert str(info.value) == (
            f"{path}: dims '2 2 {2**62}' give more cells than numpy can index"
        )
        # the most cells numpy can index still make a domain
        path.write_text(f"#dims 1 1 {2**63 - 1}\n1\t1\t1\n")
        assert read_sample_file(path)[1] == (1, 1, 2**63 - 1)

    @pytest.mark.parametrize("body", [
        "1\t1\n",            # too few fields
        "1\t1\t1\t1\n",      # too many fields
        "1\tx\t1\n",         # not a number
        "1\t1.5\t1\n",       # non-integral index
        "1\t3\t1\n",         # index outside dims
        "0\t1\t1\n",         # indices are 1-based
        "1\t1.0\t1\n",       # indices are decimal integers
        "\t \n1\tx\t1\n",    # still malformed once blank-only lines go
    ])
    def test_malformed_sample_rows(self, tmp_path, body):
        path = tmp_path / "bad.tsv"
        path.write_text("#dims 2 2 2\n1\t1\t1\n" + body)
        with pytest.raises(DistributionError, match="bad.tsv"):
            read_sample_file(path)

    @pytest.mark.parametrize("body", [
        "1\t1\t1\t0.5\n1\t1\t1\t0.25\n2\t2\t1\t0.5\n",  # repeated cell
        "1\t1.5\t1\t0.5\n2\t2\t1\t0.5\n",                # non-integral index
        "1\t1\t1\n",                                      # no probability
        "1\t1\t1\t-0.5\n",                                # negative mass
        "1.0\t1\t1\t0.5\n",                               # index not an integer
    ])
    def test_malformed_distribution_rows(self, tmp_path, body):
        path = tmp_path / "bad.tsv"
        path.write_text("#dims 2 2 1\n" + body)
        with pytest.raises(DistributionError, match="bad.tsv"):
            read_distribution_file(path)

    @pytest.mark.parametrize("body, line, reason", [
        ("1\t1\t1\n1\t1.0\t1\n", 3, "could not convert string '1.0' to int64"),
        ("1\t1\t1\n \t\n\n1\t1\n", 5, "found 2 fields"),
        ("1\t1\t1\t1\n", 2, "found 4 fields"),
    ])
    def test_malformed_row_names_its_line(self, tmp_path, body, line, reason):
        # lines count from the header as line 1, blank lines included
        path = tmp_path / "bad.tsv"
        path.write_text("#dims 2 2 2\n" + body)
        with pytest.raises(DistributionError) as info:
            read_sample_file(path)
        expected = f"{path}: line {line}: expected 'x<TAB>y<TAB>z' per line: {reason}"
        assert str(info.value) == expected

    def test_malformed_distribution_row_names_its_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#dims 2 2 1\n1\t1\t1\t0.5\n\n2\t2\t1\n")
        with pytest.raises(DistributionError) as info:
            read_distribution_file(path)
        assert str(info.value) == (
            f"{path}: line 4: expected 'i<TAB>j<TAB>z<TAB>prob' per line: found 3 fields"
        )

    @pytest.mark.parametrize("name", ["s.tsv", "s.tsv.gz"])  # parsed by name, or as text
    @pytest.mark.parametrize("read, header, body, message", [
        (read_sample_file, "#dims 2 2 2", "1\t1\t1\n\n1\t3\t1\n",
         "line 4: y index 3 outside [1, 2]"),
        (read_sample_file, "#dims 2 2 2", "1\t1\t1\n \t\n2\t2\t2\n\n0\t1\t9\n",
         "line 6: x index 0 outside [1, 2]"),
        (read_distribution_file, "#dims 2 2 3", "1\t1\t1\t0.5\n\n2\t2\t4\t0.5\n",
         "line 4: z index 4 outside [1, 3]"),
        (read_distribution_file, "#dims 2 2 3", "\n1\t0\t1\t1.0\n",
         "line 3: j index 0 outside [1, 2]"),
    ])
    def test_index_outside_dims_names_its_line(self, tmp_path, name, read, header, body,
                                               message):
        # lines count from the header as line 1, blank lines included
        path = tmp_path / name
        path.write_text(f"{header}\n{body}")
        with pytest.raises(DistributionError) as info:
            read(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("rows_before", [1, 20_000])
    def test_non_utf8_names_the_file(self, tmp_path, monkeypatch, rows_before):
        # a bad byte past the header's chunk is met by numpy's reader, whose
        # UnicodeDecodeError is a ValueError: it must not reach the retry
        def no_retry(*args, **kwargs):
            raise AssertionError("the retry read undecodable text again")

        path = tmp_path / "bad.tsv"
        path.write_bytes(b"#dims 2 2 2\n" + b"1\t1\t1\n" * rows_before + b"\xff\n")
        monkeypatch.setattr(Path, "read_text", no_retry)
        with pytest.raises(DistributionError) as info:
            read_sample_file(path)
        assert str(info.value) == f"{path}: not UTF-8 text: byte 0xff: invalid start byte"

    @pytest.mark.parametrize("data", [
        b"#dims 2 2 2\r\n1\t2\t1\r\n2\t1\t2\r\n",  # CRLF line endings
        b"#dims 2 2 2\n1\t2\t1\n2\t1\t2",          # no trailing newline
    ])
    def test_line_endings_read_the_same(self, tmp_path, data):
        path = tmp_path / "s.tsv"
        path.write_bytes(data)
        s, dims = read_sample_file(path)
        assert s.dtype == np.int64 and dims == (2, 2, 2)
        np.testing.assert_array_equal(s, [[0, 1, 0], [1, 0, 1]])

    def test_blank_body_gives_zero_rows(self, tmp_path, recwarn):
        path = tmp_path / "s.tsv"
        path.write_text("#dims 2 2 2\n \t\n\n  \n")
        s, _ = read_sample_file(path)
        assert s.shape == (0, 3) and s.dtype == np.int64
        with pytest.raises(DistributionError, match="total mass 0.0 is not positive"):
            read_distribution_file(path)
        assert not recwarn.list

    def test_compressed_suffix_read_as_text(self, tmp_path):
        # numpy's loadtxt would gunzip a path named *.gz; the readers never do
        path = tmp_path / "s.tsv.gz"
        path.write_text("#dims 2 2 2\n1\t2\t1\n \t\n2\t1\t2\n")
        s, _ = read_sample_file(path)
        np.testing.assert_array_equal(s, [[0, 1, 0], [1, 0, 1]])

    def test_pipe_read_once(self, tmp_path):
        # a pipe can be read only once, so it is never reopened by its name;
        # in a child process, so that a reopen that blocks fails the timeout
        fifo = tmp_path / "s.fifo"
        os.mkfifo(fifo)
        code = (
            "import pathlib, sys, threading\n"
            "from cit.dist_core import read_sample_file\n"
            "path = pathlib.Path(sys.argv[1])\n"
            "text = '#dims 2 2 2\\n1\\t2\\t1\\n'\n"
            "threading.Thread(target=path.write_text, args=(text,)).start()\n"
            "print(read_sample_file(path)[0].tolist())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(dist_core.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code, str(fifo)],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout == "[[0, 1, 0]]\n"

    @FILE_PROPERTY
    @given(
        dims=st.tuples(*[st.integers(1, 6)] * 3),
        rows=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_written_sample_files_read_back(self, tmp_path, dims, rows, seed):
        samples = np.random.default_rng(seed).integers(0, dims, size=(rows, 3))
        path = tmp_path / "s.tsv"
        write_sample_file(path, samples, dims)
        s, read_dims = read_sample_file(path)
        assert read_dims == dims and s.dtype == np.int64 and s.shape == (rows, 3)
        assert np.array_equal(s, samples)

    @FILE_PROPERTY
    @given(
        dims=st.tuples(*[st.integers(1, 5)] * 3),
        zero_frac=st.sampled_from([0.0, 0.5, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_written_distribution_files_read_back(self, tmp_path, dims, zero_frac, seed):
        rng = np.random.default_rng(seed)
        mass = rng.dirichlet(np.ones(math.prod(dims))) * (rng.random(math.prod(dims)) >= zero_frac)
        if mass.sum() == 0:
            mass[0] = 1.0
        p, _ = JointDistribution.from_mass(mass.reshape(dims))
        path = tmp_path / "d.tsv"
        write_distribution_file(path, p)
        q, factor = read_distribution_file(path)
        assert q.mass.dtype == np.float64 and np.array_equal(q.mass, p.mass)
        assert factor == 1.0
