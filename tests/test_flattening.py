"""Split distributions and implicit two-marginal flattening."""

import itertools
from fractions import Fraction as F

import numpy as np
import pytest

from cit.dist_core import ShapeMismatchError, product_table, tv_distance
from cit.flattening import (
    FlatteningCoefficients,
    InsufficientSamplesError,
    SplitSpec,
    implicit_flattening,
    rescaled_l2_value,
    split_distribution,
)
from cit.poly_estimator import l2_estimator
from cit.seeding import generator

N1 = np.array([[6, 24], [24, 46]]) / 100


def explicit_split_table(table, coeffs):
    """Materialize the split bivariate table (test-only reference path)."""
    rb = 1 + np.array(coeffs.row_counts)
    cb = 1 + np.array(coeffs.col_counts)
    ri = np.repeat(np.arange(len(rb)), rb)
    ci = np.repeat(np.arange(len(cb)), cb)
    return table[np.ix_(ri, ci)] / np.outer(rb[ri], cb[ci])


class TestSplitSpec:
    def test_from_multiset(self):
        spec = SplitSpec.from_multiset(3, [0, 0, 2])
        assert spec.a == (3, 1, 2)
        # one added bin per multiset element: sum(a) = n + |S|
        assert sum(spec.a) == 3 + 3

    def test_requires_positive_multiplicities(self):
        with pytest.raises(ValueError):
            SplitSpec((1, 0))

    @pytest.mark.parametrize("call, error, message", [
        (lambda: SplitSpec.from_multiset(2, [2]), ValueError, "multiset element outside [0, n)"),
        (lambda: split_distribution(np.full(3, 1 / 3), SplitSpec((1, 1))), ShapeMismatchError,
         "p must be a vector matching the split spec"),
        (lambda: FlatteningCoefficients((-1,), (0,)), ValueError,
         "flattening counts must be >= 0"),
        (lambda: rescaled_l2_value(np.full((2, 3), 1 / 6), FlatteningCoefficients((0, 0), (0, 0))),
         ShapeMismatchError, "table shape must match the coefficient grid"),
        (lambda: implicit_flattening([[2, 0]], 2, 2, 1, 0), ValueError,
         "x index outside [0, l1)"),
        (lambda: implicit_flattening([[0, 0], [0, 2]], 2, 2, 1, 1), ValueError,
         "y index outside [0, l2)"),
    ])
    def test_malformed_input_refused(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message


class TestSplitDistribution:
    def test_empty_multiset_is_identity(self):
        p = np.array([0.2, 0.3, 0.5])
        np.testing.assert_array_equal(
            split_distribution(p, SplitSpec.from_multiset(3, [])), p
        )

    def test_two_bin_example(self):
        out = split_distribution([0.5, 0.5], SplitSpec.from_multiset(2, [0]))
        np.testing.assert_allclose(out, [0.25, 0.25, 0.5])

    def test_tv_preserved(self):
        rng = generator(0, "split-tv")
        for _ in range(30):
            n = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            spec = SplitSpec.from_multiset(n, rng.integers(0, n, size=rng.integers(0, 8)))
            assert tv_distance(
                split_distribution(p, spec), split_distribution(q, spec)
            ) == pytest.approx(tv_distance(p, q), abs=1e-14)

    def test_l2_norm_monotone_in_multiset(self):
        rng = generator(1, "split-mono")
        for _ in range(20):
            n = int(rng.integers(2, 5))
            p = rng.dirichlet(np.ones(n))
            small = list(rng.integers(0, n, size=2))
            big = small + list(rng.integers(0, n, size=2))
            ns = np.linalg.norm(split_distribution(p, SplitSpec.from_multiset(n, small)))
            nb = np.linalg.norm(split_distribution(p, SplitSpec.from_multiset(n, big)))
            assert nb <= ns + 1e-14

    def test_expected_l2_norm_bound(self):
        # MC average of ||p_S||^2 over size-m sample multisets is <= 1/(m+1),
        # and matches the exact expectation sum_i p_i (1-(1-p_i)^{m+1})/(m+1)
        rng = generator(2, "split-norm")
        profiles = {
            "uniform": np.full(8, 1 / 8),
            "geometric": (lambda v: v / v.sum())(0.5 ** np.arange(8)),
            "point_heavy": np.array([0.86] + [0.02] * 7),
        }
        for name, p in profiles.items():
            for m in (1, 4, 16, 64):
                counts = rng.multinomial(m, p, size=3000)
                norms = (p**2 / (1 + counts)).sum(axis=1)
                exact = (p * (1 - (1 - p) ** (m + 1))).sum() / (m + 1)
                se = norms.std(ddof=1) / np.sqrt(len(norms))
                assert abs(norms.mean() - exact) <= 4 * se + 1e-12, (name, m)
                assert norms.mean() <= 1 / (m + 1) + 3 * se, (name, m)


class TestImplicitFlattening:
    def test_no_samples(self):
        co = implicit_flattening(np.empty((0, 2), dtype=int), 3, 2, 0, 0)
        assert np.all(co.grid == 0)

    def test_single_row_sample(self):
        co = implicit_flattening(np.array([[0, 0]]), 2, 3, 1, 0)
        assert co.row_counts == (1, 0) and co.col_counts == (0, 0, 0)
        np.testing.assert_array_equal(co.grid, [[1, 1, 1], [0, 0, 0]])

    def test_row_and_column_sample(self):
        co = implicit_flattening(np.array([[0, 0], [0, 0]]), 2, 2, 1, 1)
        np.testing.assert_array_equal(co.grid, [[3, 1], [1, 0]])

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            implicit_flattening(np.array([[0, 0]]), 2, 2, 1, 1)

    def test_grid_invariants(self):
        rng = generator(3, "flatten-grid")
        for _ in range(20):
            l1, l2 = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            t1, t2 = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            flat = np.column_stack(
                [rng.integers(0, l1, size=t1 + t2), rng.integers(0, l2, size=t1 + t2)]
            )
            co = implicit_flattening(flat, l1, l2, t1, t2)
            for x in range(l1):
                for y in range(l2):
                    assert 1 + co.grid[x, y] == (1 + co.row_counts[x]) * (
                        1 + co.col_counts[y]
                    )
            assert (sum(co.row_counts), sum(co.col_counts)) == (t1, t2)
            assert (1 + co.grid).sum() == (l1 + t1) * (l2 + t2)


class TestRescaledValue:
    def test_product_table_is_zero(self):
        rng = generator(4, "rescaled-zero")
        for _ in range(10):
            a = rng.dirichlet(np.ones(3))
            b = rng.dirichlet(np.ones(2))
            co = implicit_flattening(
                np.column_stack([rng.integers(0, 3, 4), rng.integers(0, 2, 4)]), 3, 2, 2, 2
            )
            assert rescaled_l2_value(np.outer(a, b), co) == pytest.approx(0.0, abs=1e-15)

    def test_reference_values(self):
        none = FlatteningCoefficients((0, 0), (0, 0))
        assert rescaled_l2_value(N1, none) == pytest.approx(0.0036, abs=1e-15)
        uniform4 = FlatteningCoefficients((1, 1), (1, 1))  # every cell a_xy = 3
        assert rescaled_l2_value(N1, uniform4) == pytest.approx(0.0009, abs=1e-15)

    def test_matches_explicit_split(self):
        rng = generator(5, "rescaled-split")
        for _ in range(30):
            l1, l2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            t = rng.dirichlet(np.ones(l1 * l2)).reshape(l1, l2)
            t1, t2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            flat = np.column_stack(
                [rng.integers(0, l1, t1 + t2), rng.integers(0, l2, t1 + t2)]
            )
            co = implicit_flattening(flat, l1, l2, t1, t2)
            split = explicit_split_table(t, co)
            direct = ((split - product_table(split)) ** 2).sum()
            assert rescaled_l2_value(t, co) == pytest.approx(direct, abs=1e-14)

    def test_lower_bound_by_tv(self):
        rng = generator(6, "rescaled-lb")
        for _ in range(30):
            l1, l2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            t = rng.dirichlet(np.ones(l1 * l2)).reshape(l1, l2)
            t1, t2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            flat = np.column_stack(
                [rng.integers(0, l1, t1 + t2), rng.integers(0, l2, t1 + t2)]
            )
            co = implicit_flattening(flat, l1, l2, t1, t2)
            tv = tv_distance(t, product_table(t))
            bound = 4 * tv**2 / ((l1 + t1) * (l2 + t2))
            assert rescaled_l2_value(t, co) >= bound - 1e-14

    def test_expected_product_norm_bound(self):
        # E||q_T||^2 <= 1/((1+t1)(1+t2)) with flattening samples drawn from p
        rng = generator(7, "product-norm")
        l1, l2 = 4, 3
        t = rng.dirichlet(np.ones(l1 * l2)).reshape(l1, l2)
        px, py = t.sum(1), t.sum(0)
        for t1, t2 in ((1, 1), (3, 2), (8, 5)):
            reps = 3000
            bx = rng.multinomial(t1, px, size=reps)
            cy = rng.multinomial(t2, py, size=reps)
            norms = (px**2 / (1 + bx)).sum(1) * (py**2 / (1 + cy)).sum(1)
            bound = 1 / ((1 + t1) * (1 + t2))
            se = norms.std(ddof=1) / np.sqrt(reps)
            assert norms.mean() <= bound + 3 * se


class TestEstimatorConsistency:
    def test_weighted_estimator_mean_equals_rescaled_value(self):
        # exact expectation over all ordered sample tuples, N = 4..6
        table = np.array([[F(1, 10), F(2, 10)], [F(3, 10), F(4, 10)]], dtype=object)
        co = implicit_flattening(np.array([[0, 0], [1, 1], [0, 1]]), 2, 2, 2, 1)
        weights = co.weight_grid_exact()
        target = rescaled_l2_value(table, co)
        cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
        for big_n in (4, 5, 6):
            mean = F(0)
            for tup in itertools.product(range(4), repeat=big_n):
                prob = F(1)
                counts = np.zeros((2, 2), dtype=object)
                for c in tup:
                    prob *= table[cells[c]]
                    counts[cells[c]] += 1
                mean += prob * l2_estimator(counts, weights)
            assert mean == target
