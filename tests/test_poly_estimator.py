"""Polynomial estimator machinery: unbiasedness, moments, l2 specialization."""

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from cit.poly_estimator import (
    EnumerationBudgetError,
    Fingerprint,
    HomogeneousPolynomial,
    NoUnbiasedEstimatorError,
    PolynomialError,
    add_term,
    expected_square,
    falling,
    homogenize,
    key_from_dense,
    l2_diff_polynomial,
    l2_estimator,
    oracle_moments,
    parse_polynomial,
    tail_term_bound,
    tail_terms,
    unbiased_estimate,
)
from cit.testers import binary_bin_statistics

N1 = np.array([[6, 24], [24, 46]]) / 100
Y1 = np.array([[16, 24], [24, 36]]) / 100


def random_poly(rng, n, d, max_terms=4):
    terms = {}
    for _ in range(rng.integers(1, max_terms + 1)):
        exps = rng.multinomial(d, np.ones(n) / n)
        add_term(terms, key_from_dense(exps), int(rng.integers(-3, 4)) or 1)
    if not terms:
        terms = {key_from_dense([d] + [0] * (n - 1)): 1}
    return HomogeneousPolynomial.from_terms(n, terms, degree=d)


def random_rational_simplex(rng, n, denom=24):
    cuts = sorted(rng.integers(0, denom + 1, size=n - 1).tolist())
    parts = np.diff([0] + cuts + [denom]).tolist()
    return [F(int(v), denom) for v in parts]


class TestHomogenize:
    def test_constant(self):
        h = homogenize({(): 1}, 2, 2)
        assert h.terms == {((0, 2),): 1, ((0, 1), (1, 1)): 2, ((1, 2),): 1}

    def test_already_homogeneous_unchanged(self):
        q = HomogeneousPolynomial.from_terms(3, {((0, 1), (2, 1)): 5}, degree=2)
        assert homogenize(q, 3, 2).terms == q.terms

    def test_linear_term(self):
        h = homogenize({((0, 1),): 1}, 2, 2)
        assert h.terms == {((0, 2),): 1, ((0, 1), (1, 1)): 1}

    def test_simplex_value_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            terms = {}
            for _ in range(3):
                d_term = int(rng.integers(0, 4))
                exps = rng.multinomial(d_term, np.ones(n) / n)
                add_term(terms, key_from_dense(exps), float(rng.normal()))
            h = homogenize(terms, n, 4)
            p = rng.dirichlet(np.ones(n))
            direct = sum(
                c * np.prod([p[i] ** e for i, e in key]) for key, c in terms.items()
            )
            assert h.evaluate(p) == pytest.approx(direct, abs=1e-12)

    def test_rejects_too_high_degree(self):
        with pytest.raises(Exception):
            homogenize({((0, 3),): 1}, 2, 2)


class TestUnbiasedEstimate:
    def test_degree_one_is_empirical_frequency(self):
        q = HomogeneousPolynomial.monomial(3, ((0, 1),))
        for counts in ((3, 1, 0), (0, 2, 2), (5, 0, 0)):
            fp = Fingerprint(counts)
            assert unbiased_estimate(q, fp) == pytest.approx(counts[0] / fp.total)

    def test_power_of_sum_is_identically_one(self):
        q = homogenize({(): 1}, 3, 3)
        for counts in ((3, 0, 0), (1, 1, 1), (2, 3, 4)):
            assert unbiased_estimate(q, Fingerprint(counts)) == 1

    def test_closed_form_example(self):
        q = HomogeneousPolynomial.monomial(2, ((0, 1), (1, 1)))
        assert unbiased_estimate(q, Fingerprint((2, 1))) == F(1, 3)

    def test_cross_check_against_oracle(self):
        q = HomogeneousPolynomial.monomial(2, ((0, 1), (1, 1)))
        mean, _ = oracle_moments(q, [F(1, 3), F(2, 3)], 3)
        assert mean == F(1, 3) * F(2, 3)

    def test_no_estimator_below_degree(self):
        q = HomogeneousPolynomial.monomial(2, ((0, 2),))
        with pytest.raises(NoUnbiasedEstimatorError):
            unbiased_estimate(q, Fingerprint((1, 0)))

    def test_symmetric_in_samples(self):
        # the estimate is a function of the fingerprint alone: the same twelve
        # samples, their counts written in any order, give the same estimate
        rng = np.random.default_rng(1)
        q = random_poly(rng, 3, 2)
        base = unbiased_estimate(q, Fingerprint((5, 3, 4)))
        for text in ("1:5 2:3 3:4", "3:4 2:3 1:5", "2:1 1:5 3:4 2:2"):
            assert unbiased_estimate(q, Fingerprint.parse(text, 3)) == base


class TestUniqueness:
    def test_minimal_sample_basis_spans_symmetric_estimators(self):
        # at N = d the monomial -> estimator map is a scaled indicator basis
        # over fingerprints, so every symmetric estimator is realized by
        # exactly one polynomial (invert the multinomial scaling per key)
        n, d = 3, 3
        fps = [
            fp for fp in itertools.product(range(d + 1), repeat=n) if sum(fp) == d
        ]
        rng = np.random.default_rng(2)
        target = {fp: F(int(rng.integers(-5, 6)), int(rng.integers(1, 7))) for fp in fps}
        terms = {}
        for fp, value in target.items():
            if value == 0:
                continue
            multinomial = F(math.factorial(d))
            for c in fp:
                multinomial /= math.factorial(c)
            add_term(terms, key_from_dense(fp), value * multinomial)
        q = HomogeneousPolynomial.from_terms(n, terms, degree=d)
        for fp in fps:
            got = unbiased_estimate(q, Fingerprint(fp))
            assert got == target[fp]


class TestExpectedSquare:
    def test_power_of_sum_has_zero_variance(self):
        q = homogenize({(): 1}, 2, 3)
        rep = expected_square(q, [F(1, 4), F(3, 4)], 5)
        assert rep.expected_square == 1
        assert rep.variance == 0

    def test_binomial_second_moment(self):
        q = HomogeneousPolynomial.monomial(2, ((0, 1),))
        rep = expected_square(q, [F(1, 2), F(1, 2)], 4)
        assert rep.expected_square == F(5, 16)
        assert rep.variance == F(5, 16) - F(1, 4)

    def test_matches_oracle_exactly_random_cases(self):
        rng = np.random.default_rng(3)
        for _ in range(12):
            n = int(rng.integers(2, 4))
            d = int(rng.integers(1, 4))
            q = random_poly(rng, n, d)
            p = random_rational_simplex(rng, n)
            big_n = d + int(rng.integers(0, 3))
            mean, var = oracle_moments(q, p, big_n)
            rep = expected_square(q, p, big_n)
            assert rep.value == mean
            assert rep.variance == var
            assert rep.variance <= rep.variance_bound

    def test_degree4_l2_on_uniform(self):
        q = l2_diff_polynomial(2, 2)
        p = [F(1, 4)] * 4
        mean, var = oracle_moments(q, p, 4)
        rep = expected_square(q, p, 4)
        assert (rep.value, rep.variance) == (mean, var)

    def test_requires_enough_samples(self):
        q = l2_diff_polynomial(2, 2)
        with pytest.raises(NoUnbiasedEstimatorError):
            expected_square(q, [F(1, 4)] * 4, 3)


class TestTailTermBound:
    def test_g0_dominates_everything_past_t0(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n, d = int(rng.integers(2, 4)), int(rng.integers(1, 5))
            q = random_poly(rng, n, d)
            p = rng.dirichlet(np.ones(n))
            big_n = d + int(rng.integers(0, 3))
            ts = tail_terms(q, p, big_n)
            bound = tail_term_bound(q, p, big_n, 0)
            assert bound + 1e-12 >= sum(ts) - ts[0]

    def test_every_order_dominated(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n, d = int(rng.integers(2, 4)), int(rng.integers(1, 5))
            q = random_poly(rng, n, d)
            p = rng.dirichlet(np.ones(n))
            big_n = d + int(rng.integers(0, 4))
            ts = tail_terms(q, p, big_n)
            for g in range(d + 1):
                assert tail_term_bound(q, p, big_n, g) + 1e-12 >= sum(ts[g:])

    def test_power_of_sum_partials(self):
        # partial derivatives of (sum X)^d at a simplex point are d!/(d-h)!
        d = 3
        q = homogenize({(): 1}, 2, d)
        p = [0.25, 0.75]
        for h in range(d + 1):
            key = ((0, h),) if h else ()
            val = q.derivative_value(p, key)
            assert float(val) == pytest.approx(falling(d, h), rel=1e-12)
        assert tail_term_bound(q, p, d + 2, 1) >= sum(tail_terms(q, p, d + 2)[1:])

    def test_l2_uniform_g2(self):
        q = l2_diff_polynomial(2, 2)
        p = [0.25] * 4
        ts = tail_terms(q, p, 6)
        assert tail_term_bound(q, p, 6, 2) >= ts[2] + ts[3] + ts[4]


class TestL2Polynomial:
    def test_product_tables_evaluate_to_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.dirichlet(np.ones(3))
            b = rng.dirichlet(np.ones(4))
            q = l2_diff_polynomial(3, 4)
            assert q.evaluate(np.outer(a, b).ravel()) == pytest.approx(0.0, abs=1e-14)

    def test_reference_tables(self):
        q = l2_diff_polynomial(2, 2)
        assert q.evaluate(N1.ravel()) == pytest.approx(0.0036, abs=1e-12)
        assert q.evaluate(Y1.ravel()) == pytest.approx(0.0, abs=1e-14)

    def test_equals_l2_gap_random_shapes(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            l1, l2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            t = rng.dirichlet(np.ones(l1 * l2)).reshape(l1, l2)
            pi = np.outer(t.sum(1), t.sum(0))
            q = l2_diff_polynomial(l1, l2)
            assert q.evaluate(t.ravel()) == pytest.approx(((t - pi) ** 2).sum(), abs=1e-13)


class TestL2Estimator:
    def test_all_ones_fingerprint(self):
        assert l2_estimator(np.array([[1, 1], [1, 1]])) == pytest.approx(-1 / 3)

    def test_point_mass_fingerprint(self):
        assert l2_estimator(np.array([[4, 0], [0, 0]])) == 0.0

    def test_needs_four_samples(self):
        with pytest.raises(NoUnbiasedEstimatorError):
            l2_estimator(np.array([[2, 1], [0, 0]]))

    def test_exact_mean_zero_on_uniform(self):
        mean, _ = oracle_moments(l2_diff_polynomial(2, 2), [F(1, 4)] * 4, 4)
        assert mean == 0

    def test_specialized_matches_generic_unit_weights(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            l1, l2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            counts = rng.integers(0, 5, size=(l1, l2))
            if counts.sum() < 4:
                counts[0, 0] += 4
            generic = unbiased_estimate(
                l2_diff_polynomial(l1, l2),
                Fingerprint(tuple(int(v) for v in counts.ravel())),
            )
            fast = l2_estimator(counts.astype(object))
            assert fast == generic

    def test_rejects_non_integral_counts(self):
        for counts in ([[1.5, 1], [1, 1]], [[F(1, 2), 2], [2, 2]], [[np.nan, 2], [2, 2]]):
            with pytest.raises(PolynomialError):
                l2_estimator(np.array(counts, dtype=object))

    def test_float_weights_taken_exactly(self):
        counts = np.array([[3, 1, 0], [2, 2, 1]])
        weights = np.array([[0.1, 0.25, 1.0], [1 / 3, 0.5, 0.2]])
        exact = np.array([[F(w) for w in row] for row in weights.tolist()], dtype=object)
        assert l2_estimator(counts, weights) == l2_estimator(counts, exact)
        assert isinstance(l2_estimator(counts, weights), F)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(Exception):
            l2_estimator(np.array([[2, 2], [2, 2]]), np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_variance_envelope_fitted_constant(self):
        # empirical Var <= C_hat (Q(p) sqrt(b) / N + b / N^2) with one
        # constant across a randomized 2x2..6x6 suite; the fit must be
        # stable across disjoint Monte Carlo suites.
        def fit(seed_offset, reps=4000):
            local = np.random.default_rng(100 + seed_offset)
            worst = 0.0
            for _ in range(12):
                l1, l2 = int(local.integers(2, 7)), int(local.integers(2, 7))
                t = local.dirichlet(np.ones(l1 * l2)).reshape(l1, l2)
                pi = np.outer(t.sum(1), t.sum(0))
                b = max((t**2).sum(), (pi**2).sum())
                qval = ((t - pi) ** 2).sum()
                big_n = int(local.integers(4, 25))
                draws = local.multinomial(big_n, t.ravel(), size=reps)
                vals = binary_bin_statistics(draws.T.reshape(l1, l2, reps))[1]
                envelope = qval * np.sqrt(b) / big_n + b / big_n**2
                worst = max(worst, np.var(vals) / envelope)
            return worst

        c1, c2 = fit(0), fit(1)
        assert np.isfinite(c1) and c1 < 60, c1
        assert 0.4 < c1 / c2 < 2.5, (c1, c2)


class TestOracle:
    def test_mean_is_polynomial_value(self):
        rng = np.random.default_rng(10)
        for _ in range(8):
            n, d = int(rng.integers(2, 4)), int(rng.integers(1, 4))
            q = random_poly(rng, n, d)
            p = random_rational_simplex(rng, n)
            mean, _ = oracle_moments(q, p, d + 1)
            assert mean == q.evaluate_exact([F(v) for v in p])

    def test_minimal_sample_monomial_mean(self):
        q = HomogeneousPolynomial.monomial(2, ((0, 2), (1, 1)))
        p = [F(1, 3), F(2, 3)]
        mean, _ = oracle_moments(q, p, 3)
        assert mean == F(1, 3) ** 2 * F(2, 3)

    def test_budget_guard(self):
        q = HomogeneousPolynomial.monomial(10, ((0, 1),))
        with pytest.raises(EnumerationBudgetError):
            oracle_moments(q, [F(1, 10)] * 10, 8)

    def test_rejects_float_probabilities(self):
        q = HomogeneousPolynomial.monomial(2, ((0, 1),))
        with pytest.raises(TypeError):
            oracle_moments(q, [0.5, 0.5], 2)


class TestTextFormats:
    def test_polynomial_round_trip(self):
        q = HomogeneousPolynomial.from_terms(
            3, {((0, 2), (2, 2)): F(3, 2), ((1, 4),): -2}, degree=4
        )
        back = parse_polynomial("3/2 : 1^2 3^2\n-2 : 2^4\n", 3)
        assert back.terms == q.terms

    def test_fingerprint_round_trip(self):
        fp = Fingerprint((0, 3, 1))
        assert Fingerprint.parse("2:3 3:1", 3) == fp
