"""Instance generators: structural properties of every family."""

import numpy as np
import pytest

from cit import instances
from cit.dist_core import (
    NORMALIZED_ATOL,
    ci_distance_proxy,
    product_table,
    tv_distance,
)
from cit.instances import (
    EnsembleSpec,
    RegimeError,
    gen_binary_ensemble,
    gen_nnn,
    gen_random_ci,
    gen_random_far,
    make_instance,
    moment_match_check,
    paninski_reduction,
)
from cit.seeding import child_seed

LIGHT_TV = {0: 0.06, 1: 0.06, 2: 0.02}  # per dependent-table kind


def rank_one_gap(table):
    return np.abs(table - product_table(table)).max()


class TestBinaryEnsembles:
    def test_yes_slices_are_rank_one(self):
        dist, meta = gen_binary_ensemble(
            EnsembleSpec("yes_binary_r1", n=120, eps=0.4, m=40, seed=1)
        )
        for z in range(120):
            assert rank_one_gap(dist.slice_table(z)) < 1e-12

    def test_no_light_slices_and_distances(self):
        dist, meta = gen_binary_ensemble(
            EnsembleSpec("no_binary_r1", n=150, eps=0.4, m=50, seed=2)
        )
        kinds = meta["light_kind"]
        heavy = meta["heavy_mask"]
        assert set(np.unique(kinds[~heavy])) <= {0, 1, 2}
        for z in range(150):
            t = dist.slice_table(z)
            if heavy[z]:
                np.testing.assert_allclose(t, 0.25, atol=1e-12)
            else:
                assert tv_distance(t, product_table(t)) == pytest.approx(
                    LIGHT_TV[int(kinds[z])], abs=1e-12
                )

    def test_raw_masses(self):
        n, eps, m = 200, 0.5, 64
        dist, meta = gen_binary_ensemble(
            EnsembleSpec("no_binary_r1", n=n, eps=eps, m=m, seed=3)
        )
        raw_weights = dist.z_marginal * meta["raw_total_mass"]
        heavy = meta["heavy_mask"]
        np.testing.assert_allclose(raw_weights[heavy], 1 / m, atol=1e-12)
        np.testing.assert_allclose(raw_weights[~heavy], eps / n, atol=1e-12)

    def test_expected_total_mass_in_band(self):
        n, eps, m = 100, 0.6, 30
        totals = []
        for t in range(200):
            _, meta = gen_binary_ensemble(
                EnsembleSpec("yes_binary_r1", n=n, eps=eps, m=m, seed=child_seed(4, t))
            )
            totals.append(meta["raw_total_mass"])
        totals = np.array(totals)
        se = totals.std(ddof=1) / np.sqrt(len(totals))
        assert totals.mean() >= 1.0 - 3 * se
        assert totals.mean() <= 1.0 + eps + 3 * se

    def test_expected_distance_matches_construction(self):
        # raw-mass-weighted proxy distance averages 0.03 (1 - m/n) eps
        n, eps, m = 100, 0.5, 40
        vals = []
        for t in range(200):
            dist, meta = gen_binary_ensemble(
                EnsembleSpec("no_binary_r1", n=n, eps=eps, m=m, seed=child_seed(5, t))
            )
            vals.append(ci_distance_proxy(dist) * meta["raw_total_mass"])
        vals = np.array(vals)
        expect = 0.03 * (1 - m / n) * eps
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - expect) <= 3 * se
        assert vals.mean() / 4 >= (3 / 400) * eps * (1 - m / n) - 3 * se

    def test_anchored_variant(self):
        n = 60
        dist, meta = gen_binary_ensemble(
            EnsembleSpec("no_binary_r2", n=n, eps=0.4, m=20, seed=6)
        )
        anchor = meta["anchor_bin"]
        assert anchor == n - 1
        raw_weights = dist.z_marginal * meta["raw_total_mass"]
        assert raw_weights[anchor] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(dist.slice_table(anchor), 0.25, atol=1e-12)
        # heavy-bin probability 1/2 over the remaining bins
        assert 0.25 < meta["heavy_mask"][:-1].mean() < 0.75

    def test_regime_guard(self):
        with pytest.raises(RegimeError):
            gen_binary_ensemble(EnsembleSpec("no_binary_r1", n=50, eps=0.4, m=49, seed=0))
        with pytest.raises(RegimeError):
            gen_binary_ensemble(EnsembleSpec("yes_binary_r1", n=50, eps=1.4, m=10, seed=0))
        with pytest.raises(RegimeError):
            gen_binary_ensemble(EnsembleSpec("yes_binary_r1", n=50, eps=0.4, m=None, seed=0))

    def test_pure_function_of_spec_and_seed(self):
        spec = EnsembleSpec("no_binary_r1", n=80, eps=0.3, m=20, seed=123)
        d1, m1 = gen_binary_ensemble(spec)
        d2, m2 = gen_binary_ensemble(spec)
        np.testing.assert_array_equal(d1.mass, d2.mass)
        np.testing.assert_array_equal(m1["heavy_mask"], m2["heavy_mask"])


class TestMomentMatching:
    def test_exact_match_up_to_degree_three(self):
        report = moment_match_check(3)
        assert report.matched
        assert report.checked == 35  # all monomials of degree 0..3 in 4 cells
        assert report.mismatches == ()

    def test_degree_four_counterexample_exists(self):
        report = moment_match_check(3)
        exps, lhs, rhs = report.degree4_counterexample
        assert sum(exps) == 4 and lhs != rhs

    def test_degree_one_value(self):
        # first-cell mean: both mixtures give 0.26
        from fractions import Fraction as F

        report = moment_match_check(1)
        assert report.matched
        dep = (F(6, 100), F(46, 100), F(26, 100))
        assert F(1, 8) * dep[0] + F(1, 8) * dep[1] + F(3, 4) * dep[2] == F(26, 100)

    def test_rejects_degree_above_three(self):
        with pytest.raises(ValueError):
            moment_match_check(4)


class TestPaninskiReduction:
    def test_uniform_variant(self):
        dist, _ = paninski_reduction(64, 0.2, "uniform", 0)
        assert dist.dims == (2, 2, 16)
        np.testing.assert_allclose(dist.mass, 1 / 64, atol=1e-15)
        assert ci_distance_proxy(dist) < 1e-13

    def test_perturbed_slices(self):
        eps = 0.2
        dist, meta = paninski_reduction(128, eps, "perturbed", 5)
        n = 32
        for z in range(n):
            t = dist.slice_table(z)
            rows, cols = t.sum(axis=1), t.sum(axis=0)
            row_uniform = np.allclose(rows, 0.5, atol=1e-12)
            col_uniform = np.allclose(cols, 0.5, atol=1e-12)
            assert row_uniform or col_uniform
            d = tv_distance(t, product_table(t))
            assert d == pytest.approx(meta["slice_tv"][z], abs=1e-12)
            assert d in (pytest.approx(0.0, abs=1e-12), pytest.approx(eps, abs=1e-12))

    def test_domain_multiple_of_four(self):
        with pytest.raises(ValueError):
            paninski_reduction(30, 0.2, "uniform", 0)

    def test_both_sign_patterns_appear(self):
        _, meta = paninski_reduction(400, 0.1, "perturbed", 9)
        assert (meta["slice_tv"] == 0).any() and (meta["slice_tv"] > 0).any()


class TestCubeInstances:
    def test_heavy_set_sizes(self):
        _, meta = gen_nnn(16, False, 0)
        assert meta["heavy_set_size"] == 8  # 16^{3/4}
        assert meta["sets_a"].shape == (16, 8)
        assert meta["sets_b"].shape == (16, 8)

    def test_conditional_marginal_masses(self):
        dist, meta = gen_nnn(16, False, 1)
        n, k = 16, meta["heavy_set_size"]
        # X marginal per bin: heavy symbols 1/(2k), light 1/(2(n-k))
        x_marg = dist.mass.reshape(n, 2, n, n).sum(axis=(1, 2))  # (x, z) -> wait
        x_marg = dist.mass.sum(axis=1)  # (2n, n): (x,w) pair by z
        pair = x_marg.reshape(n, 2, n).sum(axis=1)  # fold out w -> (x, z)
        for z in range(n):
            heavy = np.zeros(n, dtype=bool)
            heavy[meta["sets_a"][z]] = True
            np.testing.assert_allclose(pair[heavy, z] * n, 1 / (2 * k), atol=1e-12)
            np.testing.assert_allclose(
                pair[~heavy, z] * n, 1 / (2 * (n - k)), atol=1e-12
            )

    def test_ci_variant_rank_one_slices(self):
        dist, _ = gen_nnn(81, False, 2)  # 81^{3/4} = 27 exactly
        rng = np.random.default_rng(0)
        for z in rng.choice(81, size=20, replace=False):
            assert rank_one_gap(dist.slice_table(int(z))) < 1e-12
        assert ci_distance_proxy(dist) < 1e-12

    def test_far_variant_has_positive_proxy(self):
        _, meta = gen_nnn(16, True, 3)
        assert meta["ci_proxy"] > 0.05

    def test_far_distance_estimated_on_bin_subsample_at_scale(self):
        # above the dense-proxy budget the distance is estimated from a
        # uniform bin subsample (Z is uniform, so slice distances average)
        _, meta = gen_nnn(128, True, 1)
        assert "ci_proxy" not in meta
        assert meta["ci_proxy_bins_sampled"] == 48
        assert 0.05 < meta["ci_proxy_estimate"] < 0.5

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            gen_nnn(8, False, 0)


class TestRandomFamilies:
    def test_random_ci_rank_one(self):
        dist, _ = gen_random_ci(3, 4, 12, 7)
        for z in range(12):
            assert rank_one_gap(dist.slice_table(z)) < 1e-12

    def test_random_far_meets_target(self):
        for seed in range(5):
            dist, meta = gen_random_far(3, 3, 10, 0.3, seed)
            assert ci_distance_proxy(dist) >= 0.3
            assert meta["proxy"] == pytest.approx(ci_distance_proxy(dist))

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def no_draw(*key):
            raise AssertionError("drew an instance before refusing eps")

        monkeypatch.setattr(instances, "generator", no_draw)

    def test_random_far_unreachable_target(self):
        with pytest.raises(RegimeError):
            gen_random_far(2, 2, 5, 0.9, 0)

    @pytest.mark.parametrize("eps", [1.5, float("nan"), 0.0])
    def test_random_far_refuses_eps_outside_unit_interval_before_drawing(self, no_draws, eps):
        # once 100 escalating resamples (about 2 s at n = 2000) before giving up
        with pytest.raises(RegimeError, match=r"eps must lie in \(0, 1\], got "):
            gen_random_far(2, 2, 2000, eps, 0)

    @pytest.mark.parametrize("l1, l2, eps", [(2, 2, 0.9), (3, 3, 0.7), (1, 4, 0.1), (4, 1, 1e-12),
                                             (2, 5, 0.500001), (4, 4, 0.76)])
    def test_random_far_refuses_eps_past_the_alphabet_bound_before_drawing(self, no_draws,
                                                                           l1, l2, eps):
        # no table is farther than 1 - 1/min(l1, l2) in TV from the product
        # of its marginals; such eps once took 100 resamples to refuse
        with pytest.raises(RegimeError, match=r"is above 1 - 1/min\(ell1, ell2\) = "):
            gen_random_far(l1, l2, 2000, eps, 0)

    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_random_far_reaches_the_alphabet_bound(self, l):
        dist, meta = gen_random_far(l, l, 20, 1 - 1 / l, 0)
        assert meta["proxy"] >= 1 - 1 / l
        assert ci_distance_proxy(dist) == meta["proxy"]

    def test_determinism_and_metadata(self):
        d1, m1 = gen_random_far(2, 2, 8, 0.25, 42)
        d2, m2 = gen_random_far(2, 2, 8, 0.25, 42)
        np.testing.assert_array_equal(d1.mass, d2.mass)
        assert m1["proxy"] == m2["proxy"]


class TestDispatch:
    @pytest.mark.parametrize(
        "family,kwargs",
        [
            ("yes_binary_r1", dict(m=20)),
            ("no_binary_r1", dict(m=20)),
            ("yes_binary_r2", dict(m=20)),
            ("no_binary_r2", dict(m=20)),
            ("paninski_yes", {}),
            ("paninski_no", {}),
            ("random_ci", {}),
            ("random_far", {}),
        ],
    )
    def test_make_instance_families(self, family, kwargs):
        spec = EnsembleSpec(family=family, n=24, eps=0.3, seed=5, **kwargs)
        dist, meta = make_instance(spec)
        assert abs(dist.mass.sum() - 1.0) <= NORMALIZED_ATOL
        assert meta["family"] == family or meta["family"].startswith(family.split("_")[0])

    def test_make_instance_nnn(self):
        spec = EnsembleSpec(family="nnn_d0", n=16, seed=1)
        dist, _ = make_instance(spec)
        assert dist.dims == (32, 16, 16)

    def test_unknown_family(self):
        with pytest.raises(RegimeError):
            EnsembleSpec(family="mystery", n=10)


class TestTotalVariationSanity:
    def test_proxy_decomposes_over_light_bins(self):
        # the bin marginal is shared with the marginal-product mixture, so the
        # proxy equals the weighted sum of per-bin slice distances, and heavy
        # (uniform) bins contribute nothing
        no, meta = gen_binary_ensemble(
            EnsembleSpec("no_binary_r1", n=100, eps=0.5, m=30, seed=9)
        )
        per_bin = np.array(
            [tv_distance(t, product_table(t)) for t in map(no.slice_table, range(100))]
        )
        assert np.all(per_bin[meta["heavy_mask"]] < 1e-12)
        weighted = float((no.z_marginal * per_bin).sum())
        assert ci_distance_proxy(no) == pytest.approx(weighted, abs=1e-12)
        assert tv_distance(no, no) == 0.0
