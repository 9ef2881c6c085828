"""Instance generators: structural properties of every family."""

import hashlib
from fractions import Fraction

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
    BINARY_FAMILIES,
    FAMILIES,
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

    @pytest.mark.parametrize("m", [0, -3])
    @pytest.mark.parametrize("family", BINARY_FAMILIES)
    def test_heavy_bin_parameter_below_one_refused(self, family, m):
        with pytest.raises(RegimeError) as info:
            EnsembleSpec(family, n=50, eps=0.4, m=m)
        assert str(info.value) == "the binary ensembles need a positive heavy-bin parameter m"

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

    def test_check_reads_the_weights_the_generator_draws_with(self, monkeypatch):
        # one owner for the dependent mixture's weights: unmatched weights fail
        # the check, and the no families draw with them
        monkeypatch.setattr(instances, "_DEP_WEIGHTS", (Fraction(0), Fraction(0), Fraction(1)))
        assert not moment_match_check(3).matched
        spec = EnsembleSpec("no_binary_r1", n=200, eps=0.5, m=50, seed=3)
        kind = gen_binary_ensemble(spec)[1]["light_kind"]
        assert (kind >= 0).any() and set(kind[kind >= 0].tolist()) == {2}


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

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="which must be 'uniform' or 'perturbed'"):
            paninski_reduction(8, 0.2, "other", 0)

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

    @pytest.mark.parametrize("n, seed", [(16, 3), (128, 1)])
    def test_far_variant_proxy(self, n, seed):
        dist, _ = gen_nnn(n, True, seed)
        assert 0.05 < ci_distance_proxy(dist) < 0.5

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            gen_nnn(8, False, 0)

    def test_far_bit_is_a_fair_coin_on_light_cells(self):
        # on a light-light cell all of the (x, y, z) mass sits on w = f(x, y, z)
        n = 27
        dist, meta = gen_nnn(n, True, 5)
        mass = dist.mass.reshape(n, 2, n, n)  # (x, w, y, z)
        zs = np.arange(n)[:, None]
        heavy_x = np.zeros((n, n), dtype=bool)  # (x, z)
        heavy_x[meta["sets_a"], zs] = True
        heavy_y = np.zeros((n, n), dtype=bool)  # (y, z)
        heavy_y[meta["sets_b"], zs] = True
        light = ~(heavy_x[:, None, :] | heavy_y[None, :, :])
        w0, w1 = mass[:, 0][light], mass[:, 1][light]
        assert ((w0 == 0) != (w1 == 0)).all()
        share, cells = (w1 > 0).mean(), light.sum()
        assert cells == n * (n - meta["heavy_set_size"]) ** 2
        assert abs(share - 0.5) < 4 * np.sqrt(0.25 / cells)
        np.testing.assert_array_equal(mass[:, 0][~light], mass[:, 1][~light])


class TestRandomFamilies:
    def test_random_ci_rank_one(self):
        dist, _ = gen_random_ci(3, 4, 12, 7)
        for z in range(12):
            assert rank_one_gap(dist.slice_table(z)) < 1e-12

    @pytest.mark.parametrize("l1, l2", [(3, 4), (4, 3), (8, 3), (10, 10)])
    def test_matching_tables_are_partial_matchings(self, l1, l2):
        n, r = 200, min(l1, l2)
        tables = instances._matching_tables(l1, l2, n, np.random.default_rng(11))
        assert tables.shape == (n, l1, l2)
        matched = tables > 0
        assert (tables[matched] == 1 / r).all()
        assert (matched.sum(axis=(1, 2)) == r).all()
        assert matched.sum(axis=2).max() == 1 and matched.sum(axis=1).max() == 1

    @pytest.mark.parametrize("l1, l2", [(3, 4), (4, 3)])
    def test_matching_cells_are_uniform(self, l1, l2):
        # each of the l1 l2 cells is matched in r / (l1 l2) = 1/4 of the bins
        n = 20_000
        tables = instances._matching_tables(l1, l2, n, np.random.default_rng(12))
        share = (tables > 0).mean(axis=0)
        assert np.abs(share - 0.25).max() < 4 * np.sqrt(0.25 * 0.75 / n)

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

    def test_random_far_gives_up(self, monkeypatch):
        # every mixing weight of every resample falls short of the target
        monkeypatch.setattr(instances, "ci_distance_proxy", lambda dist: 0.0)
        with pytest.raises(RegimeError) as info:
            gen_random_far(2, 2, 5, 0.3, 0)
        assert str(info.value) == "could not reach proxy distance 0.3 after 100 resamples"

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

    @pytest.mark.parametrize("family, n, eps, build", [
        ("paninski_no", 10, 0.7, lambda: paninski_reduction(40, 0.7, "perturbed", 0)),
        ("nnn_d1", 8, 0.5, lambda: gen_nnn(8, True, 0)),
        ("random_far", 10, 0.7, lambda: gen_random_far(3, 3, 10, 0.7, 0)),
    ])
    def test_spec_refuses_what_the_generator_refuses(self, family, n, eps, build):
        ell = 3 if family == "random_far" else 2
        with pytest.raises(RegimeError) as spec_error:
            EnsembleSpec(family, n=n, eps=eps, ell1=ell, ell2=ell)
        with pytest.raises(RegimeError) as generator_error:
            build()
        assert str(spec_error.value) == str(generator_error.value)

    def test_unknown_family(self):
        with pytest.raises(RegimeError):
            EnsembleSpec(family="mystery", n=10)

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_heavy_bin_parameter_defaults_to_half_n(self, family, n):
        default = EnsembleSpec(family, n=n, eps=0.3, seed=5)
        explicit = EnsembleSpec(family, n=n, eps=0.3, m=max(1, n // 2), seed=5)
        assert default == explicit
        assert make_instance(default)[0].mass.tobytes() == make_instance(explicit)[0].mass.tobytes()


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


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def _instance_digests(dist, meta) -> tuple[str, str, str]:
    """Digests of the mass bytes, the bin-marginal bytes and the metadata
    (each array's dtype, shape and bytes, each scalar's repr).  Bytes are
    read in C order, so a change of memory layout alone leaves them."""
    parts = []
    for key in sorted(meta):
        value = meta[key]
        if isinstance(value, np.ndarray):
            parts.append(f"{key}:{value.dtype.str}{value.shape}:{_digest(value.tobytes())}")
        else:
            parts.append(f"{key}={value!r}")
    return (
        _digest(dist.mass.tobytes()),
        _digest(dist.z_marginal.tobytes()),
        _digest("\n".join(parts).encode()),
    )


class TestPinnedInstances:
    """Every family's instances, recorded before the nnn generator lost its
    `ci_proxy*` metadata and the random families shared their product-slice
    draw; the binary pins that moved were recorded again when the binary
    generator gathered its mass in C order, which changed the order of the
    normalizing sums.  The `nnn_d1` pins and the non-square `random_far`
    pins were recorded again when `gen_nnn` drew f from the instance's
    stream in place of a hash and `_matching_tables` drew every bin's
    matching with one `rng.permuted` call.  Keyed by (family, n, ell1,
    ell2, seed), all at eps 0.25 and heavy-bin parameter m = n // 2.  A
    change to any generator's RNG stream, float arithmetic or metadata
    shows here."""

    PINS = {
        ("yes_binary_r1", 20, 2, 2, 0): ("2eb49f9e5f66", "a8b0053c1437", "95f1d44856dc"),
        ("yes_binary_r1", 20, 2, 2, 7): ("c2b859e244e2", "52647f1e4b86", "509bad8fa9c2"),
        ("yes_binary_r1", 100, 2, 2, 0): ("3d9be6f0dd02", "7472700394c9", "09c4f3729811"),
        ("yes_binary_r1", 100, 2, 2, 7): ("9713aa73ebe4", "26e609330340", "515001e7406a"),
        ("no_binary_r1", 20, 2, 2, 0): ("ef58a2e0fd5c", "94daec57e5bd", "608a01f8c572"),
        ("no_binary_r1", 20, 2, 2, 7): ("6c61c962f0aa", "26c1d2e8e877", "ae5ec2e6157a"),
        ("no_binary_r1", 100, 2, 2, 0): ("28768da5c27f", "084a125b05b1", "a28754401047"),
        ("no_binary_r1", 100, 2, 2, 7): ("fc06e5415626", "4f04608643d3", "8cc55d1c4b6a"),
        ("yes_binary_r2", 20, 2, 2, 0): ("09d5db172b01", "be2f9cd9a656", "684beb3e0f1c"),
        ("yes_binary_r2", 20, 2, 2, 7): ("87b8b9b027ea", "168494d7a04d", "49a83ad0d84d"),
        ("yes_binary_r2", 100, 2, 2, 0): ("00eadc0b47f9", "723fe918a931", "f670909000d6"),
        ("yes_binary_r2", 100, 2, 2, 7): ("c0b9031f358d", "80889dac9087", "4950965d0249"),
        ("no_binary_r2", 20, 2, 2, 0): ("6caeed9e1832", "6f2d2e92ef69", "986499167219"),
        ("no_binary_r2", 20, 2, 2, 7): ("222e36878d73", "006738022446", "1e7a58da9906"),
        ("no_binary_r2", 100, 2, 2, 0): ("ab896d021cfc", "f72e1b5449ca", "ccb162fcf32f"),
        ("no_binary_r2", 100, 2, 2, 7): ("7f250bf7f3f3", "728e6bda39d4", "bd733b3d815d"),
        ("paninski_yes", 20, 2, 2, 0): ("cff6567c90f9", "8bc83832681a", "16d45ece4615"),
        ("paninski_yes", 20, 2, 2, 7): ("cff6567c90f9", "8bc83832681a", "1e13e402dbfd"),
        ("paninski_yes", 50, 2, 2, 0): ("b383811a9e8d", "6e2f805822ed", "6cf150652e67"),
        ("paninski_yes", 50, 2, 2, 7): ("b383811a9e8d", "6e2f805822ed", "b54d111e403f"),
        ("paninski_no", 20, 2, 2, 0): ("895c5e024a9b", "8bc83832681a", "57c73ec4da7b"),
        ("paninski_no", 20, 2, 2, 7): ("6f0b21bd9218", "8bc83832681a", "b83696adc9be"),
        ("paninski_no", 50, 2, 2, 0): ("73dfb6a50008", "6e2f805822ed", "31a7ec63fd8f"),
        ("paninski_no", 50, 2, 2, 7): ("a148bb97a537", "6e2f805822ed", "cdd5e4c4f93a"),
        ("nnn_d0", 16, 2, 2, 0): ("553f07fd7883", "d5ced4a0fdc0", "65f605626102"),
        ("nnn_d0", 16, 2, 2, 7): ("553f07fd7883", "d5ced4a0fdc0", "47bd45823775"),
        ("nnn_d0", 27, 2, 2, 0): ("90aec9691413", "ee234f92b9ac", "b57a5dadd97d"),
        ("nnn_d0", 27, 2, 2, 7): ("4d3182445ffb", "f5d547b807c7", "666a89ec12a8"),
        ("nnn_d1", 16, 2, 2, 0): ("6473e88fcc2c", "d5ced4a0fdc0", "047d5f8fdf6f"),
        ("nnn_d1", 16, 2, 2, 7): ("5db8f18dab76", "d5ced4a0fdc0", "af46a922ea35"),
        ("nnn_d1", 27, 2, 2, 0): ("e3e7a8532d02", "8105cee4df78", "b5dad8261666"),
        ("nnn_d1", 27, 2, 2, 7): ("86ffebafa081", "5abc072ef5c7", "b71d87e1edc9"),
        ("random_ci", 20, 2, 2, 0): ("537cbd946f2b", "1f9b6a3d0988", "f18b2122aa7f"),
        ("random_ci", 20, 2, 2, 7): ("e3c8eb3fd891", "b74bfea3415a", "b192cc8552ca"),
        ("random_ci", 50, 3, 4, 0): ("701cf2640bea", "4b1a19577b23", "e02ba09a1304"),
        ("random_ci", 50, 3, 4, 7): ("96377c13e048", "ec0623abdc78", "aa5fdd148f72"),
        ("random_ci", 50, 10, 10, 0): ("8f14046bfe9a", "906efc2227a5", "e02ba09a1304"),
        ("random_ci", 50, 10, 10, 7): ("584996379ef1", "faf9e1b4554b", "aa5fdd148f72"),
        ("random_far", 20, 2, 2, 0): ("7a232767f88c", "f679acd7a0b1", "3abd71584dfa"),
        ("random_far", 20, 2, 2, 7): ("444c82496a0c", "ba5ece7e5b06", "251088fd44aa"),
        ("random_far", 50, 3, 4, 0): ("556d69b63058", "0e4232bd2c83", "0b2d563caf59"),
        ("random_far", 50, 3, 4, 7): ("63de726786a8", "467038ee051d", "0fe515c7e89f"),
        ("random_far", 50, 10, 10, 0): ("dff6c37ce8dc", "171b0224d172", "a84023cf25ea"),
        ("random_far", 50, 10, 10, 7): ("6804cb6c27b9", "8b2ae2053d42", "06236a1fab05"),
    }

    @pytest.mark.parametrize("key", list(PINS), ids=["{}-{}-{}x{}-seed{}".format(*k) for k in PINS])
    def test_instance_bytes(self, key):
        family, n, ell1, ell2, seed = key
        spec = EnsembleSpec(family, n=n, eps=0.25, m=n // 2, seed=seed, ell1=ell1, ell2=ell2)
        dist, meta = make_instance(spec)
        assert _instance_digests(dist, meta) == self.PINS[key]
        assert spec.dims == dist.dims
