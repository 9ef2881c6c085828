"""Testers: sample-size formulas, statistics, thresholds, determinism."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cit import testers
from cit.dist_core import (
    DistributionError,
    JointDistribution,
    poissonized_count_tensor,
    sample_fixed,
    sample_poissonized,
)
from cit.instances import EnsembleSpec, gen_binary_ensemble, gen_random_ci, gen_random_far
from cit.seeding import child_seed, generator, seed_sequence
from cit.testers import (
    TesterConfig,
    TesterInputError,
    Verdict,
    calibrate_threshold,
    run_tester,
    run_trials,
    sample_complexity_binary,
    sample_complexity_binary_raw,
    sample_complexity_general,
)
from cit.testers import test_binary as binary_test
from cit.testers import test_cmi as cmi_test
from cit.testers import test_general as general_test

N1 = np.array([[6, 24], [24, 46]]) / 100
UNIFORM = np.full((2, 2), 0.25)
#: what a trial column says of a trial that is a sample array or on another domain
REFUSALS = {"array": "a trial must be a JointDistribution", "domain": "a trial on"}


def truncated_mean_rate(x):
    """f(x) = E[S 1{S>=4}] for S ~ Poisson(x)."""
    return x - math.exp(-x) * (x + x**2 + x**3 / 2)


class TestSampleComplexityBinary:
    def test_large_eps_regime(self):
        assert sample_complexity_binary(256, 1.0, 1.0, ell1=1, ell2=1) == 116

    def test_small_eps_regime(self):
        assert sample_complexity_binary(16, 0.1, 1.0, ell1=1, ell2=1) == 400

    def test_beta_doubles_raw_value(self):
        raw = sample_complexity_binary_raw(500, 0.4, 1.7)
        assert sample_complexity_binary_raw(500, 0.4, 3.4) == pytest.approx(2 * raw)

    def test_three_regimes(self):
        n = 10**4
        # large eps: the n^{6/7} branch; middle: n^{7/8}; small: sqrt(n)
        big = sample_complexity_binary_raw(n, 1.0, 1.0, ell1=1, ell2=1)
        assert big == pytest.approx(n ** (6 / 7))
        mid_eps = 0.8 * n ** (-1 / 8)
        mid = sample_complexity_binary_raw(n, mid_eps, 1.0, ell1=1, ell2=1)
        assert mid == pytest.approx(n ** (7 / 8) / mid_eps)
        small_eps = 0.5 * n ** (-3 / 8)
        small = sample_complexity_binary_raw(n, small_eps, 1.0, ell1=1, ell2=1)
        assert small == pytest.approx(math.sqrt(n) / small_eps**2)


class TestSampleComplexityGeneral:
    def test_binary_case_matches_up_to_constants(self):
        for n in (10, 10**3, 10**5):
            for eps in (0.1, 0.5, 1.0):
                full = sample_complexity_general(n, 2, 2, eps, 1.0)
                base = sample_complexity_binary(n, eps, 1.0)
                assert 0.2 <= full / base <= 5.0

    def test_single_bin_matches_independence_testing_shape(self):
        for l1, l2 in ((8, 4), (64, 16), (100, 100)):
            for eps in (0.2, 0.8):
                full = sample_complexity_general(1, l1, l2, eps, 1.0)
                ref = max(
                    l1 ** (2 / 3) * l2 ** (1 / 3) / eps ** (4 / 3),
                    (l1 * l2) ** 0.5 / eps**2,
                )
                assert 0.2 <= full / ref <= 5.0

    def test_cube_exponent(self):
        ns = np.array([64, 256, 1024, 4096])
        ms = np.array([sample_complexity_general(n, n, n, 0.9, 1.0) for n in ns])
        slope = np.polyfit(np.log(ns), np.log(ms), 1)[0]
        assert slope == pytest.approx(7 / 4, abs=0.05)

    def test_swaps_alphabets(self):
        assert sample_complexity_general(50, 3, 9, 0.5, 1.0) == sample_complexity_general(
            50, 9, 3, 0.5, 1.0
        )


class TestVerdictContract:
    def test_accept_iff_at_most_tau_with_tie(self):
        p = JointDistribution.from_slices([1.0], [UNIFORM])
        samples = np.array([[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]])
        v = binary_test(samples, TesterConfig(epsilon=0.5), dims=(2, 2, 1))
        # counts (1,1,1,1): A = 4 * (-1/3)
        assert v.statistic_A == pytest.approx(-4 / 3)
        tie = TesterConfig(epsilon=0.5, tau_override=v.statistic_A)
        assert binary_test(samples, tie, dims=(2, 2, 1)).accept  # tie accepts
        below = TesterConfig(epsilon=0.5, tau_override=v.statistic_A - 1e-9)
        assert not binary_test(samples, below, dims=(2, 2, 1)).accept
        _ = p


class TestBinaryTester:
    def test_sparse_bins_accept(self):
        # every bin below 4 samples contributes nothing
        samples = np.array([[0, 0, z] for z in range(5) for _ in range(3)])
        v = binary_test(samples, TesterConfig(epsilon=0.5), dims=(2, 2, 5))
        assert v.accept and v.statistic_A == 0.0 and v.per_bin == ()

    def test_single_active_bin_example(self):
        samples = np.array([[0, 0, 2], [0, 1, 2], [1, 0, 2], [1, 1, 2]])
        v = binary_test(samples, TesterConfig(epsilon=0.5), dims=(2, 2, 5))
        assert v.statistic_A == pytest.approx(-4 / 3)
        assert v.per_bin == ((2, 4, 1.0, pytest.approx(-4 / 3)),)
        assert v.accept

    def test_null_centering(self):
        p = JointDistribution.from_slices([0.4, 0.6], [UNIFORM, np.outer([0.3, 0.7], [0.8, 0.2])])
        stats = []
        for t in range(500):
            cfg = TesterConfig(epsilon=0.5, m_override=200, seed=child_seed(1, t))
            stats.append(binary_test(p, cfg).statistic_A)
        stats = np.array(stats)
        se = stats.std(ddof=1) / np.sqrt(len(stats))
        assert abs(stats.mean()) <= 4 * se

    def test_signal_matches_closed_form(self):
        # all bins hold the same dependent table: E[A] = sum delta^2 f(alpha)
        n, m = 20, 300
        p = JointDistribution.from_slices(np.full(n, 1 / n), np.stack([N1] * n))
        delta_sq = 0.06**2
        expected = n * delta_sq * truncated_mean_rate(m / n)
        stats = []
        for t in range(400):
            cfg = TesterConfig(epsilon=0.5, m_override=m, seed=child_seed(2, t))
            stats.append(binary_test(p, cfg).statistic_A)
        stats = np.array(stats)
        se = stats.std(ddof=1) / np.sqrt(len(stats))
        assert abs(stats.mean() - expected) <= 4 * se

    def test_truncated_rate_dominates_min_envelope(self):
        # f(x) >= (1 - 5/(2e)) min(x, x^4) on a dense grid
        gamma = 1 - 5 / (2 * math.e)
        xs = np.linspace(1e-3, 50, 5000)
        f = xs - np.exp(-xs) * (xs + xs**2 + xs**3 / 2)
        assert np.all(f >= gamma * np.minimum(xs, xs**4) - 1e-12)

    def test_determinism_bit_for_bit(self):
        p = gen_random_ci(2, 2, 30, 5)[0]
        cfg = TesterConfig(epsilon=0.5, m_override=500, seed=99)
        v1, v2 = binary_test(p, cfg), binary_test(p, cfg)
        assert v1.statistic_A == v2.statistic_A  # exact float equality
        assert v1.to_json() == v2.to_json()

    def test_alphabet_cap(self):
        p = JointDistribution.uniform(9, 2, 3)
        with pytest.raises(TesterInputError):
            binary_test(p, TesterConfig(epsilon=0.5, m_override=10))

    def test_fixed_sample_m_override(self):
        p = JointDistribution.uniform(2, 2, 2)
        samples = sample_fixed(p, 50, 0)
        cfg = TesterConfig(epsilon=0.5, m_override=30)
        v = binary_test(samples, cfg, dims=(2, 2, 2))
        assert v.m_used == 30 and v.M_drawn == 30
        with pytest.raises(TesterInputError):
            binary_test(samples, TesterConfig(epsilon=0.5, m_override=60), dims=(2, 2, 2))


@pytest.mark.parametrize("mode", ["binary", "general"])
def test_fixed_sample_input_checks(mode):
    # both testers share one fixed-sample input path
    tester = {"binary": binary_test, "general": general_test}[mode]
    cfg = TesterConfig(epsilon=0.5, mode=mode)
    good = np.array([[0, 1, 2]] * 5)
    assert tester(good, cfg, dims=(2, 2, 3)).M_drawn == 5
    assert tester(np.empty((0, 3), dtype=int), cfg, dims=(2, 2, 3)).per_bin == ()
    with pytest.raises(TesterInputError):
        tester(good, cfg)  # no dims
    with pytest.raises(TesterInputError):
        tester(good[:, :2], cfg, dims=(2, 2, 3))
    for bad in ([[0, 2, 0]], [[0, 0, 3]], [[-1, 0, 0]]):
        with pytest.raises(DistributionError):
            tester(np.array(bad * 5), cfg, dims=(2, 2, 3))
    for bad in ([[1.9, 0, 0]], [[0, 0, 0.7]]):  # never truncated to an index
        with pytest.raises(TesterInputError):
            tester(np.array(bad * 5), cfg, dims=(2, 2, 3))
    # a negative budget is never valid; zero rows of a file is no test
    with pytest.raises(TesterInputError):
        replace(cfg, m_override=-3)
    with pytest.raises(TesterInputError):
        tester(good, replace(cfg, m_override=0), dims=(2, 2, 3))


@pytest.mark.parametrize("tester, eps", [(run_tester, 0.5), (binary_test, 0.5),
                                         (general_test, 0.5), (cmi_test, 0.25)])
def test_distribution_off_given_dims_refused(tester, eps):
    # dims, when given with a distribution, must be its domain
    p = JointDistribution.uniform(2, 2, 4)
    cfg = TesterConfig(epsilon=eps, m_override=100)
    with pytest.raises(TesterInputError, match="a trial on"):
        tester(p, cfg, dims=(7, 7, 7))
    assert tester(p, cfg, dims=(2, 2, 4)).to_json() == tester(p, cfg).to_json()


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.uint32(2**32 - 1), 2**70])
def test_config_seeds_accepted(seed):
    assert TesterConfig(epsilon=0.5, seed=seed).seed is seed


@pytest.mark.parametrize("seed", [2.5, -1, np.int64(-1), True, "3", None,
                                  np.random.SeedSequence(3)])
def test_config_seed_refused(seed):
    # refused in the config, so no tester or calibration truncates a float,
    # hands numpy a negative seed or derives a calibration stream from a
    # SeedSequence (a column takes one through `run_trials`)
    with pytest.raises(TesterInputError, match="seed must be"):
        TesterConfig(epsilon=0.5, seed=seed)


def _calibrate_on_a_nan_kernel(monkeypatch):
    real = testers.binary_bin_statistics
    monkeypatch.setattr(testers, "binary_bin_statistics",
                        lambda counts: (real(counts)[0], np.full(counts.shape[2], np.nan)))
    cfg = TesterConfig(epsilon=0.5, m_override=100)
    return calibrate_threshold(lambda t: JointDistribution.uniform(2, 2, 4), cfg, 100)


@pytest.mark.parametrize("call, error, message", [
    (lambda mp: sample_complexity_binary_raw(0, 0.5), TesterInputError, "n must be >= 1"),
    (lambda mp: sample_complexity_binary_raw(10, 0.0), TesterInputError,
     "effective epsilon must be > 0"),
    (lambda mp: sample_complexity_general(0, 2, 2, 0.5), TesterInputError,
     "dimensions must be >= 1"),
    (lambda mp: sample_complexity_general(10, 2, 2, 1.5), TesterInputError,
     "eps must lie in (0, 1]"),
    # indices in range of dims with more cells than an index can hold: numpy's message
    (lambda mp: run_tester(np.array([[0, 0, 0], [1, 1, 5]]), TesterConfig(epsilon=0.5),
                           dims=(2, 2, 2**62)), ValueError,
     "invalid dims: array size defined by dims is larger than the maximum possible size."),
    (_calibrate_on_a_nan_kernel, TesterInputError,
     "degenerate null generator: non-finite statistics"),
])
def test_malformed_input_refused(monkeypatch, call, error, message):
    with pytest.raises(error) as info:
        call(monkeypatch)
    assert str(info.value) == message


class TestRunTrials:
    """A column of trials, distributions on one domain, draws from one
    stream in order: `run_trials` yields the same verdicts, byte for byte,
    whatever the block size, and its first verdict is `run_tester`'s at the
    column's seed."""

    @staticmethod
    def column(monkeypatch, block_cells, instances, cfg, seed):
        monkeypatch.setattr(testers, "_TRIAL_BLOCK_CELLS", block_cells)
        return [v.to_json() for v in run_trials(iter(instances), cfg, seed)]

    @pytest.mark.parametrize("block_cells", [500, 1 << 12, 1 << 30])  # 4, 34 and 39 trials
    @pytest.mark.parametrize("mode", ["binary", "cmi", "general"])
    def test_same_verdicts_at_every_block_size(self, monkeypatch, mode, block_cells):
        ell = 3 if mode == "general" else 2
        instances = [
            gen_random_far(ell, ell, 30, 0.5, child_seed(11, t))[0] if t % 2
            else gen_random_ci(ell, ell, 30, child_seed(11, t))[0]
            for t in range(39)  # not a multiple of any of the block sizes
        ]
        cfg = TesterConfig(epsilon=0.3 if mode == "cmi" else 0.5, mode=mode, m_override=900)
        single = self.column(monkeypatch, 1, instances, cfg, 12)
        assert self.column(monkeypatch, block_cells, instances, cfg, 12) == single
        assert single[0] == run_tester(instances[0], replace(cfg, seed=12)).to_json()
        # the trials' draws differ, so no verdict repeats another's
        assert len(set(single)) == len(single)

    @pytest.mark.parametrize("mode", ["binary", "cmi", "general"])
    def test_column_stream_from_any_seed_form(self, monkeypatch, mode):
        # an int, its SeedSequence and a Generator over it seed the same column
        ell = 3 if mode == "general" else 2
        instances = [gen_random_ci(ell, ell, 30, child_seed(25, t))[0] for t in range(23)]
        cfg = TesterConfig(epsilon=0.3 if mode == "cmi" else 0.5, mode=mode, m_override=900)
        want = self.column(monkeypatch, 1 << 12, instances, cfg, seed_sequence(26, "col"))
        assert self.column(monkeypatch, 1 << 12, instances, cfg, generator(26, "col")) == want
        assert self.column(monkeypatch, 1, instances, cfg, np.random.SeedSequence(7)) == \
            self.column(monkeypatch, 1 << 12, instances, cfg, 7)

    @pytest.mark.parametrize("mode", ["binary", "general"])
    def test_empty_column_yields_nothing(self, mode):
        assert list(run_trials([], TesterConfig(epsilon=0.5, mode=mode), 0)) == []

    def test_one_bin_trials_share_a_draw_and_a_kernel_call(self, monkeypatch):
        # 8 x 8 bins of ~10^6 samples: their cell sums round
        instances = [gen_random_far(8, 8, 1, 0.5, child_seed(19, t))[0] for t in range(10)]
        cfg = TesterConfig(epsilon=0.5, m_override=10**6)
        expected = self.column(monkeypatch, 1, instances, cfg, 20)
        calls, draws = [], []
        kernel, draw = testers.binary_bin_statistics, testers.poissonized_count_tensor

        def counting_kernel(counts):
            calls.append(counts.shape[2])
            return kernel(counts)

        def counting_draw(dists, budgets, rng):
            draws.append(len(dists))
            return draw(dists, budgets, rng)

        monkeypatch.setattr(testers, "binary_bin_statistics", counting_kernel)
        monkeypatch.setattr(testers, "poissonized_count_tensor", counting_draw)
        assert self.column(monkeypatch, 1 << 12, instances, cfg, 20) == expected
        assert calls == [10] and draws == [10]

    @staticmethod
    def counting_rng(calls, seed):
        # a Generator over `seed`'s stream that records each poisson call
        class CountingGenerator(np.random.Generator):
            def poisson(self, lam=1.0, size=None):
                calls.append(np.shape(lam))
                return super().poisson(lam, size)

        return CountingGenerator(np.random.default_rng(seed).bit_generator)

    @pytest.mark.parametrize("bad", ["array", "domain"])
    @pytest.mark.parametrize("mode, ell, n, verdicts, draws", [("binary", 2, 100, 10, 1),
                                                               ("general", 3, 20, 12, 12)])
    def test_column_refuses_a_trial_before_its_block_draws(self, mode, ell, n, verdicts, draws,
                                                           bad):
        # a column is distributions on the first trial's domain; trial 12 is
        # a sample array or on another domain, in the second binary block
        # of ten trials, and in general mode a block of its own
        dists = [gen_random_ci(ell, ell, n, child_seed(29, t))[0] for t in range(20)]
        dists[12] = (sample_fixed(dists[12], 50, 0) if bad == "array"
                     else gen_random_ci(ell, ell, n + 1, child_seed(29, 12))[0])
        cfg = TesterConfig(epsilon=0.5, mode=mode, m_override=900)
        calls, got = [], []
        with pytest.raises(TesterInputError, match=REFUSALS[bad]):
            got.extend(run_trials(iter(dists), cfg, self.counting_rng(calls, 30)))
        assert (len(got), len(calls)) == (verdicts, draws)
        # a column whose first trial is not a distribution draws nothing
        with pytest.raises(TesterInputError, match="a trial must be a JointDistribution"):
            next(run_trials([dists[0].mass, *dists], cfg, self.counting_rng(calls, 30)))
        assert len(calls) == draws

    @pytest.mark.parametrize("mode", ["binary", "cmi", "general"])
    def test_sample_array_draws_nothing(self, monkeypatch, mode):
        # a sample array reaches the tester's kernel through `run_tester`
        # alone: no column, draw or generator is made for it
        ell = 3 if mode == "general" else 2
        p = gen_random_far(ell, ell, 20, 0.5, child_seed(27, 0))[0]
        rows = sample_fixed(p, 700, 1)
        cfg = TesterConfig(epsilon=0.3 if mode == "cmi" else 0.5, mode=mode, m_override=600)
        want = run_tester(rows, cfg, dims=p.dims)

        def no_draw(*args, **kwargs):
            raise AssertionError("a sample array drew")

        for name in ("run_trials", "poissonized_count_tensor", "_drawn_split"):
            monkeypatch.setattr(testers, name, no_draw)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        got = run_tester(rows, cfg, dims=p.dims)
        assert got.to_json() == want.to_json()
        assert got.M_drawn == got.m_used == 600

    @pytest.mark.parametrize("l, n, m", [(2, 20, 10**6), (2, 50, 900), (8, 10, 10**6),
                                         (3, 1, 10**6)])
    def test_sample_rows_with_drawn_counts_match_distribution(self, l, n, m):
        # the sample-array and distribution branches hand the kernel one layout:
        # shuffled rows holding a draw's counts give the distribution's verdict
        p = gen_random_far(l, l, n, 0.5, child_seed(23, l, n))[0]
        s = child_seed(24, l, n)
        big_m, [counts] = poissonized_count_tensor([p], m, np.random.default_rng(s))
        cells = np.repeat(np.arange(counts.size), counts.ravel())
        rows = np.column_stack(np.unravel_index(cells, counts.shape))
        rows = rows[np.random.default_rng(s).permutation(big_m)]
        cfg = TesterConfig(epsilon=0.5)
        from_rows = run_tester(rows, cfg, dims=p.dims)
        from_dist = run_tester(p, replace(cfg, m_override=m, seed=s))
        assert from_rows.statistic_A == from_dist.statistic_A
        assert from_rows.per_bin == from_dist.per_bin
        assert from_rows.M_drawn == from_dist.M_drawn == big_m
        assert from_rows.accept == from_dist.accept

    @pytest.mark.parametrize("k, n", [(1, 1), (3, 7), (5, 8), (2, 9), (40, 20), (10, 100),
                                      (4, 128), (3, 129), (7, 1000), (2, 100_003)])
    def test_row_sums_are_one_dimensional_sums(self, k, n):
        # a block's statistics are the row sums of a (k, n) array, one trial's
        # the sum of its 1-D row: numpy must add both in the same order
        rng = np.random.default_rng(k * n)
        a = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-8, 8, (k, n))
        assert a.sum(axis=1).tobytes() == np.array([row.sum() for row in a]).tobytes()

    @pytest.mark.parametrize("mode", ["binary", "cmi", "general"])
    def test_one_verdict_per_trial(self, monkeypatch, mode):
        # the benchmark counts verdicts and drawn rows through Verdict.__init__
        built = []
        real_init = Verdict.__init__

        def counting_init(verdict, *args, **kwargs):
            real_init(verdict, *args, **kwargs)
            built.append(verdict.M_drawn)

        monkeypatch.setattr(Verdict, "__init__", counting_init)
        instances = [gen_random_ci(2, 2, 30, child_seed(15, t))[0] for t in range(25)]
        cfg = TesterConfig(epsilon=0.3, mode=mode, m_override=900)
        verdicts = list(run_trials(instances, cfg, seed_sequence(16)))
        assert built == [v.M_drawn for v in verdicts]
        assert all(isinstance(m, int) and m > 0 for m in built)

    @pytest.mark.parametrize("mode", ["binary", "cmi", "general"])
    def test_lazy_bins_match_eager_rows(self, mode):
        # bins holds every bin; per_bin keeps the sigma >= 4 rows, ascending
        ell = 3 if mode == "general" else 2
        instances = [gen_random_far(ell, ell, 30, 0.3, child_seed(17, t))[0] for t in range(6)]
        cfg = TesterConfig(epsilon=0.3, mode=mode, m_override=150)  # ~5 samples a bin
        sparse = np.array([[0, 0, 1]] * 3)  # no bin reaches 4 samples
        verdicts = [
            *run_trials(instances, cfg, 18),
            run_tester(instances[0], replace(cfg, seed=18)),
            run_tester(sparse, replace(cfg, m_override=None), dims=(2, 2, 2)),
        ]
        assert verdicts[-2].to_json() == verdicts[0].to_json()
        for lazy in verdicts:
            text = lazy.to_json()  # the rows are first built here
            columns = [np.asarray(c).tolist() for c in lazy.bins]
            assert len(columns) == 3 and {len(c) for c in columns} == {len(lazy.bins[0])}
            rows = tuple((z, *row) for z, row in enumerate(zip(*columns)) if row[0] >= 4)
            assert lazy.per_bin == rows
            assert all(type(v) is t for row in lazy.per_bin
                       for v, t in zip(row, (int, int, float, float)))
            assert all(a_z == 0.0 for sigma, _, a_z in zip(*columns) if sigma < 4)
            eager = Verdict(lazy.statistic_A, lazy.threshold_tau, lazy.m_used, lazy.M_drawn,
                            columns)
            assert text == eager.to_json()
        # the block mixes bins below and above 4 samples, so the selection is exercised
        assert all(0 < len(v.per_bin) < 30 for v in verdicts[:6])
        assert len(verdicts[-1].bins[0]) == 2 and verdicts[-1].per_bin == ()


class TestGeneralTester:
    def test_bin_rounding_trace(self):
        # 7 samples in one bin: use 4, no flattening, sigma = 4
        samples = np.array([[x % 2, y % 2, 0] for x, y in zip(range(7), range(7))])
        v = general_test(samples, TesterConfig(epsilon=0.5, mode="general"), dims=(2, 2, 3))
        assert len(v.per_bin) == 1
        z, sigma, omega, _ = v.per_bin[0]
        assert (z, sigma) == (0, 4)
        assert omega == pytest.approx(math.sqrt(min(4, 2) * min(4, 2)))

    def test_sparse_bins_accept(self):
        samples = np.array([[0, 0, z] for z in range(6) for _ in range(3)])
        v = general_test(samples, TesterConfig(epsilon=0.5, mode="general"), dims=(2, 2, 6))
        assert v.accept and v.statistic_A == 0.0

    def test_flattening_split_sizes(self):
        # 25 samples: N_z = 24, t = 5, t1 = t2 = min(5, l) with l1=3, l2=2
        rng = np.random.default_rng(0)
        samples = np.column_stack(
            [rng.integers(0, 3, 25), rng.integers(0, 2, 25), np.zeros(25, dtype=int)]
        )
        v = general_test(samples, TesterConfig(epsilon=0.5, mode="general"), dims=(3, 2, 1))
        z, sigma, omega, _ = v.per_bin[0]
        assert sigma == 2 * 5 + 4
        assert omega == pytest.approx(math.sqrt(min(14, 3) * min(14, 2)))

    def test_determinism(self):
        p = gen_random_ci(3, 3, 40, 8)[0]
        cfg = TesterConfig(epsilon=0.4, mode="general", m_override=800, seed=123)
        assert general_test(p, cfg).to_json() == general_test(p, cfg).to_json()

    def test_draws_and_sample_arrays_share_one_path(self, monkeypatch):
        # one kernel, two inputs: a verdict on a distribution is the kernel on
        # its drawn split, and sample rows reach it through the phase split
        p = gen_random_far(3, 4, 30, 0.2, 2)[0]
        calls = []
        kernel = testers._general_kernel

        def recording_kernel(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(testers, "_general_kernel", recording_kernel)
        seed = 5
        cfg = TesterConfig(epsilon=0.5, mode="general", m_override=3000, seed=seed)
        drawn = run_tester(p, cfg)
        big_m, split = testers._drawn_split(p, 3000, np.random.default_rng(seed))
        sigma = split[0]
        omega = np.sqrt(np.minimum(sigma, 3) * np.minimum(sigma, 4))
        a_z = sigma * omega * kernel(*split, 3, 4)
        assert drawn.per_bin and drawn.M_drawn == big_m
        assert np.asarray(drawn.bins[2]).tobytes() == a_z.tobytes()
        rows = sample_poissonized(p, 3000, seed)
        given = run_tester(rows, replace(cfg, m_override=None), dims=p.dims)
        assert given.per_bin and given.M_drawn == rows.shape[0]
        x, y, z = rows.T
        want = testers._phase_split(np.ravel_multi_index((z, x, y), (30, 3, 4)), 3, 4, 30)
        for args, expect in zip(calls, (split, want), strict=True):
            assert args[-2:] == (3, 4)
            for got, ref in zip(args[:-2], expect, strict=True):
                np.testing.assert_array_equal(got, ref)

    def test_memory_independent_of_m(self):
        # counts, not samples: at m = 10^9 a verdict holds O(l1 l2 n) bytes
        p = gen_random_far(3, 4, 2000, 0.1, 1)[0]
        cfg = TesterConfig(epsilon=0.5, mode="general", m_override=10**9, seed=3)
        tracemalloc.start()
        try:
            v = run_tester(p, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(v.M_drawn - 10**9) < 10**6 and len(v.per_bin) == 2000
        assert peak <= 320 * p.mass.size

    def test_largest_budget_is_finite(self):
        p = gen_random_far(3, 3, 4, 0.3, 7)[0]
        cfg = TesterConfig(epsilon=0.5, mode="general", m_override=2**62, seed=8)
        v = run_tester(p, cfg)
        assert math.isfinite(v.statistic_A) and v.statistic_A > v.threshold_tau
        assert abs(v.M_drawn - 2**62) < 2**40 and len(v.per_bin) == 4

    def test_zero_weight_bin_draws_nothing(self):
        mass = gen_random_far(3, 4, 6, 0.3, 9)[0].mass.copy()
        mass[:, :, [0, 3]] = 0.0
        p = JointDistribution.from_mass(mass)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for m in (300, 10**9):
                _, (sigma, wb, wc, cells, f) = testers._drawn_split(
                    p, m, np.random.default_rng(10))
                assert sigma[[0, 3]].tolist() == [0, 0] and sigma[[1, 2, 4, 5]].all()
                assert np.all(wb.reshape(6, 3)[[0, 3]] == 1.0)
                assert np.all(wc.reshape(6, 4)[[0, 3]] == 1.0)
                assert not np.isin(cells // 12, [0, 3]).any()
                np.testing.assert_array_equal(np.bincount(cells // 12, f, minlength=6), sigma)

    def test_memory_per_drawn_sample(self):
        # a verdict on a distribution draws counts: it holds far less than a
        # few int64 arrays per drawn sample (`test_memory_independent_of_m`)
        p = gen_random_far(3, 4, 2000, 0.1, 1)[0]
        cfg = TesterConfig(epsilon=0.5, mode="general", m_override=200_000, seed=3)
        tracemalloc.start()
        try:
            v = run_tester(p, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 80 * v.M_drawn

    def test_agreement_with_binary_on_ci(self):
        # same seed and the same fixed sample multiset for both testers
        agree = 0
        trials = 500
        for t in range(trials):
            inst = gen_random_ci(2, 2, 60, child_seed(3, t))[0]
            samples = sample_poissonized(inst, 900, child_seed(4, t))
            tau = 2 * math.sqrt(60)  # aligned constants for both modes
            kwargs = dict(epsilon=0.5, tau_override=tau, seed=child_seed(4, t))
            vb = binary_test(
                samples, TesterConfig(mode="binary", **kwargs), dims=(2, 2, 60)
            )
            vg = general_test(
                samples, TesterConfig(mode="general", **kwargs), dims=(2, 2, 60)
            )
            agree += vb.accept == vg.accept
        assert agree / trials >= 0.9

    def test_null_centering(self):
        p = gen_random_ci(3, 2, 25, 17)[0]
        stats = []
        for t in range(500):
            cfg = TesterConfig(
                epsilon=0.5, mode="general", m_override=400, seed=child_seed(5, t)
            )
            stats.append(general_test(p, cfg).statistic_A)
        stats = np.array(stats)
        se = stats.std(ddof=1) / np.sqrt(len(stats))
        assert abs(stats.mean()) <= 4 * se


def conditional_mean_a(p: JointDistribution, split) -> float:
    """E[A | split] of the general tester on `p`: the flattening counts b, c
    and the test counts sigma of a drawn split fixed, bin z's test samples
    are i.i.d. from p_z, so its Phi_z has mean
    sum_xy (p_z - q_z)^2_xy / ((1 + b_x)(1 + c_y)), with q_z the product of
    p_z's marginals."""
    sigma, wb, wc, _, _ = split
    l1, l2, n = p.dims
    pz = p.z_marginal
    cond = p.mass / np.where(pz > 0, pz, 1.0)
    q = cond.sum(axis=1)[:, None, :] * cond.sum(axis=0)[None, :, :]
    weights = wb.reshape(n, l1).T[:, None, :] * wc.reshape(n, l2).T[None, :, :]
    phi = ((cond - q) ** 2 / weights).sum(axis=(0, 1))
    omega = np.sqrt(np.minimum(sigma, l1) * np.minimum(sigma, l2))
    return float((sigma * omega * phi).sum())


class TestGeneralCountDraw:
    """The count draw against the paper's flattening and against samples."""

    @pytest.mark.parametrize("dims, m", [
        ((10, 10, 50), 1500),  # t ~ 6 < l: searched test cells
        ((3, 4, 20), 1500),  # t ~ 17 >= l: multinomial test cells
    ])
    def test_conditional_mean(self, dims, m):
        # A - E[A | split] has mean 0: the draw, the split and the kernel
        # together estimate the flattened distance the paper says they do
        l1, l2, n = dims
        p = gen_random_far(l1, l2, n, 0.3, child_seed(36, *dims))[0]
        cfg = TesterConfig(epsilon=0.5, mode="general", m_override=m)
        gaps = []
        for t in range(600):
            seed = seed_sequence(37, l1, l2, n, t)
            _, split = testers._drawn_split(p, m, np.random.default_rng(seed))
            gaps.append(next(run_trials([p], cfg, seed)).statistic_A
                        - conditional_mean_a(p, split))
        gaps = np.array(gaps)
        assert abs(gaps.mean()) <= 4 * gaps.std(ddof=1) / np.sqrt(gaps.size)

    @pytest.mark.parametrize("dims, m", [((10, 10, 50), 5000), ((3, 4, 20), 1500),
                                         ((2, 2, 200), 3000)])
    def test_same_law_as_sample_rows(self, dims, m):
        # A from the count draw against A from Poissonized sample rows
        # through the sample-array path and its phase split
        from scipy import stats as scistats

        l1, l2, n = dims
        p = gen_random_far(l1, l2, n, 0.3, child_seed(38, *dims))[0]
        cfg = TesterConfig(epsilon=0.5, mode="general", m_override=m)
        trials = 1000
        counts = np.array([
            next(run_trials([p], cfg, seed_sequence(39, l1, l2, n, t))).statistic_A
            for t in range(trials)
        ])
        rows = np.array([
            run_tester(sample_poissonized(p, m, seed_sequence(40, l1, l2, n, t)),
                       replace(cfg, m_override=None), dims=dims).statistic_A
            for t in range(trials)
        ])
        se = np.sqrt((counts.var(ddof=1) + rows.var(ddof=1)) / trials)
        assert abs(counts.mean() - rows.mean()) <= 4 * se
        assert scistats.ks_2samp(counts, rows).pvalue > 1e-3


class TestCMIWrapper:
    def test_epsilon_mapping(self):
        # eps = 0.25 -> eps' = 0.125
        p = JointDistribution.uniform(2, 2, 4)
        cfg = TesterConfig(epsilon=0.25, mode="cmi", seed=0)
        v = cmi_test(p, cfg)
        expect_m = sample_complexity_binary(4, 0.125, cfg.beta)
        assert v.m_used == expect_m

    def test_ci_instance_accepts(self):
        accepts = 0
        for t in range(60):
            p = gen_random_ci(2, 2, 50, child_seed(6, t))[0]
            cfg = TesterConfig(
                epsilon=0.25, mode="cmi", m_override=400, seed=child_seed(7, t)
            )
            accepts += cmi_test(p, cfg).accept
        assert accepts / 60 >= 2 / 3

    def test_eps_range(self):
        p = JointDistribution.uniform(2, 2, 4)
        cfg = TesterConfig(epsilon=0.25, mode="cmi")
        with pytest.raises(TesterInputError):
            cmi_test(p, replace(cfg, epsilon=0.7))

    def test_requires_binary_alphabets(self):
        p = JointDistribution.uniform(3, 2, 4)
        cfg = TesterConfig(epsilon=0.25, mode="cmi")
        with pytest.raises(TesterInputError):
            cmi_test(p, cfg)


class TestCalibration:
    def test_degenerate_null_gives_smallest_positive(self):
        # a point-mass-per-bin instance never activates the statistic
        mass = np.zeros((2, 2, 4))
        mass[0, 0, :] = 0.25
        silent = JointDistribution(mass)
        cfg = TesterConfig(epsilon=0.5, m_override=40, seed=0)
        tau = calibrate_threshold(lambda t: silent, cfg, 120)
        assert 0 < tau < 1e-300

    def test_requires_enough_trials(self):
        cfg = TesterConfig(epsilon=0.5, m_override=40)
        with pytest.raises(TesterInputError):
            calibrate_threshold(lambda t: JointDistribution.uniform(2, 2, 4), cfg, 99)

    def test_one_trial_blocks_give_the_same_tau(self, monkeypatch):
        def null_gen(t):
            return gen_random_ci(2, 2, 40, child_seed(8, t))[0]

        cfg = TesterConfig(epsilon=0.5, m_override=600, seed=41)
        tau = calibrate_threshold(null_gen, cfg, 130)
        monkeypatch.setattr(testers, "_TRIAL_BLOCK_CELLS", 1)
        assert calibrate_threshold(null_gen, cfg, 130) == tau

    def test_one_poisson_call_per_block(self, monkeypatch):
        # 150 trials at n = 100 with binary alphabets: 15 blocks of ten
        # trials, each drawn by one Generator.poisson call over its rates
        calls = []

        def null_gen(t):
            spec = EnsembleSpec("yes_binary_r1", n=100, eps=0.5, m=50, seed=child_seed(11, t))
            return gen_binary_ensemble(spec)[0]

        cfg = TesterConfig(epsilon=0.5, m_override=2000, seed=5)
        tau = calibrate_threshold(null_gen, cfg, 150)
        real = testers.generator
        monkeypatch.setattr(
            testers, "generator",
            lambda *path: TestRunTrials.counting_rng(calls, real(*path).bit_generator),
        )
        assert calibrate_threshold(null_gen, cfg, 150) == tau
        assert calls == [(10, 2, 2, 100)] * 15

    @pytest.mark.parametrize("bad", ["array", "domain"])
    def test_column_refuses_a_trial_before_its_block_draws(self, monkeypatch, bad):
        # blocks of 25 trials on (2, 2, 40); trial 60 is a sample array, or
        # trials from 50 on are on (2, 2, 41): no tau comes from statistics
        # of two domains, and the third block (trials 50-74) never draws
        def null_gen(t):
            p = gen_random_ci(2, 2, 41 if t >= 50 and bad == "domain" else 40, child_seed(8, t))[0]
            return sample_fixed(p, 600, t) if t == 60 and bad == "array" else p

        calls = []
        real = testers.generator
        monkeypatch.setattr(
            testers, "generator",
            lambda *path: TestRunTrials.counting_rng(calls, real(*path).bit_generator),
        )
        cfg = TesterConfig(epsilon=0.5, m_override=600, seed=41)
        with pytest.raises(TesterInputError, match=REFUSALS[bad]):
            calibrate_threshold(null_gen, cfg, 120)
        assert calls == [(25, 2, 2, 40)] * 2

    def test_sample_budget_once_per_column(self, monkeypatch):
        budgets = []
        real = testers.sample_budget

        def counting_budget(cfg, dims):
            budgets.append(dims)
            return real(cfg, dims)

        monkeypatch.setattr(testers, "sample_budget", counting_budget)
        cfg = TesterConfig(epsilon=0.5, seed=41)  # the binary formula's budget
        calibrate_threshold(lambda t: gen_random_ci(2, 2, 40, child_seed(8, t))[0], cfg, 120)
        assert budgets == [(2, 2, 40)]

    def test_exceedance_margin(self, monkeypatch):
        def null_gen(t):
            return gen_random_ci(2, 2, 40, child_seed(8, t))[0]

        cfg = TesterConfig(epsilon=0.5, m_override=600, seed=41)
        trials = 240
        tau = calibrate_threshold(null_gen, cfg, trials)
        # rebuild the stats from the column stream, one trial a block, and
        # check the exceedance rule
        monkeypatch.setattr(testers, "_TRIAL_BLOCK_CELLS", 1)
        column = run_trials(map(null_gen, range(trials)), cfg, generator(cfg.seed, "calibrate"))
        stats = [v.statistic_A for v in column]
        exceed = sum(s > tau for s in stats)
        assert exceed <= trials // 6
        smaller = max(s for s in stats if s < tau)
        assert sum(s > smaller for s in stats) > trials // 6

    def test_stability_under_trial_doubling(self):
        def null_gen(t):
            return gen_random_ci(2, 2, 150, child_seed(9, t))[0]

        cfg = TesterConfig(epsilon=0.5, m_override=3000, seed=4)
        t1 = calibrate_threshold(null_gen, cfg, 800)
        t2 = calibrate_threshold(null_gen, cfg, 1600)
        assert abs(t2 - t1) / t1 < 0.10

    def test_sqrt_n_scaling(self):
        taus = {}
        for n in (100, 1000, 10000):
            def null_gen(t, n=n):
                return gen_random_ci(2, 2, n, child_seed(10, n, t))[0]

            cfg = TesterConfig(
                epsilon=0.5, m_override=20 * n, seed=child_seed(10, "c", n)
            )
            taus[n] = calibrate_threshold(null_gen, cfg, 200)
        ns = np.array(sorted(taus))
        slope = np.polyfit(np.log(ns), np.log([taus[n] for n in ns]), 1)[0]
        assert 0.4 <= slope <= 0.6


class TestEnsembleNullBehaviour:
    def test_yes_ensemble_mean_zero(self):
        stats = []
        for t in range(500):
            inst = gen_binary_ensemble(
                EnsembleSpec("yes_binary_r1", n=100, eps=0.5, m=50, seed=child_seed(11, t))
            )[0]
            cfg = TesterConfig(epsilon=0.5, m_override=2000, seed=child_seed(12, t))
            stats.append(binary_test(inst, cfg).statistic_A)
        stats = np.array(stats)
        se = stats.std(ddof=1) / np.sqrt(len(stats))
        assert abs(stats.mean()) <= 4 * se

    def test_null_variance_scaling_fitted_constant(self):
        fitted = 0.0
        for n in (50, 200):
            m = 20 * n
            stats = []
            for t in range(300):
                inst = gen_binary_ensemble(
                    EnsembleSpec(
                        "yes_binary_r1", n=n, eps=0.5, m=n // 2, seed=child_seed(13, n, t)
                    )
                )[0]
                cfg = TesterConfig(epsilon=0.5, m_override=m, seed=child_seed(14, n, t))
                stats.append(binary_test(inst, cfg).statistic_A)
            fitted = max(fitted, np.var(stats, ddof=1) / min(n, m))
        assert np.isfinite(fitted) and fitted < 5.0


class TestDeskScale:
    """The stated working envelope: n up to 1e5 bins, alphabets up to 1e4 cells."""

    def test_binary_hundred_thousand_bins(self):
        p = JointDistribution.uniform(2, 2, 100_000)
        v = binary_test(p, TesterConfig(epsilon=0.5, m_override=1_000_000, seed=0))
        assert v.accept
        assert len(v.per_bin) > 90_000

    def test_general_ten_thousand_cells(self):
        ci = gen_random_ci(100, 100, 1, 0)[0]
        cfg = TesterConfig(epsilon=0.5, mode="general", m_override=30_000, seed=1)
        assert general_test(ci, cfg).accept
        from cit.instances import gen_random_far

        far = gen_random_far(100, 100, 1, 0.5, 0)[0]
        v = general_test(far, cfg)
        assert not v.accept and v.statistic_A > v.threshold_tau

    def test_anchored_ensembles_end_to_end(self):
        # regime-2 families run through calibration and keep the null rate
        def null_gen(t):
            return gen_binary_ensemble(EnsembleSpec(
                "yes_binary_r2", n=40, eps=0.5, m=16, seed=child_seed(20, t)
            ))[0]

        cfg = TesterConfig(epsilon=0.5, m_override=2000, seed=child_seed(20, "c"))
        tau = calibrate_threshold(null_gen, cfg, 120)
        accepts = 0
        for t in range(120):
            inst = gen_binary_ensemble(EnsembleSpec(
                "yes_binary_r2", n=40, eps=0.5, m=16, seed=child_seed(21, t)
            ))[0]
            sub = TesterConfig(epsilon=0.5, m_override=2000, tau_override=tau,
                               seed=child_seed(22, t))
            accepts += binary_test(inst, sub).accept
        assert accepts / 120 >= 2 / 3


class TestAdversarialFamiliesEndToEnd:
    """Each ensemble family driven through its natural tester."""

    def test_paninski_pair_binary_tester(self):
        from cit.instances import paninski_reduction

        n, eps, m = 64, 0.25, 640

        def null_gen(t):
            return paninski_reduction(4 * n, eps, "uniform", child_seed(30, "i", t))[0]

        cfg = TesterConfig(epsilon=eps, m_override=m, seed=child_seed(30, "c"))
        tau = calibrate_threshold(null_gen, cfg, 120)
        accept = reject = 0
        trials = 120
        for t in range(trials):
            no = paninski_reduction(4 * n, eps, "perturbed", child_seed(31, "i", t))[0]
            reject += not binary_test(no, TesterConfig(
                epsilon=eps, m_override=m, tau_override=tau, seed=child_seed(31, "t", t)
            )).accept
            yes = paninski_reduction(4 * n, eps, "uniform", child_seed(32, "i", t))[0]
            accept += binary_test(yes, TesterConfig(
                epsilon=eps, m_override=m, tau_override=tau, seed=child_seed(32, "t", t)
            )).accept
        assert accept / trials >= 2 / 3
        assert reject / trials >= 2 / 3

    def test_cube_pair_general_tester(self):
        from cit.instances import gen_nnn

        n, m = 16, 8000

        def null_gen(t):
            return gen_nnn(n, False, child_seed(33, "i", t))[0]

        cfg = TesterConfig(epsilon=0.3, mode="general", m_override=m,
                           seed=child_seed(33, "c"))
        tau = calibrate_threshold(null_gen, cfg, 100)
        accept = reject = 0
        trials = 60
        for t in range(trials):
            far = gen_nnn(n, True, child_seed(34, "i", t))[0]
            reject += not general_test(far, TesterConfig(
                epsilon=0.3, mode="general", m_override=m, tau_override=tau,
                seed=child_seed(34, "t", t)
            )).accept
            ci = gen_nnn(n, False, child_seed(35, "i", t))[0]
            accept += general_test(ci, TesterConfig(
                epsilon=0.3, mode="general", m_override=m, tau_override=tau,
                seed=child_seed(35, "t", t)
            )).accept
        assert accept / trials >= 2 / 3
        assert reject / trials >= 2 / 3
