"""The count-tensor l2 kernel and the general tester's count-tensor split,
checked against the exact Fraction path."""

import math
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cit import testers
from cit.flattening import implicit_flattening
from cit.instances import gen_random_far
from cit.poly_estimator import l2_estimator
from cit.testers import TesterConfig, binary_bin_statistics
from cit.testers import test_binary as binary_test
from cit.testers import test_general as general_test

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def reference_general(samples, dims):
    """Per-bin rows (z, sigma, omega, A_z) of the general tester, bin by bin.

    Stable sort by z, flatten each bin with `implicit_flattening`, and
    estimate with the exact `l2_estimator` and `weight_grid_exact()`; only
    the irrational omega_z and the final products are floats.
    """
    l1, l2, n = dims
    ordered = samples[np.argsort(samples[:, 2], kind="stable")]
    rows = []
    for z in range(n):
        pairs = ordered[ordered[:, 2] == z, :2]
        if pairs.shape[0] < 4:
            continue
        t = (pairs.shape[0] - 4) // 4
        t1, t2, sigma = min(t, l1), min(t, l2), 2 * t + 4
        coeffs = implicit_flattening(pairs[: t1 + t2], l1, l2, t1, t2)
        fp = np.zeros((l1, l2), dtype=object)
        for x, y in pairs[t1 + t2 : t1 + t2 + sigma].tolist():
            fp[x, y] += 1
        phi = l2_estimator(fp, coeffs.weight_grid_exact())
        omega = math.sqrt(min(sigma, l1) * min(sigma, l2))
        rows.append((z, sigma, omega, sigma * omega * float(phi)))
    return rows


@st.composite
def count_tensors(draw):
    """(counts (n, l1, l2), row counts b (n, l1), column counts c (n, l2))."""
    n = draw(st.integers(1, 4))
    l1, l2 = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    ints = st.integers(0, 2**31 - 1)
    rng = np.random.default_rng(draw(ints))
    # cell counts mostly small, so bins below 4 samples and empty bins occur
    hi = draw(st.sampled_from([2, 5, 40]))
    counts = rng.integers(0, hi, size=(n, l1, l2))
    return counts, rng.integers(0, 6, size=(n, l1)), rng.integers(0, 6, size=(n, l2))


@st.composite
def sample_arrays(draw):
    """(samples (N, 3) in a random arrival order, dims)."""
    n = draw(st.integers(1, 5))
    l1, l2 = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    # per-bin sizes: empty, below 4, t < l and t >= l all appear
    sizes = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    z = np.repeat(np.arange(n), sizes)
    samples = np.column_stack([rng.integers(0, l1, z.size), rng.integers(0, l2, z.size), z])
    return samples[rng.permutation(z.size)].astype(np.int64), (l1, l2, n)


class TestKernelAgainstExact:
    @PROPERTY
    @given(count_tensors(), st.booleans())
    def test_per_bin_estimates(self, data, weighted):
        counts, b, c = data
        weights = None
        if weighted:
            weights = 1.0 / ((1.0 + b)[:, :, None] * (1.0 + c)[:, None, :])
        sigma, phi = binary_bin_statistics(counts, weights)
        np.testing.assert_array_equal(sigma, counts.sum(axis=(1, 2)))
        for z in range(counts.shape[0]):
            if sigma[z] < 4:
                assert phi[z] == 0.0
                continue
            exact_w = None
            if weighted:
                exact_w = np.array(
                    [[F(1, (1 + int(bx)) * (1 + int(cy))) for cy in c[z]] for bx in b[z]],
                    dtype=object,
                )
            exact = l2_estimator(counts[z].astype(object), exact_w)
            assert abs(F(float(phi[z])) - exact) <= 1e-12


class TestGeneralSplitAgainstReference:
    @PROPERTY
    @given(sample_arrays())
    def test_rows_and_statistic(self, data):
        samples, dims = data
        cfg = TesterConfig(epsilon=0.5, mode="general")
        v = general_test(samples, cfg, dims=dims)
        ref = reference_general(samples, dims)
        assert [row[:3] for row in v.per_bin] == [row[:3] for row in ref]
        scale = sum(abs(row[3]) for row in ref)
        assert abs(v.statistic_A - sum(row[3] for row in ref)) <= 1e-9 * scale + 1e-12
        assert v.M_drawn == v.m_used == samples.shape[0]
        # evaluating the bins one per block changes nothing, bit for bit
        with mock.patch.object(testers, "_BLOCK_CELLS", 1):
            assert general_test(samples, cfg, dims=dims) == v


class TestLargeBin:
    """One 3x3 bin with 2^17 + 3 samples: past 2^15, from where the float
    estimate is no longer always correctly rounded, and past sigma = 55,000,
    where sigma (sigma-1) (sigma-2) (sigma-3) overflows int64 (the general
    tester's test fingerprint holds 65,538 of the samples)."""

    @pytest.fixture(scope="class")
    def samples(self):
        far = gen_random_far(3, 3, 1, 0.5, 0)[0]
        rng = np.random.default_rng(1)
        cells = rng.choice(9, size=2**17 + 3, p=far.mass.ravel())
        return np.column_stack([cells // 3, cells % 3, np.zeros_like(cells)])

    def test_binary_statistic(self, samples):
        v = binary_test(samples, TesterConfig(epsilon=0.5), dims=(3, 3, 1))
        counts = np.bincount(samples[:, 0] * 3 + samples[:, 1], minlength=9).reshape(3, 3)
        exact = samples.shape[0] * l2_estimator(counts.astype(object))
        assert v.per_bin[0][1] == samples.shape[0]
        assert abs(F(v.statistic_A) - exact) <= 1e-12 * abs(exact)

    def test_general_statistic(self, samples):
        v = general_test(samples, TesterConfig(epsilon=0.5, mode="general"), dims=(3, 3, 1))
        ((z, sigma, omega, a_z),) = reference_general(samples, (3, 3, 1))
        assert v.per_bin == ((z, sigma, omega, pytest.approx(a_z, rel=1e-12)),)
        assert sigma == 65538
