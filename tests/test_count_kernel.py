"""The count-tensor l2 kernel and the general tester's one-pass bin
statistics, checked against the exact Fraction path."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cit.flattening import implicit_flattening
from cit.instances import gen_random_far
from cit.poly_estimator import _l2_cell_terms, l2_estimator
from cit.testers import TesterConfig, _general_kernel, binary_bin_statistics
from cit.testers import test_binary as binary_test
from cit.testers import test_general as general_test

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

#: the absolute error `binary_bin_statistics` states for 2x2 bins of 2^15 to
#: 2^22 samples
CLOSED_FORM_ERROR = 6e-17

#: the absolute errors the two kernels state for bins of 2^15 to 2^22
#: samples: `binary_bin_statistics` by alphabet size, `_general_kernel` for all
BINARY_KERNEL_ERROR = {2: CLOSED_FORM_ERROR, 3: 4e-17, 8: 2e-17}
GENERAL_KERNEL_ERROR = 1e-16


def four_term_phi(counts):
    """Phi of the bins of a (2, 2, n) count tensor by the general-shape
    formula: a bin's four `_l2_cell_terms` added in C cell order from 0.0,
    over sigma (sigma-1) (sigma-2) (sigma-3) formed in float."""
    c = counts.astype(float)
    sigma = c.sum(axis=(0, 1))
    terms = _l2_cell_terms(c, c.sum(axis=1, keepdims=True), c.sum(axis=0, keepdims=True), sigma)
    raw = 0.0
    for term in terms.reshape(4, -1):
        raw = raw + term
    den = sigma * (sigma - 1) * (sigma - 2) * (sigma - 3)
    return np.where(sigma >= 4, raw / np.where(sigma >= 4, den, 1.0), 0.0)


def random_binary_bins(rng, size, count):
    """A (2, 2, count) tensor of bins of `size` samples each, from random tables."""
    tables = rng.dirichlet(np.ones(4), size=count)
    return np.stack([rng.multinomial(size, t) for t in tables], axis=1).reshape(2, 2, count)


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
    """A count tensor (l1, l2, n)."""
    n = draw(st.integers(1, 4))
    l1, l2 = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    ints = st.integers(0, 2**31 - 1)
    rng = np.random.default_rng(draw(ints))
    # cell counts mostly small, so bins below 4 samples and empty bins occur
    hi = draw(st.sampled_from([2, 5, 40]))
    return rng.integers(0, hi, size=(l1, l2, n))


@st.composite
def large_count_tensors(draw):
    """(counts (l, l, n), neighbours (l, l, k)) with l in {3, 8}, n in
    [1, 4] and k in [1, 3], every bin holding 10^4 to 10^6 samples: enough
    for the kernel's cell sums to round."""
    l = draw(st.sampled_from([3, 8]))
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    sizes = rng.integers(10**4, 10**6, size=n + k, endpoint=True)
    tables = rng.dirichlet(np.ones(l * l), size=n + k)
    bins = np.stack([rng.multinomial(s, t) for s, t in zip(sizes, tables)], axis=1)
    bins = bins.reshape(l, l, n + k)
    return bins[:, :, :n], bins[:, :, n:]


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


@st.composite
def wide_sample_arrays(draw):
    """(samples (N, 3), dims) with l1, l2 in [6, 40] and at most 3 bins, in
    a random arrival order that keeps each bin's own order.  Some bins have
    2t + 4 <= min(l1, l2) test samples on distinct rows and columns, so
    that every test row and column sum is 0 or 1."""
    n = draw(st.integers(1, 3))
    l1, l2 = draw(st.integers(6, 40)), draw(st.integers(6, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    pairs = []
    for _ in range(n):
        if draw(st.booleans()):
            t = draw(st.integers(0, (min(l1, l2) - 4) // 2))
            flat = rng.integers(0, [l1, l2], size=(2 * t, 2))
            test = [rng.permutation(l1)[: 2 * t + 4], rng.permutation(l2)[: 2 * t + 4]]
            pairs.append(np.concatenate([flat, np.column_stack(test)]))
        else:
            pairs.append(rng.integers(0, [l1, l2], size=(draw(st.integers(0, 300)), 2)))
    z = rng.permutation(np.repeat(np.arange(n), [p.shape[0] for p in pairs]))
    samples = np.column_stack([np.zeros((z.size, 2), dtype=np.int64), z])
    for zb, p in enumerate(pairs):
        samples[z == zb, :2] = p
    return samples, (l1, l2, n)


class TestKernelAgainstExact:
    @PROPERTY
    @given(count_tensors())
    def test_per_bin_estimates(self, counts):
        sigma, phi = binary_bin_statistics(counts)
        np.testing.assert_array_equal(sigma, counts.sum(axis=(0, 1)))
        for z in range(counts.shape[2]):
            if sigma[z] < 4:
                assert phi[z] == 0.0
                continue
            exact = l2_estimator(counts[:, :, z].astype(object))
            assert abs(F(float(phi[z])) - exact) <= 1e-12


class TestKernelSummationOrder:
    """A bin's Phi depends only on its own counts: not on the tensor's
    layout, its number of bins or the bins around it."""

    @PROPERTY
    @given(large_count_tensors())
    def test_phi_bytes(self, data):
        counts, neighbours = data
        n = counts.shape[2]
        want = binary_bin_statistics(np.ascontiguousarray(counts))[1].tobytes()
        bins_outermost = np.ascontiguousarray(counts.transpose(2, 0, 1)).transpose(1, 2, 0)
        assert binary_bin_statistics(bins_outermost)[1].tobytes() == want
        slices = [binary_bin_statistics(counts[:, :, z : z + 1])[1] for z in range(n)]
        assert np.concatenate(slices).tobytes() == want
        j = neighbours.shape[2] // 2
        stack = np.concatenate([neighbours[:, :, :j], counts, neighbours[:, :, j:]], axis=2)
        for layout in (stack, np.ascontiguousarray(stack.transpose(2, 0, 1)).transpose(1, 2, 0)):
            assert binary_bin_statistics(layout)[1][j : j + n].tobytes() == want


class TestBinaryClosedForm:
    """The 2x2 closed form against the general-shape four-term sum: the
    same bytes up to 2^14 samples, the stated error beyond."""

    def test_every_small_bin_matches_four_term_sum(self):
        # every 2x2 fingerprint of at most 40 samples, empty and sub-4 bins included
        counts = np.array([
            (a, b, c, s - a - b - c)
            for s in range(41) for a in range(s + 1) for b in range(s - a + 1)
            for c in range(s - a - b + 1)
        ]).T.reshape(2, 2, -1)
        assert binary_bin_statistics(counts)[1].tobytes() == four_term_phi(counts).tobytes()

    def test_bins_up_to_2_14_samples_match_four_term_sum(self):
        rng = np.random.default_rng(3)
        counts = np.concatenate(
            [random_binary_bins(rng, 2**k, 500) for k in range(2, 15)]
            # the largest products: all samples on one diagonal, in one cell or one row
            + [np.array([[[2**13, 0], [0, 2**13]], [[0, 2**13], [2**13, 0]],
                         [[2**14, 0], [0, 0]], [[2**13, 2**13], [0, 0]],
                         [[2**13 - 1, 1], [1, 2**13 - 1]]]).transpose(1, 2, 0)],
            axis=2,
        )
        assert binary_bin_statistics(counts)[1].tobytes() == four_term_phi(counts).tobytes()

    def test_large_bins_within_stated_error(self):
        rng = np.random.default_rng(4)
        counts = np.concatenate(
            [random_binary_bins(rng, 2**k, 150) for k in range(15, 23)], axis=2
        )
        phi = binary_bin_statistics(counts)[1]
        errors = [
            abs(F(float(v)) - l2_estimator(counts[:, :, z].astype(object)))
            for z, v in enumerate(phi)
        ]
        assert max(errors) <= CLOSED_FORM_ERROR
        # the cell sums round here, so the closed form is a different float path
        assert phi.tobytes() != four_term_phi(counts).tobytes()


def random_square_bins(rng, ell, sizes):
    """An (ell, ell, len(sizes)) tensor of bins of sizes[z] samples each,
    from random tables."""
    tables = rng.dirichlet(np.ones(ell * ell), size=len(sizes))
    bins = [rng.multinomial(size, table) for size, table in zip(sizes, tables)]
    return np.stack(bins, axis=1).reshape(ell, ell, len(sizes))


def unit_weight_general_phi(counts):
    """`_general_kernel`'s Phi of the bins of an (l1, l2, n) count tensor at
    unit weights (1 + b = 1 + c = 1), with sigma the bin totals and the
    occupied cells as ascending bin-major codes."""
    l1, l2, n = counts.shape
    bin_major = counts.transpose(2, 0, 1).ravel()
    cells = np.flatnonzero(bin_major)
    sigma = counts.sum(axis=(0, 1))
    return _general_kernel(sigma, np.ones(n * l1), np.ones(n * l2), cells, bin_major[cells],
                           l1, l2)


class TestKernelsAgree:
    """The general kernel at unit weights against the binary kernel, each
    an oracle for the other: the same Phi bytes on bins of up to 2^14
    samples, and within the two kernels' stated errors beyond."""

    @pytest.mark.parametrize("ell", [2, 3, 8])
    def test_same_phi_bytes_up_to_2_14_samples(self, ell):
        rng = np.random.default_rng(40 + ell)
        # every size from 4 to 64, random sizes up to 2^14 on a log scale,
        # 2^14 itself and empty bins (the general tester's sigma is 0 or >= 4)
        sizes = np.concatenate([
            np.arange(4, 65), np.unique(np.round(2 ** rng.uniform(6, 14, 600))), [2**14, 0, 0],
        ]).astype(np.int64)
        counts = random_square_bins(rng, ell, rng.permutation(sizes))
        phi = binary_bin_statistics(counts)[1]
        assert unit_weight_general_phi(counts).tobytes() == phi.tobytes()
        # bins in one cell, on one diagonal and in one row: the largest products
        edge = np.zeros((ell, ell, 3), dtype=np.int64)
        edge[0, 0, 0] = 2**14
        edge[np.arange(ell), np.arange(ell), 1] = 2**14 // ell
        edge[0, :, 2] = 2**14 // ell
        assert unit_weight_general_phi(edge).tobytes() == binary_bin_statistics(edge)[1].tobytes()

    @pytest.mark.parametrize("ell", [2, 3, 8])
    def test_larger_bins_within_stated_errors(self, ell):
        rng = np.random.default_rng(50 + ell)
        sizes = np.repeat(2 ** np.arange(15, 23), 40)
        counts = random_square_bins(rng, ell, sizes)
        diff = unit_weight_general_phi(counts) - binary_bin_statistics(counts)[1]
        assert np.abs(diff).max() <= BINARY_KERNEL_ERROR[ell] + GENERAL_KERNEL_ERROR


class TestGeneralSplitAgainstReference:
    @PROPERTY
    @given(sample_arrays())
    def test_rows_and_statistic(self, data):
        self.check(*data)

    @PROPERTY
    @given(wide_sample_arrays())
    def test_wide_alphabets(self, data):
        self.check(*data)

    @staticmethod
    def check(samples, dims):
        cfg = TesterConfig(epsilon=0.5, mode="general")
        v = general_test(samples, cfg, dims=dims)
        ref = reference_general(samples, dims)
        assert [row[:3] for row in v.per_bin] == [row[:3] for row in ref]
        scale = sum(abs(row[3]) for row in ref)
        assert abs(v.statistic_A - sum(row[3] for row in ref)) <= 1e-9 * scale + 1e-12
        assert v.M_drawn == v.m_used == samples.shape[0]


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
