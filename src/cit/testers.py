"""Conditional-independence testers and their sample-size formulas.

`sample_budget` maps a configuration and a domain to its sample budget.
`run_trials` runs a column of trials, distributions on one domain, one
trial or one block of trials at a time; `run_tester` and the per-mode
entry points are its one-trial case, and also take a sample file.

Both testers group Poisson(m) samples from a distribution, or the rows of
a sample file, by the conditioning coordinate z, and for every bin with at
least four samples compute an unbiased estimate of the (possibly
rescaled) squared l2 distance between the conditional table and the
product of its marginals.  The weighted sum A of the bin statistics is
compared against a threshold tau that scales like sqrt(min(n, m)); the
tester accepts exactly when A <= tau (ties accept).

The binary tester weights each bin estimate by its sample count and is
meant for small fixed alphabets (l1, l2 <= 8).  The general tester first
spends part of each bin's samples flattening the two marginals, weights
by count times the flattening amount, and weights each cell of the
estimator by the rank-1 flattening grid.  Each tester reads a bin only
through counts, so from a distribution both draw counts, never samples:
the binary tester per-cell Poisson counts, the general tester each bin's
Poisson size and its flattening and test counts (`_drawn_split`).  A
sample file reaches the same counts: the binary tester bincounts its rows,
and the general tester splits each bin's rows in arrival order
(`_phase_split`).  `binary_bin_statistics` and `_general_kernel` evaluate
the bins.

The multiplicative constants (beta for the binary sample size, zeta for
the general sample size and for both thresholds) are exposed
configuration: the guarantees only assert that sufficiently large
constants exist, and desk-scale power needs empirically fitted values or
a calibrated threshold (`calibrate_threshold`).
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from itertools import chain, islice

import numpy as np

from .dist_core import (
    DistributionError,
    JointDistribution,
    _runs,
    conditional_cell_counts,
    poissonized_count_tensor,
)
from .poly_estimator import _l2_cell_terms
from .seeding import generator

_MODES = ("binary", "general", "cmi")

#: count cells per block of a binary or cmi column: `run_trials` draws and
#: tests k = max(1, 2^12 // (l1 l2 n)) trials at a time (10 at n = 100 with
#: binary alphabets); a bound, not a knob: larger blocks only add memory
_TRIAL_BLOCK_CELLS = 1 << 12

#: largest sample budget drawn from a distribution: the drawn counts and
#: each trial's total M are int64, which a Poisson total stays far below
#: for m <= 2^62
_MAX_BUDGET = 1 << 62

#: most trials a calibration or a power plan column runs: every trial builds
#: and tests its own instance, so no larger count finishes, and the per-trial
#: arrays (8 bytes a trial) would pass numpy's index range or memory first
MAX_TRIALS = 10**9

#: fewest trials a calibration runs, in `calibrate_threshold` and in a power plan
MIN_CALIBRATION_TRIALS = 100


class TesterInputError(ValueError):
    """Bad tester configuration or sample input."""


@dataclass(frozen=True)
class TesterConfig:
    """Tuning knobs shared by the testers.

    `beta` multiplies the binary sample-size formula; `zeta` multiplies the
    general sample-size formula and sets the acceptance threshold
    (zeta * sqrt(min(n, m)) for the binary tester, zeta^{1/4} * sqrt(min(n, m))
    for the general one).  `m_override` / `tau_override` pin the sample
    budget / threshold directly, e.g. to a calibrated value; beta and zeta
    must be finite and positive, and a pinned threshold finite.  A budget of 0
    draws no samples (the tester accepts); `sample_budget` refuses one
    above 2^62, since the drawn counts are int64; on fixed-sample input
    `m_override` cuts the file to its first rows and must be at least 1
    (a file of no rows, with no override, accepts).
    `seed` is a non-negative int: a verdict draws from `default_rng(seed)`,
    and a calibration from `generator(seed, "calibrate")`.  `mode`
    selects the tester; cmi mode runs the binary tester at the budget of
    eps' = epsilon / log2(1/epsilon) (see `sample_budget`).
    """

    epsilon: float
    mode: str = "binary"
    beta: float = 2.0
    zeta: float = 2.0
    m_override: int | None = None
    tau_override: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in _MODES:
            raise TesterInputError(f"mode must be one of {_MODES}")
        if self.mode == "cmi":
            if not 0 < self.epsilon < 0.5:
                raise TesterInputError("cmi mode needs epsilon in (0, 1/2)")
        elif not 0 < self.epsilon <= 1.0:
            raise TesterInputError(f"epsilon must lie in (0, 1] for mode {self.mode}")
        if not (0 < self.beta < math.inf and 0 < self.zeta < math.inf):
            raise TesterInputError("beta and zeta must be finite and > 0")
        if self.tau_override is not None and not math.isfinite(self.tau_override):
            raise TesterInputError("tau_override must be finite")
        if self.m_override is not None and self.m_override < 0:
            raise TesterInputError("m_override must be >= 0")
        int_seed = isinstance(self.seed, (int, np.integer)) and not isinstance(self.seed, bool)
        if not (int_seed and self.seed >= 0):
            raise TesterInputError(f"seed must be a non-negative int, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class Verdict:
    """Tester outcome: accept iff statistic_A <= threshold_tau.

    `bins` holds columns (sigma_z, omega_z, A_z) over every bin z, numpy
    arrays or any sequences: the bin's estimator sample count, its extra
    weight factor (1 for the binary tester) and its term of statistic_A.
    `per_bin` lists the bins that contributed (sigma_z >= 4), ascending, as
    rows (z, sigma_z, omega_z, A_z) of Python scalars, built on first read
    (`to_json` reads it; the harness reads only A and the flag).  Verdicts
    are equal when their scalar fields and `per_bin` are.
    """

    statistic_A: float
    threshold_tau: float
    m_used: int
    M_drawn: int
    bins: tuple

    @property
    def accept(self) -> bool:
        return self.statistic_A <= self.threshold_tau

    @cached_property
    def per_bin(self) -> tuple:
        sigma, omega, a_z = map(np.asarray, self.bins)
        z = np.flatnonzero(sigma >= 4)
        return tuple(zip(z.tolist(), sigma[z].tolist(), omega[z].tolist(), a_z[z].tolist()))

    def _key(self) -> tuple:
        return (self.statistic_A, self.threshold_tau, self.m_used, self.M_drawn, self.per_bin)

    def __eq__(self, other):
        if not isinstance(other, Verdict):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def to_json(self) -> str:
        payload = {
            "accept": self.accept,
            "statistic_A": self.statistic_A,
            "threshold_tau": self.threshold_tau,
            "m_used": self.m_used,
            "M_drawn": self.M_drawn,
            "per_bin": [list(row) for row in self.per_bin],
        }
        return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# Sample-size formulas
# ---------------------------------------------------------------------------


def sample_complexity_binary_raw(
    n: int, eps: float, beta: float = 1.0, *, ell1: int = 2, ell2: int = 2
) -> float:
    """The un-ceiled binary sample-size formula
    beta * max(sqrt(n)/e'^2, min(n^{7/8}/e', n^{6/7}/e'^{8/7})) with
    e' = eps / sqrt(ell1 * ell2)."""
    if n < 1:
        raise TesterInputError("n must be >= 1")
    ep = eps / math.sqrt(ell1 * ell2)
    if ep <= 0:
        raise TesterInputError("effective epsilon must be > 0")
    return beta * max(
        math.sqrt(n) / ep**2,
        min(n ** (7 / 8) / ep, n ** (6 / 7) / ep ** (8 / 7)),
    )


def sample_complexity_binary(
    n: int, eps: float, beta: float = 1.0, *, ell1: int = 2, ell2: int = 2
) -> int:
    """Ceiling of `sample_complexity_binary_raw`; three regimes in eps."""
    with _finite_budget(eps):
        return math.ceil(sample_complexity_binary_raw(n, eps, beta, ell1=ell1, ell2=ell2))


@contextmanager
def _finite_budget(eps: float):
    """A sample-size formula's overflow at a tiny eps, as a TesterInputError."""
    try:
        yield
    except (ZeroDivisionError, OverflowError) as exc:
        raise TesterInputError(f"sample budget at epsilon {eps!r} is not finite") from exc


def sample_complexity_general(n: int, ell1: int, ell2: int, eps: float, zeta: float = 1.0) -> int:
    """Ceiling of zeta times the general sample-size formula, a max of four
    mins covering the bin-weight regimes.  Swaps the alphabet sizes so
    l1 >= l2."""
    if n < 1 or ell1 < 1 or ell2 < 1:
        raise TesterInputError("dimensions must be >= 1")
    if not 0 < eps <= 1:
        raise TesterInputError("eps must lie in (0, 1]")
    l1, l2 = max(ell1, ell2), min(ell1, ell2)
    e = eps
    with _finite_budget(eps):
        return math.ceil(zeta * max(
            min(
                n ** (7 / 8) * (l1 * l2) ** (1 / 4) / e,
                n ** (6 / 7) * (l1 * l2) ** (2 / 7) / e ** (8 / 7),
                n * (l1 * l2) ** 0.5 / e,
            ),
            min(
                n ** (3 / 4) * (l1 * l2) ** 0.5 / e,
                l1**2 * l2**2 / e**4,
                n * l1**0.5 * l2**1.5 / e,
            ),
            min(
                n ** (2 / 3) * l1 ** (2 / 3) * l2 ** (1 / 3) / e ** (4 / 3),
                l1 * l2 / e**4,
                n**0.5 * l1 * l2**0.5 / e**2,
                n * l1**1.5 * l2**0.5 / e,
            ),
            min((n * l1 * l2) ** 0.5 / e**2, l1 * l2 / e**4),
        ))


def sample_budget(cfg: TesterConfig, dims) -> int:
    """The sample budget of the tester `cfg.mode` on the (l1, l2, n) domain
    `dims`: `m_override` when set, else the general formula at (epsilon,
    zeta) in general mode, and the binary formula at beta and epsilon
    (binary mode) or eps' = epsilon / log2(1/epsilon) (cmi mode).

    It holds every refusal of a (cfg, dims) pair, as a TesterInputError:
    a budget that is not finite, or above 2^62 (the drawn counts are
    int64); cmi mode off 2 x 2; binary or cmi mode with an alphabet above
    8.  Each run checks its inputs here, and a power plan checks each of
    its cells here before any runs."""
    l1, l2, n = dims
    if cfg.m_override is not None:
        m = cfg.m_override
    elif cfg.mode == "general":
        m = sample_complexity_general(n, l1, l2, cfg.epsilon, cfg.zeta)
    else:
        eps = cfg.epsilon
        if cfg.mode == "cmi":
            eps = eps / math.log2(1.0 / eps)
        m = sample_complexity_binary(n, eps, cfg.beta, ell1=l1, ell2=l2)
    if m > _MAX_BUDGET:
        raise TesterInputError(f"sample budget {m} above 2^62: its counts would overflow int64")
    if cfg.mode == "cmi" and (l1, l2) != (2, 2):
        raise TesterInputError("cmi mode requires binary X and Y")
    if cfg.mode != "general" and (l1 > 8 or l2 > 8):
        raise TesterInputError("binary tester supports alphabet sizes up to 8")
    return m


# ---------------------------------------------------------------------------
# Bin statistics
# ---------------------------------------------------------------------------


def binary_bin_statistics(counts: np.ndarray):
    """Per-bin sample counts sigma_z and l2 estimates Phi_z.

    `counts` is an (l1, l2, n) tensor of per-bin fingerprints, the layout
    of `JointDistribution.mass`, in any memory order.  Phi_z is the
    unbiased l2 estimate of bin z, and 0 for bins with fewer than 4
    samples.  The binary and cmi testers evaluate their bins here; the
    general tester's weighted estimates come from `_general_kernel`.

    Arithmetic is in double precision, with the denominator
    sigma (sigma-1) (sigma-2) (sigma-3) formed in float (never int64, which
    overflows near sigma = 55,000).  Phi_z depends on bin z's counts alone.

    A 2x2 bin (a, b; c, d) has four equal cell terms T, so its Phi is
    4 T / (sigma (sigma-1) (sigma-2) (sigma-3)), with T in the closed form
    (ad - bc)^2 - ad (a + d - 1) - bc (b + c - 1).  Up to 2^14 samples
    every step is exact, so Phi_z has the bytes of the four-term sum and is
    the correctly rounded exact value (Fraction path).  From 2^15 to 2^22
    samples (8,000 random bins per size) its absolute error stays below
    6e-17 (at most 4.7e-17 seen), where 4 to 67% of the bins differ from
    the four-term sum in their last digits.

    Other shapes add their cell terms (`_l2_cell_terms`) one after another
    in C cell order.  On random 3x3 and 8x8 bins (300 per size), Phi_z is
    the correctly rounded exact value up to 2^14 samples; from 2^15 to 2^22
    samples its absolute error stays below 4e-17 and 2e-17.
    """
    c = np.ascontiguousarray(counts, dtype=float)
    sigma = c.sum(axis=(0, 1))
    if c.shape[:2] == (2, 2):
        a, b, c10, d = c[0, 0], c[0, 1], c[1, 0], c[1, 1]
        ad, bc = a * d, b * c10
        raw = 4 * ((ad - bc) ** 2 - ad * (a + d - 1) - bc * (b + c10 - 1))
    else:
        rows, cols = c.sum(axis=1, keepdims=True), c.sum(axis=0, keepdims=True)
        # from +0.0, as numpy's sums start: a bin whose terms are all -0.0 gets 0.0
        raw = reduce(np.add, _l2_cell_terms(c, rows, cols, sigma).reshape(-1, sigma.size), 0.0)
    active = sigma >= 4
    den = np.where(active, sigma * (sigma - 1) * (sigma - 2) * (sigma - 3), 1.0)
    return sigma.astype(np.int64), np.where(active, raw / den, 0.0)


def _phases(sizes, l1: int, l2: int):
    """(t1, t2, sigma) per bin for bins of sizes[z] samples: a bin of
    4 + 4t or more flattens its rows with min(t, l1) samples and its columns
    with min(t, l2), and tests with sigma = 2t + 4; a bin of fewer than 4
    samples uses none."""
    t = (sizes - 4) // 4
    on = t >= 0
    t *= on
    return np.minimum(t, l1), np.minimum(t, l2), (2 * t + 4) * on


def _phase_split(codes, l1: int, l2: int, n: int):
    """The general tester's split of bin-major flat cell codes
    z l1 l2 + x l2 + y in arrival order, as `_general_kernel` takes it:
    (sigma, 1 + b, 1 + c, cells, counts) with the row counts b over flat
    (bin, x) rows z l1 + x, the column counts c over flat (bin, y) columns
    z l2 + y and the occupied test cells as ascending codes.  In arrival
    order, a bin's samples flatten its rows, then its columns, then test;
    the rest go unused (`_phases`).  `codes` is sorted by z in place, so
    the caller's array is the only copy held."""
    # stable sort by z keeps each bin's samples in arrival order; numpy
    # radix-sorts keys of 16 bits or fewer, and a stable sort's permutation
    # does not depend on the key dtype
    z = (codes // (l1 * l2)).astype(np.min_scalar_type(n - 1))
    sizes = np.bincount(z, minlength=n)
    codes[:] = codes[np.argsort(z, kind="stable")]
    del z
    t1, t2, sigma = _phases(sizes, l1, l2)
    runs = np.vstack([t1, t2, sigma, sizes - t1 - t2 - sigma])
    # each sample's phase: 0 rows, 1 columns, 2 test, 3 unused
    phase = np.repeat(np.tile(np.arange(4, dtype=np.int8), n), runs.T.ravel())
    wb = 1.0 + np.bincount(codes[phase == 0] // l2, minlength=n * l1)
    cols = codes[phase == 1]
    wc = 1.0 + np.bincount(cols // (l1 * l2) * l2 + cols % l2, minlength=n * l2)
    cells, f = np.unique(codes[phase == 2], return_counts=True)
    return sigma, wb, wc, cells, f


def _drawn_split(p: JointDistribution, m: int, rng: np.random.Generator):
    """(M, split) for a draw from `p` at budget m: bin z's size
    s_z ~ Poisson(m p_Z(z)), its total M, and the split `_phase_split`
    makes of s_z samples in arrival order, drawn as counts
    (`conditional_cell_counts`).  Given s_z, the flattening and test counts
    of a bin are independent multinomials over p(x, y | z), since arrivals
    are i.i.d., so the split is equal in law to the phase split of
    `sample_poissonized` rows, with no sample array."""
    l1, l2, n = p.dims
    sizes = rng.poisson(m * p.z_marginal)
    t1, t2, sigma = _phases(sizes, l1, l2)
    (rows, b), (cols, c), (cells, f) = conditional_cell_counts(p, (t1, t2, sigma), rng)
    wb = 1.0 + np.bincount(rows // l2, weights=b, minlength=n * l1)
    wc = 1.0 + np.bincount(cols // (l1 * l2) * l2 + cols % l2, weights=c, minlength=n * l2)
    return int(sizes.sum()), (sigma, wb, wc, cells, f)


def _general_kernel(sigma, wb, wc, cells, f, l1: int, l2: int):
    """Phi of the general tester (see `test_general`) per bin, from a split
    (`_phase_split`, `_drawn_split`) whose cells ascend: every bin's l2
    estimate, 0 for a bin of fewer than 4 samples (the contract of
    `binary_bin_statistics`).

    The cell weights 1/((1 + b_x)(1 + c_y)) are rank-1 and an empty cell's
    term is R_x (R_x-1) C_y (C_y-1), for the test fingerprint's row and
    column sums R and C, so a bin's raw sum is
    (sum_x R_x (R_x-1)/(1+b_x)) (sum_y C_y (C_y-1)/(1+c_y)) plus, over the
    occupied cells, (term - R_x (R_x-1) C_y (C_y-1)) / ((1+b_x)(1+c_y)),
    in O(cells + n (l1 + l2)) work and memory for n bins.  The two parts
    cancel where most cells are occupied: against the exact `l2_estimator`
    on random bins of 2^4 to 2^22 samples (2x2 to 40x40 tables), the
    absolute error of Phi stays below 1e-16.  Occupied rows and columns,
    in ascending order, are the nonzero slots of a bincount over the n l1
    rows and n l2 columns, with no sort.  Where those slots are more than
    twice the occupied cells, as in a sparse sample file, sorting the
    cells' rows and columns costs less, and they are sorted instead; the
    sums and Phi are the same either way.
    """
    n = sigma.size
    # each occupied cell's bin, row and column
    zc, cx = cells // (l1 * l2), cells // l2
    cy = zc * l2 + cells % l2
    f = f.astype(float)

    def occupied(slots, size):
        # the occupied slots, ascending, their count sums and each cell's slot position
        if size > 2 * slots.size:
            # slots far outnumber the cells: sorting the cells is cheaper
            found, position = np.unique(slots, return_inverse=True)
            return found, position, np.bincount(position, weights=f)
        sums = np.bincount(slots, weights=f, minlength=size)
        hit = sums > 0
        return np.flatnonzero(hit), np.cumsum(hit)[slots] - 1, sums[hit]

    rows, ri, row_sums = occupied(cx, n * l1)
    cols, ci, col_sums = occupied(cy, n * l2)
    row_terms = row_sums * (row_sums - 1) / wb[rows]
    col_terms = col_sums * (col_sums - 1) / wc[cols]
    s = sigma.astype(float)
    cell = _l2_cell_terms(f, row_sums[ri], col_sums[ci], s[zc]) / (wb[cx] * wc[cy])

    def per_bin(keys, values):
        # pairwise sums per ascending bin index: running sums lose digits
        first = _runs(keys)[:-1]
        sums = np.zeros(n)
        sums[keys[first]] = np.add.reduceat(values, first)
        return sums

    raw = per_bin(rows // l1, row_terms) * per_bin(cols // l2, col_terms)
    raw += per_bin(zc, cell - row_terms[ri] * col_terms[ci])
    return raw / np.where(sigma > 0, s * (s - 1) * (s - 2) * (s - 3), 1.0)


# ---------------------------------------------------------------------------
# Testers
# ---------------------------------------------------------------------------


def _sample_codes(source, cfg, dims):
    """(m, codes) of a fixed (N, 3) sample array on the domain `dims`.

    The array needs explicit `dims` and in-range integer indices; it is cut
    to its first `m_override` rows when set (at least 1), m is its row
    count, and codes are its rows in order as bin-major flat cell codes
    z l1 l2 + x l2 + y, the codes `conditional_cell_counts` returns.  The
    array passes `sample_budget`'s refusals of the tester's domain.
    """
    if dims is None:
        raise TesterInputError("fixed-sample input needs explicit dims (l1, l2, n)")
    raw = np.asarray(source)
    samples = raw.astype(np.int64, copy=False)
    # an int64 array is used as it is; any other must hold only integers
    if samples is not raw and not np.array_equal(samples, raw):
        raise TesterInputError("sample indices must be integers")
    if samples.size == 0:
        samples = samples.reshape(0, 3)
    if samples.ndim != 2 or samples.shape[1] != 3:
        raise TesterInputError("samples must be an (N, 3) array")
    if cfg.m_override is not None:
        if cfg.m_override < 1:
            raise TesterInputError("fixed-sample input needs m_override >= 1")
        if samples.shape[0] < cfg.m_override:
            raise TesterInputError(
                f"requested {cfg.m_override} samples, file provides {samples.shape[0]}"
            )
        samples = samples[: cfg.m_override]
    l1, l2, n = dims
    x, y, z = samples.T
    try:
        codes = np.ravel_multi_index((z, x, y), (n, l1, l2))
    except ValueError:
        # the range check is numpy's; dims too large to index keep its message
        if ((samples < 0) | (samples >= dims)).any():
            raise DistributionError("sample indices outside the declared domain") from None
        raise
    # a file's budget is its row count, which sample_budget then checks
    return sample_budget(replace(cfg, m_override=samples.shape[0]), dims), codes


def _threshold(cfg: TesterConfig, n: int, m: int) -> float:
    """The threshold tau of the tester `cfg.mode` on n bins at budget m:
    `tau_override`, else zeta (binary, cmi) or zeta^{1/4} (general) times
    sqrt(min(n, m))."""
    tau = cfg.tau_override
    if tau is None:
        tau = (cfg.zeta**0.25 if cfg.mode == "general" else cfg.zeta) * math.sqrt(min(n, m))
    return float(tau)


def run_tester(source, cfg: TesterConfig, dims=None) -> Verdict:
    """The verdict of the tester `cfg.mode` on `source`, seeded with
    `cfg.seed`: a JointDistribution is the one-trial case of `run_trials`.
    A fixed (N, 3) sample array on the domain `dims` draws nothing: the
    binary tester bincounts its codes (`_sample_codes`) into the count
    tensor a draw gives, and the general tester splits them
    (`_phase_split`); the verdict is assembled as a draw's is.  A
    distribution off a given `dims` is a TesterInputError."""
    if isinstance(source, JointDistribution):
        _trial_domain(source, dims)
        [verdict] = run_trials([source], cfg, cfg.seed)
        return verdict
    m, codes = _sample_codes(source, cfg, dims)
    l1, l2, n = dims
    tau = _threshold(cfg, n, m)
    if cfg.mode == "general":
        return _general_verdict(tau, dims, m, m, _phase_split(codes, l1, l2, n))
    # an (n, l1, l2) bincount, passed as the (1, l1, l2, n) layout of a draw
    counts = np.bincount(codes, minlength=l1 * l2 * n).reshape(1, n, l1, l2)
    [verdict] = _binary_verdicts(tau, m, counts.transpose(0, 2, 3, 1))
    return verdict


def test_binary(source, cfg: TesterConfig, dims=None) -> Verdict:
    """Count-weighted conditional-independence tester for small alphabets.

    `source` is a JointDistribution (Poissonized sampling with the config
    seed) or an (N, 3) sample array with explicit `dims`, in which case the
    whole file is used and per-bin counts are multinomial rather than
    Poisson (a documented approximation; the statistic conditions on the
    counts either way).  The statistic is the sum over bins with at least
    4 samples of sigma_z times the unit-weight l2 estimate.  This is
    `run_tester` in binary mode.
    """
    return run_tester(source, replace(cfg, mode="binary"), dims)


def test_general(source, cfg: TesterConfig, dims=None) -> Verdict:
    """Flattened conditional-independence tester for arbitrary alphabets.

    In arrival order, a bin of 4 + 4t or more samples flattens its
    marginals with its leading min(t, l1) + min(t, l2) samples, giving row
    counts b and column counts c, and estimates the rescaled squared l2
    distance from the next 2t + 4 samples with weights
    1/((1 + b_x)(1 + c_y)) = 1/(1 + a_xy).  From a JointDistribution each
    bin draws its Poisson size and then b, c and its test counts directly,
    equal in law to splitting Poissonized samples (`_drawn_split`); a fixed
    (N, 3) array with explicit `dims` is stably sorted by z once and split
    (`_phase_split`).  One kernel evaluates all the bins of either split
    (`_general_kernel`).  The bin weight is sigma_z * omega_z with
    sigma_z = 2t + 4 and omega_z = sqrt(min(sigma_z, l1) * min(sigma_z, l2)).
    This is `run_tester` in general mode.
    """
    return run_tester(source, replace(cfg, mode="general"), dims)


def test_cmi(source, cfg: TesterConfig, dims=None) -> Verdict:
    """Distinguish zero conditional mutual information from
    CMI >= cfg.epsilon (binary X and Y) by running the binary TV tester at
    the budget of eps' = epsilon / log2(1/epsilon).  This is `run_tester`
    in cmi mode."""
    return run_tester(source, replace(cfg, mode="cmi"), dims)


def _trial_domain(p, dims=None):
    """The domain of trial `p`, a TesterInputError unless `p` is a
    JointDistribution on `dims` (on any domain when `dims` is None)."""
    if not isinstance(p, JointDistribution):
        raise TesterInputError(f"a trial must be a JointDistribution, not {type(p).__name__}")
    if dims is not None and p.dims != dims:
        raise TesterInputError(f"a trial on {p.dims} in a column on {dims}")
    return p.dims


def run_trials(dists, cfg: TesterConfig, rng):
    """Yield one Verdict per JointDistribution in `dists`, in order: the
    verdict of the tester `cfg.mode` on it.

    A column is one domain: every trial must be on the first one's
    (l1, l2, n), and the column's budget m (`sample_budget`, with its
    refusals) and threshold (`_threshold`) are worked out once.  `dists`
    may be a lazy iterable, consumed one block ahead of the verdicts; a
    trial that is not a distribution, or is on another domain, is a
    TesterInputError before its block draws.  `rng` is anything
    `default_rng` takes (an int, a `SeedSequence` or a Generator), and the
    trials draw from that one stream in order, so a trial's draws depend
    on the trials before it in its column, and the whole column is
    reproducible from `rng`.  In binary and cmi mode a
    block is k = max(1, 2^12 // (l1 l2 n)) consecutive trials, which share
    one count draw at m (`poissonized_count_tensor`), one kernel call and
    one row-wise sum of their statistics.  One draw over a block takes the
    variates that its trials would take one after another, a bin's Phi
    depends on its counts alone and each row is summed as a one-trial call
    sums it, so the verdicts are the same at every block size, and the
    first trial's is `run_tester`'s at the same seed.  General mode
    evaluates one trial a block, drawing its split from the same stream.
    """
    rng = np.random.default_rng(rng)
    dists = iter(dists)
    first = list(islice(dists, 1))
    if not first:
        return
    dims = _trial_domain(first[0])
    m = int(sample_budget(cfg, dims))
    l1, l2, n = dims
    tau = _threshold(cfg, n, m)
    k = 1 if cfg.mode == "general" else max(1, _TRIAL_BLOCK_CELLS // (l1 * l2 * n))
    dists = chain(first, dists)
    while block := list(islice(dists, k)):
        for p in block:
            _trial_domain(p, dims)
        if cfg.mode == "general":
            yield _general_verdict(tau, dims, m, *_drawn_split(block[0], m, rng))
        else:
            _, counts = poissonized_count_tensor(block, m, rng)
            yield from _binary_verdicts(tau, m, counts)


def _binary_verdicts(tau: float, m: int, counts):
    """Verdicts of k binary trials at budget m and threshold tau from their
    count tensors, a (k, l1, l2, n) array: one kernel call over the k
    tensors concatenated along the bin axis, and each trial's M the sum of
    its counts.  Every verdict shares the column's m and tau.

    Each bin's Phi is the same as in a one-trial call.  The statistics are
    the rows of sigma Phi as a (k, n) array, each summed in ascending z by
    one row-wise sum, which numpy reduces row by row as it reduces a
    one-trial call's 1-D array: the same bytes.  Each verdict's columns are
    views of its rows of sigma and sigma Phi, and one shared omega = 1 row.
    """
    n = counts.shape[3]
    big_ms = counts.sum(axis=(1, 2, 3)).tolist()
    stacked = np.concatenate(counts, axis=2, dtype=float)
    sigma_all, phi = (a.reshape(-1, n) for a in binary_bin_statistics(stacked))
    a_all = sigma_all * phi
    stats = a_all.sum(axis=1).tolist()
    omega = np.ones(n)
    for big_m, sigma, a_z, stat in zip(big_ms, sigma_all, a_all, stats):
        yield Verdict(stat, tau, m, big_m, (sigma, omega, a_z))


def _general_verdict(tau: float, dims, m: int, big_m: int, split) -> Verdict:
    """The general tester's verdict at threshold tau on the split of one
    trial on `dims` at budget m that holds M = `big_m` samples (see
    `test_general`)."""
    l1, l2, _ = dims
    sigma = split[0]
    phi = _general_kernel(*split, l1, l2)
    omega = np.sqrt(np.minimum(sigma, l1) * np.minimum(sigma, l2))
    a_z = sigma * omega * phi
    # add the bins one at a time in ascending z from 0.0 (bins below 4 add +0.0)
    stat = float(np.cumsum(np.concatenate(([0.0], a_z)))[-1])
    return Verdict(stat, tau, m, big_m, (sigma, omega, a_z))


# ---------------------------------------------------------------------------
# Threshold calibration
# ---------------------------------------------------------------------------


def calibrate_threshold(null_generator, cfg: TesterConfig, trials: int) -> float:
    """Empirical threshold from null runs: the smallest observed value tau
    such that at most 1/6 of the null statistics exceed it (a margin below
    the 1/3 error budget).  Returns a strictly positive tau; a null
    statistic that is identically zero yields the smallest positive float.

    `null_generator` maps a trial index to a JointDistribution, all on one
    domain.  The trials are one `run_trials` column on the stream
    `generator(cfg.seed, "calibrate")`; the column's budget is resolved
    once, and a trial that is not a distribution on the first trial's
    domain is a TesterInputError before its block draws.  In binary and
    cmi mode blocks of trials share one count draw and one kernel call,
    and instances are asked for one block ahead of their statistics; tau
    is the same at every block size.  The generator is called once per trial
    index; a caller that needs the same instances again (as `find_min_m`
    does) keeps them itself.
    """
    if trials < MIN_CALIBRATION_TRIALS:
        raise TesterInputError(f"calibration needs at least {MIN_CALIBRATION_TRIALS} trials")
    if trials > MAX_TRIALS:
        raise TesterInputError(f"calibration trials must be <= {MAX_TRIALS}, got {trials}")

    rng = generator(cfg.seed, "calibrate")
    verdicts = run_trials(map(null_generator, range(trials)), replace(cfg, tau_override=None), rng)
    stats = np.fromiter((v.statistic_A for v in verdicts), dtype=float, count=trials)
    if not np.all(np.isfinite(stats)):
        raise TesterInputError("degenerate null generator: non-finite statistics")
    allowed = trials // 6
    tau = float(np.sort(stats)[trials - 1 - allowed])
    if tau <= 0.0:
        tau = float(np.finfo(float).tiny)
    return tau
