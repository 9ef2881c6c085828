"""Conditional-independence testers and their sample-size formulas.

Both testers draw Poisson(m) samples, group them by the conditioning
coordinate z, and for every bin with at least four samples compute an
unbiased estimate of the (possibly rescaled) squared l2 distance between
the conditional table and the product of its marginals.  The weighted sum
A of the bin statistics is compared against a threshold tau that scales
like sqrt(min(n, m)); the tester accepts exactly when A <= tau (ties
accept).

The binary tester weights each bin estimate by its sample count and is
meant for small fixed alphabets (l1, l2 <= 8).  The general tester first
spends part of each bin's samples flattening the two marginals, weights
by count times the flattening amount, and weights each cell of the
estimator by the flattening grid.  Both evaluate their bins with the
count-tensor kernel `binary_bin_statistics`.

The multiplicative constants (beta for the binary sample size, zeta for
the general sample size and for both thresholds) are exposed
configuration: the guarantees only assert that sufficiently large
constants exist, and desk-scale power needs empirically fitted values or
a calibrated threshold (`calibrate_threshold`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dist_core import (
    DistributionError,
    JointDistribution,
    counts_from_samples,
    poissonized_count_tensor,
    sample_poissonized,
)
from .poly_estimator import _l2_cell_terms
from .seeding import as_generator, int_seed, seed_sequence

_MODES = ("binary", "general", "cmi")

#: cells per block of bins in the general tester's count tensors
_BLOCK_CELLS = 1 << 18

#: cells per kernel call when `run_trials` stacks binary trials (about 10
#: trials at n = 100); a bound, not a knob: larger blocks only add memory
_TRIAL_BLOCK_CELLS = 1 << 12

#: largest sample budget drawn from a distribution: the drawn counts and
#: their total M are int64, which a Poisson total stays far below for
#: m <= 2^62
_MAX_BUDGET = 1 << 62


class TesterInputError(ValueError):
    """Bad tester configuration or sample input."""


@dataclass(frozen=True)
class TesterConfig:
    """Tuning knobs shared by the testers.

    `beta` multiplies the binary sample-size formula; `zeta` multiplies the
    general sample-size formula and sets the acceptance threshold
    (zeta * sqrt(min(n, m)) for the binary tester, zeta^{1/4} * sqrt(min(n, m))
    for the general one).  `m_override` / `tau_override` pin the sample
    budget / threshold directly, e.g. to a calibrated value.  A budget of 0
    draws no samples (the tester accepts); a budget above 2^62 is rejected
    with TesterInputError when the tester draws from a distribution, since
    the drawn counts are int64; fixed-sample input needs at least one row.
    `seed` is an int or a `SeedSequence` (see `run_trials`).
    """

    epsilon: float
    mode: str = "binary"
    beta: float = 2.0
    zeta: float = 2.0
    m_override: int | None = None
    tau_override: float | None = None
    seed: int | np.random.SeedSequence = 0
    cmi_scale: float = 1.0

    def __post_init__(self):
        if self.mode not in _MODES:
            raise TesterInputError(f"mode must be one of {_MODES}")
        if self.mode == "cmi":
            if not 0 < self.epsilon < 0.5:
                raise TesterInputError("cmi mode needs epsilon in (0, 1/2)")
        elif not 0 < self.epsilon <= 1.0:
            raise TesterInputError(f"epsilon must lie in (0, 1] for mode {self.mode}")
        if self.beta <= 0 or self.zeta <= 0:
            raise TesterInputError("beta and zeta must be > 0")
        if self.m_override is not None and self.m_override < 0:
            raise TesterInputError("m_override must be >= 0")


@dataclass(frozen=True, eq=False)
class Verdict:
    """Tester outcome: accept iff statistic_A <= threshold_tau.

    `bins` holds the bins that contributed (sigma_z >= 4) as four columns
    (z, sigma_z, omega_z, A_z): numpy arrays from the testers, or any
    sequences.  sigma_z is the bin's estimator sample count and omega_z
    the extra weight factor (1 for the binary tester).  `per_bin` lists
    the same bins as rows of Python scalars; it is built on first read
    (`to_json` reads it), because the harness only reads A and the flag.
    Verdicts are equal when their scalar fields and `per_bin` are.
    """

    accept: bool
    statistic_A: float
    threshold_tau: float
    m_used: int
    M_drawn: int
    bins: tuple

    def __post_init__(self):
        if self.accept != (self.statistic_A <= self.threshold_tau):
            raise TesterInputError("verdict flag inconsistent with A <= tau")

    @cached_property
    def per_bin(self) -> tuple:
        return tuple(zip(*(np.asarray(column).tolist() for column in self.bins)))

    def _key(self) -> tuple:
        return (self.accept, self.statistic_A, self.threshold_tau, self.m_used,
                self.M_drawn, self.per_bin)

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
    n: int, eps: float, beta: float = 1.0, *, ell1: int = 2, ell2: int = 2,
    eps_prime: float | None = None,
) -> float:
    """The un-ceiled binary sample-size formula
    beta * max(sqrt(n)/e'^2, min(n^{7/8}/e', n^{6/7}/e'^{8/7})) with
    e' = eps / sqrt(ell1 * ell2) (or `eps_prime` directly when given)."""
    if n < 1:
        raise TesterInputError("n must be >= 1")
    ep = eps / math.sqrt(ell1 * ell2) if eps_prime is None else eps_prime
    if ep <= 0:
        raise TesterInputError("effective epsilon must be > 0")
    return beta * max(
        math.sqrt(n) / ep**2,
        min(n ** (7 / 8) / ep, n ** (6 / 7) / ep ** (8 / 7)),
    )


def sample_complexity_binary(
    n: int, eps: float, beta: float = 1.0, *, ell1: int = 2, ell2: int = 2,
    eps_prime: float | None = None,
) -> int:
    """Ceiling of `sample_complexity_binary_raw`; three regimes in eps."""
    return math.ceil(sample_complexity_binary_raw(
        n, eps, beta, ell1=ell1, ell2=ell2, eps_prime=eps_prime
    ))


def sample_complexity_general_forms(
    n: int, ell1: int, ell2: int, eps: float
) -> tuple[float, float]:
    """(full, simplified) un-scaled general sample-size formulas.

    The full form is a max of four mins covering the bin-weight regimes;
    the simplified form drops the regime-capping terms.  The two agree up
    to a bounded constant factor.  Swaps the alphabet sizes so l1 >= l2.
    """
    if n < 1 or ell1 < 1 or ell2 < 1:
        raise TesterInputError("dimensions must be >= 1")
    if not 0 < eps <= 1:
        raise TesterInputError("eps must lie in (0, 1]")
    l1, l2 = max(ell1, ell2), min(ell1, ell2)
    e = eps
    full = max(
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
    )
    simplified = max(
        min(
            n ** (7 / 8) * (l1 * l2) ** (1 / 4) / e,
            n ** (6 / 7) * (l1 * l2) ** (2 / 7) / e ** (8 / 7),
        ),
        n ** (3 / 4) * (l1 * l2) ** 0.5 / e,
        n ** (2 / 3) * l1 ** (2 / 3) * l2 ** (1 / 3) / e ** (4 / 3),
        n**0.5 * (l1 * l2) ** 0.5 / e**2,
    )
    return full, simplified


def sample_complexity_general(n: int, ell1: int, ell2: int, eps: float, zeta: float = 1.0) -> int:
    """Ceiling of zeta times the full general sample-size formula."""
    full, _ = sample_complexity_general_forms(n, ell1, ell2, eps)
    return math.ceil(zeta * full)


# ---------------------------------------------------------------------------
# Bin statistics
# ---------------------------------------------------------------------------


def binary_bin_statistics(counts: np.ndarray, weights: np.ndarray | None = None):
    """Per-bin sample counts sigma_z and weighted l2 estimates Phi_z.

    `counts` is a (n, l1, l2) tensor of per-bin fingerprints and `weights`
    an optional tensor of the same shape of per-cell weights (unit weights
    when omitted).  Phi_z is the weighted unbiased l2 estimate of bin z,
    and 0 for bins with fewer than 4 samples.  Both testers evaluate their
    bins here; the name predates the general tester's use and is kept
    because tracing and benchmark tooling address the kernel by it.

    Arithmetic is in double precision, with the denominator
    sigma (sigma-1) (sigma-2) (sigma-3) formed in float (never int64, which
    overflows near sigma = 55,000).  Against the exact Fraction path on
    random 2x2 bins, Phi_z is the correctly rounded exact value up to 2^14
    samples per bin; from 2^15 to 2^22 samples its absolute error stays
    below 5e-17 (300 bins per size).
    """
    c = counts.astype(float)
    sigma = c.sum(axis=(1, 2))
    terms = _l2_cell_terms(c, sigma[:, None, None])
    if weights is not None:
        terms = terms * weights
    raw = terms.sum(axis=(1, 2))
    active = sigma >= 4
    den = np.where(active, sigma * (sigma - 1) * (sigma - 2) * (sigma - 3), 1.0)
    return sigma.astype(np.int64), np.where(active, raw / den, 0.0)


def _general_block(ordered, starts, sizes, bins, l1: int, l2: int):
    """(sigma, Phi) of the general tester for the k bins `bins` (ascending
    z, each with at least 4 samples) of the z-sorted samples `ordered`.

    A bin of size s has t = (s - 4) // 4; in arrival order its first
    t1 = min(t, l1) samples give the row counts b (k, l1), the next
    t2 = min(t, l2) the column counts c (k, l2), and the next 2t + 4 the
    test fingerprint (k, l1, l2), weighted per cell by 1/((1+b_x)(1+c_y));
    the rest is unused.
    """
    chunk = ordered[starts[bins[0]] : starts[bins[-1]] + sizes[bins[-1]]]
    z = chunk[:, 2]
    rank = np.arange(z.size) + starts[bins[0]] - starts[z]
    keep = sizes[z] >= 4
    x, y, rank = chunk[keep, 0], chunk[keep, 1], rank[keep]
    k = np.searchsorted(bins, z[keep])
    t = (sizes[bins] - 4) // 4
    t1 = np.minimum(t, l1)[k]
    t12 = t1 + np.minimum(t, l2)[k]
    row = rank < t1
    col = (rank >= t1) & (rank < t12)
    test = (rank >= t12) & (rank < t12 + (2 * t + 4)[k])
    size = bins.size
    b = np.bincount(k[row] * l1 + x[row], minlength=size * l1).reshape(size, l1)
    c = np.bincount(k[col] * l2 + y[col], minlength=size * l2).reshape(size, l2)
    cell = (k[test] * l1 + x[test]) * l2 + y[test]
    fp = np.bincount(cell, minlength=size * l1 * l2).reshape(size, l1, l2)
    weights = 1.0 / ((1.0 + b)[:, :, None] * (1.0 + c)[:, None, :])
    return binary_bin_statistics(fp, weights)


# ---------------------------------------------------------------------------
# Testers
# ---------------------------------------------------------------------------


def _resolve_source(source, cfg, dims, m_formula):
    """Common input handling: returns (dims, m, samples).

    For a JointDistribution, m is the sample budget (`m_override` or
    `m_formula(dims)`, at most `_MAX_BUDGET`) and samples is None: the
    caller draws.  A fixed (N, 3) sample array needs explicit `dims` and
    in-range indices; it is cut to its first `m_override` rows when set,
    and m is its row count.
    """
    if isinstance(source, JointDistribution):
        m = cfg.m_override if cfg.m_override is not None else m_formula(source.dims)
        if m > _MAX_BUDGET:
            raise TesterInputError(
                f"sample budget {m} above 2^62: its counts would overflow int64"
            )
        return source.dims, m, None
    if dims is None:
        raise TesterInputError("fixed-sample input needs explicit dims (l1, l2, n)")
    samples = np.asarray(source, dtype=np.int64)
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
    if samples.size and ((samples < 0).any() or (samples.max(axis=0) >= dims).any()):
        raise DistributionError("sample indices outside the declared domain")
    return tuple(dims), samples.shape[0], samples


def _verdict(cfg, scale, n, stat, m_used, big_m, bins) -> Verdict:
    """Verdict at threshold `tau_override`, else scale * sqrt(min(n, m_used))."""
    tau = cfg.tau_override
    if tau is None:
        tau = scale * math.sqrt(min(n, m_used))
    return Verdict(stat <= tau, stat, float(tau), m_used, big_m, bins)


def test_binary(source, cfg: TesterConfig, dims=None) -> Verdict:
    """Count-weighted conditional-independence tester for small alphabets.

    `source` is a JointDistribution (Poissonized sampling with the config
    seed) or an (N, 3) sample array with explicit `dims`, in which case the
    whole file is used and per-bin counts are multinomial rather than
    Poisson (a documented approximation; the statistic conditions on the
    counts either way).  The statistic is the sum over bins with at least
    4 samples of sigma_z times the unit-weight l2 estimate.  This is the
    one-trial case of `run_trials`.
    """
    [verdict] = _binary_trials([source], cfg, [cfg.seed], dims)
    return verdict


def _binary_trials(sources, cfg: TesterConfig, seeds, dims=None):
    """Binary-tester verdicts for the (source, seed) pairs, in order.

    Each trial draws its count tensor from its own `as_generator(seed)`,
    with per-cell Poisson counts (`poissonized_count_tensor`).
    Consecutive trials with the same (l1, l2) and at least two bins are
    stacked into blocks of at most `_TRIAL_BLOCK_CELLS` cells (any other
    trial is a block of its own), and each block is one kernel call.
    """
    def m_formula(d):
        l1, l2, n = d
        return sample_complexity_binary(n, cfg.epsilon, cfg.beta, ell1=l1, ell2=l2)

    block, cells = [], 0
    for source, seed in zip(sources, seeds, strict=True):
        (l1, l2, n), m, samples = _resolve_source(source, cfg, dims, m_formula)
        if l1 > 8 or l2 > 8:
            raise TesterInputError("binary tester supports alphabet sizes up to 8")
        if samples is None:
            big_m, counts = poissonized_count_tensor(source, m, as_generator(seed))
        else:
            big_m, counts = m, counts_from_samples(samples, (l1, l2, n))
        # a one-bin tensor is contiguous, and the kernel adds its cells in
        # another order than with bins innermost: such trials never stack
        if block and not (
            cells + counts.size <= _TRIAL_BLOCK_CELLS
            and n > 1
            and block[-1][0] > 1
            and counts.shape[1:] == block[-1][3].shape[1:]
        ):
            yield from _binary_verdicts(block, cfg)
            block, cells = [], 0
        block.append((n, int(m), big_m, counts))
        cells += counts.size
    if block:
        yield from _binary_verdicts(block, cfg)


def _binary_verdicts(block, cfg: TesterConfig):
    """Verdicts of a block of binary trials (n, m, M, counts), from one
    kernel call over their count tensors stacked along the bin axis.

    A lone trial's tensor goes to the kernel as it is.  Stacked tensors
    keep the layout `poissonized_count_tensor` returns (bins innermost in
    memory), so the kernel adds each bin's cells in the same order as in a
    one-trial call, and each trial's A is the same sum of its a_z in
    ascending z: the verdicts do not depend on the block.
    """
    if len(block) == 1:
        stacked = block[0][3]
    else:
        stacked = np.concatenate(
            [counts.transpose(1, 2, 0) for *_, counts in block], axis=2
        ).transpose(2, 0, 1)
    sigma_all, phi = binary_bin_statistics(stacked)
    a_all = sigma_all * phi
    lo = 0
    for n, m, big_m, _ in block:
        sigma, a_z = sigma_all[lo : lo + n], a_all[lo : lo + n]
        lo += n
        stat = float(a_z.sum())  # bins ascending in z: deterministic reduction
        active = np.flatnonzero(sigma >= 4)
        bins = (active, sigma[active], np.ones(active.size), a_z[active])
        yield _verdict(cfg, cfg.zeta, n, stat, m, big_m, bins)


def test_general(source, cfg: TesterConfig, dims=None) -> Verdict:
    """Flattened conditional-independence tester for arbitrary alphabets.

    The samples (Poissonized from a JointDistribution, or a fixed (N, 3)
    array with explicit `dims`) are sorted by z once and split per bin into
    count tensors (see `_general_block`): a bin of 4 + 4t or more samples flattens
    its marginals with its leading min(t, l1) + min(t, l2) samples, giving
    row counts b and column counts c, and estimates the rescaled squared
    l2 distance from the next 2t + 4 samples with weights
    1/((1 + b_x)(1 + c_y)) = 1/(1 + a_xy).  One kernel call evaluates all
    these bins, or one call per block of them when their tensors would
    exceed 2^18 cells.  The bin weight is sigma_z * omega_z with
    sigma_z = 2t + 4 and omega_z = sqrt(min(sigma_z, l1) * min(sigma_z, l2)).
    """
    def m_formula(d):
        l1, l2, n = d
        return sample_complexity_general(n, l1, l2, cfg.epsilon, cfg.zeta)

    dims, m, samples = _resolve_source(source, cfg, dims, m_formula)
    l1, l2, n = dims
    if samples is None:
        samples = sample_poissonized(source, m, as_generator(int_seed(cfg.seed)))
    # stable sort by z keeps each bin's samples in arrival order
    ordered = samples[np.argsort(samples[:, 2], kind="stable")]
    sizes = np.bincount(ordered[:, 2], minlength=n)
    starts = np.cumsum(sizes) - sizes
    bins = np.flatnonzero(sizes >= 4)
    # blocks of bins bound the dense (bins, l1, l2) tensors' memory
    step = max(1, _BLOCK_CELLS // (l1 * l2))
    sigma, phi = np.zeros(0, dtype=np.int64), np.zeros(0)
    for lo in range(0, bins.size, step):
        block = _general_block(ordered, starts, sizes, bins[lo : lo + step], l1, l2)
        sigma, phi = np.append(sigma, block[0]), np.append(phi, block[1])
    omega = np.sqrt(np.minimum(sigma, l1) * np.minimum(sigma, l2))
    a_z = sigma * omega * phi
    # add the bins one at a time in ascending z, starting from 0.0
    stat = float(np.cumsum(np.concatenate(([0.0], a_z)))[-1])
    return _verdict(
        cfg, cfg.zeta**0.25, n, stat, int(m), samples.shape[0], (bins, sigma, omega, a_z)
    )


def _cmi_config(eps: float, cfg: TesterConfig) -> TesterConfig:
    """The binary-tester config of cmi mode, at eps' = cmi_scale * eps / log2(1/eps)."""
    if not 0 < eps < 0.5:
        raise TesterInputError("cmi mode needs eps in (0, 1/2)")
    eps_prime = cfg.cmi_scale * eps / math.log2(1.0 / eps)
    return replace(cfg, epsilon=min(eps_prime, 1.0), mode="binary")


def _binary_xy(source, dims=None):
    """`source`, once its X and Y are checked to be binary (cmi mode)."""
    dims_check = source.dims if isinstance(source, JointDistribution) else dims
    if dims_check is None or dims_check[0] != 2 or dims_check[1] != 2:
        raise TesterInputError("cmi mode requires binary X and Y")
    return source


def test_cmi(source, eps: float, cfg: TesterConfig, dims=None) -> Verdict:
    """Distinguish zero conditional mutual information from CMI >= eps
    (binary alphabets) by running the binary TV tester at
    eps' = cmi_scale * eps / log2(1/eps)."""
    sub = _cmi_config(eps, cfg)
    return test_binary(_binary_xy(source, dims), sub, dims=dims)


def run_tester(source, cfg: TesterConfig, dims=None) -> Verdict:
    """Dispatch on cfg.mode."""
    if cfg.mode == "binary":
        return test_binary(source, cfg, dims=dims)
    if cfg.mode == "general":
        return test_general(source, cfg, dims=dims)
    return test_cmi(source, cfg.epsilon, cfg, dims=dims)


def run_trials(instances, cfg: TesterConfig, seeds):
    """Yield one Verdict per (instance, seed) pair, in order: the verdict
    `run_tester(instance, replace(cfg, seed=seed))` gives.

    `instances` (JointDistributions) and `seeds` may be lazy iterables of
    the same length; they are consumed at most one block ahead of the
    verdicts.  A seed is an int or a `SeedSequence`.  In binary and cmi
    mode each trial draws its counts from `default_rng(seed)`, and blocks
    of trials of at most 2^12 cells share one kernel call; the verdicts do
    not depend on the block size.  General mode runs the tester once per
    trial, seeded with `int_seed(seed)`, so a `seed_sequence(...)` seed
    gives the verdict its `child_seed(...)` int would.
    """
    if cfg.mode == "general":
        for inst, seed in zip(instances, seeds, strict=True):
            yield run_tester(inst, replace(cfg, seed=seed))
        return
    if cfg.mode == "cmi":
        cfg = _cmi_config(cfg.epsilon, cfg)
        instances = map(_binary_xy, instances)
    yield from _binary_trials(instances, cfg, seeds)


# ---------------------------------------------------------------------------
# Threshold calibration
# ---------------------------------------------------------------------------


def calibrate_threshold(null_generator, cfg: TesterConfig, trials: int) -> float:
    """Empirical threshold from null runs: the smallest observed value tau
    such that at most 1/6 of the null statistics exceed it (a margin below
    the 1/3 error budget).  Returns a strictly positive tau; a null
    statistic that is identically zero yields the smallest positive float.

    `null_generator` maps a trial index to a JointDistribution; trial t
    runs the configured tester with the seed
    `seed_sequence(cfg.seed, "calibrate", t)`.  The trials go through
    `run_trials`, so in binary and cmi mode blocks of trials (at most 2^12
    cells each) share one kernel call, and instances are asked for one
    block ahead of their statistics.  The
    generator is called once per trial index; a caller that needs the same
    instances again (as `find_min_m` does) keeps them itself.
    """
    if trials < 100:
        raise TesterInputError("calibration needs at least 100 trials")

    def instances():
        for t in range(trials):
            inst = null_generator(t)
            if not isinstance(inst, JointDistribution):
                raise TesterInputError("null_generator must produce JointDistributions")
            yield inst

    seeds = (seed_sequence(cfg.seed, "calibrate", t) for t in range(trials))
    verdicts = run_trials(instances(), replace(cfg, tau_override=None), seeds)
    stats = np.fromiter((v.statistic_A for v in verdicts), dtype=float, count=trials)
    if not np.all(np.isfinite(stats)):
        raise TesterInputError("degenerate null generator: non-finite statistics")
    allowed = trials // 6
    tau = float(np.sort(stats)[trials - 1 - allowed])
    if tau <= 0.0:
        tau = float(np.finfo(float).tiny)
    return tau
