"""Instance generators: random CI/far families and adversarial ensembles.

Every generator is a pure function of its spec and seed and returns a
`JointDistribution` plus a metadata dict.  A seed is an int, from which a
generator derives its stream under its own tag (`seeding.generator`), or
a `SeedSequence`, which seeds the stream as it is (`_stream`): the
harness hands each instance one sequence, and nothing derives a second.
Every random bit of an instance comes from that one stream, drawn by one
vectorized path per family.

Ensembles that are naturally pseudo-distributions (total mass in
[1, 1+eps]) are built as raw tensors and divided by their realized total
mass in `JointDistribution.from_mass`; the factor is recorded under
``raw_total_mass`` so experiments can report both raw and normalized
distance scales (normalization changes distances by at most that factor).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dist_core import JointDistribution, ci_distance_proxy
from .seeding import generator

FAMILIES = (
    "yes_binary_r1",
    "no_binary_r1",
    "yes_binary_r2",
    "no_binary_r2",
    "paninski_yes",
    "paninski_no",
    "nnn_d0",
    "nnn_d1",
    "random_ci",
    "random_far",
)

# 2x2 conditional tables for the binary ensembles, in hundredths, and their
# mixture weights.  The two independent tables and the three dependent ones
# interleave an arithmetic progression A + k*B (k = 0..4 with B supported
# on the diagonal), so the two mixtures agree on every monomial of the four
# cell probabilities up to total degree 3 (`moment_match_check`).  The
# generator draws with the weights' float values, which are exact.
_INDEP_CELLS = ((16, 24, 24, 36), (36, 24, 24, 16))
_INDEP_WEIGHTS = (Fraction(1, 2), Fraction(1, 2))
_DEP_CELLS = ((6, 24, 24, 46), (46, 24, 24, 6), (26, 24, 24, 26))
_DEP_WEIGHTS = (Fraction(1, 8), Fraction(1, 8), Fraction(3, 4))

_UNIFORM_2X2 = np.full((2, 2), 0.25)
_INDEP_SLICES = np.array(_INDEP_CELLS, dtype=float).reshape(2, 2, 2) / 100.0
_DEP_SLICES = np.array(_DEP_CELLS, dtype=float).reshape(3, 2, 2) / 100.0

#: the families that take their alphabet sizes ell1 x ell2 from the spec; every
#: other family builds its own alphabet, 2 x 2 but for the nnn pair
FREE_ALPHABET = ("random_ci", "random_far")

#: the heavy-bins-plus-light-bins 2 x 2 x n ensembles
BINARY_FAMILIES = ("yes_binary_r1", "no_binary_r1", "yes_binary_r2", "no_binary_r2")

#: the families on ({0,1} x [n]) x [n] x [n], a 2n x n x n domain
NNN_FAMILIES = ("nnn_d0", "nnn_d1")

#: heavy-bin parameter must stay below this fraction of n for the binary ensembles
REGIME_MAX_M_FRACTION = 0.9


class RegimeError(ValueError):
    """Spec parameters fall outside the family's validity regime."""


def _check_alphabet(family: str, ell1: int, ell2: int) -> None:
    """Raise RegimeError unless `family` takes ell1 x ell2: any sizes >= 1
    for the `FREE_ALPHABET` families, the defaults (2, 2) for the others,
    whose instances never read them."""
    for field, value in (("ell1", ell1), ("ell2", ell2)):
        if family in FREE_ALPHABET:
            if value < 1:
                raise RegimeError(f"family {family!r} needs {field} >= 1, got {value}")
        elif value != 2:
            raise RegimeError(
                f"family {family!r} builds its own alphabet: {field} must be 2, got {value}"
            )


def _check_int(field: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise RegimeError(f"{field} must be an int, got {value!r}")


def _check_binary_regime(n: int, eps: float, m) -> None:
    if not 0 < eps <= 1:
        raise RegimeError("eps must lie in (0, 1]")
    if m < 1:
        raise RegimeError("the binary ensembles need a positive heavy-bin parameter m")
    if m >= REGIME_MAX_M_FRACTION * n:
        raise RegimeError(
            f"regime requires m < {REGIME_MAX_M_FRACTION} * n (got m={m}, n={n})"
        )


def _check_paninski_eps(eps: float) -> None:
    if not 0 < eps <= 0.5:
        raise RegimeError(f"perturbed variant needs eps in (0, 1/2], got {eps!r}")


def _check_nnn_size(n: int) -> None:
    if n < 16:
        raise RegimeError(f"the nnn families need n >= 16, got {n}")


def _check_far_eps(l1: int, l2: int, eps: float) -> None:
    if not 0 < eps <= 1:
        raise RegimeError(f"eps must lie in (0, 1], got {eps!r}: the proxy is a TV distance")
    bound = 1 - 1 / min(l1, l2)
    if eps * (1 - 1e-9) > bound:
        raise RegimeError(
            f"eps {eps!r} is above 1 - 1/min(ell1, ell2) = {bound!r}: no {l1} x {l2} "
            "instance is that far from conditional independence"
        )


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters selecting one instance from a family.

    A spec is refused, with nothing drawn, when its family cannot take
    ell1 x ell2 or its generator would refuse it: each family's rule is
    one function that the generator applies too.  `n` and `m` are ints,
    not bools.  `m`, the heavy-bin parameter, defaults to max(1, n // 2)
    for every family; only the binary families read it.  `dims` is the
    (l1, l2, n) domain of its instances.  A power plan makes the specs of
    each of its cells before any runs.
    """

    family: str
    n: int
    eps: float = 0.5
    m: int | None = None
    seed: int | np.random.SeedSequence = 0
    ell1: int = 2
    ell2: int = 2

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise RegimeError(f"unknown family {self.family!r}")
        _check_alphabet(self.family, self.ell1, self.ell2)
        _check_int("n", self.n)
        if self.n < 1:
            raise RegimeError("n must be >= 1")
        if self.m is None:
            object.__setattr__(self, "m", max(1, self.n // 2))
        _check_int("m", self.m)
        if self.family in BINARY_FAMILIES:
            _check_binary_regime(self.n, self.eps, self.m)
        elif self.family == "paninski_no":
            _check_paninski_eps(self.eps)
        elif self.family in NNN_FAMILIES:
            _check_nnn_size(self.n)
        elif self.family == "random_far":
            _check_far_eps(self.ell1, self.ell2, self.eps)

    @property
    def dims(self) -> tuple[int, int, int]:
        if self.family in NNN_FAMILIES:
            return 2 * self.n, self.n, self.n
        return self.ell1, self.ell2, self.n


def _stream(seed, *tag) -> np.random.Generator:
    """An instance's stream: `default_rng(seed)` for a `SeedSequence`,
    `generator(seed, *tag)` for an int seed."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return generator(seed, *tag)


def make_instance(spec: EnsembleSpec) -> tuple[JointDistribution, dict]:
    """Dispatch a spec to its generator."""
    fam = spec.family
    if fam in BINARY_FAMILIES:
        return gen_binary_ensemble(spec)
    if fam in ("paninski_yes", "paninski_no"):
        which = "uniform" if fam == "paninski_yes" else "perturbed"
        return paninski_reduction(4 * spec.n, spec.eps, which, spec.seed)
    if fam in NNN_FAMILIES:
        return gen_nnn(spec.n, fam == "nnn_d1", spec.seed)
    if fam == "random_ci":
        return gen_random_ci(spec.ell1, spec.ell2, spec.n, spec.seed)
    return gen_random_far(spec.ell1, spec.ell2, spec.n, spec.eps, spec.seed)


# ---------------------------------------------------------------------------
# Binary yes/no ensembles
# ---------------------------------------------------------------------------


def gen_binary_ensemble(spec: EnsembleSpec) -> tuple[JointDistribution, dict]:
    """Heavy-bins-plus-light-bins 2x2xn ensembles.

    Heavy bins carry raw mass 1/m with the uniform conditional table;
    light bins carry raw mass eps/n with a table drawn from the
    independent pair (yes families) or the moment-matched dependent triple
    (no families).  Regime 1 picks heavy bins with probability m/n; the
    regime-2 variant picks them with probability 1/2 over the first n-1
    bins and anchors raw mass 1 on the last bin with a uniform table.

    eps scales the light-bin mass; it is not the instance's distance from
    conditional independence.  The dependent slices are within TV 0.06 of
    the products of their marginals (0.02 for the 26/24/24/26 table, 0.03
    on average), so with m = n/2 `no_binary_r1` realizes a
    `ci_distance_proxy` of about 0.03 * eps / (2 + eps), i.e. 0.012-0.014
    times eps for eps in [0.2, 0.5], whatever n is; the anchor halves
    that for `no_binary_r2` (about 0.03 * eps / (4 + eps)).

    Returns the mass-normalized distribution; metadata records the raw
    total mass, the heavy mask, and each light bin's table kind.  The
    spec's regime (eps in (0, 1], 1 <= m < 0.9 n, and n >= 2 for regime 2)
    was checked when it was made.
    """
    fam = spec.family
    yes = fam.startswith("yes")
    regime2 = fam.endswith("r2")
    n, eps, m = spec.n, spec.eps, spec.m
    rng = _stream(spec.seed, "binary_ensemble", fam, n, m)
    num_random = n - 1 if regime2 else n
    heavy_prob = 0.5 if regime2 else m / n
    heavy = rng.random(num_random) < heavy_prob
    light_slices = _INDEP_SLICES if yes else _DEP_SLICES
    weights = np.array(_INDEP_WEIGHTS if yes else _DEP_WEIGHTS, dtype=float)
    kind = rng.choice(len(light_slices), size=num_random, p=weights)
    kind = np.where(heavy, -1, kind).astype(np.int8)
    if regime2:
        heavy = np.append(heavy, True)
        kind = np.append(kind, np.int8(-1))

    # one (weight x table) column per class, heavy first, then each light
    # kind; each bin gathers its class's column, in (l1, l2, n) C order
    columns = np.column_stack(
        [_UNIFORM_2X2.ravel() * (1.0 / m), *(t.ravel() * (eps / n) for t in light_slices)]
    )
    mass = columns.take(kind + 1, axis=1).reshape(2, 2, n)
    if regime2:
        mass[:, :, -1] = _UNIFORM_2X2  # the anchor's raw mass is 1
    dist, total = JointDistribution.from_mass(mass)
    meta = {
        "family": fam,
        "n": n,
        "m": m,
        "eps": eps,
        "seed": spec.seed,
        "raw_total_mass": total,
        "heavy_mask": heavy,
        "light_kind": kind,
        "anchor_bin": n - 1 if regime2 else None,
    }
    return dist, meta


@dataclass(frozen=True)
class MomentMatchReport:
    """Exact comparison of the two light-slice mixtures, monomial by monomial."""

    degree: int
    matched: bool
    checked: int
    mismatches: tuple
    degree4_counterexample: tuple | None


def moment_match_check(degree: int = 3) -> MomentMatchReport:
    """Verify, in exact rational arithmetic, that the dependent and
    independent light-slice mixtures, at the weights `gen_binary_ensemble`
    draws with, agree on every cell-probability monomial of total degree
    <= `degree`, and exhibit a degree-4 monomial where they differ.
    """
    if degree > 3:
        raise ValueError("the mixtures only match up to degree 3")
    indep = [tuple(Fraction(v, 100) for v in cells) for cells in _INDEP_CELLS]
    dep = [tuple(Fraction(v, 100) for v in cells) for cells in _DEP_CELLS]

    def mixture_moment(slices, weights, exps):
        total = Fraction(0)
        for w, cells in zip(weights, slices):
            term = w
            for v, e in zip(cells, exps):
                term *= v**e
            total += term
        return total

    def moments(total_deg):
        for exps in itertools.product(range(total_deg + 1), repeat=4):
            if sum(exps) == total_deg:
                yield (exps, mixture_moment(dep, _DEP_WEIGHTS, exps),
                       mixture_moment(indep, _INDEP_WEIGHTS, exps))

    rows = [row for total_deg in range(degree + 1) for row in moments(total_deg)]
    mismatches = tuple(row for row in rows if row[1] != row[2])
    return MomentMatchReport(
        degree=degree,
        matched=not mismatches,
        checked=len(rows),
        mismatches=mismatches,
        degree4_counterexample=next((row for row in moments(4) if row[1] != row[2]), None),
    )


# ---------------------------------------------------------------------------
# Paired-uniformity reduction instances
# ---------------------------------------------------------------------------


def paninski_reduction(N: int, eps: float, which: str, seed) -> tuple[JointDistribution, dict]:
    """Hard uniformity instances on [N] mapped onto {0,1}^2 x [n], n = N/4.

    Block k of four consecutive domain elements maps to the cells
    (0,0), (0,1), (1,0), (1,1) of bin k in order.  The uniform variant is
    the uniform distribution on the cube (exactly CI); the perturbed
    variant gives each consecutive pair masses (1 +/- 2 eps)/N with an
    independent random sign per pair, so each slice is one of four 2x2
    patterns with row or column sums (1/2, 1/2).
    """
    if N % 4 != 0 or N <= 0:
        raise ValueError("domain size must be a positive multiple of 4")
    if which not in ("uniform", "perturbed"):
        raise ValueError("which must be 'uniform' or 'perturbed'")
    n = N // 4
    if which == "uniform":
        dist = JointDistribution.uniform(2, 2, n)
        meta = {"family": "paninski_yes", "n": n, "eps": eps, "seed": seed}
        return dist, meta
    _check_paninski_eps(eps)
    rng = _stream(seed, "paninski", n)
    signs = rng.choice((-1.0, 1.0), size=(n, 2))  # one sign per consecutive pair
    tables = np.empty((n, 2, 2))
    tables[:, 0, 0] = (1 + 2 * eps * signs[:, 0]) / 4
    tables[:, 0, 1] = (1 - 2 * eps * signs[:, 0]) / 4
    tables[:, 1, 0] = (1 + 2 * eps * signs[:, 1]) / 4
    tables[:, 1, 1] = (1 - 2 * eps * signs[:, 1]) / 4
    dist = JointDistribution.from_slices(np.full(n, 1.0 / n), tables)
    # aligned signs give a rank-1 slice; opposed signs give TV-to-product eps
    slice_tv = np.where(signs[:, 0] == signs[:, 1], 0.0, eps)
    meta = {
        "family": "paninski_no",
        "n": n,
        "eps": eps,
        "seed": seed,
        "signs": signs,
        "slice_tv": slice_tv,
    }
    return dist, meta


# ---------------------------------------------------------------------------
# Cube-scale instances with a planted dependent bit
# ---------------------------------------------------------------------------


def gen_nnn(n: int, far: bool, seed) -> tuple[JointDistribution, dict]:
    """Instances over ({0,1} x [n]) x [n] x [n] with heavy/light marginals.

    Z is uniform.  Per bin z, random subsets A_z, B_z of size floor(n^{3/4})
    mark heavy symbols: heavy conditional mass n^{-3/4}/2 per symbol, light
    mass 1/(2(n - n^{3/4})).  X and Y are conditionally independent given z.
    The extra bit W (folded into the first coordinate as index x*2 + w) is
    an independent fair coin in the CI variant; in the far variant it is a
    fair coin on heavy rows/columns and f(x, y, z) on light-light cells,
    where f is a uniformly random function [n]^3 -> {0,1}: n^3 fair bits
    that the instance's stream draws after the heavy sets.  The CI variant
    draws only the heavy sets.

    Memory is Theta(n^3); intended for desk-scale n.
    """
    _check_nnn_size(n)
    k = int(np.floor(n**0.75 + 1e-9))
    rng = _stream(seed, "nnn", n, int(far))
    order = np.argsort(rng.random((2, n, n)), axis=2)
    sets_a, sets_b = np.sort(order[:, :, :k], axis=2)

    heavy_mass = 1.0 / (2 * k)  # equals n^{-3/4}/2 whenever n^{3/4} is an integer
    light_mass = 1.0 / (2 * (n - k))
    zs = np.arange(n)[:, None]
    heavy_x = np.zeros((n, n), dtype=bool)  # (x, z)
    heavy_x[sets_a, zs] = True
    heavy_y = np.zeros((n, n), dtype=bool)  # (y, z)
    heavy_y[sets_b, zs] = True
    px = np.where(heavy_x, heavy_mass, light_mass)
    py = np.where(heavy_y, heavy_mass, light_mass)

    base = px[:, None, :] * py[None, :, :] / n  # (x, y, z): joint mass without W
    if not far:
        w0 = w1 = 0.5 * base
    else:
        coin = heavy_x[:, None, :] | heavy_y[None, :, :]
        f = rng.integers(2, size=(n, n, n), dtype=np.uint8)  # f(x, y, z)
        w1 = base * np.where(coin, 0.5, f)
        w0 = base - w1
    # first coordinate is the pair (x, w) with index x*2 + w
    mass = np.empty((2 * n, n, n))
    mass[0::2], mass[1::2] = w0, w1
    dist, total = JointDistribution.from_mass(mass)
    meta = {
        "family": "nnn_d1" if far else "nnn_d0",
        "n": n,
        "seed": seed,
        "heavy_set_size": k,
        "exact_three_quarter_power": k == round(n**0.75) and k**4 == n**3,
        "sets_a": sets_a,
        "sets_b": sets_b,
        "raw_total_mass": total,
    }
    return dist, meta


# ---------------------------------------------------------------------------
# Smoke-test families
# ---------------------------------------------------------------------------


def _product_slices(l1: int, l2: int, n: int, rng: np.random.Generator):
    """(p_Z, (n, l1, l2) product slices) from three Dirichlet(1, ..., 1) draws."""
    pz = rng.dirichlet(np.ones(n))
    px = rng.dirichlet(np.ones(l1), size=n)  # (n, l1)
    py = rng.dirichlet(np.ones(l2), size=n)
    return pz, px[:, :, None] * py[:, None, :]


def gen_random_ci(l1: int, l2: int, n: int, seed) -> tuple[JointDistribution, dict]:
    """Random bin weights with independent random product slices: exactly CI."""
    pz, tables = _product_slices(l1, l2, n, _stream(seed, "random_ci", l1, l2, n))
    tables *= pz[:, None, None]
    dist, _ = JointDistribution.from_mass(tables.transpose(1, 2, 0))
    return dist, {"family": "random_ci", "n": n, "seed": seed}


def _matching_tables(l1: int, l2: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, l1, l2) strongly dependent tables, each uniform on a random
    partial matching: bin z matches the first r = min(l1, l2) entries of a
    uniform ordering of [l1] with those of a uniform ordering of [l2].

    One `rng.permuted` call shuffles the 2n rows of a tiled
    arange(max(l1, l2)).  Bin z takes, in order, the entries below l1 of
    row 2z and those below l2 of row 2z + 1: the entries of a uniform
    permutation of [L] that lie below l form a uniform ordering of [l].
    """
    r = min(l1, l2)
    perms = rng.permuted(np.tile(np.arange(max(l1, l2)), (2 * n, 1)), axis=1)
    rows, cols = (
        side[side < l].reshape(n, l)[:, :r] for side, l in ((perms[0::2], l1), (perms[1::2], l2))
    )
    tables = np.zeros((n, l1, l2))
    tables[np.arange(n)[:, None], rows, cols] = 1.0 / r
    return tables


#: resamples `gen_random_far` draws before it gives up on its target distance
_FAR_ATTEMPTS = 100


def gen_random_far(
    l1: int, l2: int, n: int, eps: float, seed
) -> tuple[JointDistribution, dict]:
    """Random instance with ci_distance_proxy >= eps, by mixing each random
    product slice with a random matching table and escalating the mixing
    weight until the proxy target is met (resampling on failure).

    The proxy is the p_Z-weighted TV distance of each slice from the
    product of its marginals, at most 1 - 1/min(l1, l2) (a uniform full
    matching reaches it).  So eps must lie in (0, 1] and must not pass
    that bound by more than a relative slack of 1e-9, left for float
    rounding: other eps, and every eps when min(l1, l2) = 1, raise
    RegimeError before anything is drawn.
    """
    _check_far_eps(l1, l2, eps)
    rng = _stream(seed, "random_far", l1, l2, n)
    for attempt in range(_FAR_ATTEMPTS):
        pz, product = _product_slices(l1, l2, n, rng)
        matchings = _matching_tables(l1, l2, n, rng)
        w = min(1.0, 1.1 * eps)
        while True:
            tables = (1 - w) * product + w * matchings
            tables *= pz[:, None, None]
            dist, _ = JointDistribution.from_mass(tables.transpose(1, 2, 0))
            proxy = ci_distance_proxy(dist)
            if proxy >= eps:
                meta = {
                    "family": "random_far",
                    "n": n,
                    "eps": eps,
                    "seed": seed,
                    "proxy": proxy,
                    "mix_weight": w,
                    "attempts": attempt + 1,
                }
                return dist, meta
            if w >= 1.0:
                break
            w = min(1.0, 1.35 * w)
    raise RegimeError(
        f"could not reach proxy distance {eps} after {_FAR_ATTEMPTS} resamples"
    )
