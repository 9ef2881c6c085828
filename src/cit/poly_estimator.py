"""Unbiased estimation of polynomials of a discrete distribution: the exact
reference layer.

Given a homogeneous degree-d polynomial Q in the cell probabilities of a
distribution over [n], there is a unique symmetric estimator of Q(p) that
is unbiased over N >= d i.i.d. samples; it depends on the sample only
through the fingerprint (the vector of per-symbol counts).  For a monomial
with exponent vector alpha the estimator is the ratio of falling
factorials

    prod_i falling(count_i, alpha_i) / falling(N, d),

extended linearly, with falling(n, k) = n (n-1) ... (n-k+1), which is
`math.perm(n, k)`.  This module provides that estimator, the exact
closed form for its second moment (a sum over partial-derivative orders),
an a-priori variance bound, tail-term envelopes, the specialized degree-4
polynomial whose value is the squared l2 distance between a bivariate
table and the product of its marginals, its estimator from a 2-D
fingerprint, and an exact brute-force oracle over all ordered sample
tuples in rational arithmetic.

The estimators return `fractions.Fraction`s; they are the oracle for the
float l2 statistics of `cit.testers`, which share with `l2_estimator` the
degree-4 cell term `_l2_cell_terms` (in a cell's count, row and column
sums and total).  The moments stay exact on exact inputs and follow float
inputs otherwise.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

#: sparse exponent vector: ((index, exponent), ...) sorted by index, exponents >= 1
ExponentKey = tuple[tuple[int, int], ...]


class PolynomialError(ValueError):
    """Malformed polynomial data."""


class NoUnbiasedEstimatorError(ValueError):
    """Fewer samples than the polynomial degree: no unbiased estimator exists."""


class EnumerationBudgetError(RuntimeError):
    """Exact enumeration would exceed the configured budget."""


def _key_degree(key: ExponentKey) -> int:
    return sum(e for _, e in key)


def _check_key(key: ExponentKey, num_vars: int) -> None:
    prev = -1
    for i, e in key:
        if not (0 <= i < num_vars):
            raise PolynomialError(f"variable index {i} outside [0, {num_vars})")
        if i <= prev:
            raise PolynomialError(f"exponent key {key} not strictly sorted by index")
        if e < 1:
            raise PolynomialError(f"exponent key {key} holds exponent < 1")
        prev = i


def mul_keys(a: ExponentKey, b: ExponentKey) -> ExponentKey:
    """Merge two exponent keys (monomial product)."""
    merged: dict[int, int] = {}
    for i, e in itertools.chain(a, b):
        merged[i] = merged.get(i, 0) + e
    return tuple(sorted(merged.items()))


def key_from_dense(exps) -> ExponentKey:
    """Sparse key of a dense exponent vector; kept since the acceptance tests import it."""
    return tuple((i, int(e)) for i, e in enumerate(exps) if e)


def add_term(terms: dict, key: ExponentKey, coeff) -> None:
    new = terms.get(key, 0) + coeff
    if new == 0:
        terms.pop(key, None)
    else:
        terms[key] = new


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction, np.integer))


@dataclass(frozen=True)
class HomogeneousPolynomial:
    """Sparse homogeneous polynomial: exponent key -> coefficient.

    Every stored key has total degree exactly `degree`; zero coefficients
    are never stored.  Coefficients may be ints, Fractions, or floats;
    exact coefficient types keep downstream arithmetic exact.
    """

    num_vars: int
    degree: int
    terms: dict

    def __post_init__(self):
        if self.degree < 1:
            raise PolynomialError("degree must be >= 1")
        for key, coeff in self.terms.items():
            _check_key(key, self.num_vars)
            if _key_degree(key) != self.degree:
                raise PolynomialError(
                    f"term {key} has degree {_key_degree(key)}, expected {self.degree}"
                )
            if coeff == 0:
                raise PolynomialError("zero coefficients must not be stored")

    @classmethod
    def from_terms(cls, num_vars: int, terms: dict, degree: int | None = None):
        clean = {k: c for k, c in terms.items() if c != 0}
        if degree is None:
            if not clean:
                raise PolynomialError("cannot infer the degree of an empty polynomial")
            degree = _key_degree(next(iter(clean)))
        return cls(num_vars, degree, clean)

    @classmethod
    def monomial(cls, num_vars: int, key: ExponentKey, coeff=1):
        return cls.from_terms(num_vars, {tuple(key): coeff}, degree=_key_degree(tuple(key)))

    def evaluate(self, values) -> float:
        """Float value at a point: `evaluate_exact` rounded once."""
        v = np.asarray(values, dtype=float).ravel()
        if v.size != self.num_vars:
            raise PolynomialError(f"expected {self.num_vars} values, got {v.size}")
        return float(self.evaluate_exact(v))

    def evaluate_exact(self, values):
        """Evaluation preserving the arithmetic of the inputs (e.g. Fraction)."""
        values = list(values)
        if len(values) != self.num_vars:
            raise PolynomialError(f"expected {self.num_vars} values")
        return self.derivative_value(values, ())

    def abs_poly(self) -> "HomogeneousPolynomial":
        """The companion polynomial with absolute coefficients."""
        return HomogeneousPolynomial(
            self.num_vars, self.degree, {k: abs(c) for k, c in self.terms.items()}
        )

    def derivative_value(self, values, s: ExponentKey):
        """The partial derivative of order `s` evaluated at `values`."""
        values = list(values)
        s_map = dict(s)
        total = 0
        for key, c in sorted(self.terms.items()):
            a_map = dict(key)
            if any(a_map.get(i, 0) < e for i, e in s_map.items()):
                continue
            term = c
            for i, e in s_map.items():
                term = term * math.perm(a_map[i], e)
            for i, a in a_map.items():
                rem = a - s_map.get(i, 0)
                if rem:
                    term = term * values[i] ** rem
            total = total + term
        return total

    def derivative_orders(self) -> list[ExponentKey]:
        """All orders s (including the empty order) dominated by some monomial."""
        orders: set[ExponentKey] = set()
        for key in self.terms:
            idxs = [i for i, _ in key]
            ranges = [range(e + 1) for _, e in key]
            for combo in itertools.product(*ranges):
                orders.add(tuple((i, e) for i, e in zip(idxs, combo) if e))
        return sorted(orders)


@dataclass(frozen=True)
class Fingerprint:
    """Per-symbol sample counts; the sufficient statistic for symmetric estimators."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise ValueError("fingerprint counts must be >= 0")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @classmethod
    def parse(cls, text: str, num_symbols: int) -> "Fingerprint":
        counts = [0] * num_symbols
        for token in text.split():
            match = re.fullmatch(r"([0-9]+):([0-9]+)", token)
            if match is None or not 1 <= int(match[1]) <= num_symbols:
                raise ValueError(f"fingerprint token {token!r} is not i:count in decimal "
                                 f"digits with 1 <= i <= {num_symbols}")
            counts[int(match[1]) - 1] += int(match[2])
        return cls(tuple(counts))


@dataclass(frozen=True)
class MomentReport:
    """Exact first/second-moment summary of the unbiased estimator.

    ``variance = expected_square - value**2`` always, and
    ``variance <= variance_bound`` (the a-priori falling-factorial bound).
    Values are Fractions when the inputs were exact, floats otherwise.
    """

    value: object
    expected_square: object
    variance: object
    variance_bound: object


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def homogenize(terms, num_vars: int, degree: int) -> HomogeneousPolynomial:
    """Raise every monomial of total degree d' < degree by (sum_i X_i)^(degree-d').

    On the probability simplex this leaves the polynomial's value unchanged.
    Accepts a HomogeneousPolynomial or a mapping from exponent keys to
    coefficients (possibly inhomogeneous).  Monomials of degree above
    `degree` are an error.
    """
    if isinstance(terms, HomogeneousPolynomial):
        terms = terms.terms
    out: dict = {}
    for key, coeff in sorted(terms.items()):
        key = tuple(key)
        _check_key(key, num_vars)
        d = _key_degree(key)
        if d > degree:
            raise PolynomialError(f"monomial {key} has degree {d} > {degree}")
        gap = degree - d
        if gap == 0:
            add_term(out, key, coeff)
            continue
        # expand (X_1 + ... + X_n)^gap over multisets of variable indices
        for combo in itertools.combinations_with_replacement(range(num_vars), gap):
            mult = Counter(combo)
            weight = math.factorial(gap)
            for e in mult.values():
                weight //= math.factorial(e)
            add_term(out, mul_keys(key, tuple(sorted(mult.items()))), coeff * weight)
    return HomogeneousPolynomial.from_terms(num_vars, out, degree=degree)


def unbiased_estimate(Q: HomogeneousPolynomial, f: Fingerprint) -> Fraction:
    """The unique symmetric unbiased estimate of Q(p) from a fingerprint,
    as an exact Fraction.

    Raises NoUnbiasedEstimatorError when the sample size is below the
    degree (no unbiased estimator exists there).
    """
    n_samples = f.total
    d = Q.degree
    if n_samples < d:
        raise NoUnbiasedEstimatorError(
            f"N={n_samples} samples cannot unbiasedly estimate a degree-{d} polynomial"
        )
    if len(f.counts) != Q.num_vars:
        raise PolynomialError("fingerprint length does not match the variable count")
    total = Fraction(0)
    for key, c in Q.terms.items():
        total += Fraction(c) * math.prod(math.perm(f.counts[i], e) for i, e in key)
    return total / math.perm(n_samples, d)


def _second_moment_sums(Q: HomogeneousPolynomial, p, N: int):
    """(point, [T_0 .. T_d], variance bound) of the unbiased estimator over
    N i.i.d. samples at p, in one pass over the derivative orders.

    With w_s = p^s * (d^|s| Q(p) / dX^s)^2 / prod_i s_i! for an order s of
    degree h, T_h sums w_s * falling(N-d, d-h) / falling(N, d) and the
    bound sums w_s / falling(N, h) over h >= 1.  The point is p as Fractions
    when p and the coefficients are exact, as given otherwise.
    """
    d = Q.degree
    if N < d:
        raise NoUnbiasedEstimatorError(f"N={N} below degree {d}")
    values = list(p)
    if len(values) != Q.num_vars:
        raise PolynomialError("p length does not match the variable count")
    exact = all(_is_exact(v) for v in values) and all(_is_exact(c) for c in Q.terms.values())
    if exact:
        values = [Fraction(v) for v in values]
    zero = Fraction(0) if exact else 0.0
    den = math.perm(N, d)
    tails = [zero] * (d + 1)
    vbound = zero
    for s in Q.derivative_orders():
        dval = Q.derivative_value(values, s)
        if dval == 0:
            continue
        h = _key_degree(s)
        weight = math.prod(values[i] ** e for i, e in s) * dval * dval
        weight /= math.prod(math.factorial(e) for _, e in s)
        tails[h] += weight * math.perm(N - d, d - h) / den
        if h >= 1:
            vbound += weight / math.perm(N, h)
    return values, tails, vbound


def expected_square(Q: HomogeneousPolynomial, p, N: int) -> MomentReport:
    """Exact second moment of the unbiased estimator over N i.i.d. samples.

    Sums, over all partial-derivative orders s dominated by a monomial of
    Q, the term

        p^s * (d^|s| Q(p) / dX^s)^2 * falling(N-d, d-|s|)
            / (falling(N, d) * prod_i s_i!),

    which is the closed form for E[(U_N Q)^2]: the sum of `tail_terms`.
    The report also carries the a-priori variance bound obtained by
    replacing the order-h coefficient with 1/falling(N, h) and dropping
    the h=0 term.

    Exact (Fraction) arithmetic whenever p and the coefficients are exact.
    """
    values, tails, vbound = _second_moment_sums(Q, p, N)
    value = Q.evaluate_exact(values)
    e2 = sum(tails)
    return MomentReport(value, e2, e2 - value * value, vbound)


def tail_terms(Q: HomogeneousPolynomial, p, N: int) -> list:
    """The second-moment decomposition by derivative order, T_0 .. T_d."""
    return _second_moment_sums(Q, p, N)[1]


def tail_term_bound(Q: HomogeneousPolynomial, p, N: int, g: int) -> float:
    """Envelope dominating the total second-moment contribution of orders >= g.

    Over h >= g the order-h coefficient falling(N-d, d-h)/falling(N, d)
    peaks at the first non-vanishing order, and summing
    |d^h Q / dX^s| p^s / prod s_i! over all orders is at most 2^d Q+(p).
    The product of that peak coefficient (an exact falling-factorial
    ratio, Theta(1/N^g) with constant 1), 2^d Q+(p), and the largest
    relevant derivative magnitude therefore dominates the sum of
    T_g .. T_d on every input.
    """
    d = Q.degree
    if not 0 <= g <= d:
        raise ValueError(f"g={g} outside [0, {d}]")
    if N < d:
        raise NoUnbiasedEstimatorError(f"N={N} below degree {d}")
    values = [float(v) for v in p]
    # orders below 2d - N contribute nothing (two d-subsets of N samples
    # overlap in at least 2d - N elements), so the coefficient maximum over
    # h >= g sits at the first non-vanishing order
    h0 = max(g, 2 * d - N)
    coef_g = math.perm(N - d, d - h0) / math.perm(N, d)
    qplus = Q.abs_poly().evaluate_exact(values)
    max_deriv = 0.0
    for s in Q.derivative_orders():
        if _key_degree(s) < g:
            continue
        max_deriv = max(max_deriv, abs(float(Q.derivative_value(values, s))))
    return coef_g * (2**d) * float(qplus) * max_deriv


# ---------------------------------------------------------------------------
# The squared l2 distance to the product of marginals
# ---------------------------------------------------------------------------


def _cell(i: int, j: int, l2: int) -> int:
    return i * l2 + j


@lru_cache(maxsize=None)
def l2_diff_polynomial(l1: int, l2: int) -> HomogeneousPolynomial:
    """Degree-4 polynomial in the l1*l2 cell probabilities whose value at a
    normalized table p equals ||p - p_X (x) p_Y||_2^2.

    Built as the sum over cells of the squared bilinear residual

        X_ij * sum_{i'!=i, j'!=j} X_i'j'  -  (sum_{i'!=i} X_i'j)(sum_{j'!=j} X_ij'),

    which for normalized tables equals the cell's deviation from the
    product of marginals.  Cached per shape; integer coefficients keep
    exact arithmetic available.
    """
    if l1 < 2 or l2 < 2:
        raise PolynomialError("need at least a 2x2 table")
    n = l1 * l2
    total: dict = {}
    for i in range(l1):
        for j in range(l2):
            delta: dict = {}
            for i2 in range(l1):
                for j2 in range(l2):
                    if i2 == i or j2 == j:
                        continue
                    plus = mul_keys(((_cell(i, j, l2), 1),), ((_cell(i2, j2, l2), 1),))
                    minus = mul_keys(((_cell(i2, j, l2), 1),), ((_cell(i, j2, l2), 1),))
                    add_term(delta, plus, 1)
                    add_term(delta, minus, -1)
            items = sorted(delta.items())
            for a, (ka, ca) in enumerate(items):
                add_term(total, mul_keys(ka, ka), ca * ca)
                for kb, cb in items[a + 1 :]:
                    add_term(total, mul_keys(ka, kb), 2 * ca * cb)
    return HomogeneousPolynomial.from_terms(n, total, degree=4)


def _l2_cell_terms(f, rows, cols, n_total):
    """Per-cell numerators of the l2 statistic: the degree-4 cell term.

    With F a cell's count, R/C its row/column sums, N the total, and the
    complementary counts F_inj = R - F, F_nij = C - F, F_ninj = N - R - C + F,
    the cell term is

        F (F-1) F_ninj (F_ninj - 1) + F_nij (F_nij - 1) F_inj (F_inj - 1)
            - 2 F F_ninj F_inj F_nij,

    R (R-1) C (C-1) for an empty cell.  The arguments are float or object
    (exact int) arrays that broadcast together; the arithmetic follows them.
    """
    f_inj = rows - f
    f_nij = cols - f
    f_ninj = n_total - rows - cols + f
    return (
        f * (f - 1) * f_ninj * (f_ninj - 1)
        + f_nij * (f_nij - 1) * f_inj * (f_inj - 1)
        - 2 * f * f_ninj * f_inj * f_nij
    )


def l2_estimator(counts, weights=None) -> Fraction:
    """Weighted unbiased estimate of the (rescaled) squared l2 distance to
    the product of marginals, straight from a 2-D fingerprint, as an exact
    Fraction.

    The cell terms (see `_l2_cell_terms`) are weighted per cell and scaled
    by 1/falling(N, 4).  With unit weights this is the unbiased estimator
    of ||p - p_X (x) p_Y||_2^2; with weights 1/(1 + a_xy) from a
    flattening grid it is the unbiased estimator of the corresponding
    rescaled statistic.  O(l1*l2) per call.

    `counts` holds integers (any integer dtype, or integral objects);
    `weights` may be ints, Fractions or floats, floats taken at their
    exact binary value.  The exact reference for the float l2 statistics
    of `cit.testers`.
    """
    arr = np.asarray(counts)
    if arr.ndim != 2:
        raise PolynomialError("counts must be a 2-D fingerprint")
    values = arr.ravel().tolist()
    try:
        ints = [int(v) for v in values]
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != values:
        raise PolynomialError("fingerprint counts must be integers")
    if any(v < 0 for v in ints):
        raise PolynomialError("fingerprint counts must be >= 0")
    n_total = sum(ints)
    if n_total < 4:
        raise NoUnbiasedEstimatorError("the l2 statistic needs at least 4 samples")
    f = np.array(ints, dtype=object).reshape(arr.shape)
    term = _l2_cell_terms(f, f.sum(1, keepdims=True), f.sum(0, keepdims=True), n_total)
    if weights is not None:
        warr = np.asarray(weights)
        if warr.shape != arr.shape:
            raise PolynomialError("weights shape must match the fingerprint")
        wvals = [Fraction(v) for v in warr.ravel().tolist()]
        if any(v <= 0 for v in wvals):
            raise PolynomialError("weights must be > 0")
        term = term * np.array(wvals, dtype=object).reshape(arr.shape)
    return Fraction(sum(term.ravel().tolist())) / math.perm(n_total, 4)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

ORACLE_BUDGET = 10**7


def oracle_moments(Q: HomogeneousPolynomial, p, N: int) -> tuple[Fraction, Fraction]:
    """Exact (mean, variance) of the unbiased estimator by enumerating all
    ordered N-tuples of samples in rational arithmetic.

    `p` must be exact (ints or Fractions summing to 1).  Tuples are
    enumerated literally and tallied per fingerprint; each fingerprint's
    probability is (#tuples) * p^fingerprint.  Raises
    EnumerationBudgetError beyond len(p)**N = 10^7 outcomes.
    """
    values = list(p)
    n = len(values)
    if n != Q.num_vars:
        raise PolynomialError("p length does not match the variable count")
    for v in values:
        if not _is_exact(v):
            raise TypeError("oracle_moments requires exact rational probabilities")
    probs = [Fraction(v) for v in values]
    if sum(probs) != 1:
        raise ValueError("oracle_moments requires an exactly normalized p")
    if n**N > ORACLE_BUDGET:
        raise EnumerationBudgetError(f"{n}**{N} ordered tuples exceed the budget")
    tuples_per_fp: Counter = Counter()
    for tup in itertools.product(range(n), repeat=N):
        fp = [0] * n
        for t in tup:
            fp[t] += 1
        tuples_per_fp[tuple(fp)] += 1
    mean = Fraction(0)
    second = Fraction(0)
    for fp, count in sorted(tuples_per_fp.items()):
        prob = Fraction(count)
        for i, a in enumerate(fp):
            if a:
                prob *= probs[i] ** a
        if prob == 0:
            continue
        est = unbiased_estimate(Q, Fingerprint(fp))
        mean += prob * est
        second += prob * est * est
    return mean, second - mean * mean


# ---------------------------------------------------------------------------
# Text format for test vectors: one term per line, "coeff : i1^e1 i2^e2 ..."
# with 1-based variable indices and Fraction-parsable coefficients.
# ---------------------------------------------------------------------------


def parse_polynomial(text: str, num_vars: int, degree: int | None = None) -> HomogeneousPolynomial:
    terms: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        coeff_part, sep, mono_part = line.partition(":")
        if not sep:
            raise PolynomialError(f"line {lineno}: expected 'coeff : monomial'")
        try:
            coeff = Fraction(coeff_part)
        except (ValueError, ZeroDivisionError) as exc:
            raise PolynomialError(f"line {lineno}: bad coefficient {coeff_part.strip()!r}") from exc
        exps: dict[int, int] = {}
        for token in mono_part.split():
            idx, _, exp = token.partition("^")
            i, e = (int(v) if v.isdecimal() else 0 for v in (idx, exp or "1"))
            if not (1 <= i <= num_vars and e >= 1):
                raise PolynomialError(
                    f"line {lineno}: bad monomial {token!r}: "
                    f"expected i^e with i in [1, {num_vars}] and e >= 1"
                )
            exps[i - 1] = exps.get(i - 1, 0) + e
        add_term(terms, tuple(sorted(exps.items())), coeff)
    return HomogeneousPolynomial.from_terms(num_vars, terms, degree=degree)
