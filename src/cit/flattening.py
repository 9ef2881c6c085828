"""Split distributions and implicit two-marginal flattening.

Splitting artificially subdivides bins of a distribution (bin i into a_i
equal parts), which preserves all TV distances while shrinking l2 norms.
For bivariate tables the two marginals are flattened independently from
samples: row counts b_x from the first t1 x-projections, column counts
c_y from the next t2 y-projections, giving the per-cell grid

    1 + a_xy = (1 + b_x)(1 + c_y).

The split domain is never materialized; only the coefficient grid flows
to the weighted l2 estimator, and the rescaled statistic

    sum_xy (p_xy - (p_X (x) p_Y)_xy)^2 / (1 + a_xy)

equals the squared l2 distance between the split table and the product of
its marginals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dist_core import ShapeMismatchError, product_table


class InsufficientSamplesError(ValueError):
    """Fewer flattening samples than the requested split sizes."""


@dataclass(frozen=True)
class SplitSpec:
    """Per-bin split multiplicities a_i = 1 + (occurrences of i in the multiset)."""

    a: tuple[int, ...]

    def __post_init__(self):
        a = tuple(int(v) for v in self.a)
        if any(v < 1 for v in a):
            raise ValueError("split multiplicities must be >= 1")
        object.__setattr__(self, "a", a)

    @classmethod
    def from_multiset(cls, n: int, multiset) -> "SplitSpec":
        """The paper's split by a multiset over [0, n); kept for `split_distribution`'s tests."""
        counts = np.bincount(np.asarray(list(multiset), dtype=np.int64), minlength=n)
        if counts.size > n:
            raise ValueError("multiset element outside [0, n)")
        return cls(tuple(int(c) + 1 for c in counts))


def split_distribution(p, spec: SplitSpec) -> np.ndarray:
    """The split of p by `spec`: bin i becomes a_i consecutive bins of mass p_i/a_i."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size != len(spec.a):
        raise ShapeMismatchError("p must be a vector matching the split spec")
    a = np.asarray(spec.a, dtype=np.int64)
    return np.repeat(p / a, a)


@dataclass(frozen=True)
class FlatteningCoefficients:
    """Row/column flattening counts and the induced per-cell grid.

    Cells satisfy 1 + a_xy = (1 + b_x)(1 + c_y), so the grid is rank-1 in
    the (1+b, 1+c) factors; only the factors are stored, and `grid` (the
    int a_xy) and `weight_grid_exact` (Fraction 1/(1 + a_xy)) build on them.
    """

    row_counts: tuple[int, ...]
    col_counts: tuple[int, ...]

    def __post_init__(self):
        b = tuple(int(v) for v in self.row_counts)
        c = tuple(int(v) for v in self.col_counts)
        if any(v < 0 for v in b) or any(v < 0 for v in c):
            raise ValueError("flattening counts must be >= 0")
        object.__setattr__(self, "row_counts", b)
        object.__setattr__(self, "col_counts", c)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_counts), len(self.col_counts)

    def _factors(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            1 + np.asarray(self.row_counts, dtype=np.int64),
            1 + np.asarray(self.col_counts, dtype=np.int64),
        )

    @property
    def grid(self) -> np.ndarray:
        """Dense a_xy matrix, built on each access."""
        rb, cc = self._factors()
        return np.outer(rb, cc) - 1

    def weight_grid_exact(self) -> np.ndarray:
        """Exact Fraction weights (object array)."""
        rb, cc = self._factors()
        return np.array(
            [[Fraction(1, int(b) * int(c)) for c in cc] for b in rb], dtype=object
        )


def implicit_flattening(flatten_samples, l1: int, l2: int, t1: int, t2: int) -> FlatteningCoefficients:
    """Build the coefficient grid from an ordered (x, y) sample list.

    Row counts come from the x-projections of the first t1 samples, column
    counts from the y-projections of the next t2; this order is fixed so
    runs are seed-reproducible.
    """
    samples = np.asarray(flatten_samples, dtype=np.int64).reshape(-1, 2)
    if t1 < 0 or t2 < 0:
        raise ValueError("split sizes must be >= 0")
    if samples.shape[0] < t1 + t2:
        raise InsufficientSamplesError(
            f"need {t1 + t2} flattening samples, got {samples.shape[0]}"
        )
    xs = samples[:t1, 0]
    ys = samples[t1 : t1 + t2, 1]
    if xs.size and (xs.min() < 0 or xs.max() >= l1):
        raise ValueError("x index outside [0, l1)")
    if ys.size and (ys.min() < 0 or ys.max() >= l2):
        raise ValueError("y index outside [0, l2)")
    b = np.bincount(xs, minlength=l1)
    c = np.bincount(ys, minlength=l2)
    return FlatteningCoefficients(tuple(int(v) for v in b), tuple(int(v) for v in c))


def rescaled_l2_value(table, coeffs: FlatteningCoefficients):
    """sum_xy (p_xy - product_xy)^2 / (1 + a_xy) for a normalized table p.

    Equals the squared l2 distance between the split bivariate table and
    the product of its marginals.  Exact for object-dtype (Fraction)
    tables: the exact target of the flattening and acceptance tests.
    """
    arr = np.asarray(table)
    if arr.shape != coeffs.shape:
        raise ShapeMismatchError("table shape must match the coefficient grid")
    if arr.dtype == object:
        values = [[Fraction(v) for v in row] for row in arr.tolist()]
        px = [sum(row) for row in values]
        py = [sum(col) for col in zip(*values)]
        weights = coeffs.weight_grid_exact()
        total = Fraction(0)
        for x, row in enumerate(values):
            for y, v in enumerate(row):
                diff = v - px[x] * py[y]
                total += diff * diff * weights[x, y]
        return total
    t = arr.astype(float)
    delta = t - product_table(t)
    rb, cc = coeffs._factors()
    return float((delta * delta / np.outer(rb, cc)).sum())
