"""Dense discrete distributions on [l1] x [l2] x [n] with conditional structure.

The joint mass function is a dense float tensor with axes ``(x, y, z)``.
For each bin ``z`` the conditional table ``p_z`` is an ``l1 x l2`` matrix
(rows indexed by x); ``q_z`` denotes the outer product of its two
marginals, and the mixture of the ``q_z`` weighted by the bin marginal is
the canonical conditionally-independent reference point for distances.

All indices are 0-based in memory.  The text file formats written and read
here use 1-based indices (see `write_distribution_file`).
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .seeding import as_generator

#: absolute tolerance on total mass for a tensor to count as normalized
NORMALIZED_ATOL = 1e-12


class DistributionError(ValueError):
    """Invalid distribution data (negative mass, bad shape, bad file)."""


class ShapeMismatchError(DistributionError):
    """Operands have incompatible shapes."""


class NotNormalizedError(DistributionError):
    """An operation required a normalized distribution."""


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class JointDistribution:
    """Dense joint mass on [l1] x [l2] x [n], axes ordered (x, y, z).

    `normalized=False` marks a pseudo-distribution (total mass != 1);
    samplers reject those, instance generators normalize before sampling
    and record the factor in their metadata.  The bin marginal cache is
    always derived from the tensor, never set independently.
    """

    mass: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        arr = np.array(self.mass, dtype=float)
        if arr.ndim != 3:
            raise ShapeMismatchError("joint mass must be a 3-D tensor (x, y, z)")
        if min(arr.shape) < 1:
            raise ShapeMismatchError("all three dimensions must be positive")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise DistributionError("mass entries must be finite and >= 0")
        if self.normalized and abs(float(arr.sum()) - 1.0) > NORMALIZED_ATOL:
            raise NotNormalizedError(
                f"total mass {arr.sum()!r} not within {NORMALIZED_ATOL} of 1"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "mass", arr)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.mass.shape  # type: ignore[return-value]

    @cached_property
    def z_marginal(self) -> np.ndarray:
        """p_Z, the bin-weight vector (derived cache)."""
        return _readonly(self.mass.sum(axis=(0, 1)))

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    def slice_table(self, z: int) -> np.ndarray:
        """Conditional table at bin z (uniform when the bin has no mass)."""
        l1, l2, _ = self.dims
        w = self.z_marginal[z]
        if w == 0.0:
            return np.full((l1, l2), 1.0 / (l1 * l2))
        return self.mass[:, :, z] / w

    def normalize(self) -> tuple["JointDistribution", float]:
        """Return (normalized copy, total mass divided out)."""
        total = self.total_mass
        if total <= 0:
            raise DistributionError("cannot normalize a zero-mass tensor")
        return JointDistribution(self.mass / total, normalized=True), total

    @classmethod
    def from_slices(cls, weights, tables, normalized: bool = True) -> "JointDistribution":
        """Assemble p(x, y, z) = weights[z] * tables[z][x, y].

        `tables` has shape (n, l1, l2); rows with zero weight may hold any
        normalized table.
        """
        weights = np.asarray(weights, dtype=float)
        tables = np.asarray(tables, dtype=float)
        if tables.ndim != 3 or weights.shape != (tables.shape[0],):
            raise ShapeMismatchError("need weights (n,) and tables (n, l1, l2)")
        mass = tables.transpose(1, 2, 0) * weights
        return cls(mass, normalized=normalized)

    @classmethod
    def uniform(cls, l1: int, l2: int, n: int) -> "JointDistribution":
        return cls(np.full((l1, l2, n), 1.0 / (l1 * l2 * n)))


def _as_mass(p) -> np.ndarray:
    if isinstance(p, JointDistribution):
        return p.mass
    return np.asarray(p, dtype=float)


def tv_distance(p, q) -> float:
    """Total variation distance, half the entrywise l1 difference.

    Accepts arrays of any (matching) shape or `JointDistribution`s; inputs
    must be entrywise nonnegative.
    """
    a = _as_mass(p)
    b = _as_mass(q)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    if np.any(a < 0) or np.any(b < 0):
        raise DistributionError("tv_distance requires nonnegative inputs")
    return 0.5 * float(np.abs(a - b).sum())


def product_table(table: np.ndarray) -> np.ndarray:
    """Outer product of the row and column marginals of a 2-D table."""
    t = np.asarray(table, dtype=float)
    if t.ndim != 2:
        raise ShapeMismatchError("product_table needs a 2-D table")
    return np.outer(t.sum(axis=1), t.sum(axis=0))


def mixture_q(p: JointDistribution) -> JointDistribution:
    """The conditionally independent mixture with q(i,j,z) = p_Z(z) q_z(i,j).

    Every slice of the result is the product of its own marginals, and the
    bin marginal matches p's exactly (up to float rounding).
    """
    if not p.normalized:
        raise NotNormalizedError("mixture_q requires a normalized distribution")
    mass = p.mass
    pz = p.z_marginal
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(pz > 0, mass / pz, 0.0)
    px = cond.sum(axis=1)  # (l1, n)
    py = cond.sum(axis=0)  # (l2, n)
    qmass = pz * px[:, None, :] * py[None, :, :]
    # zero-weight bins contribute no mass either way
    return JointDistribution(qmass, normalized=True)


def ci_distance_proxy(p: JointDistribution) -> float:
    """TV distance from p to the mixture of its conditional-marginal products.

    This is a 4-approximation of the distance to the conditional
    independence property: dist(p, CI) <= proxy <= 4 * dist(p, CI).
    Zero exactly when every slice is the product of its marginals.
    """
    return tv_distance(p, mixture_q(p))


def conditional_mutual_information(p: JointDistribution) -> float:
    """I(X; Y | Z) in bits (base-2 logarithm throughout).

    Terms with zero conditional mass contribute zero.  Nonnegative; zero
    (within float rounding) exactly for conditionally independent p.
    """
    if not p.normalized:
        raise NotNormalizedError("CMI requires a normalized distribution")
    mass = p.mass
    pz = p.z_marginal
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(pz > 0, mass / pz, 0.0)
        px = cond.sum(axis=1)  # (l1, n)
        py = cond.sum(axis=0)  # (l2, n)
        prod = px[:, None, :] * py[None, :, :]
        ratio = np.where(cond > 0, cond / np.where(prod > 0, prod, 1.0), 1.0)
        terms = np.where(cond > 0, cond * np.log2(ratio), 0.0)
    value = float((pz * terms.sum(axis=(0, 1))).sum())
    if -1e-12 < value < 0.0:  # float rounding on an exactly-CI input
        return 0.0
    return value


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _draw_triples(p: JointDistribution, count: int, rng: np.random.Generator) -> np.ndarray:
    l1, l2, n = p.dims
    if count == 0:
        return np.empty((0, 3), dtype=np.int64)
    flat = p.mass.ravel()
    idx = rng.choice(flat.size, size=count, p=flat)
    x, y, z = np.unravel_index(idx, (l1, l2, n))
    return np.column_stack([x, y, z]).astype(np.int64)


def sample_fixed(p: JointDistribution, count: int, seed) -> np.ndarray:
    """`count` i.i.d. samples as an (count, 3) int array of (x, y, z) rows."""
    if not p.normalized:
        raise NotNormalizedError("sampling requires a normalized distribution")
    if count < 0:
        raise ValueError("count must be >= 0")
    return _draw_triples(p, count, as_generator(seed))


def sample_poissonized(p: JointDistribution, m: float, seed) -> np.ndarray:
    """Draw M ~ Poisson(m) then M i.i.d. samples.

    Per-bin counts are then independent Poisson(m * p_Z(z)) variables.
    """
    if not p.normalized:
        raise NotNormalizedError("sampling requires a normalized distribution")
    if m <= 0:
        raise ValueError("Poissonized sampling needs m > 0")
    rng = as_generator(seed)
    big_m = int(rng.poisson(m))
    return _draw_triples(p, big_m, rng)


def poissonized_count_tensor(
    p: JointDistribution, m: float, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Independent per-cell counts N(x, y, z) ~ Poisson(m * p(x, y, z)) and
    their total M, as (M, count tensor (n, l1, l2)).

    Equal in law to binning `sample_poissonized` output (M ~ Poisson(m),
    then a multinomial split), and used where a statistic depends on
    samples only through per-bin fingerprints.  The tensor is a view of
    the (l1, l2, n) draw, so bins are innermost in memory.  The counts and
    M are int64: callers keep m small enough for M to fit.
    """
    if not p.normalized:
        raise NotNormalizedError("sampling requires a normalized distribution")
    counts = rng.poisson(m * p.mass)
    return int(counts.sum()), counts.transpose(2, 0, 1)


def counts_from_samples(samples: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """Bin an (N, 3) sample array into a (n, l1, l2) count tensor."""
    l1, l2, n = dims
    samples = np.asarray(samples, dtype=np.int64)
    if samples.size == 0:
        return np.zeros((n, l1, l2), dtype=np.int64)
    if samples.ndim != 2 or samples.shape[1] != 3:
        raise ShapeMismatchError("samples must be an (N, 3) array")
    x, y, z = samples[:, 0], samples[:, 1], samples[:, 2]
    if x.min() < 0 or x.max() >= l1 or y.min() < 0 or y.max() >= l2 or z.min() < 0 or z.max() >= n:
        raise DistributionError("sample indices outside the declared domain")
    flat = (z * l1 + x) * l2 + y
    return np.bincount(flat, minlength=n * l1 * l2).reshape(n, l1, l2)


# ---------------------------------------------------------------------------
# File formats
#
# Sample file:        "#dims l1 l2 n" header then "x<TAB>y<TAB>z" per line,
#                     1-based indices.
# Distribution file:  same header then "i<TAB>j<TAB>z<TAB>prob" for nonzero
#                     cells; probabilities round-trip via repr().
# ---------------------------------------------------------------------------


_BLANK_LINE = re.compile(r"^[^\S\n]+$", re.MULTILINE)


def _read_cells(path, layout: str):
    """Parse a "#dims l1 l2 n" file whose lines follow `layout`, the
    tab-separated fields "i<TAB>j<TAB>z" then any extra value columns.

    Returns (dims, 0-based int64 (N, 3) cell indices, float (N, k) extra
    columns).  Blank lines are skipped; any malformed header, row, field
    or index raises DistributionError naming the path.
    """
    header, _, body = Path(path).read_text(encoding="utf-8").partition("\n")
    parts = header.split()
    if len(parts) != 4 or parts[0] != "#dims" or not all(v.isdigit() for v in parts[1:]):
        raise DistributionError(f"{path}: expected '#dims l1 l2 n' header, got {header!r}")
    dims = tuple(int(v) for v in parts[1:])
    if min(dims) < 1:
        raise DistributionError(f"{path}: dimensions must be positive")
    columns = layout.count("<TAB>") + 1
    body = _BLANK_LINE.sub("", body)
    if body.strip():
        try:
            rows = np.loadtxt(io.StringIO(body), delimiter="\t", ndmin=2, comments=None)
        except ValueError as exc:
            raise DistributionError(f"{path}: expected {layout!r} per line: {exc}") from None
    else:
        rows = np.empty((0, columns))
    if rows.shape[1] != columns:
        raise DistributionError(f"{path}: expected {layout!r} per line")
    cells = rows[:, :3]
    if np.any(cells != np.floor(cells)):
        raise DistributionError(f"{path}: non-integral cell index")
    if np.any((cells < 1) | (cells > dims)):
        raise DistributionError(f"{path}: cell index outside declared dims")
    return dims, cells.astype(np.int64) - 1, rows[:, 3:]


def write_sample_file(path, samples: np.ndarray, dims: tuple[int, int, int]) -> None:
    l1, l2, n = dims
    samples = np.asarray(samples, dtype=np.int64)
    lines = [f"#dims {l1} {l2} {n}"]
    for x, y, z in samples:
        lines.append(f"{x + 1}\t{y + 1}\t{z + 1}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_sample_file(path) -> tuple[np.ndarray, tuple[int, int, int]]:
    dims, samples, _ = _read_cells(path, "x<TAB>y<TAB>z")
    return samples, dims


def write_distribution_file(path, p: JointDistribution) -> None:
    l1, l2, n = p.dims
    lines = [f"#dims {l1} {l2} {n}"]
    xs, ys, zs = np.nonzero(p.mass)
    for x, y, z in zip(xs.tolist(), ys.tolist(), zs.tolist()):
        lines.append(f"{x + 1}\t{y + 1}\t{z + 1}\t{float(p.mass[x, y, z])!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_distribution_file(path) -> JointDistribution:
    """Read a distribution file; a cell listed twice is an error."""
    dims, cells, probs = _read_cells(path, "i<TAB>j<TAB>z<TAB>prob")
    flat = np.ravel_multi_index(tuple(cells.T), dims)
    hits = np.bincount(flat)
    if hits.max(initial=0) > 1:
        cell = " ".join(str(int(v) + 1) for v in np.unravel_index(hits.argmax(), dims))
        raise DistributionError(f"{path}: cell {cell} listed {hits.max()} times")
    mass = np.zeros(dims)
    mass[tuple(cells.T)] = probs[:, 0]
    normalized = abs(float(mass.sum()) - 1.0) <= NORMALIZED_ATOL
    try:
        return JointDistribution(mass, normalized=normalized)
    except DistributionError as exc:
        raise DistributionError(f"{path}: {exc}") from None
