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
import math
import os
import re
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

#: absolute tolerance on total mass for a tensor to count as normalized
NORMALIZED_ATOL = 1e-12


class DistributionError(ValueError):
    """Invalid distribution data (negative mass, bad shape, bad file)."""


class ShapeMismatchError(DistributionError):
    """Operands have incompatible shapes."""


class NotNormalizedError(DistributionError):
    """A tensor given to `JointDistribution` does not sum to 1 within
    `NORMALIZED_ATOL`; `JointDistribution.from_mass` divides raw tensors."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    """`arr`, a fresh array, marked read-only: a distribution keeps such a
    mass uncopied."""
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class JointDistribution:
    """Dense joint mass on [l1] x [l2] x [n], axes ordered (x, y, z).

    Always a distribution: the mass sums to 1 within `NORMALIZED_ATOL`.
    `from_mass` divides a raw tensor, such as a pseudo-distribution, by
    its total.  A read-only float64 mass that owns its data, as the
    constructors here make, is kept; any other is copied.  The bin marginal cache is always
    derived from the tensor, never set independently.

    `mass` keeps the memory order its producer built.  `from_slices` and
    the random generators transpose an (n, l1, l2) stack, so the
    `paninski_no` and random instances are bin-major: a `random_far`
    instance at 10 x 10 x 50 has strides (80, 8, 800).  The binary
    generator gathers its mass in C order: a `no_binary_r1` instance at
    n = 100 has strides (1600, 800, 8).
    `from_mass` and `z_marginal` sum in that order, so their sums can differ
    in their last bits from the same sums over a C-ordered copy.
    """

    mass: np.ndarray

    def __post_init__(self):
        arr = self.mass
        if not (type(arr) is np.ndarray and arr.dtype == np.float64
                and arr.flags.owndata and not arr.flags.writeable):
            arr = np.array(arr, dtype=float)
        if arr.ndim != 3:
            raise ShapeMismatchError("joint mass must be a 3-D tensor (x, y, z)")
        if min(arr.shape) < 1:
            raise ShapeMismatchError("all three dimensions must be positive")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise DistributionError("mass entries must be finite and >= 0")
        total = float(arr.sum())
        if abs(total - 1.0) > NORMALIZED_ATOL:
            raise NotNormalizedError(f"total mass {total!r} not within {NORMALIZED_ATOL} of 1")
        arr.setflags(write=False)
        object.__setattr__(self, "mass", arr)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.mass.shape  # type: ignore[return-value]

    @cached_property
    def z_marginal(self) -> np.ndarray:
        """p_Z, the bin-weight vector (derived cache)."""
        return _readonly(self.mass.sum(axis=(0, 1)))

    def slice_table(self, z: int) -> np.ndarray:
        """Conditional table at bin z (uniform if no mass); the dist and instance tests' oracle."""
        l1, l2, _ = self.dims
        w = self.z_marginal[z]
        if w == 0.0:
            return np.full((l1, l2), 1.0 / (l1 * l2))
        return self.mass[:, :, z] / w

    @classmethod
    def from_mass(cls, mass) -> tuple["JointDistribution", float]:
        """(`mass` divided by its total, that total); DistributionError
        unless the total is positive and finite."""
        arr = np.asarray(mass, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan is refused below
            total = float(arr.sum())
        if not 0.0 < total < np.inf:
            raise DistributionError(f"total mass {total!r} is not positive and finite")
        return cls(_readonly(arr / total)), total

    @classmethod
    def from_slices(cls, weights, tables) -> "JointDistribution":
        """Assemble p(x, y, z) = weights[z] * tables[z][x, y].

        `tables` has shape (n, l1, l2); rows with zero weight may hold any
        normalized table.
        """
        weights = np.asarray(weights, dtype=float)
        tables = np.asarray(tables, dtype=float)
        if tables.ndim != 3 or weights.shape != (tables.shape[0],):
            raise ShapeMismatchError("need weights (n,) and tables (n, l1, l2)")
        return cls(_readonly(tables.transpose(1, 2, 0) * weights))

    @classmethod
    def uniform(cls, l1: int, l2: int, n: int) -> "JointDistribution":
        return cls(_readonly(np.full((l1, l2, n), 1.0 / (l1 * l2 * n))))


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


def _conditional_marginals(p: JointDistribution):
    """(p_Z, p(x, y | z), p(x | z), p(y | z)), bins along the last axis;
    a bin of zero weight gets zero tables."""
    pz = p.z_marginal
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(pz > 0, p.mass / pz, 0.0)
    return pz, cond, cond.sum(axis=1), cond.sum(axis=0)


def mixture_q(p: JointDistribution) -> JointDistribution:
    """The conditionally independent mixture with q(i,j,z) = p_Z(z) q_z(i,j).

    Every slice of the result is the product of its own marginals, and the
    bin marginal matches p's exactly (up to float rounding).
    """
    pz, _, px, py = _conditional_marginals(p)
    qmass = pz * px[:, None, :] * py[None, :, :]
    # zero-weight bins contribute no mass either way
    return JointDistribution(_readonly(qmass))


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
    pz, cond, px, py = _conditional_marginals(p)
    with np.errstate(divide="ignore", invalid="ignore"):
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


def _draw_rows(p: JointDistribution, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` i.i.d. (x, y, z) rows: `rng.choice` over p's C-order cells."""
    codes = rng.choice(p.mass.size, size=count, p=p.mass.ravel())
    return np.column_stack(np.unravel_index(codes, p.dims))


def sample_fixed(p: JointDistribution, count: int, seed) -> np.ndarray:
    """`count` i.i.d. samples as an (count, 3) int array of (x, y, z) rows."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return _draw_rows(p, count, np.random.default_rng(seed))


def sample_poissonized(p: JointDistribution, m: float, seed) -> np.ndarray:
    """Draw M ~ Poisson(m) then M i.i.d. samples, in arrival order, as an
    (M, 3) int array of (x, y, z) rows; per-bin counts are then independent
    Poisson(m * p_Z(z)).  The testers draw counts instead
    (`poissonized_count_tensor`, `conditional_cell_counts`)."""
    if m < 0:
        raise ValueError("Poissonized sampling needs m >= 0")
    rng = np.random.default_rng(seed)
    return _draw_rows(p, int(rng.poisson(m)), rng)


def poissonized_count_tensor(
    dists, m, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Independent per-cell counts N_i(x, y, z) ~ Poisson(m * p_i(x, y, z))
    at the one budget m for each distribution p_i in `dists`, all of one
    shape (l1, l2, n), as (total M over all of them, counts).

    For one distribution this is equal in law to binning
    `sample_poissonized` output (M ~ Poisson(m), then a multinomial split),
    and is used where a statistic depends on samples only through per-bin
    fingerprints.  The counts are the draw itself, a C-order int64
    (k, l1, l2, n) array: one `rng.poisson` call over the stacked rates,
    which takes the same variates from `rng` as k calls in a row, one per
    distribution, so a trial's counts do not depend on how many others
    share its call.  Callers keep m small enough for each distribution's
    total to fit in int64 (`sample_budget` allows up to 2^62); M is the
    exact Python-int sum of those totals, which may pass 2^63.
    """
    dists = list(dists)
    rates = np.empty((len(dists), *dists[0].dims))
    for row, p in zip(rates, dists):
        np.multiply(m, p.mass, out=row)
    counts = rng.poisson(rates)
    return sum(counts.sum(axis=(1, 2, 3)).tolist()), counts


def _runs(keys: np.ndarray) -> np.ndarray:
    """The bounds of the runs of equal entries of `keys`: run i is
    keys[bounds[i]:bounds[i + 1]]."""
    edge = np.ones(keys.size + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    return np.flatnonzero(edge)


def conditional_cell_counts(p: JointDistribution, sizes, rng: np.random.Generator) -> list:
    """For each per-bin count vector k in `sizes`, k[z] i.i.d. draws from
    bin z's conditional table p(x, y | z) for every bin z, as (cells,
    counts): the occupied cells as ascending bin-major flat indices
    z l1 l2 + x l2 + y, and their int64 counts.

    A bin with k[z] > 0 must have positive weight.  The general tester's
    twin of `poissonized_count_tensor`: it draws each bin's flattening and
    test counts with no sample array.  Per bin, the counts alone choose
    the method, so the draws are deterministic: a bin with k[z] >= l1 l2
    draws one `multinomial` over its table divided by its own sum, in
    O(l1 l2) at any k[z]; any other draws k[z] uniforms scaled into its
    span of the bin-major cumulative mass and searches them, sorted, in
    that cumulative mass (side right, so a cell of zero mass is never
    found), in O(k[z] log(n l1 l2)).  A bin whose span rounds to zero
    width draws by `multinomial` too.  The cumulative mass is built once
    for all of `sizes`, and the draws take `rng` in the order of `sizes`,
    each vector's searched bins before its multinomial ones.
    """
    l1, l2, n = p.dims
    width = l1 * l2
    table = p.mass.transpose(2, 0, 1).reshape(n, width)
    cdf = table.cumsum()
    # bin z's keys lie in [edges[z], top[z]]; the bins' spans are disjoint and ascending
    edges = np.concatenate(([0.0], cdf[width - 1::width]))
    span, top = np.diff(edges), np.nextafter(edges[1:], -np.inf)
    drawn = []
    for k in sizes:
        dense = (k >= width) | (k > 0) & (span == 0.0)
        bins = np.repeat(np.arange(n), np.where(dense, 0, k))
        keys = rng.random(bins.size)
        keys *= span[bins]
        keys += edges[bins]
        np.minimum(keys, top[bins], out=keys)
        keys.sort()
        cells = cdf.searchsorted(keys, side="right")
        bounds = _runs(cells)
        cells, counts = cells[bounds[:-1]], np.diff(bounds)
        heavy = np.flatnonzero(dense)
        if heavy.size:
            rows = table[heavy]
            grid = rng.multinomial(k[heavy], rows / rows.sum(axis=1, keepdims=True)).ravel()
            occupied = np.flatnonzero(grid)
            cells = np.concatenate((cells, heavy[occupied // width] * width + occupied % width))
            counts = np.concatenate((counts, grid[occupied]))
            order = cells.argsort()
            cells, counts = cells[order], counts[order]
        drawn.append((cells, counts))
    return drawn


# ---------------------------------------------------------------------------
# File formats
#
# Sample file:        "#dims l1 l2 n" header then "x<TAB>y<TAB>z" per line,
#                     1-based indices.
# Distribution file:  same header then "i<TAB>j<TAB>z<TAB>prob" for nonzero
#                     cells; probabilities round-trip via repr().
# ---------------------------------------------------------------------------


_BLANK_LINE = re.compile(r"^[^\S\n]+$", re.MULTILINE)

#: names that `np.loadtxt` decompresses by suffix rather than reading as text
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _read_cells(path, layout: str):
    """Parse a "#dims l1 l2 n" file whose lines follow `layout`, the
    tab-separated fields "i<TAB>j<TAB>z" then any extra value columns.

    Returns (dims, 0-based int64 (N, 3) cell indices, float (N, k) extra
    columns).  One structured `np.loadtxt` pass reads the indices as
    decimal integers straight into int64 and the extra columns as floats.
    Empty lines are skipped, and a body of blank lines is zero rows.  Any
    malformed header (dims of more cells than numpy can index included),
    row, field or index (`1.0` included), any index outside dims, and any
    text that is not UTF-8, raises DistributionError naming the path; a
    malformed row or an index outside dims also names its line, the
    header being line 1.  The range check guards callers that use the
    cells unchecked, such as `cit debug flatten-grid`; the testers check
    again, for sample arrays passed to them directly.
    """
    dtype = [("cell", np.int64, (3,)), ("value", float, (layout.count("<TAB>") - 2,))]
    try:
        with open(path, encoding="utf-8") as fh:
            dims = _read_header(path, fh.readline())
            if _parses_by_name(path):
                # None: numpy parses the file; "": no line holds more than blanks
                body = None if any(line.strip() for line in fh) else ""
            else:
                body = fh.read()
        rows = _parse_rows(path, body, dtype, layout)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    cells = rows["cell"]
    if np.any((cells < 1) | (cells > dims)):
        if body is None:  # numpy parsed the named file: a regular file, read again
            body = read_text(path).partition("\n")[2]
        raise _index_error(path, body, cells, dims, layout)
    return dims, cells - 1, rows["value"]


def read_text(path) -> str:
    """The text of the file at `path`, which must be UTF-8 (else DistributionError)."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def _not_utf8(path, exc: UnicodeDecodeError) -> DistributionError:
    # no offset: numpy's reader counts it from the start of its chunk
    byte = exc.object[exc.start]
    return DistributionError(f"{path}: not UTF-8 text: byte {byte:#04x}: {exc.reason}")


def _index_error(path, body: str, cells, dims, layout: str) -> DistributionError:
    """The error for the first index in `cells` outside `dims`, naming its
    field in `layout` and its file line: row k of `cells` is the k-th line
    of `body` that holds more than blanks, and `body` starts at line 2."""
    bad = (cells < 1) | (cells > dims)
    row = int(bad.any(axis=1).argmax())
    col = int(bad[row].argmax())
    lineno = [i for i, line in enumerate(body.split("\n"), start=2) if line.strip()][row]
    field = layout.split("<TAB>")[col]
    return DistributionError(
        f"{path}: line {lineno}: {field} index {cells[row, col]} outside [1, {dims[col]}]"
    )


def _read_header(path, header: str) -> tuple[int, int, int]:
    header = header.removesuffix("\n")
    parts = header.split()
    # ASCII digits, as numpy reads the rows: str.isdigit also takes "²" and "٣"
    if len(parts) != 4 or parts[0] != "#dims" or not re.fullmatch("[0-9]+", "".join(parts[1:])):
        raise DistributionError(f"{path}: expected '#dims l1 l2 n' header, got {header!r}")
    dims = tuple(int(v) for v in parts[1:])
    if min(dims) < 1:
        raise DistributionError(f"{path}: dimensions must be positive")
    if math.prod(dims) > np.iinfo(np.intp).max:
        raise DistributionError(
            f"{path}: dims '{' '.join(parts[1:])}' give more cells than numpy can index"
        )
    return dims


def _parses_by_name(path) -> bool:
    """Whether `np.loadtxt(path)` reads the file again from its start, as
    plain text: a regular file (a pipe is read once), not a name numpy
    decompresses, nor one its DataSource takes for a URL and would fetch."""
    name = os.fspath(path)
    url = urlsplit(name)
    return (
        os.path.isfile(name)
        and not name.endswith(_COMPRESSED)
        and not (url.scheme and url.netloc)
    )


def _parse_rows(path, body: str | None, dtype, layout: str) -> np.ndarray:
    """The rows after the header as a structured array of `dtype`.

    With `body` None numpy's chunked C reader parses the named file, and
    only if that fails is the text read.  The text is parsed with the lines
    of blanks emptied, one line at a time, so that a failure names the
    first line numpy rejects.
    """
    parse = partial(np.loadtxt, dtype=dtype, delimiter="\t", ndmin=1, comments=None)
    if body is None:
        try:
            return parse(path, skiprows=1, encoding="utf-8")
        except UnicodeDecodeError:
            raise
        except ValueError:
            body = read_text(path).partition("\n")[2]
    if not body.strip():
        return np.empty(0, dtype)
    lineno, line = 1, ""

    def numbered(lines):
        nonlocal lineno, line
        for lineno, line in enumerate(lines, start=2):
            yield line

    try:
        return parse(numbered(io.StringIO(_BLANK_LINE.sub("", body))))
    except ValueError as exc:
        fields, width = line.rstrip("\n").count("\t") + 1, layout.count("<TAB>") + 1
        reason = f"found {fields} fields" if fields != width else str(exc).partition(" at row ")[0]
        raise DistributionError(
            f"{path}: line {lineno}: expected {layout!r} per line: {reason}"
        ) from None


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


def read_distribution_file(path) -> tuple[JointDistribution, float]:
    """Read a distribution file as (distribution, factor); a cell listed
    twice is an error, and so is a total that `from_mass` refuses.  A file
    whose total is within `NORMALIZED_ATOL` of 1 is kept as read, with
    factor 1.0; any other is divided by its total, the factor."""
    dims, cells, probs = _read_cells(path, "i<TAB>j<TAB>z<TAB>prob")
    flat = np.ravel_multi_index(tuple(cells.T), dims)
    hits = np.bincount(flat)
    if hits.max(initial=0) > 1:
        cell = " ".join(str(int(v) + 1) for v in np.unravel_index(hits.argmax(), dims))
        raise DistributionError(f"{path}: cell {cell} listed {hits.max()} times")
    mass = np.zeros(dims)
    mass[tuple(cells.T)] = probs[:, 0]
    _readonly(mass)
    with np.errstate(over="ignore", invalid="ignore"):  # from_mass refuses inf or nan
        normalized = abs(mass.sum() - 1.0) <= NORMALIZED_ATOL
    try:
        if normalized:
            return JointDistribution(mass), 1.0
        return JointDistribution.from_mass(mass)
    except DistributionError as exc:
        raise DistributionError(f"{path}: {exc}") from None
