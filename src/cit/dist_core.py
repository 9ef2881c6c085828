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


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class JointDistribution:
    """Dense joint mass on [l1] x [l2] x [n], axes ordered (x, y, z).

    Always a distribution: the mass sums to 1 within `NORMALIZED_ATOL`.
    `from_mass` divides a raw tensor, such as a pseudo-distribution, by
    its total.  The bin marginal cache is always derived from the tensor,
    never set independently.

    `mass` keeps the memory order its producer built.  `from_slices`, and
    the binary and random generators, transpose an (n, l1, l2) stack, so
    the binary, `paninski_no` and random instances are bin-major: a
    `no_binary_r1` instance at n = 100 has strides (16, 8, 32), a
    `random_far` one at 10 x 10 x 50 has (80, 8, 800).
    `from_mass` and `z_marginal` sum in that order, so their sums can differ
    in their last bits from the same sums over a C-ordered copy.
    """

    mass: np.ndarray

    def __post_init__(self):
        arr = np.array(self.mass, dtype=float)
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
        """Conditional table at bin z (uniform when the bin has no mass)."""
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
        return cls(arr / total), total

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
        return cls(tables.transpose(1, 2, 0) * weights)

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
    return JointDistribution(qmass)


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


def _draw_codes(p: JointDistribution, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` i.i.d. flat cell codes, as `poissonized_codes` returns them."""
    flat = p.mass.ravel()
    return rng.choice(flat.size, size=count, p=flat)


def _code_rows(p: JointDistribution, codes: np.ndarray) -> np.ndarray:
    """Flat cell codes as an (len(codes), 3) int array of (x, y, z) rows."""
    return np.column_stack(np.unravel_index(codes, p.dims))


def sample_fixed(p: JointDistribution, count: int, seed) -> np.ndarray:
    """`count` i.i.d. samples as an (count, 3) int array of (x, y, z) rows."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return _code_rows(p, _draw_codes(p, count, np.random.default_rng(seed)))


def poissonized_codes(p: JointDistribution, m: float, seed) -> np.ndarray:
    """Draw M ~ Poisson(m) then M i.i.d. samples, in arrival order, as int64
    flat cell codes (x l2 + y) n + z: the C-order indices into `p.mass`.

    Per-bin counts are then independent Poisson(m * p_Z(z)) variables.
    """
    if m < 0:
        raise ValueError("Poissonized sampling needs m >= 0")
    rng = np.random.default_rng(seed)
    return _draw_codes(p, int(rng.poisson(m)), rng)


def sample_poissonized(p: JointDistribution, m: float, seed) -> np.ndarray:
    """`poissonized_codes` as an (M, 3) int array of (x, y, z) rows."""
    return _code_rows(p, poissonized_codes(p, m, seed))


def poissonized_count_tensor(
    p: JointDistribution, m: float, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Independent per-cell counts N(x, y, z) ~ Poisson(m * p(x, y, z)) and
    their total M, as (M, count tensor).

    Equal in law to binning `sample_poissonized` output (M ~ Poisson(m),
    then a multinomial split), and used where a statistic depends on
    samples only through per-bin fingerprints.  The tensor is the draw
    itself: (l1, l2, n) like `p.mass`, in C order.  The counts and M are
    int64: callers keep m small enough for M to fit.
    """
    counts = rng.poisson(m * p.mass)
    return int(counts.sum()), counts


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
    malformed header, row, field or index (`1.0` included), any index
    outside dims, and any text that is not UTF-8, raises DistributionError
    naming the path; a malformed row or an index outside dims also names
    its line, the header being line 1.  The range check guards callers
    that use the cells unchecked, such as `cit debug flatten-grid`; the
    testers check again, for sample arrays passed to them directly.
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
        # no offset: numpy's reader counts it from the start of its chunk
        byte = exc.object[exc.start]
        raise DistributionError(
            f"{path}: not UTF-8 text: byte {byte:#04x}: {exc.reason}"
        ) from None
    cells = rows["cell"]
    if np.any((cells < 1) | (cells > dims)):
        if body is None:  # numpy parsed the named file: a regular file, read again
            body = Path(path).read_text(encoding="utf-8").partition("\n")[2]
        raise _index_error(path, body, cells, dims, layout)
    return dims, cells - 1, rows["value"]


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
    if len(parts) != 4 or parts[0] != "#dims" or not all(v.isdigit() for v in parts[1:]):
        raise DistributionError(f"{path}: expected '#dims l1 l2 n' header, got {header!r}")
    dims = tuple(int(v) for v in parts[1:])
    if min(dims) < 1:
        raise DistributionError(f"{path}: dimensions must be positive")
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
            body = Path(path).read_text(encoding="utf-8").partition("\n")[2]
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
    try:
        dist, total = JointDistribution.from_mass(mass)
        if abs(total - 1.0) <= NORMALIZED_ATOL:
            return JointDistribution(mass), 1.0
        return dist, total
    except DistributionError as exc:
        raise DistributionError(f"{path}: {exc}") from None
