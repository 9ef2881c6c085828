"""The benchmark's workloads: inputs made from a seed, and output checks.

Each workload is a list of `cit` command lines that make up one pass.  A
pass goes in through `cit.cli.main` in one process; nothing here starts
threads or processes (`cit power` runs with ``--workers 1``).  Inputs are
made by `prepare` from the benchmark seed alone; `check` judges one
command's output and returns a failure reason or None.  Checks never run
inside a timed region.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Call:
    """One `cit` command line; `csv` is the file it writes, if any."""

    argv: tuple[str, ...]
    csv: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: input parameters at full size and at the size the self-tests use
    sizes: dict
    prepare: Callable[[dict, int, Path], "Prepared"]


@dataclass
class Prepared:
    calls: list[Call]
    #: check(call_index, stdout, csv_text) -> failure reason or None
    check: Callable[[int, str, str | None], str | None]


# ---------------------------------------------------------------------------
# minm_binary: the min-m search behind criterion 9, one n
# ---------------------------------------------------------------------------

_M_CAP = 2_000_000


def _prepare_minm(p: dict, seed: int, workdir: Path) -> Prepared:
    argv = (
        "minm",
        "--n", str(p["n"]),
        "--eps", repr(p["eps"]),
        "--null-family", p["null_family"],
        "--alt-family", p["alt_family"],
        "--target", repr(p["target"]),
        "--trials", str(p["trials"]),
        "--m-cap", str(_M_CAP),
        "--seed", str(seed),
    )

    def check(i: int, stdout: str, csv: str | None) -> str | None:
        match = re.fullmatch(r"m=(\d+)\n", stdout)
        if match is None:
            return f"expected 'm=<int>', got {stdout[:80]!r}"
        m = int(match.group(1))
        if not 32 <= m <= _M_CAP:
            return f"m={m} outside [32, {_M_CAP}]"
        return None

    return Prepared([Call(argv)], check)


# ---------------------------------------------------------------------------
# power_general: one cell of a general-mode power plan
# ---------------------------------------------------------------------------


def _prepare_power(p: dict, seed: int, workdir: Path) -> Prepared:
    from cit.harness import CSV_COLUMNS

    plan = workdir / "plan.txt"
    out = workdir / "power.csv"
    lines = [f"{key}={value}" for key, value in p.items()] + [f"seed={seed}"]
    plan.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ("power", "--plan", str(plan), "--out", str(out), "--workers", "1")

    def check(i: int, stdout: str, csv: str | None) -> str | None:
        if stdout != f"wrote {out}\n":
            return f"unexpected stdout {stdout[:80]!r}"
        if csv is None:
            return "no CSV written"
        rows = csv.splitlines()
        if rows[0] != ",".join(CSV_COLUMNS):
            return "CSV header differs from CSV_COLUMNS"
        if len(rows) != 2:
            return f"expected one CSV row, got {len(rows) - 1}"
        row = dict(zip(CSV_COLUMNS, rows[1].split(",")))
        if row["status"] != "ok":
            return f"status {row['status']!r}"
        for key in ("accept_rate_null", "reject_rate_alt"):
            if not 0.0 <= float(row[key]) <= 1.0:
                return f"{key}={row[key]} outside [0, 1]"
        return None

    return Prepared([Call(argv, csv=str(out))], check)


# ---------------------------------------------------------------------------
# samples_file: both testers on one fixed-sample file
# ---------------------------------------------------------------------------

#: |A - A_exact| must stay within this share of sum_z |A_z| (exact); the
#: float kernels round each bin term, so the error scales with that sum
EXACT_RTOL = 1e-9


def make_samples(rows: int, dims: tuple[int, int, int], seed: int) -> np.ndarray:
    """`rows` samples (0-based (x, y, z)) from a random distribution in
    which half the bins are products of their marginals and the other half
    are mixed with a random matching, so the statistic is well above 0."""
    l1, l2, n = dims
    rng = np.random.default_rng(seed)
    pz = rng.dirichlet(np.full(n, 4.0))
    px = rng.dirichlet(np.ones(l1), size=n)
    py = rng.dirichlet(np.ones(l2), size=n)
    tables = px[:, :, None] * py[:, None, :]
    match = np.zeros((n, l1, l2))
    r = min(l1, l2)
    for z in range(n):
        match[z, rng.permutation(l1)[:r], rng.permutation(l2)[:r]] = 1.0 / r
    dependent = rng.random(n) < 0.5
    tables[dependent] = 0.5 * tables[dependent] + 0.5 * match[dependent]
    z = rng.choice(n, size=rows, p=pz)
    # inverse-CDF draw of the cell within each row's bin, all bins at once
    cdf = np.cumsum(tables.reshape(n, l1 * l2), axis=1)
    cdf[:, -1] = 1.0
    offsets = np.arange(n)[:, None] + cdf
    cell = np.searchsorted(offsets.ravel(), z + rng.random(rows), side="right") - z * l1 * l2
    cell = np.minimum(cell, l1 * l2 - 1)
    return np.column_stack([cell // l2, cell % l2, z]).astype(np.int64)


def write_samples(path: Path, samples: np.ndarray, dims: tuple[int, int, int]) -> None:
    """The `cit` sample-file format: '#dims' header, 1-based tab-separated rows."""
    names = [str(i) for i in range(max(dims) + 1)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#dims {} {} {}\n".format(*dims))
        fh.writelines(f"{names[x]}\t{names[y]}\t{names[z]}\n" for x, y, z in (samples + 1).tolist())


def exact_binary_statistic(samples: np.ndarray, dims) -> tuple[Fraction, Fraction]:
    """(A, sum_z |A_z|) of the binary tester, in exact arithmetic."""
    from cit.poly_estimator import l2_estimator

    l1, l2, n = dims
    flat = (samples[:, 2] * l1 + samples[:, 0]) * l2 + samples[:, 1]
    counts = np.bincount(flat, minlength=n * l1 * l2).reshape(n, l1, l2)
    total = scale = Fraction(0)
    for z in range(n):
        sigma = int(counts[z].sum())
        if sigma < 4:
            continue
        a_z = sigma * l2_estimator(counts[z].astype(object))
        total += a_z
        scale += abs(a_z)
    return total, scale


def exact_general_statistic(samples: np.ndarray, dims) -> tuple[float, float]:
    """(A, sum_z |A_z|) of the general tester with the Fraction estimator.

    Repeats the tester's split of each bin's samples in arrival order
    (flatten with the first min(t, l1) + min(t, l2), estimate on the next
    2t + 4) with exact weights; only the irrational omega_z is a float.
    """
    from cit.flattening import implicit_flattening
    from cit.poly_estimator import l2_estimator

    l1, l2, n = dims
    order = np.argsort(samples[:, 2], kind="stable")
    ordered = samples[order]
    bounds = np.searchsorted(ordered[:, 2], np.arange(n + 1))
    total = scale = 0.0
    for z in range(n):
        pairs = ordered[bounds[z] : bounds[z + 1], :2]
        size = pairs.shape[0]
        if size < 4:
            continue
        t = (size - 4) // 4
        t1, t2 = min(t, l1), min(t, l2)
        sigma = 2 * t + 4
        coeffs = implicit_flattening(pairs[: t1 + t2], l1, l2, t1, t2)
        test = pairs[t1 + t2 : t1 + t2 + sigma]
        fp = np.bincount(test[:, 0] * l2 + test[:, 1], minlength=l1 * l2).reshape(l1, l2)
        phi = l2_estimator(fp.astype(object), coeffs.weight_grid_exact())
        omega = math.sqrt(min(sigma, l1) * min(sigma, l2))
        a_z = sigma * omega * float(phi)
        total += a_z
        scale += abs(a_z)
    return total, scale


def _prepare_samples(p: dict, seed: int, workdir: Path) -> Prepared:
    dims = (p["l1"], p["l2"], p["n"])
    samples = make_samples(p["rows"], dims, seed)
    path = workdir / "samples.tsv"
    write_samples(path, samples, dims)
    exact = {
        "binary": tuple(float(v) for v in exact_binary_statistic(samples, dims)),
        "general": exact_general_statistic(samples, dims),
    }
    modes = ("binary", "general")
    calls = [
        Call(("test", "--mode", mode, "--eps", repr(p["eps"]), "--samples", str(path), "--json"))
        for mode in modes
    ]

    def check(i: int, stdout: str, csv: str | None) -> str | None:
        try:
            verdict = json.loads(stdout)
        except json.JSONDecodeError:
            return f"stdout is not a JSON verdict: {stdout[:80]!r}"
        if verdict["M_drawn"] != p["rows"] or verdict["m_used"] != p["rows"]:
            return f"verdict used {verdict['m_used']} of {p['rows']} rows"
        want, scale = exact[modes[i]]
        got = verdict["statistic_A"]
        if not abs(got - want) <= EXACT_RTOL * scale:
            return f"{modes[i]} statistic_A={got!r}, exact {want!r} (scale {scale!r})"
        if verdict["accept"] != (got <= verdict["threshold_tau"]):
            return "accept flag inconsistent with A <= tau"
        return None

    return Prepared(calls, check)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "minm_binary",
            "The min-m doubling and bisection search on the binary yes/no pair: "
            "instance generation, seeding, count draws, the binary kernel and calibration.",
            {
                "full": dict(n=100, eps=0.5, null_family="yes_binary_r1",
                             alt_family="no_binary_r1", target=0.7, trials=120),
                "tiny": dict(n=20, eps=0.5, null_family="yes_binary_r1",
                             alt_family="no_binary_r1", target=0.7, trials=50),
            },
            _prepare_minm,
        ),
        Workload(
            "power_general",
            "One general-mode power cell on distinct random instances: the per-bin "
            "flattening and l2 loop and sample draws, with no instance reuse.",
            {
                "full": dict(mode="general", null_family="random_ci", alt_family="random_far",
                             n=50, eps=0.5, m=5000, ell1=10, ell2=10, trials=50),
                "tiny": dict(mode="general", null_family="random_ci", alt_family="random_far",
                             n=20, eps=0.5, m=2000, ell1=4, ell2=4, trials=50),
            },
            _prepare_power,
        ),
        Workload(
            "samples_file",
            "Both testers on a fixed 2*10^5-row sample file: file parsing and the "
            "fixed-sample branch, with no RNG draws, checked against the exact path.",
            {
                "full": dict(rows=200_000, l1=8, l2=8, n=400, eps=0.5),
                "tiny": dict(rows=20_000, l1=4, l2=4, n=50, eps=0.5),
            },
            _prepare_samples,
        ),
    )
}
