"""Experiment orchestration: power grids, threshold calibration, CSV output,
and empirical minimum-sample-size probes.

All randomness derives from the master seed through counter paths: an
instance's from (cell index, trial index, family spec), a trial column's
draws from one stream keyed by (cell index, family spec), so results do
not depend on scheduling and identical null/alternative specs reproduce
identical trials.  CSV output is byte-stable for a fixed plan and seed;
wall-clock times live on the `PowerRow` objects (and stderr) but are kept
out of the CSV for that reason.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
import time
from concurrent import futures
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .dist_core import read_text
from .instances import EnsembleSpec, RegimeError, make_instance
from .seeding import child_seed, generator, seed_sequence
from .testers import (
    MAX_TRIALS, MIN_CALIBRATION_TRIALS, TesterConfig, TesterInputError, _calibration_statistics,
    _positive_tau, _tau_rank, calibrate_threshold, run_trials, sample_budget,
)

SCHEMA_VERSION = 1

MIN_TRIALS = 50

#: mass cells `find_min_m` keeps built instances for, over all its probes
#: (a memory bound: instances past it are rebuilt at every probe)
_INSTANCE_CACHE_CELLS = 1 << 22


class PlanError(ValueError):
    """Invalid experiment plan (CLI exit code 2)."""


class BudgetExhaustedError(RuntimeError):
    """Search budget exhausted (CLI exit code 3)."""


@dataclass(frozen=True)
class ExperimentPlan:
    """A grid of (n, eps, m) cells, a family pair, and trial counts.  Made
    only if every cell passes `_cell`, so a plan that a run would refuse
    fails before its first instance; the plan itself checks only the seed,
    the trial counts and that the grid is non-empty.  `gen_m` is the
    ensembles' heavy-bin parameter, None (the plan-file value `half_n`)
    for max(1, n // 2) at each n."""

    null_family: str
    alt_family: str
    n_values: tuple[int, ...]
    eps_values: tuple[float, ...]
    m_values: tuple[object, ...] = ("auto",)
    mode: str = "binary"
    ell1: int = 2
    ell2: int = 2
    trials: int = 100
    master_seed: int = 0
    beta: float = 2.0
    zeta: float = 2.0
    gen_m: int | None = None
    calibration_trials: int = 0

    def __post_init__(self):
        if self.master_seed < 0:
            raise PlanError(f"seed must be >= 0, got {self.master_seed}")
        if self.trials < MIN_TRIALS:
            raise PlanError(f"trials must be >= {MIN_TRIALS}")
        trial_counts = {"trials": self.trials, "calibration_trials": self.calibration_trials}
        for field, value in trial_counts.items():
            if value > MAX_TRIALS:
                raise PlanError(f"{field} must be <= {MAX_TRIALS}, got {value}")
        if not self.n_values or not self.eps_values or not self.m_values:
            raise PlanError("grid must be non-empty")
        if self.calibration_trials and self.calibration_trials < MIN_CALIBRATION_TRIALS:
            raise PlanError(f"calibration_trials must be 0 or >= {MIN_CALIBRATION_TRIALS}")
        for cell in self.grid:
            _cell(self, *cell)

    @property
    def grid(self) -> tuple[tuple[int, float, object], ...]:
        return tuple(itertools.product(self.n_values, self.eps_values, self.m_values))


@dataclass(frozen=True)
class PowerRow:
    """One grid cell's outcome, with status `ok`."""

    schema_version: int
    mode: str
    null_family: str
    alt_family: str
    n: int
    ell1: int
    ell2: int
    eps: float
    m: int
    gen_m: int
    trials: int
    tau: float
    accept_rate_null: float
    reject_rate_alt: float
    mean_A_null: float
    mean_A_alt: float
    var_A_null: float
    se_accept_null: float
    se_reject_alt: float
    status: str
    wall_time_s: float  # not emitted to CSV (would break byte determinism)

    def __post_init__(self):
        for rate in (self.accept_rate_null, self.reject_rate_alt):
            if not 0.0 <= rate <= 1.0:
                raise PlanError(f"rate {rate} outside [0, 1]")


#: CSV column order, PowerRow's fields without the wall time (schema_version
#: pins it for regression baselines)
CSV_COLUMNS = tuple(f.name for f in fields(PowerRow) if f.name != "wall_time_s")


# ---------------------------------------------------------------------------
# Plan files: flat key=value text, lists comma-separated.
# ---------------------------------------------------------------------------


def _list(parse):
    return lambda value: tuple(parse(v) for v in value.split(","))


#: plan key -> (ExperimentPlan field, parse function for its value)
_PLAN_KEYS = {
    "mode": ("mode", str),
    "null_family": ("null_family", str),
    "alt_family": ("alt_family", str),
    "n": ("n_values", _list(int)),
    "eps": ("eps_values", _list(float)),
    "m": ("m_values", _list(lambda v: "auto" if v.strip() == "auto" else int(v))),
    "ell1": ("ell1", int),
    "ell2": ("ell2", int),
    "trials": ("trials", int),
    "seed": ("master_seed", int),
    "beta": ("beta", float),
    "zeta": ("zeta", float),
    "gen_m": ("gen_m", lambda v: None if v == "half_n" else int(v)),
    "calibration_trials": ("calibration_trials", int),
}


def parse_plan_text(text: str) -> ExperimentPlan:
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise PlanError(f"line {lineno}: expected 'key=value'")
        if key not in _PLAN_KEYS:
            raise PlanError(f"line {lineno}: unknown plan key {key!r}")
        if key in raw:
            raise PlanError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = lineno, value
    kwargs: dict = {}
    for key, (lineno, value) in raw.items():
        field, parse = _PLAN_KEYS[key]
        try:
            kwargs[field] = parse(value)
        except ValueError as exc:
            raise PlanError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    for required in ("null_family", "alt_family", "n"):
        if required not in raw:
            raise PlanError(f"plan is missing {required!r}")
    kwargs.setdefault("eps_values", (0.5,))
    return ExperimentPlan(**kwargs)


def parse_plan_file(path) -> ExperimentPlan:
    return parse_plan_text(read_text(path))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _cell(plan: ExperimentPlan, n: int, eps: float, m_spec):
    """(cfg, null spec, alt spec) of the grid cell (n, eps, m_spec): the
    tester config with its budget pinned, and the two families' specs but
    for their seeds.  Raises PlanError, naming the cell, for whatever a run
    of the cell would refuse: a family rule (an unknown family, an alphabet
    or n it cannot take, its regime), unpaired `dims`, a tester parameter
    such as the mode, or a budget or domain `sample_budget` refuses."""
    specs = []
    for family in (plan.null_family, plan.alt_family):
        try:
            specs.append(EnsembleSpec(family, n, eps, plan.gen_m, ell1=plan.ell1, ell2=plan.ell2))
        except RegimeError as exc:
            raise PlanError(f"family {family!r} at n={n} eps={eps!r}: {exc}") from None
    null, alt = specs
    if null.dims != alt.dims:
        raise PlanError(f"families {null.family!r} and {alt.family!r} have different domains "
                        f"at n={n}: {null.dims} and {alt.dims}")
    try:
        cfg = TesterConfig(eps, plan.mode, plan.beta, plan.zeta,
                           None if m_spec == "auto" else int(m_spec))
        return replace(cfg, m_override=sample_budget(cfg, null.dims)), null, alt
    except TesterInputError as exc:
        raise PlanError(f"cell eps={eps!r} m={m_spec}: {exc}") from None


def _instances(master_seed: int, spec: EnsembleSpec):
    """`(key, instance)` for the instances of `spec`: `key` names the spec
    but for its seed, and `instance(*path)` builds the instance from the one
    `SeedSequence` `seed_sequence(master_seed, *path, key)`, so identical
    specs get identical instances."""
    key = f"{spec.family}|{spec.n}|{spec.eps!r}|{spec.m}|{spec.ell1}x{spec.ell2}"

    def instance(*path):
        return make_instance(replace(spec, seed=seed_sequence(master_seed, *path, key)))[0]

    return key, instance


def _trial_column(cfg: TesterConfig, trials: int, instance, rng):
    """Accept flags and statistics A of `trials` trials through `run_trials`:
    trial t tests `instance(t)`, and the trials draw from the column
    stream `rng` in order."""
    accepts = np.empty(trials, dtype=bool)
    stats = np.empty(trials)
    verdicts = run_trials(map(instance, range(trials)), cfg, rng)
    for t, verdict in enumerate(verdicts):
        accepts[t] = verdict.accept
        stats[t] = verdict.statistic_A
    return accepts, stats


def _column_reaches(cfg: TesterConfig, trials: int, instance, rng, accept: bool,
                    target_power: float) -> bool:
    """Whether at least `target_power * trials` of the trials of
    `_trial_column(cfg, trials, instance, rng)` have the accept flag
    `accept`.  Verdicts are pulled one at a time, and the column stops at
    the first trial where that is settled (`_settles`)."""
    verdicts = run_trials(map(instance, range(trials)), cfg, rng)
    return _settles((v.accept == accept for v in verdicts), trials, target_power * trials)


def _settles(hits, trials: int, need: float, count: int = 0, pulled: int = 0) -> bool:
    """Whether a column of `trials` trials has at least `need` hits, when
    `pulled` of its trials, `count` of them hits, are already in and
    `hits` yields the flags of the rest in order.  Flags are pulled one at
    a time until the outcome is settled: when the hits reach `need`, or
    when the hits plus the trials left fall short of it."""
    while count < need <= count + trials - pulled:
        count += next(hits)
        pulled += 1
    return count >= need


def _probe(cfg: TesterConfig, seed: int, m: int, null_instance, alt_instance, trials: int,
           calibration_trials: int, target_power: float) -> bool:
    """The outcome of `find_min_m`'s probe at budget m: with tau calibrated
    on `calibration_trials` (C) null instances, at least `target_power *
    trials` alternative trials reject and as many null trials accept.

    Calibration and alternative statistics are pulled in turn, one of
    each.  The (C // 6 + 1)-th largest calibration statistic so far,
    floored as tau is (`_tau_rank`, `_positive_tau`), is a bound lo <= tau
    that only rises, and the probe fails at the first pair where the
    alternative statistics above lo plus the alternative trials left fall
    short of the target.  Otherwise lo ends as tau, the alternative column
    goes on from where it stopped, and the null column follows, each to
    its first settled trial (`_settles`).  Min-heaps of the C // 6 + 1
    largest calibration statistics and of the alternative statistics
    above lo make this O(log C) a trial.  The calibration, alternative and
    null columns draw from three streams (`child_seed(seed, "minm-cal",
    m)`, `generator(seed, "minm-alt" or "minm-null", m)`), so the order of
    pulls moves no draw: the outcome is that of all three run in full.
    """
    cfg = replace(cfg, m_override=m, seed=child_seed(seed, "minm-cal", m))
    need = target_power * trials
    rank = _tau_rank(calibration_trials)
    top: list[float] = []
    above: list[float] = []
    lo = _positive_tau(-math.inf)
    # the alternative verdicts carry cfg's own threshold: only their A is read
    alt = (v.statistic_A for v in run_trials(map(alt_instance, range(trials)), cfg,
                                             generator(seed, "minm-alt", m)))
    pulled = 0
    for null_stat in _calibration_statistics(null_instance, cfg, calibration_trials):
        if len(top) < rank:
            heapq.heappush(top, null_stat)
        else:
            heapq.heappushpop(top, null_stat)
        if len(top) == rank:
            lo = _positive_tau(top[0])
            while above and above[0] <= lo:
                heapq.heappop(above)
        if pulled < trials:
            pulled += 1
            if (alt_stat := next(alt)) > lo:
                heapq.heappush(above, alt_stat)
        if len(above) + trials - pulled < need:
            return False
    return (_settles((stat > lo for stat in alt), trials, need, len(above), pulled)
            and _column_reaches(replace(cfg, tau_override=lo), trials, null_instance,
                                generator(seed, "minm-null", m), True, target_power))


def _run_cell(plan: ExperimentPlan, cell_idx: int, cell) -> PowerRow:
    n, eps, _ = cell
    start = time.perf_counter()
    cfg, null_spec, alt_spec = _cell(plan, *cell)
    tau = None
    if plan.calibration_trials:
        _, null_instance = _instances(plan.master_seed, null_spec)
        tau = calibrate_threshold(
            partial(null_instance, "cell", cell_idx, "cal-inst"),
            replace(cfg, seed=child_seed(plan.master_seed, "cell", cell_idx, "cal")),
            plan.calibration_trials,
        )
    cfg = replace(cfg, tau_override=tau)

    def column(spec: EnsembleSpec) -> tuple[np.ndarray, np.ndarray]:
        key, instance = _instances(plan.master_seed, spec)
        return _trial_column(
            cfg, plan.trials, partial(instance, "cell", cell_idx, "inst"),
            generator(plan.master_seed, "cell", cell_idx, "test", key),
        )

    null_acc, null_stats = column(null_spec)
    alt_acc, alt_stats = column(alt_spec)
    accept_rate = float(null_acc.mean())
    reject_rate = float(1.0 - alt_acc.mean())
    ell1, ell2, _ = null_spec.dims
    return PowerRow(
        schema_version=SCHEMA_VERSION,
        mode=plan.mode,
        null_family=plan.null_family,
        alt_family=plan.alt_family,
        n=n,
        ell1=ell1,
        ell2=ell2,
        eps=eps,
        m=cfg.m_override,
        gen_m=null_spec.m,
        trials=plan.trials,
        tau=float(tau) if tau is not None else float("nan"),
        accept_rate_null=accept_rate,
        reject_rate_alt=reject_rate,
        mean_A_null=float(null_stats.mean()),
        mean_A_alt=float(alt_stats.mean()),
        var_A_null=float(null_stats.var(ddof=1)),
        se_accept_null=float(np.sqrt(accept_rate * (1 - accept_rate) / plan.trials)),
        se_reject_alt=float(np.sqrt(reject_rate * (1 - reject_rate) / plan.trials)),
        status="ok",
        wall_time_s=time.perf_counter() - start,
    )


def run_power_experiment(plan: ExperimentPlan, out_path=None, workers: int = 1) -> list[PowerRow]:
    """Run every grid cell in full; one row per cell, in grid order.
    `workers` (>= 1) processes run the cells, never more than the plan has
    cells, and every worker count writes the same CSV."""
    if workers < 1:
        raise PlanError(f"workers must be >= 1, got {workers}")
    cells = plan.grid
    workers = min(workers, len(cells))
    if workers > 1:
        # looked up here, so that only a pooled run loads multiprocessing
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            pending = [pool.submit(_run_cell, plan, idx, cell) for idx, cell in enumerate(cells)]
            rows = [fut.result() for fut in pending]
    else:
        rows = [_run_cell(plan, idx, cell) for idx, cell in enumerate(cells)]
    for row in rows:
        print(
            f"cell n={row.n} eps={row.eps} m={row.m} status={row.status} "
            f"wall={row.wall_time_s:.2f}s",
            file=sys.stderr,
        )
    if out_path is not None:
        write_power_csv(out_path, rows)
    return rows


def write_power_csv(path, rows: list[PowerRow]) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        # str(float) is repr(float): the shortest string that round-trips
        lines.append(",".join(str(getattr(row, name)) for name in CSV_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Empirical sample-size probe
# ---------------------------------------------------------------------------


def find_min_m(
    n: int,
    eps: float,
    families: tuple[str, str],
    target_power: float,
    seed: int,
    *,
    mode: str = "binary",
    ell1: int = 2,
    ell2: int = 2,
    trials: int = 150,
    calibration_trials: int = 150,
    m_start: int = 32,
    m_cap: int = 2_000_000,
) -> int:
    """Smallest tested sample budget m at which the calibrated tester
    accepts the null family and rejects the alternative family at rate
    >= target_power, found by doubling from `m_start` (the last step is
    `m_cap`), then two rounds of log-midpoint bisection.

    Instances take `EnsembleSpec`'s default heavy-bin parameter
    max(1, n // 2) and are common across probed m values (seeds
    keyed by trial only), which keeps the empirical power roughly monotone
    in m; residual statistical noise is inherent and documented.  Each
    probe (`_probe`) pins m and calibrates tau on the first
    `calibration_trials` null instances, so neither beta nor zeta enters
    it, against up to `trials` alternative trials and, if they reach the
    target, up to `trials` null trials on the same instances, all through
    `run_trials` (blocks share one count draw and one kernel call).  It
    pulls calibration and alternative trials in turn and stops once a
    lower bound on tau settles its failure, so a failing probe need not
    finish its calibration; each column stops at its first settled
    trial, and every probe has the outcome of its calibration and columns
    run in full.  The probe at m draws its calibration from the master
    `child_seed(seed, "minm-cal", m)` and its null and alternative columns
    from the streams `generator(seed, tag, m)`, tag "minm-null" or
    "minm-alt"; m enters at full width, so no two probes share a stream.  The
    search builds each distinct (family, trial) instance once and keeps it
    for every probe, up to 2^22 mass cells in all; instances past that
    budget are rebuilt at every use, so memory stays O(n) for any n.
    Raises PlanError, before any probe, when `target_power` is outside
    (0.5, 0.95), `trials` outside [MIN_TRIALS, MAX_TRIALS],
    `calibration_trials` outside [MIN_CALIBRATION_TRIALS, MAX_TRIALS],
    `m_start` below 1, `m_cap` below `m_start`, or the
    plan cell (n, eps, m_cap) is refused (`_cell`: a family rule, unpaired
    domains, or an `m_cap` or domain that `sample_budget` refuses), and
    BudgetExhaustedError when the doubling fails at `m_cap`.
    """
    if not 0.5 < target_power < 0.95:
        raise PlanError(f"target_power must lie in (0.5, 0.95), got {target_power!r}")
    if m_start < 1:
        raise PlanError(f"m_start must be >= 1 and <= m_cap {m_cap}, got {m_start}")
    if m_cap < m_start:
        raise PlanError(f"m_cap must be >= m_start {m_start}, got {m_cap}")
    if not MIN_CALIBRATION_TRIALS <= calibration_trials <= MAX_TRIALS:
        raise PlanError(f"calibration_trials must lie in [{MIN_CALIBRATION_TRIALS}, "
                        f"{MAX_TRIALS}], got {calibration_trials}")
    null_family, alt_family = families
    # every probe's m is at most m_cap, so the plan's one cell checks them all
    plan = ExperimentPlan(null_family, alt_family, (n,), (eps,), (m_cap,), mode=mode,
                          ell1=ell1, ell2=ell2, trials=trials, master_seed=seed)
    cfg, *specs = _cell(plan, n, eps, m_cap)
    builders = {spec.family: _instances(seed, spec)[1] for spec in specs}
    cache: dict = {}
    # `_cell` pairs the two families' domains, so every instance has one size
    cache_size = _INSTANCE_CACHE_CELLS // math.prod(specs[0].dims)

    def instance(family: str, t: int):
        inst = cache.get((family, t))
        if inst is None:
            inst = builders[family]("minm-inst", t)
            if len(cache) < cache_size:
                cache[(family, t)] = inst
        return inst

    def probe(m: int) -> bool:
        return _probe(cfg, seed, m, partial(instance, null_family), partial(instance, alt_family),
                      trials, calibration_trials, target_power)

    # lo is the last m that failed: equal to m until a probe fails, so that a
    # first probe that passes leaves no midpoint to probe
    lo = m = m_start
    while not probe(m):
        if m == m_cap:
            raise BudgetExhaustedError(
                f"no m <= {m_cap} reached power {target_power} for {families}"
            )
        lo, m = m, min(2 * m, m_cap)
    for _ in range(2):
        mid = int(round((lo * m) ** 0.5))
        if not lo < mid < m:
            break
        if probe(mid):
            m = mid
        else:
            lo = mid
    return m
