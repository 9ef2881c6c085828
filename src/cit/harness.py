"""Experiment orchestration: power grids, threshold calibration, CSV output,
and empirical minimum-sample-size probes.

All per-trial randomness derives from the master seed through counter
paths keyed by (cell index, trial index, family spec), so results do not
depend on scheduling and identical null/alternative specs reproduce
identical trials.  CSV output is byte-stable for a fixed plan and seed;
wall-clock times live on the `PowerRow` objects (and stderr) but are kept
out of the CSV for that reason.
"""

from __future__ import annotations

import itertools
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .instances import (
    FAMILIES, NNN_FAMILIES, EnsembleSpec, RegimeError, check_alphabet, make_instance
)
from .seeding import child_seed, seed_sequence
from .testers import (
    _MODES, MAX_TRIALS, TesterConfig, TesterInputError, calibrate_threshold, run_trials,
    sample_budget,
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
    """A grid of (n, eps, m) cells, a family pair, and trial counts."""

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
    gen_m: object = "half_n"
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
        for fam in (self.null_family, self.alt_family):
            if fam not in FAMILIES:
                raise PlanError(f"unknown family {fam!r}")
            try:
                check_alphabet(fam, self.ell1, self.ell2)
            except RegimeError as exc:
                raise PlanError(str(exc)) from None
            if fam in NNN_FAMILIES and "auto" in self.m_values:
                raise PlanError(f"family {fam!r} is 2n x n x n: give explicit m, not m=auto")
        if (self.null_family in NNN_FAMILIES) != (self.alt_family in NNN_FAMILIES):
            raise PlanError(
                f"families {self.null_family!r} and {self.alt_family!r} have different "
                "domains: pair an nnn family only with an nnn family"
            )
        if self.mode not in _MODES:
            raise PlanError(f"unknown mode {self.mode!r}")
        if min(self.n_values) < 1:
            raise PlanError(f"n must be >= 1, got {min(self.n_values)}")
        for eps, m in itertools.product(self.eps_values, self.m_values):
            try:
                TesterConfig(eps, self.mode, self.beta, self.zeta, None if m == "auto" else m)
            except TesterInputError as exc:
                raise PlanError(f"cell eps={eps!r} m={m}: {exc}") from None
        if self.calibration_trials and self.calibration_trials < 100:
            raise PlanError("calibration_trials must be 0 or >= 100")

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
    "gen_m": ("gen_m", lambda v: v if v == "half_n" else int(v)),
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
    return parse_plan_text(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _resolve_gen_m(gen_m, n: int) -> int:
    """The ensembles' heavy-bin parameter: `gen_m`, or max(1, n // 2) for "half_n"."""
    if gen_m == "half_n":
        return max(1, n // 2)
    return int(gen_m)


def _instances(plan: ExperimentPlan, family: str, n: int, eps: float):
    """`(key, instance)` for `family` at grid cell (n, eps): `key` names the
    family spec, and `instance(*path)` builds the instance seeded with
    `child_seed(plan.master_seed, *path, key)`, so identical specs get
    identical instances."""
    gen_m = _resolve_gen_m(plan.gen_m, n)
    key = f"{family}|{n}|{eps!r}|{gen_m}|{plan.ell1}x{plan.ell2}"

    def instance(*path):
        seed = child_seed(plan.master_seed, *path, key)
        return make_instance(EnsembleSpec(
            family=family, n=n, eps=eps, m=gen_m, seed=seed, ell1=plan.ell1, ell2=plan.ell2
        ))[0]

    return key, instance


def _trial_column(cfg: TesterConfig, trials: int, instance, seed):
    """Accept flags and statistics A of `trials` trials through `run_trials`:
    trial t tests `instance(t)` seeded with `seed(t)`."""
    accepts = np.empty(trials, dtype=bool)
    stats = np.empty(trials)
    verdicts = run_trials(map(instance, range(trials)), cfg, map(seed, range(trials)))
    for t, verdict in enumerate(verdicts):
        accepts[t] = verdict.accept
        stats[t] = verdict.statistic_A
    return accepts, stats


def _run_cell(plan: ExperimentPlan, cell_idx: int, cell) -> PowerRow:
    n, eps, m_spec = cell
    start = time.perf_counter()
    cfg = TesterConfig(epsilon=eps, mode=plan.mode, beta=plan.beta, zeta=plan.zeta)
    m = sample_budget(cfg, (plan.ell1, plan.ell2, n)) if m_spec == "auto" else int(m_spec)
    cfg = replace(cfg, m_override=m)

    tau = None
    if plan.calibration_trials:
        _, null_instance = _instances(plan, plan.null_family, n, eps)
        tau = calibrate_threshold(
            partial(null_instance, "cell", cell_idx, "cal-inst"),
            replace(cfg, seed=child_seed(plan.master_seed, "cell", cell_idx, "cal")),
            plan.calibration_trials,
        )
    cfg = replace(cfg, tau_override=tau)

    def column(family: str) -> tuple[np.ndarray, np.ndarray]:
        key, instance = _instances(plan, family, n, eps)
        return _trial_column(
            cfg, plan.trials, partial(instance, "cell", cell_idx, "inst"),
            lambda t: seed_sequence(plan.master_seed, "cell", cell_idx, "test", t, key),
        )

    null_acc, null_stats = column(plan.null_family)
    alt_acc, alt_stats = column(plan.alt_family)
    accept_rate = float(null_acc.mean())
    reject_rate = float(1.0 - alt_acc.mean())
    t_trials = plan.trials
    # the nnn families build their own 2n x n x n alphabet
    ell1, ell2 = (2 * n, n) if plan.null_family in NNN_FAMILIES else (plan.ell1, plan.ell2)
    return PowerRow(
        schema_version=SCHEMA_VERSION,
        mode=plan.mode,
        null_family=plan.null_family,
        alt_family=plan.alt_family,
        n=n,
        ell1=ell1,
        ell2=ell2,
        eps=eps,
        m=m,
        gen_m=_resolve_gen_m(plan.gen_m, n),
        trials=t_trials,
        tau=float(tau) if tau is not None else float("nan"),
        accept_rate_null=accept_rate,
        reject_rate_alt=reject_rate,
        mean_A_null=float(null_stats.mean()),
        mean_A_alt=float(alt_stats.mean()),
        var_A_null=float(null_stats.var(ddof=1)) if t_trials > 1 else 0.0,
        se_accept_null=float(np.sqrt(accept_rate * (1 - accept_rate) / t_trials)),
        se_reject_alt=float(np.sqrt(reject_rate * (1 - reject_rate) / t_trials)),
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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_cell, plan, idx, cell) for idx, cell in enumerate(cells)]
            rows = [fut.result() for fut in futures]
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
    >= target_power, found by doubling from `m_start`, then two rounds of
    log-midpoint bisection.

    Instances (gen_m = max(1, n // 2)) are common across probed m values (seeds
    keyed by trial only), which keeps the empirical power roughly monotone
    in m; residual statistical noise is inherent and documented.  Each
    probe pins m and calibrates tau on the first `calibration_trials` null
    instances, so neither beta nor zeta enters it; it then runs `trials`
    null and `trials` alternative trials on the same instances, all
    through `run_trials` (blocks of trials share one kernel call).  The
    search builds each distinct (family, trial) instance once and keeps it
    for every probe, up to 2^22 mass cells in all; instances past that
    budget are rebuilt at every use, so memory stays O(n) for any n.
    Raises PlanError when `trials` is outside [MIN_TRIALS, MAX_TRIALS],
    `m_start` below 1 or a family cannot take ell1 x ell2, and
    BudgetExhaustedError if no m <= m_cap succeeds.
    """
    if not 0.5 < target_power < 0.95:
        raise ValueError("target_power must lie in (0.5, 0.95)")
    if m_start < 1:
        raise PlanError(f"m_start must be >= 1, got {m_start}")
    null_family, alt_family = families
    plan = ExperimentPlan(
        null_family=null_family,
        alt_family=alt_family,
        n_values=(n,),
        eps_values=(eps,),
        m_values=(m_start,),  # probes set m, so no m=auto check applies
        mode=mode,
        ell1=ell1,
        ell2=ell2,
        trials=trials,
        master_seed=seed,
    )
    builders = {family: _instances(plan, family, n, eps)[1] for family in families}
    cache: dict = {}
    cached_cells = 0

    def instance(family: str, t: int):
        nonlocal cached_cells
        inst = cache.get((family, t))
        if inst is None:
            inst = builders[family]("minm-inst", t)
            if cached_cells + inst.mass.size <= _INSTANCE_CACHE_CELLS:
                cache[(family, t)] = inst
                cached_cells += inst.mass.size
        return inst

    def probe(m: int) -> bool:
        cfg = TesterConfig(
            epsilon=eps, mode=mode, m_override=m, seed=child_seed(seed, "minm-cal", m)
        )
        tau = calibrate_threshold(partial(instance, null_family), cfg, calibration_trials)

        def accepts(family: str, tag: str) -> np.ndarray:
            return _trial_column(
                replace(cfg, tau_override=tau), trials, partial(instance, family),
                lambda t: seed_sequence(seed, tag, m, t),
            )[0]

        null_ok = accepts(null_family, "minm-null").sum()
        alt_reject = (~accepts(alt_family, "minm-alt")).sum()
        return null_ok >= target_power * trials and alt_reject >= target_power * trials

    m = m_start
    last_fail = None
    while m <= m_cap:
        if probe(m):
            break
        last_fail = m
        m *= 2
    else:
        raise BudgetExhaustedError(
            f"no m <= {m_cap} reached power {target_power} for {families}"
        )
    best = m
    if last_fail is not None:
        lo, hi = last_fail, best
        for _ in range(2):
            mid = int(round((lo * hi) ** 0.5))
            if mid <= lo or mid >= hi:
                break
            if probe(mid):
                hi = mid
                best = mid
            else:
                lo = mid
    return best
