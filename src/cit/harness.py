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
from pathlib import Path

import numpy as np

from .instances import FAMILIES, EnsembleSpec, make_instance
from .seeding import child_seed, seed_sequence
from .testers import _MODES, TesterConfig, calibrate_threshold, run_trials, sample_budget

SCHEMA_VERSION = 1

MIN_TRIALS = 50

#: mass cells `find_min_m` keeps built instances for, over all its probes
#: (a memory bound: instances past it are rebuilt at every probe)
_INSTANCE_CACHE_CELLS = 1 << 22


class PlanError(ValueError):
    """Invalid experiment plan (CLI exit code 2)."""


class BudgetExhaustedError(RuntimeError):
    """Search or time budget exhausted (CLI exit code 3)."""


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
    budget_seconds: float | None = None

    def __post_init__(self):
        if self.trials < MIN_TRIALS:
            raise PlanError(f"trials must be >= {MIN_TRIALS}")
        if not self.n_values or not self.eps_values or not self.m_values:
            raise PlanError("grid must be non-empty")
        for fam in (self.null_family, self.alt_family):
            if fam not in FAMILIES:
                raise PlanError(f"unknown family {fam!r}")
        if self.mode not in _MODES:
            raise PlanError(f"unknown mode {self.mode!r}")
        if self.calibration_trials and self.calibration_trials < 100:
            raise PlanError("calibration_trials must be 0 or >= 100")

    @property
    def grid(self) -> tuple[tuple[int, float, object], ...]:
        return tuple(itertools.product(self.n_values, self.eps_values, self.m_values))


@dataclass(frozen=True)
class PowerRow:
    """One grid cell's outcome; rates are NaN for skipped cells."""

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
        if self.status.startswith("ok"):
            for rate in (self.accept_rate_null, self.reject_rate_alt):
                if not 0.0 <= rate <= 1.0:
                    raise PlanError(f"rate {rate} outside [0, 1]")


#: CSV column order, PowerRow's fields without the wall time (schema_version
#: pins it for regression baselines)
CSV_COLUMNS = tuple(f.name for f in fields(PowerRow) if f.name != "wall_time_s")


# ---------------------------------------------------------------------------
# Plan files: flat key=value text, lists comma-separated.
# ---------------------------------------------------------------------------

_PLAN_KEYS = {
    "mode": str,
    "null_family": str,
    "alt_family": str,
    "n": "int_list",
    "eps": "float_list",
    "m": "m_list",
    "ell1": int,
    "ell2": int,
    "trials": int,
    "seed": int,
    "beta": float,
    "zeta": float,
    "gen_m": "gen_m",
    "calibration_trials": int,
    "budget_seconds": float,
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
        raw[key] = value
    try:
        kwargs: dict = {}
        for key, value in raw.items():
            kind = _PLAN_KEYS[key]
            if kind == "int_list":
                kwargs[key + "_values"] = tuple(int(v) for v in value.split(","))
            elif kind == "float_list":
                kwargs[key + "_values"] = tuple(float(v) for v in value.split(","))
            elif kind == "m_list":
                kwargs["m_values"] = tuple(
                    "auto" if v.strip() == "auto" else int(v) for v in value.split(",")
                )
            elif kind == "gen_m":
                kwargs["gen_m"] = value if value == "half_n" else int(value)
            elif key == "seed":
                kwargs["master_seed"] = int(value)
            else:
                kwargs[key] = kind(value)
    except ValueError as exc:
        raise PlanError(f"bad plan value: {exc}") from exc
    for required in ("null_family", "alt_family"):
        if required not in kwargs:
            raise PlanError(f"plan is missing {required!r}")
    if "n_values" not in kwargs:
        raise PlanError("plan is missing 'n'")
    kwargs.setdefault("eps_values", (0.5,))
    return ExperimentPlan(**kwargs)


def parse_plan_file(path) -> ExperimentPlan:
    return parse_plan_text(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _resolve_gen_m(plan: ExperimentPlan, n: int) -> int:
    if plan.gen_m == "half_n":
        return max(1, n // 2)
    return int(plan.gen_m)


def _family_key(family: str, n: int, eps: float, gen_m: int, ell1: int, ell2: int) -> str:
    return f"{family}|{n}|{eps!r}|{gen_m}|{ell1}x{ell2}"


def _cell_fields(plan: ExperimentPlan, n: int, eps: float, m: int) -> dict:
    """The PowerRow fields that name the grid cell (n, eps) at budget m."""
    return dict(
        schema_version=SCHEMA_VERSION,
        mode=plan.mode,
        null_family=plan.null_family,
        alt_family=plan.alt_family,
        n=n,
        ell1=plan.ell1,
        ell2=plan.ell2,
        eps=eps,
        m=m,
        gen_m=_resolve_gen_m(plan, n),
    )


def _spec_for(plan: ExperimentPlan, family: str, n: int, eps: float, gen_m: int, seed: int):
    return EnsembleSpec(
        family=family, n=n, eps=eps, m=gen_m, seed=seed, ell1=plan.ell1, ell2=plan.ell2
    )


def _run_cell(plan: ExperimentPlan, cell_idx: int, cell, status: str = "ok") -> PowerRow:
    n, eps, m_spec = cell
    start = time.perf_counter()
    gen_m = _resolve_gen_m(plan, n)
    base_cfg = TesterConfig(epsilon=eps, mode=plan.mode, beta=plan.beta, zeta=plan.zeta)
    m = sample_budget(base_cfg, (plan.ell1, plan.ell2, n)) if m_spec == "auto" else int(m_spec)
    base_cfg = replace(base_cfg, m_override=m)

    tau = None
    if plan.calibration_trials:
        null_key = _family_key(plan.null_family, n, eps, gen_m, plan.ell1, plan.ell2)

        def null_gen(t):
            seed = child_seed(plan.master_seed, "cell", cell_idx, "cal-inst", t, null_key)
            return make_instance(_spec_for(plan, plan.null_family, n, eps, gen_m, seed))[0]

        cal_cfg = replace(
            base_cfg, seed=child_seed(plan.master_seed, "cell", cell_idx, "cal")
        )
        tau = calibrate_threshold(null_gen, cal_cfg, plan.calibration_trials)

    def run_column(family: str) -> tuple[np.ndarray, np.ndarray]:
        key = _family_key(family, n, eps, gen_m, plan.ell1, plan.ell2)
        trials = range(plan.trials)
        instances = (
            make_instance(_spec_for(plan, family, n, eps, gen_m, child_seed(
                plan.master_seed, "cell", cell_idx, "inst", t, key
            )))[0]
            for t in trials
        )
        seeds = (
            seed_sequence(plan.master_seed, "cell", cell_idx, "test", t, key) for t in trials
        )
        accepts = np.empty(plan.trials, dtype=bool)
        stats = np.empty(plan.trials)
        verdicts = run_trials(instances, replace(base_cfg, tau_override=tau), seeds)
        for t, verdict in enumerate(verdicts):
            accepts[t] = verdict.accept
            stats[t] = verdict.statistic_A
        return accepts, stats

    null_acc, null_stats = run_column(plan.null_family)
    alt_acc, alt_stats = run_column(plan.alt_family)
    accept_rate = float(null_acc.mean())
    reject_rate = float(1.0 - alt_acc.mean())
    t_trials = plan.trials
    return PowerRow(
        **_cell_fields(plan, n, eps, m),
        trials=t_trials,
        tau=float(tau) if tau is not None else float("nan"),
        accept_rate_null=accept_rate,
        reject_rate_alt=reject_rate,
        mean_A_null=float(null_stats.mean()),
        mean_A_alt=float(alt_stats.mean()),
        var_A_null=float(null_stats.var(ddof=1)) if t_trials > 1 else 0.0,
        se_accept_null=float(np.sqrt(accept_rate * (1 - accept_rate) / t_trials)),
        se_reject_alt=float(np.sqrt(reject_rate * (1 - reject_rate) / t_trials)),
        status=status,
        wall_time_s=time.perf_counter() - start,
    )


def _skipped_row(plan: ExperimentPlan, cell, reason: str) -> PowerRow:
    n, eps, m_spec = cell
    m = -1 if m_spec == "auto" else int(m_spec)
    return PowerRow(**{
        **dict.fromkeys(CSV_COLUMNS, float("nan")),
        **_cell_fields(plan, n, eps, m),
        "trials": 0,
        "status": f"skipped:{reason}",
        "wall_time_s": 0.0,
    })


def run_power_experiment(plan: ExperimentPlan, out_path=None, workers: int = 1) -> list[PowerRow]:
    """Run every grid cell; one row per cell, always (skipped cells are
    marked, never dropped).  With a time budget, later cells first degrade
    to MIN_TRIALS and finally are skipped explicitly; both adjustments are
    visible in the trials/status fields.  `workers` (>= 1) processes run
    the cells of an unbudgeted plan, never more than it has cells."""
    if workers < 1:
        raise PlanError(f"workers must be >= 1, got {workers}")
    cells = plan.grid
    workers = min(workers, len(cells))
    rows: list[PowerRow] = [None] * len(cells)  # type: ignore[list-item]
    start = time.perf_counter()
    # budgeted runs stay sequential: parallel scheduling would make the
    # degrade/skip decisions depend on timing
    if workers > 1 and plan.budget_seconds is None:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_run_cell, plan, idx, cell): idx
                for idx, cell in enumerate(cells)
            }
            for fut, idx in futures.items():
                rows[idx] = fut.result()
    else:
        current_plan = plan
        status = "ok"
        for idx, cell in enumerate(cells):
            if plan.budget_seconds is not None:
                elapsed = time.perf_counter() - start
                if elapsed > plan.budget_seconds:
                    rows[idx] = _skipped_row(plan, cell, "budget")
                    continue
                if (
                    elapsed > 0.5 * plan.budget_seconds
                    and current_plan.trials > MIN_TRIALS
                ):
                    current_plan = replace(plan, trials=MIN_TRIALS)
                    status = "ok:degraded"
            rows[idx] = _run_cell(current_plan, idx, cell, status=status)
    for row in rows:
        print(
            f"cell n={row.n} eps={row.eps} m={row.m} status={row.status} "
            f"wall={row.wall_time_s:.2f}s",
            file=sys.stderr,
        )
    if out_path is not None:
        write_power_csv(out_path, rows)
    return rows


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_power_csv(path, rows: list[PowerRow]) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_cell(getattr(row, name)) for name in CSV_COLUMNS))
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
    bisection_rounds: int = 2,
    gen_m: object = "half_n",
    zeta: float = 2.0,
) -> int:
    """Smallest tested sample budget m at which the calibrated tester
    accepts the null family and rejects the alternative family at rate
    >= target_power, found by doubling then log-midpoint bisection.

    Instances are common across probed m values (seeds keyed by trial
    only), which keeps the empirical power roughly monotone in m; residual
    statistical noise is inherent and documented.  Each probe calibrates
    tau on the first `calibration_trials` null instances and then runs
    `trials` null and `trials` alternative trials on the same instances,
    all through `run_trials` (blocks of trials share one kernel call).  The
    search builds each distinct (family, trial) instance once and keeps it
    for every probe, up to 2^22 mass cells in all; instances past that
    budget are rebuilt at every use, so memory stays O(n) for any n.
    Raises PlanError when `trials` is below MIN_TRIALS, and
    BudgetExhaustedError if no m <= m_cap succeeds.
    """
    if not 0.5 < target_power < 0.95:
        raise ValueError("target_power must lie in (0.5, 0.95)")
    null_family, alt_family = families
    plan = ExperimentPlan(
        null_family=null_family,
        alt_family=alt_family,
        n_values=(n,),
        eps_values=(eps,),
        mode=mode,
        ell1=ell1,
        ell2=ell2,
        trials=trials,
        master_seed=seed,
        gen_m=gen_m,
        zeta=zeta,
    )
    gm = _resolve_gen_m(plan, n)
    cache: dict = {}
    cached_cells = 0

    def instance(family: str, t: int):
        nonlocal cached_cells
        inst = cache.get((family, t))
        if inst is None:
            key = _family_key(family, n, eps, gm, ell1, ell2)
            spec = _spec_for(plan, family, n, eps, gm, child_seed(seed, "minm-inst", t, key))
            inst = make_instance(spec)[0]
            if cached_cells + inst.mass.size <= _INSTANCE_CACHE_CELLS:
                cache[(family, t)] = inst
                cached_cells += inst.mass.size
        return inst

    def probe(m: int) -> bool:
        cfg = TesterConfig(
            epsilon=eps,
            mode=mode,
            zeta=zeta,
            m_override=m,
            seed=child_seed(seed, "minm-cal", m),
        )
        tau = calibrate_threshold(
            lambda t: instance(null_family, t), cfg, calibration_trials
        )

        def column(family: str, tag: str):
            trials = range(plan.trials)
            return run_trials(
                (instance(family, t) for t in trials),
                replace(cfg, tau_override=tau),
                (seed_sequence(seed, tag, m, t) for t in trials),
            )

        null_ok = sum(v.accept for v in column(null_family, "minm-null"))
        alt_reject = sum(not v.accept for v in column(alt_family, "minm-alt"))
        return (
            null_ok >= target_power * plan.trials
            and alt_reject >= target_power * plan.trials
        )

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
        for _ in range(bisection_rounds):
            mid = int(round((lo * hi) ** 0.5))
            if mid <= lo or mid >= hi:
                break
            if probe(mid):
                hi = mid
                best = mid
            else:
                lo = mid
    return best
