"""Command-line interface.

Subcommands: `test` (run a tester on a distribution or sample file),
`gen` (write an instance to a distribution file), `power` (run a plan
file into a CSV), `calibrate` (empirical threshold for a null family),
`minm` (empirical minimum sample budget), and `debug` helpers for the
polynomial/fingerprint text formats and flattening grids.

Exit codes: 0 ok, 2 invalid plan or input (including a missing or
unwritable file, a non-finite --beta, --zeta or --tau, and a run that does
not fit in memory or whose pool worker dies), 3 search budget exhausted.
All output for a fixed seed is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import replace

from . import __version__
from .dist_core import (
    ci_distance_proxy, read_distribution_file, read_sample_file, read_text, write_distribution_file
)
from .flattening import implicit_flattening
from .harness import (
    BudgetExhaustedError,
    _resolve_gen_m,
    find_min_m,
    parse_plan_file,
    run_power_experiment,
)
from .instances import EnsembleSpec, make_instance
from .poly_estimator import Fingerprint, parse_polynomial, unbiased_estimate
from .seeding import seed_sequence
from .testers import _MODES, TesterConfig, calibrate_threshold, run_tester, sample_budget


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cit", description="conditional-independence testing toolkit"
    )
    parser.add_argument("--version", action="version", version=f"cit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run a tester")
    p_test.add_argument("--mode", choices=_MODES, default="binary")
    p_test.add_argument("--eps", type=float, required=True)
    p_test.add_argument("--m", type=int, default=None, help="override the sample budget")
    p_test.add_argument("--tau", type=float, default=None, help="override the threshold")
    p_test.add_argument("--beta", type=float, default=2.0)
    p_test.add_argument("--zeta", type=float, default=2.0)
    p_test.add_argument("--seed", type=int, default=0)
    src = p_test.add_mutually_exclusive_group(required=True)
    src.add_argument("--dist", help="distribution file to sample from")
    src.add_argument("--samples", help="fixed sample file")
    p_test.add_argument("--json", action="store_true", help="emit the full verdict")

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("--family", required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--eps", type=float, default=0.5)
    p_gen.add_argument("--m", type=int, default=None,
                       help="ensemble heavy-bin parameter (default max(1, n // 2))")
    p_gen.add_argument("--ell1", type=int, default=2)
    p_gen.add_argument("--ell2", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)

    p_power = sub.add_parser("power", help="run a power-experiment plan")
    p_power.add_argument("--plan", required=True, help="key=value plan file")
    p_power.add_argument("--out", required=True, help="CSV output path")
    p_power.add_argument("--workers", type=int, default=1)

    p_cal = sub.add_parser("calibrate", help="calibrate a threshold on a null family")
    p_cal.add_argument("--mode", choices=("binary", "general"), default="binary")
    p_cal.add_argument("--family", default="random_ci")
    p_cal.add_argument("--n", type=int, required=True)
    p_cal.add_argument("--eps", type=float, default=0.5)
    p_cal.add_argument("--m", type=int, required=True, help="tester sample budget")
    p_cal.add_argument("--gen-m", type=int, default=None, help="ensemble parameter")
    p_cal.add_argument("--ell1", type=int, default=2)
    p_cal.add_argument("--ell2", type=int, default=2)
    p_cal.add_argument("--trials", type=int, default=200)
    p_cal.add_argument("--seed", type=int, default=0)

    p_minm = sub.add_parser("minm", help="empirical minimum sample budget")
    p_minm.add_argument("--mode", choices=("binary", "general"), default="binary")
    p_minm.add_argument("--null-family", default="yes_binary_r1")
    p_minm.add_argument("--alt-family", default="no_binary_r1")
    p_minm.add_argument("--n", type=int, required=True)
    p_minm.add_argument("--eps", type=float, required=True)
    p_minm.add_argument("--target", type=float, default=0.7)
    p_minm.add_argument("--trials", type=int, default=150)
    p_minm.add_argument("--ell1", type=int, default=2)
    p_minm.add_argument("--ell2", type=int, default=2)
    p_minm.add_argument("--m-cap", type=int, default=2_000_000)
    p_minm.add_argument("--seed", type=int, default=0)

    p_debug = sub.add_parser("debug", help="text-format helpers")
    dsub = p_debug.add_subparsers(dest="debug_command", required=True)
    p_est = dsub.add_parser("estimate", help="unbiased estimate from text inputs")
    p_est.add_argument("--poly", required=True, help="polynomial text file")
    p_est.add_argument("--num-vars", type=int, required=True)
    p_est.add_argument("--fingerprint", required=True, help="'i:count' pairs, 1-based")
    p_flat = dsub.add_parser("flatten-grid", help="dump a flattening grid as CSV")
    p_flat.add_argument("--samples", required=True, help="sample file; (x, y) pairs used")
    p_flat.add_argument("--t1", type=int, required=True)
    p_flat.add_argument("--t2", type=int, required=True)
    return parser


def _cmd_test(args) -> int:
    cfg = TesterConfig(
        epsilon=args.eps,
        mode=args.mode,
        beta=args.beta,
        zeta=args.zeta,
        m_override=args.m,
        tau_override=args.tau,
        seed=args.seed,
    )
    if args.dist is not None:
        source, factor = read_distribution_file(args.dist)
        if factor != 1.0:
            print(f"note: normalized pseudo-distribution by factor {factor!r}", file=sys.stderr)
        dims = None
    else:
        source, dims = read_sample_file(args.samples)
    verdict = run_tester(source, cfg, dims=dims)
    if args.json:
        print(verdict.to_json())
    else:
        word = "accept" if verdict.accept else "reject"
        print(
            f"{word} A={verdict.statistic_A!r} tau={verdict.threshold_tau!r} "
            f"m={verdict.m_used} M={verdict.M_drawn}"
        )
    return 0


def _cmd_gen(args) -> int:
    spec = EnsembleSpec(
        family=args.family,
        n=args.n,
        eps=args.eps,
        m=_resolve_gen_m("half_n" if args.m is None else args.m, args.n),
        seed=args.seed,
        ell1=args.ell1,
        ell2=args.ell2,
    )
    dist, meta = make_instance(spec)
    write_distribution_file(args.out, dist)
    raw = meta.get("raw_total_mass", 1.0)
    proxy = ci_distance_proxy(dist)
    print(f"wrote {args.out} family={args.family} n={args.n} raw_mass={raw!r} proxy={proxy!r}")
    return 0


def _cmd_power(args) -> int:
    plan = parse_plan_file(args.plan)
    run_power_experiment(plan, out_path=args.out, workers=args.workers)
    print(f"wrote {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    gen_m = _resolve_gen_m("half_n" if args.gen_m is None else args.gen_m, args.n)
    cfg = TesterConfig(epsilon=args.eps, mode=args.mode, m_override=args.m, seed=args.seed)
    spec = EnsembleSpec(args.family, args.n, args.eps, gen_m, ell1=args.ell1, ell2=args.ell2)
    sample_budget(cfg, spec.dims)  # refuses what the tester would, before any instance
    tau = calibrate_threshold(
        lambda t: make_instance(replace(spec, seed=seed_sequence(args.seed, "cli-cal", t)))[0],
        cfg, args.trials,
    )
    print(f"tau={tau!r}")
    return 0


def _cmd_minm(args) -> int:
    m = find_min_m(
        args.n,
        args.eps,
        (args.null_family, args.alt_family),
        args.target,
        args.seed,
        mode=args.mode,
        ell1=args.ell1,
        ell2=args.ell2,
        trials=args.trials,
        m_cap=args.m_cap,
    )
    print(f"m={m}")
    return 0


def _cmd_debug(args) -> int:
    if args.debug_command == "estimate":
        poly = parse_polynomial(read_text(args.poly), args.num_vars)
        fp = Fingerprint.parse(args.fingerprint, args.num_vars)
        value = unbiased_estimate(poly, fp)
        print(f"estimate={value}")
        return 0
    samples, dims = read_sample_file(args.samples)
    l1, l2, _ = dims
    coeffs = implicit_flattening(samples[:, :2], l1, l2, args.t1, args.t2)
    for row in coeffs.grid:
        print(",".join(str(int(v)) for v in row))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "test": _cmd_test,
        "gen": _cmd_gen,
        "power": _cmd_power,
        "calibrate": _cmd_calibrate,
        "minm": _cmd_minm,
        "debug": _cmd_debug,
    }
    try:
        # numpy's SeedSequence would refuse it later, naming no flag
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return handlers[args.command](args)
    # PlanError, DistributionError, TesterInputError and RegimeError are ValueErrors
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # e.g. a sample budget whose draws do not fit in memory; a process
        # the kernel's OOM killer ends never gets here
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except BrokenExecutor as exc:
        # a pool worker ended abruptly, e.g. by the OOM killer; the parent can report it
        print(f"error: a worker process ended before its cell finished: {exc}", file=sys.stderr)
        return 2
    except BudgetExhaustedError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
