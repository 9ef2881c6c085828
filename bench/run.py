"""Benchmark for the `cit` CLI: end-to-end metrics or, traced, per-layer ones.

Usage, from the repository root:

    python3 bench/run.py --workload minm_binary --seed 1 --seconds 32 --trace 0

Workloads are defined in `workloads.py`.  The run makes the workload's
inputs from `--seed`, measures its passes for `--seconds` in one child
process (`child.py`), checks every output outside the timed region, and
prints as its last stdout line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, with times normalized to a fixed host speed by
the reference loop in `reference.py`; with ``--trace 1`` the per-layer
ones from a traced run (`tracer.py`).  Earlier lines record the machine,
the inputs, each pass's measured times and a table of the metrics with
``failed_frac``.

It exits with status 2, printing no result, when the `cit` sources are not
next to the benchmark directory.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S
from workloads import WORKLOADS, Call

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: whole-run limit; the child gets what is left of it after set-up
RUN_LIMIT_S = 170.0
#: fresh interpreters timed for setup_s, after one untimed warm-up import
SETUP_REPEATS = 11

SETUP_CODE = (
    "import time; t = time.perf_counter(); import cit.cli; cit.cli._build_parser(); "
    "setup = time.perf_counter() - t; import sys; sys.path.insert(0, {bench!r}); "
    "from reference import reference_s; print(repr(setup), repr(reference_s()))"
)


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def normalized(seconds: float, ref_s: float) -> float:
    """`seconds` measured while the reference loop took `ref_s`, rescaled
    to the host speed at which it takes `NOMINAL_S` (see `reference.py`)."""
    return seconds * NOMINAL_S / ref_s


def measure_setup_s() -> tuple[float, float]:
    """(normalized, measured) median time for a fresh interpreter to import
    `cit.cli` and build its parser; each interpreter then times the
    reference loop, which normalizes its own import time."""
    norm, measured = [], []
    code = SETUP_CODE.format(bench=str(BENCH))
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            setup, ref = map(float, out.stdout.split())
            norm.append(normalized(setup, ref))
            measured.append(setup)
    return statistics.median(norm), statistics.median(measured)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from `.git` without walking to parent repos."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    def version(pkg: str) -> str:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": _git_commit(),
        "seed": seed,
    }


def run_child(calls: list[Call], seconds: float, trace: bool, workdir: Path, timeout: float) -> dict:
    job = {
        "calls": [{"argv": list(c.argv), "csv": c.csv} for c in calls],
        "seconds": seconds,
        "trace": trace,
    }
    job_path = workdir / "job.json"
    result_path = workdir / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(job_path), str(result_path)],
        env=_env(), cwd=ROOT, timeout=timeout, check=True,
    )
    return json.loads(result_path.read_text(encoding="utf-8"))


def judge(passes: list[dict], check) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every command of every pass.

    A command fails on a non-zero exit, an exception, a failed output
    check, or output bytes that differ from the first pass's.
    """
    attempted = failed = 0
    reasons = []
    first = passes[0]["outputs"]
    for p_idx, rec in enumerate(passes):
        for i, out in enumerate(rec["outputs"]):
            attempted += 1
            if out["error"] is not None:
                reason = f"exception: {out['error'].strip().splitlines()[-1]}"
            elif out["code"] != 0:
                reason = f"exit code {out['code']}"
            elif (out["stdout"], out["csv"]) != (first[i]["stdout"], first[i]["csv"]):
                reason = "output differs from the first pass"
            else:
                try:
                    reason = check(i, out["stdout"], out["csv"])
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    reason = f"malformed output: {exc!r}"
            if reason is not None:
                failed += 1
                reasons.append(f"pass {p_idx} command {i}: {reason}")
    counts = {(rec["verdicts"], rec["rows"]) for rec in passes}
    traced = [rec["layers"] for rec in passes if rec["traced"]]
    layer_counts = {
        tuple(v for k, v in sorted(layers.items()) if not k.endswith("_s"))
        for layers in traced
    }
    if len(counts) > 1 or len(layer_counts) > 1:
        failed += 1
        attempted += 1
        reasons.append("counts differ between passes of the same seed")
    return attempted, failed, reasons


def end_to_end(passes: list[dict], setup_s: float) -> dict:
    """name -> (value, unit, samples): medians over the passes of their
    normalized times and rates; memory is the peak after the first pass.

    Times are rescaled to a fixed host speed by the reference loop timed
    around each pass (`reference.py`).  Later passes in the same process
    can only raise the memory peak through allocator fragmentation, which
    one run of the commands never sees.
    """
    n = len(passes)
    norm = [(r, normalized(r["wall_s"], r["ref_s"])) for r in passes]
    return {
        "wall_s": (statistics.median(t for _, t in norm), "s", n),
        "verdicts_per_s": (statistics.median(r["verdicts"] / t for r, t in norm), "1/s", n),
        "rows_per_s": (statistics.median(r["rows"] / t for r, t in norm), "1/s", n),
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "peak_rss_mb": (passes[0]["max_rss_mb"], "MB", 1),
    }


def per_layer(passes: list[dict]) -> dict:
    """name -> (value, unit, samples): the layer metrics of the traced pass
    with the median wall time, and the tracing overhead (median normalized
    traced pass against median normalized untraced pass)."""
    untraced = [normalized(r["wall_s"], r["ref_s"]) for r in passes if not r["traced"]]
    traced = sorted((r for r in passes if r["traced"]), key=lambda r: r["wall_s"])
    chosen = traced[(len(traced) - 1) // 2]
    metrics = {}
    for name, value in chosen["layers"].items():
        unit = "s" if name.endswith("_s") else "frac" if name.endswith("_frac") else "count"
        if name == "dist_core.io.bytes_read":
            unit = "B"
        metrics[name] = (value, unit, 1)
    traced_norm = [normalized(r["wall_s"], r["ref_s"]) for r in traced]
    overhead = statistics.median(traced_norm) / statistics.median(untraced) - 1
    metrics["trace.overhead_frac"] = (overhead, "frac", len(passes))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "cit" / "cli.py").is_file():
        print(f"error: no cit sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    params = workload.sizes[args.size]
    workdir = ROOT / ".bench_build" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        prepared = workload.prepare(params, args.seed, workdir)
        setup_s, setup_measured_s = measure_setup_s() if not args.trace else (None, None)
        left = RUN_LIMIT_S - (time.perf_counter() - started)
        result = run_child(prepared.calls, args.seconds, bool(args.trace), workdir, left)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = result["passes"]
    attempted, failed, reasons = judge(passes, prepared.check)
    if args.trace:
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(passes, setup_s)

    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"workload {workload.name} ({args.size}): " + json.dumps(params, sort_keys=True))
    for rec in passes:
        kind = "traced" if rec["traced"] else "untraced"
        print(f"pass {kind} wall_s={rec['wall_s']!r} reference_s={rec['ref_s']!r} "
              f"verdicts={rec['verdicts']} rows={rec['rows']}")
    print(f"measured (not normalized) medians: wall_s={statistics.median(r['wall_s'] for r in passes)!r}"
          f" setup_s={setup_measured_s!r}")
    for reason in reasons:
        print(f"FAILED {reason}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:32s} {value!r:>24} {unit:6s} n={n}")
    print(f"{'failed_frac':32s} {failed / attempted!r:>24} {'frac':6s} n={attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
