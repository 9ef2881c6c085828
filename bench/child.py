"""Runs one workload's passes in a fresh process and writes what it measured.

Usage: PYTHONPATH=src python3 bench/child.py <job.json> <result.json>

The job gives the command lines of one pass, the seconds to measure and
whether to trace.  Passes run back to back until
the next one would end past the time given, with at least two passes.
With tracing on, the first half of the time runs untraced passes and the
rest traced ones, so the per-layer run also gives the tracing overhead.

Each pass also records `ref_s`, the mean time of the fixed reference loop
(`reference.py`) run right before and right after it, so that `run.py`
can rescale the pass to a fixed host speed.

Every pass counts verdicts and the sample rows they used through one
wrapper on `Verdict.__init__`, a single call per verdict, and records the
process's peak resident memory so far.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from reference import reference_s
from tracer import Tracer, layer_metrics


class VerdictCounter:
    """Counts `cit.testers.Verdict` objects built and their `M_drawn`."""

    def __init__(self):
        self.verdicts = 0
        self.rows = 0
        self._orig = None

    def __enter__(self) -> "VerdictCounter":
        from cit.testers import Verdict

        orig = self._orig = Verdict.__init__

        def counting_init(verdict, *args, **kwargs):
            orig(verdict, *args, **kwargs)
            self.verdicts += 1
            self.rows += verdict.M_drawn

        Verdict.__init__ = counting_init
        return self

    def __exit__(self, *exc) -> None:
        from cit.testers import Verdict

        Verdict.__init__ = self._orig


def invoke(argv: list[str]) -> tuple[object, str, str | None]:
    """(exit code, stdout, error) of one `cit.cli.main` call."""
    import cit.cli

    out = io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cit.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed operation, not a benchmark error
            code = None
            error = traceback.format_exc(limit=-3)
    return code, out.getvalue(), error


def run_pass(calls: list[dict], tracer=None) -> dict:
    """One pass over `calls`; outputs are read after the clock stops."""
    for call in calls:
        if call.get("csv"):
            Path(call["csv"]).unlink(missing_ok=True)
    if tracer is not None:
        tracer.reset()
    results = []
    with VerdictCounter() as counter, tracer or contextlib.nullcontext():
        start = time.perf_counter()
        for call in calls:
            results.append(invoke(list(call["argv"])))
        wall = time.perf_counter() - start
    outputs = []
    for call, (code, stdout, error) in zip(calls, results):
        csv = None
        if call.get("csv") and Path(call["csv"]).exists():
            csv = Path(call["csv"]).read_text(encoding="utf-8")
        outputs.append({"code": code, "stdout": stdout, "csv": csv, "error": error})
    record = {
        "wall_s": wall,
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verdicts": counter.verdicts,
        "rows": counter.rows,
        "outputs": outputs,
        "traced": tracer is not None,
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer.spans, wall)
    return record


def run_passes(calls: list[dict], seconds: float, trace: bool) -> list[dict]:
    """Passes for `seconds`, each between two reference loops; with
    `trace`, untraced then traced ones."""
    phases = [(None, seconds)]
    if trace:
        phases = [(None, seconds / 2), (Tracer(), seconds / 2)]
    passes = []
    for tracer, budget in phases:
        start = time.perf_counter()
        walls = []
        ref_before = reference_s()
        while True:
            rec = run_pass(calls, tracer)
            ref_after = reference_s()
            rec["ref_s"] = (ref_before + ref_after) / 2
            ref_before = ref_after
            passes.append(rec)
            walls.append(rec["wall_s"])
            elapsed = time.perf_counter() - start
            enough = len(walls) >= (1 if trace else 2)
            if enough and elapsed + statistics.median(walls) > budget:
                break
    return passes


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    passes = run_passes(job["calls"], job["seconds"], bool(job["trace"]))
    Path(result_path).write_text(json.dumps({"passes": passes}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
