"""What `bench/` reads from `cit`: the modules its tracer wraps, the names
its workloads, child runner and tests use, and the result shapes its tracer
reads.  A deletion in `src/cit` that would break the benchmark fails here."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cit.dist_core import JointDistribution, poissonized_count_tensor
from cit.testers import TesterConfig, Verdict, run_tester

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: the names `bench/` reads, by module
READ = {
    "cli": ("main", "_build_parser"),
    "harness": ("_run_cell", "find_min_m", "make_instance", "CSV_COLUMNS"),
    "testers": ("Verdict", "binary_bin_statistics", "calibrate_threshold", "run_tester",
                "test_binary", "test_general", "test_cmi"),
    "dist_core": ("poissonized_count_tensor", "sample_poissonized", "sample_fixed",
                  "read_sample_file", "write_sample_file", "read_distribution_file",
                  "write_distribution_file"),
    "poly_estimator": ("l2_estimator",),
    "flattening": ("implicit_flattening", "FlatteningCoefficients"),
}


def _tracer_modules() -> tuple:
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.MODULES


@pytest.mark.parametrize("short", _tracer_modules())
def test_traced_modules_import(short):
    importlib.import_module(f"cit.{short}")


@pytest.mark.parametrize("short, name", [(m, n) for m, names in READ.items() for n in names])
def test_read_names_resolve(short, name):
    assert hasattr(importlib.import_module(f"cit.{short}"), name)


def test_read_members_resolve():
    from cit.flattening import FlatteningCoefficients

    assert callable(FlatteningCoefficients.weight_grid_exact)
    verdict = run_tester(JointDistribution.uniform(2, 2, 3), TesterConfig(0.5, m_override=400))
    assert isinstance(verdict, Verdict)
    assert isinstance(verdict.M_drawn, int)
    assert verdict.per_bin and all(len(row) == 4 for row in verdict.per_bin)


def test_count_draw_returns_its_total_first():
    # the tracer counts a draw's samples as int(out[0]) of a tuple
    out = poissonized_count_tensor([JointDistribution.uniform(2, 2, 3)], 50,
                                   np.random.default_rng(0))
    assert isinstance(out, tuple) and isinstance(out[0], int)
