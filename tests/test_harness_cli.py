"""Harness orchestration and the command-line interface."""

import concurrent.futures
import contextlib
import dataclasses
import io
import json
import multiprocessing
import os
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cit import cli, harness, instances, testers
from cit.cli import main
from cit.dist_core import (
    JointDistribution,
    read_distribution_file,
    sample_fixed,
    write_sample_file,
)
from cit.harness import (
    CSV_COLUMNS,
    BudgetExhaustedError,
    ExperimentPlan,
    PlanError,
    PowerRow,
    find_min_m,
    parse_plan_text,
    run_power_experiment,
    write_power_csv,
)
from cit.instances import EnsembleSpec, make_instance
from cit.poly_estimator import l2_diff_polynomial, parse_polynomial
from cit.seeding import child_seed, generator
from cit.testers import TesterConfig, run_tester

PLAN_TEXT = """
# tiny smoke plan
mode=binary
null_family=yes_binary_r1
alt_family=no_binary_r1
n=40
eps=0.5
m=600
trials=60
seed=7
gen_m=16
"""


def _run_cell_but_die_on_cell_1(plan, idx, cell, run_cell=harness._run_cell):
    """`harness._run_cell`, but the process running cell 1 exits at once."""
    if idx == 1:
        os._exit(9)
    return run_cell(plan, idx, cell)


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class TestPlanParsing:
    def test_round_trip_keys(self):
        plan = parse_plan_text(PLAN_TEXT)
        assert plan.null_family == "yes_binary_r1"
        assert plan.n_values == (40,)
        assert plan.m_values == (600,)
        assert plan.trials == 60
        assert plan.master_seed == 7
        assert plan.gen_m == 16

    def test_unknown_key(self):
        with pytest.raises(PlanError):
            parse_plan_text("null_family=random_ci\nalt_family=random_far\nn=4\nbogus=1")

    def test_missing_required(self):
        with pytest.raises(PlanError):
            parse_plan_text("n=10\neps=0.5")

    def test_trials_floor(self):
        with pytest.raises(PlanError):
            parse_plan_text(PLAN_TEXT.replace("trials=60", "trials=10"))

    def test_auto_m(self):
        plan = parse_plan_text(PLAN_TEXT.replace("m=600", "m=auto,100"))
        assert plan.m_values == ("auto", 100)

    @pytest.mark.parametrize("empty", ["n_values", "eps_values", "m_values"])
    def test_empty_grid(self, empty):
        grid = {"n_values": (40,), "eps_values": (0.5,), "m_values": (600,), empty: ()}
        with pytest.raises(PlanError, match="grid must be non-empty"):
            ExperimentPlan("yes_binary_r1", "no_binary_r1", **grid)

    def test_gen_m_half_n_parses_to_the_default(self):
        plan = parse_plan_text(PLAN_TEXT.replace("gen_m=16", "gen_m=half_n"))
        assert plan.gen_m is None and plan == parse_plan_text(PLAN_TEXT.replace("gen_m=16", ""))

    def test_plan_keys_name_every_field_once(self):
        # a plan field and its key can only be removed together
        targets = [target for target, _ in harness._PLAN_KEYS.values()]
        assert sorted(targets) == sorted(f.name for f in dataclasses.fields(ExperimentPlan))


class TestPowerExperiment:
    def test_deterministic_csv(self, tmp_path):
        plan = parse_plan_text(PLAN_TEXT)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_power_experiment(plan, out_path=out1)
        run_power_experiment(plan, out_path=out2)
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert "wall_time" not in header

    def test_default_gen_m_writes_the_half_n_csv(self, tmp_path):
        # gen_m omitted, `half_n` and n // 2 = 20 are one plan, row and CSV
        written = []
        for gen_m in ("", "gen_m=half_n", "gen_m=20"):
            out = tmp_path / f"{len(written)}.csv"
            run_power_experiment(parse_plan_text(PLAN_TEXT.replace("gen_m=16", gen_m)),
                                 out_path=out)
            written.append(out.read_bytes())
        assert written[0] == written[1] == written[2]
        assert written[0].decode().splitlines()[1].split(",")[CSV_COLUMNS.index("gen_m")] == "20"

    @pytest.mark.parametrize("rate", ["accept_rate_null", "reject_rate_alt"])
    def test_row_rate_outside_unit_interval_refused(self, rate):
        fields = dict.fromkeys((f.name for f in dataclasses.fields(PowerRow)), 0.0)
        with pytest.raises(PlanError) as info:
            PowerRow(**{**fields, rate: 1.5})
        assert str(info.value) == "rate 1.5 outside [0, 1]"

    def test_identical_families_complement_exactly(self):
        plan = ExperimentPlan(
            null_family="random_ci",
            alt_family="random_ci",
            n_values=(25,),
            eps_values=(0.5,),
            m_values=(400,),
            trials=60,
            master_seed=3,
        )
        row = run_power_experiment(plan)[0]
        # identical specs share trial seeds, so the columns coincide exactly
        assert row.reject_rate_alt == pytest.approx(1 - row.accept_rate_null, abs=1e-12)
        assert row.mean_A_null == row.mean_A_alt

    @pytest.mark.parametrize("mode", ["binary", "general"])
    def test_m_zero_cells_accept_everything(self, mode):
        # general mode once aborted: its sampler refused m = 0
        plan = ExperimentPlan(
            null_family="random_ci",
            alt_family="random_far",
            n_values=(10,),
            eps_values=(0.4,),
            m_values=(0,),
            mode=mode,
            trials=50,
            master_seed=1,
        )
        row = run_power_experiment(plan)[0]
        assert row.accept_rate_null == 1.0
        assert row.reject_rate_alt == 0.0

    def test_se_halves_when_trials_quadruple(self):
        # reported binomial SE scales as 1/sqrt(trials): quadrupling the
        # trials halves it (within 20% tolerance from the rate estimate)
        base = dict(
            null_family="yes_binary_r1",
            alt_family="no_binary_r1",
            n_values=(30,),
            eps_values=(0.5,),
            m_values=(2000,),
            gen_m=10,
            master_seed=5,
            calibration_trials=150,  # interior accept rate near 5/6
        )
        r1 = run_power_experiment(ExperimentPlan(trials=80, **base))[0]
        r2 = run_power_experiment(ExperimentPlan(trials=320, **base))[0]
        assert r1.se_accept_null > 0
        ratio = r1.se_accept_null / r2.se_accept_null
        assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2

    def test_grid_always_fully_reported(self, tmp_path):
        plan = ExperimentPlan(
            null_family="random_ci",
            alt_family="random_far",
            n_values=(8, 12),
            eps_values=(0.4,),
            m_values=(120,),
            trials=50,
            master_seed=2,
        )
        rows = run_power_experiment(plan)
        assert [(r.n, r.status, r.trials) for r in rows] == [(8, "ok", 50), (12, "ok", 50)]
        write_power_csv(tmp_path / "grid.csv", rows)
        text = (tmp_path / "grid.csv").read_text().splitlines()
        assert len(text) == 3

    def test_calibrated_threshold_column(self):
        plan = ExperimentPlan(
            null_family="yes_binary_r1",
            alt_family="no_binary_r1",
            n_values=(30,),
            eps_values=(0.5,),
            m_values=(1500,),
            trials=50,
            gen_m=10,
            master_seed=4,
            calibration_trials=100,
        )
        row = run_power_experiment(plan)[0]
        assert np.isfinite(row.tau) and row.tau > 0

    def test_cmi_auto_budget_is_the_testers(self, tmp_path):
        # m=auto in cmi mode is the budget `cit test --mode cmi` draws
        inst = make_instance(EnsembleSpec("yes_binary_r1", 100, 0.3, 50))[0]
        want = run_tester(inst, TesterConfig(epsilon=0.3, mode="cmi")).m_used
        assert want == 2682
        plan = ExperimentPlan(
            null_family="yes_binary_r1",
            alt_family="no_binary_r1",
            n_values=(100,),
            eps_values=(0.3,),
            mode="cmi",
            trials=50,
        )
        run_power_experiment(plan, out_path=tmp_path / "cmi.csv")
        row = (tmp_path / "cmi.csv").read_text().splitlines()[1].split(",")
        assert int(row[CSV_COLUMNS.index("m")]) == want

    def test_nnn_rows_report_their_alphabet(self, tmp_path):
        # the instances are 32 x 16 x 16; the row once read ell1=2, ell2=2.
        # gen_m stays the plan's resolved value, which gen_nnn does not read
        plan = ExperimentPlan(
            null_family="nnn_d0",
            alt_family="nnn_d1",
            n_values=(16,),
            eps_values=(0.5,),
            m_values=(300,),
            mode="general",
            trials=50,
            master_seed=3,
        )
        run_power_experiment(plan, out_path=tmp_path / "nnn.csv")
        assert (tmp_path / "nnn.csv").read_text().splitlines()[1] == (
            "1,general,nnn_d0,nnn_d1,16,32,16,0.5,300,8,50,nan,0.96,0.18000000000000005,"
            "-0.23262716734353248,1.345361952861953,8.335831129254311,"
            "0.02771281292110205,0.054332310828824504,ok"
        )

    def test_nnn_auto_budget_is_the_domains(self, tmp_path):
        # m=auto was once refused for the nnn families; it is sized at 2n x n x n
        want = testers.sample_budget(TesterConfig(epsilon=0.5, mode="general"), (32, 16, 16))
        assert want == 813
        plan = ExperimentPlan(null_family="nnn_d0", alt_family="nnn_d1", n_values=(16,),
                              eps_values=(0.5,), mode="general", trials=50, master_seed=3)
        run_power_experiment(plan, out_path=tmp_path / "nnn.csv")
        row = (tmp_path / "nnn.csv").read_text().splitlines()[1].split(",")
        assert int(row[CSV_COLUMNS.index("m")]) == want


def fake_probes(monkeypatch, passes_from: int) -> list[int]:
    """Make every `find_min_m` probe at m >= `passes_from` pass and every
    other fail, with no instance built or drawn from; returns the list
    that the probed m values are appended to, in order."""
    probed: list[int] = []

    def probe(cfg, seed, m, *args):
        probed.append(m)
        return m >= passes_from

    def no_instance(spec):
        raise AssertionError("a faked probe built an instance")

    monkeypatch.setattr(harness, "_probe", probe)
    monkeypatch.setattr(harness, "make_instance", no_instance)
    return probed


def fake_search(m_start: int, m_cap: int) -> int:
    return find_min_m(20, 0.5, ("yes_binary_r1", "no_binary_r1"), 0.7, seed=0, trials=50,
                      calibration_trials=100, m_start=m_start, m_cap=m_cap)


class TestFindMinM:
    @pytest.mark.parametrize("m_cap, want, probes", [
        (48, 43, [32, 48, 39, 43]),  # once exhausted after probing only 32
        (40, 40, [32, 40, 36, 38]),  # likewise
        (64, 45, [32, 64, 45, 38]),  # m_cap = 2 * m_start: the probes of old
    ])
    def test_doubling_ends_at_m_cap(self, monkeypatch, m_cap, want, probes):
        probed = fake_probes(monkeypatch, 40)
        assert fake_search(32, m_cap) == want
        assert probed == probes

    def test_exhausted_only_after_probing_m_cap(self, monkeypatch):
        probed = fake_probes(monkeypatch, 40)
        with pytest.raises(BudgetExhaustedError, match="no m <= 39 reached power 0.7"):
            fake_search(32, 39)
        assert probed == [32, 39]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 2**20), st.integers(0, 2**20), st.integers(1, 2**21))
    def test_search_properties(self, m_start, span, passes_from):
        # the monkeypatch fixture is function-scoped, so patch by hand
        with pytest.MonkeyPatch.context() as monkeypatch:
            probed = fake_probes(monkeypatch, passes_from)
            m_cap = min(m_start + span, 2**20)
            try:
                m = fake_search(m_start, m_cap)
            except BudgetExhaustedError:
                m = None
        assert all(m_start <= p <= m_cap for p in probed)
        if m is None:
            assert probed[-1] == m_cap < passes_from
        else:
            assert m in probed and m >= passes_from
            assert m == m_start or any(p < m and p < passes_from for p in probed)

    def test_indistinguishable_pair_exhausts_budget(self):
        with pytest.raises(BudgetExhaustedError):
            find_min_m(
                20,
                0.5,
                ("random_ci", "random_ci"),
                0.7,
                seed=0,
                trials=50,
                calibration_trials=100,
                m_start=16,
                m_cap=256,
            )

    def test_detectable_pair_returns_and_is_stable(self):
        m = find_min_m(
            30,
            0.4,
            ("random_ci", "random_far"),
            0.7,
            seed=1,
            trials=60,
            calibration_trials=100,
            m_start=16,
        )
        assert 16 <= m < 4096
        m2 = find_min_m(
            30,
            0.4,
            ("random_ci", "random_far"),
            0.7,
            seed=1,
            trials=60,
            calibration_trials=100,
            m_start=16,
        )
        assert m == m2  # pure function of its arguments

    def test_trials_below_floor_rejected(self):
        with pytest.raises(PlanError, match="trials must be >= 50"):
            find_min_m(20, 0.5, ("random_ci", "random_far"), 0.7, seed=0, trials=49)

    @pytest.mark.parametrize("m_start", [0, -4])
    def test_m_start_below_one_rejected_before_any_probe(self, monkeypatch, m_start):
        # doubling from 0 stays at 0: without the check the search never ends
        def no_probe(spec):
            raise AssertionError("probed before rejecting m_start")

        monkeypatch.setattr(harness, "make_instance", no_probe)
        with pytest.raises(PlanError, match="m_start must be >= 1"):
            find_min_m(20, 0.5, ("yes_binary_r1", "no_binary_r1"), 0.7, seed=0, trials=50,
                       calibration_trials=100, m_start=m_start, m_cap=64)

    def test_m_cap_below_m_start_rejected_before_any_probe(self, monkeypatch):
        # no m in [m_start, m_cap] exists: the search used to report an exhausted budget
        def no_probe(spec):
            raise AssertionError("probed before rejecting m_cap")

        monkeypatch.setattr(harness, "make_instance", no_probe)
        with pytest.raises(PlanError, match="m_cap must be >= m_start 32, got 16"):
            find_min_m(20, 0.5, ("yes_binary_r1", "no_binary_r1"), 0.7, seed=0, trials=50,
                       calibration_trials=100, m_start=32, m_cap=16)

    @pytest.mark.parametrize("calibration_trials", [0, 99, 10**9 + 1])
    def test_calibration_trials_rejected_before_any_instance(self, monkeypatch,
                                                             calibration_trials):
        # once refused by the first probe's calibrate_threshold, as a
        # TesterInputError, after the search had set up its instances
        def no_instance(spec):
            raise AssertionError("built an instance before rejecting calibration_trials")

        monkeypatch.setattr(harness, "make_instance", no_instance)
        with pytest.raises(PlanError) as info:
            find_min_m(20, 0.5, ("yes_binary_r1", "no_binary_r1"), 0.7, seed=0, trials=50,
                       calibration_trials=calibration_trials)
        assert str(info.value) == ("calibration_trials must lie in [100, 1000000000], "
                                   f"got {calibration_trials}")


def full_probe(cfg, seed, m, null_instance, alt_instance, trials, calibration_trials,
               target_power):
    """`harness._probe` by `calibrate_threshold` and both columns run in full,
    on the probe's streams."""
    cfg = dataclasses.replace(cfg, m_override=m, seed=child_seed(seed, "minm-cal", m))
    tau = testers.calibrate_threshold(null_instance, cfg, calibration_trials)
    cfg = dataclasses.replace(cfg, tau_override=tau)
    alt, _ = harness._trial_column(cfg, trials, alt_instance, generator(seed, "minm-alt", m))
    null, _ = harness._trial_column(cfg, trials, null_instance, generator(seed, "minm-null", m))
    need = target_power * trials
    return (~alt).sum() >= need and null.sum() >= need


class TestSettledColumns:
    """A min-m probe's column stops at its first settled trial and gives the
    bool of the full column, so every search returns what it did when each
    probe ran all of its trials."""

    PAIR = ("yes_binary_r1", "no_binary_r1")

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(50, 200), st.floats(0.5, 0.95, exclude_min=True, exclude_max=True),
           st.floats(0, 1), st.integers(0, 2**32 - 1), st.booleans())
    def test_settle_rule(self, trials, target, rate, seed, accept):
        flags = (np.random.default_rng(seed).random(trials) < rate).tolist()
        pulled = []

        def verdicts(dists, cfg, rng):
            for flag in flags:
                pulled.append(flag)
                yield types.SimpleNamespace(accept=flag)

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(harness, "run_trials", verdicts)
            got = harness._column_reaches(None, trials, lambda t: t, None, accept, target)
        need = target * trials
        hits = np.cumsum(np.array(flags) == accept)
        settled = (hits >= need) | (hits + trials - np.arange(1, trials + 1) < need)
        assert got == (hits[-1] >= need)
        assert len(pulled) == np.argmax(settled) + 1

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(100, 300), st.integers(50, 200),
           st.floats(0.5, 0.95, exclude_min=True, exclude_max=True), st.integers(0, 2**32 - 1),
           st.sampled_from(["ties", "normal", "zero", "negative"]), st.floats(0, 1))
    def test_joint_rule(self, calibration_trials, trials, target, seed, null, rate):
        # integer statistics tie with one another and with tau, and take zero
        # and negative values; an all-zero or all-negative null gives tau the
        # positive floor.  An alternative statistic is a null one, raised
        # above every null statistic at `rate`
        rng = np.random.default_rng(seed)
        cal = {"ties": rng.integers(-2, 3, calibration_trials).astype(float),
               "normal": rng.normal(size=calibration_trials),
               "zero": np.zeros(calibration_trials),
               "negative": -rng.integers(1, 4, calibration_trials).astype(float)}[null]
        alt = rng.choice(cal, trials) + 10.0 * (rng.random(trials) < rate)
        pulls = {"cal": 0, "alt": 0}
        bounds, null_taus = [], []

        def cal_stats(null_instance, cfg, trials):
            for stat in cal.tolist():
                pulls["cal"] += 1
                yield stat

        def alt_verdicts(dists, cfg, rng):
            for stat in alt.tolist():
                pulls["alt"] += 1
                yield types.SimpleNamespace(statistic_A=stat)

        def null_column(cfg, *args):
            null_taus.append(cfg.tau_override)
            return True

        def positive_tau(stat):
            bounds.append(testers._positive_tau(stat))
            return bounds[-1]

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(testers, "_calibration_statistics", cal_stats)
            tau = testers.calibrate_threshold(None, TesterConfig(0.5), calibration_trials)
            pulls["cal"] = 0
            monkeypatch.setattr(harness, "_calibration_statistics", cal_stats)
            monkeypatch.setattr(harness, "run_trials", alt_verdicts)
            monkeypatch.setattr(harness, "_column_reaches", null_column)
            monkeypatch.setattr(harness, "_positive_tau", positive_tau)
            got = harness._probe(TesterConfig(0.5), 0, 64, lambda t: t, lambda t: t, trials,
                                 calibration_trials, target)
        # the documented rule, one prefix at a time: after j calibration and
        # min(j, trials) alternative pulls, lo is the (C // 6 + 1)-th largest
        # calibration statistic so far, floored, and the probe fails once the
        # alternative statistics above lo plus those left fall short
        need = target * trials
        rank = calibration_trials // 6 + 1
        for j in range(1, calibration_trials + 1):
            kth = np.sort(cal[:j])[-rank] if j >= rank else -np.inf
            lo = kth if kth > 0 else np.finfo(float).tiny
            a = min(j, trials)
            if (alt[:a] > lo).sum() + trials - a < need:
                want = (False, j, a)
                break
        else:
            # the alternative column goes on at tau and stops once settled
            a = min(calibration_trials, trials)
            hits = (alt[:a] > tau).sum()
            while hits < need <= hits + trials - a:
                hits += alt[a] > tau
                a += 1
            want = (hits >= need, calibration_trials, a)
        full = (alt > tau).sum() >= need
        assert got == want[0] == full
        assert (pulls["cal"], pulls["alt"]) == want[1:]
        assert bounds == sorted(bounds) and bounds[-1] <= tau
        assert null_taus == ([tau] if full else [])

    @pytest.mark.parametrize("kwargs", [
        *(dict(n=40, eps=0.5, families=("yes_binary_r1", "no_binary_r1"), seed=seed)
          for seed in range(4)),
        # its probe at m = 64 passes the alternative column and fails the null one
        dict(n=20, eps=0.3, families=("random_ci", "random_far"), seed=1, mode="general",
             ell1=3, ell2=3, m_start=16),
    ])
    def test_search_matches_full_columns(self, monkeypatch, kwargs):
        def search():
            return find_min_m(target_power=0.7, trials=50, calibration_trials=100, **kwargs)

        settled = search()
        monkeypatch.setattr(harness, "_probe", full_probe)
        assert search() == settled

    def test_exhausted_search_matches_full_columns(self, monkeypatch):
        def message():
            with pytest.raises(BudgetExhaustedError) as info:
                find_min_m(20, 0.5, ("random_ci", "random_ci"), 0.7, seed=0, trials=50,
                           calibration_trials=100, m_start=16, m_cap=256)
            return str(info.value)

        settled = message()
        monkeypatch.setattr(harness, "_probe", full_probe)
        assert message() == settled

    def test_search_verdict_count(self, monkeypatch):
        built = 0
        init = testers.Verdict.__init__

        def counting(verdict, *args, **kwargs):
            nonlocal built
            init(verdict, *args, **kwargs)
            built += 1

        monkeypatch.setattr(testers.Verdict, "__init__", counting)
        m = find_min_m(40, 0.5, self.PAIR, 0.7, seed=2, trials=50, calibration_trials=100)
        # 12 probes, of which the 10 failing ones stop their calibration early;
        # with each calibration run in full 1,600 verdicts, and with every
        # column too 2,400
        assert (m, built) == (11585, 1081)


class TestBatchedEngine:
    """Trial blocks and the min-m instance cache leave every output as it is."""

    PAIR = ("yes_binary_r1", "no_binary_r1")

    def test_outputs_with_one_trial_blocks(self, monkeypatch, tmp_path):
        plan = parse_plan_text(PLAN_TEXT + "calibration_trials=100\n")

        def outputs(tag):
            run_power_experiment(plan, out_path=tmp_path / f"{tag}.csv")
            m = find_min_m(40, 0.5, self.PAIR, 0.7, seed=2, trials=50, calibration_trials=100)
            return m, (tmp_path / f"{tag}.csv").read_bytes()

        default = outputs("default")
        monkeypatch.setattr(testers, "_TRIAL_BLOCK_CELLS", 1)
        assert outputs("single") == default

    @pytest.mark.parametrize("trials, calibration_trials", [(60, 100), (120, 100)])
    def test_find_min_m_builds_each_instance_once(self, monkeypatch, trials, calibration_trials):
        specs = []
        real = harness.make_instance

        def counting(spec):
            # a SeedSequence compares by identity: key the spec by its seed's words
            specs.append((spec.family, spec.seed.entropy, spec.seed.spawn_key))
            return real(spec)

        monkeypatch.setattr(harness, "make_instance", counting)
        kwargs = dict(seed=2, trials=trials, calibration_trials=calibration_trials)
        m = find_min_m(40, 0.5, self.PAIR, 0.7, **kwargs)
        # one null instance per calibration or trial index, one alternative per trial
        assert len(specs) == len(set(specs)) == max(trials, calibration_trials) + trials
        specs.clear()
        monkeypatch.setattr(harness, "_INSTANCE_CACHE_CELLS", 0)
        assert find_min_m(40, 0.5, self.PAIR, 0.7, **kwargs) == m
        assert len(specs) > len(set(specs))  # past the budget, rebuilt at every probe

    @pytest.mark.parametrize("k", [1, 37])
    def test_find_min_m_caches_as_many_instances_as_fit(self, monkeypatch, k):
        # every instance of a search has 2 x 2 x 20 cells: a budget of k such
        # instances keeps the first k built, one cell less keeps k - 1
        real = harness.make_instance

        def builds(budget):
            specs = []

            def counting(spec):
                specs.append((spec.family, spec.seed.entropy, spec.seed.spawn_key))
                return real(spec)

            monkeypatch.setattr(harness, "make_instance", counting)
            monkeypatch.setattr(harness, "_INSTANCE_CACHE_CELLS", budget)
            find_min_m(20, 0.5, self.PAIR, 0.7, seed=3, trials=50, calibration_trials=100)
            return specs

        cells = 2 * 2 * 20
        below, at, above = (builds(k * cells + d) for d in (-1, 0, 1))
        assert at == above
        built = list(dict.fromkeys(at))
        assert list(dict.fromkeys(below)) == built
        assert all(at.count(spec) == 1 for spec in built[:k])
        assert at.count(built[k]) > 1 and below.count(built[k - 1]) > 1
        assert len(below) > len(at)


PINNED_DIST = (
    "#dims 2 2 3\n1\t1\t1\t0.1\n1\t2\t1\t0.05\n2\t1\t1\t0.05\n2\t2\t1\t0.1\n"
    "1\t1\t2\t0.2\n2\t2\t2\t0.1\n1\t2\t3\t0.15\n2\t1\t3\t0.15\n2\t2\t3\t0.1\n"
)

#: PINNED_DIST at total mass 1.2, a pseudo-distribution like the lower-bound ensembles
PINNED_PSEUDO_DIST = (
    "#dims 2 2 3\n1\t1\t1\t0.12\n1\t2\t1\t0.06\n2\t1\t1\t0.06\n2\t2\t1\t0.12\n"
    "1\t1\t2\t0.24\n2\t2\t2\t0.12\n1\t2\t3\t0.18\n2\t1\t3\t0.18\n2\t2\t3\t0.12\n"
)


@pytest.fixture
def pinned_files(tmp_path):
    """A 400-row sample file on 2x2x5 and a 2x2x3 distribution file."""
    samples = np.random.default_rng(5).integers(0, (2, 2, 5), size=(400, 3))
    write_sample_file(tmp_path / "s.tsv", samples, (2, 2, 5))
    (tmp_path / "d.tsv").write_text(PINNED_DIST)
    return tmp_path / "s.tsv", tmp_path / "d.tsv"


class TestPinnedOutputs:
    """Outputs recorded with the per-trial tester loop that preceded trial
    blocks, and (file inputs, `debug`) with the per-line file readers and
    the float twins of the exact estimators; the binary outputs that draw
    samples (`--dist` binary, `minm`, the binary power CSV) were recorded
    again when binary draws became per-cell Poisson counts seeded by one
    `SeedSequence` per trial.  The bisection and general `minm` values and
    the `calibrate` taus were recorded before power cells and min-m probes
    shared one instance builder and one trial-column routine.  The general
    sample-file verdict was recorded again, in its last digits, when the
    general tester's bins became one pass over the samples; the general
    outputs that draw (`--dist` general, the general `calibrate` tau) were
    recorded again when general draws became per-bin counts seeded by one
    `SeedSequence` per trial.  The outputs of trial columns (`minm`,
    `calibrate`, the binary power CSV) were recorded again when each column
    drew from one stream, in blocks, and each harness instance from one
    `SeedSequence`; the single-verdict outputs (`--dist`, sample files)
    kept their bytes, since a one-trial column draws from `cfg.seed` as
    before.  A change to any RNG stream, to the kernels' arithmetic, to
    file parsing or to the exact estimators shows here."""

    SAMPLE_VERDICTS = {
        ("binary", "0.5"): (
            '{"M_drawn": 400, "accept": true, "m_used": 400, "per_bin": '
            "[[0, 74, 1.0, -0.2268956202971252], [1, 97, 1.0, 0.03219484882418813], "
            "[2, 87, 1.0, 0.11100254055110417], [3, 69, 1.0, 0.5320988639689255], "
            '[4, 73, 1.0, -0.25271629778672033]], "statistic_A": 0.1956843352603722, '
            '"threshold_tau": 4.47213595499958}\n'
        ),
        ("general", "0.5"): (
            '{"M_drawn": 400, "accept": true, "m_used": 400, "per_bin": '
            "[[0, 38, 2.0, -0.027799227799227798], [1, 50, 2.0, 0.19221305543493994], "
            "[2, 44, 2.0, -0.13613159387407828], [3, 36, 2.0, 0.26619132501485243], "
            '[4, 38, 2.0, -0.16976976976976893]], "statistic_A": 0.12470378900671736, '
            '"threshold_tau": 2.6591479484724942}\n'
        ),
    }
    # on 2x2 tables the cmi tester is the binary tester on the same counts
    SAMPLE_VERDICTS["cmi", "0.25"] = SAMPLE_VERDICTS["binary", "0.5"]

    DIST_VERDICTS = {
        "binary": (
            '{"M_drawn": 1975, "accept": false, "m_used": 2000, "per_bin": '
            "[[0, 564, 1.0, 14.536303460738969], [1, 610, 1.0, 113.11695382010102], "
            '[2, 801, 1.0, 60.18977735327054]], "statistic_A": 187.84303463411052, '
            '"threshold_tau": 3.4641016151377544}\n'
        ),
        "general": (
            '{"M_drawn": 1937, "accept": false, "m_used": 2000, "per_bin": '
            "[[0, 280, 2.0, 5.116638586184738], [1, 312, 2.0, 41.68198319676382], "
            '[2, 378, 2.0, 16.62515692508356]], "statistic_A": 63.42377870803212, '
            '"threshold_tau": 2.0597671439071177}\n'
        ),
    }

    @pytest.mark.parametrize("mode, eps", list(SAMPLE_VERDICTS))
    def test_sample_file_verdicts(self, pinned_files, mode, eps):
        argv = ["test", "--mode", mode, "--eps", eps, "--samples", str(pinned_files[0]), "--json"]
        assert run_cli(argv) == (0, self.SAMPLE_VERDICTS[mode, eps])

    @pytest.mark.parametrize("mode", list(DIST_VERDICTS))
    def test_distribution_file_verdicts(self, pinned_files, mode):
        argv = ["test", "--mode", mode, "--eps", "0.5", "--m", "2000", "--seed", "3",
                "--dist", str(pinned_files[1]), "--json"]
        assert run_cli(argv) == (0, self.DIST_VERDICTS[mode])

    @pytest.mark.parametrize("mode", list(DIST_VERDICTS))
    def test_pseudo_distribution_file_verdicts(self, tmp_path, mode):
        # divided by its total, the file draws the same counts as PINNED_DIST
        path = tmp_path / "pseudo.tsv"
        path.write_text(PINNED_PSEUDO_DIST)
        argv = ["test", "--mode", mode, "--eps", "0.5", "--m", "2000", "--seed", "3",
                "--dist", str(path), "--json"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli(argv) == (0, self.DIST_VERDICTS[mode])
        note = "note: normalized pseudo-distribution by factor 1.1999999999999997\n"
        assert err.getvalue() == note

    def test_debug_estimate(self, tmp_path):
        l2, poly = tmp_path / "l2.txt", tmp_path / "poly.txt"
        l2.write_text("-8 : 1^1 2^1 3^1 4^1\n4 : 1^2 4^2\n4 : 2^2 3^2\n")
        assert parse_polynomial(l2.read_text(), 4).terms == l2_diff_polynomial(2, 2).terms
        poly.write_text("3/2 : 1^2 2^1\n-1/3 : 3^3\n")
        for path, num_vars, fp, want in (
            (l2, "4", "1:3 2:1 3:2 4:2", "estimate=-1/35\n"),
            (poly, "3", "1:2 2:3 3:1", "estimate=3/40\n"),
        ):
            argv = ["debug", "estimate", "--poly", str(path), "--num-vars", num_vars,
                    "--fingerprint", fp]
            assert run_cli(argv) == (0, want)

    def test_debug_flatten_grid(self, pinned_files):
        argv = ["debug", "flatten-grid", "--samples", str(pinned_files[0]), "--t1", "3", "--t2", "2"]
        assert run_cli(argv) == (0, "2,0\n11,3\n")

    def test_minm_values(self):
        for seed, want in ((1, 13777), (4, 19484)):
            argv = ["minm", "--n", "40", "--eps", "0.5", "--trials", "50", "--seed", str(seed)]
            assert run_cli(argv) == (0, f"m={want}\n")

    def test_minm_bisection_value(self):
        # the benchmark's minm_binary search; 27554 is a bisection midpoint
        argv = ["minm", "--n", "100", "--eps", "0.5", "--null-family", "yes_binary_r1",
                "--alt-family", "no_binary_r1", "--target", "0.7", "--trials", "120",
                "--seed", "701"]
        assert run_cli(argv) == (0, "m=27554\n")

    @pytest.mark.parametrize("seed, want", [
        (701, 27554), (702, 27554), (703, 23170), (704, 23170), (705, 27554),
    ])
    def test_minm_binary_workload_values(self, seed, want):
        # the benchmark's minm_binary config, recorded with every probe column run in full
        argv = ["minm", "--n", "100", "--eps", "0.5", "--null-family", "yes_binary_r1",
                "--alt-family", "no_binary_r1", "--target", "0.7", "--trials", "120",
                "--m-cap", "2000000", "--seed", str(seed)]
        assert run_cli(argv) == (0, f"m={want}\n")

    def test_minm_cap_value(self):
        # doubling from 32 skips 30000 (16384, then 32768): once exit code 3
        argv = ["minm", "--n", "100", "--eps", "0.5", "--trials", "120", "--seed", "701",
                "--m-cap", "30000"]
        assert run_cli(argv) == (0, "m=30000\n")

    def test_minm_general_value(self):
        argv = ["minm", "--mode", "general", "--null-family", "random_ci", "--alt-family",
                "random_far", "--ell1", "3", "--ell2", "3", "--n", "30", "--eps", "0.4",
                "--trials", "60", "--seed", "1"]
        assert run_cli(argv) == (0, "m=32\n")

    @pytest.mark.parametrize("extra, tau", [
        ([], "1.0078200512430748"),
        (["--mode", "general", "--ell1", "3", "--ell2", "3"], "3.2029078111530955"),
    ])
    def test_calibrate_tau(self, extra, tau):
        argv = ["calibrate", "--family", "random_ci", "--n", "30", "--m", "400",
                "--trials", "120", "--seed", "2", *extra]
        assert run_cli(argv) == (0, f"tau={tau}\n")

    def test_binary_power_csv(self, tmp_path):
        plan_path, out = tmp_path / "plan.kv", tmp_path / "power.csv"
        plan_path.write_text(
            PLAN_TEXT.replace("eps=0.5", "eps=0.5,0.3") + "calibration_trials=100\n"
        )
        assert run_cli(["power", "--plan", str(plan_path), "--out", str(out)])[0] == 0
        assert out.read_text().splitlines()[1:] == [
            "1,binary,yes_binary_r1,no_binary_r1,40,2,2,0.5,600,16,60,2.600160664938679,"
            "0.95,0.19999999999999996,-0.39936310318272733,-0.03912851825709026,"
            "6.087251061481636,0.0281365716935569,0.05163977794943222,ok",
            "1,binary,yes_binary_r1,no_binary_r1,40,2,2,0.3,600,16,60,2.6467685647819614,"
            "0.8333333333333334,0.15000000000000002,0.18267865031366762,-0.11096037869372787,"
            "5.860125461791043,0.04811252243246881,0.046097722286464436,ok",
        ]


class TestCLI:
    def test_gen_and_test_round_trip(self, tmp_path):
        out = tmp_path / "inst.tsv"
        code, text = run_cli(
            ["gen", "--family", "no_binary_r1", "--n", "50", "--eps", "0.4",
             "--m", "20", "--seed", "3", "--out", str(out)]
        )
        assert code == 0 and "wrote" in text
        dist, factor = read_distribution_file(out)
        assert dist.dims == (2, 2, 50) and factor == 1.0
        code, text = run_cli(
            ["test", "--mode", "binary", "--eps", "0.4", "--m", "800",
             "--seed", "1", "--dist", str(out)]
        )
        assert code == 0
        assert text.startswith(("accept", "reject"))

    def test_cli_determinism(self, tmp_path):
        out = tmp_path / "inst.tsv"
        run_cli(["gen", "--family", "random_ci", "--n", "30", "--seed", "5",
                 "--out", str(out)])
        argv = ["test", "--mode", "general", "--eps", "0.5", "--m", "500",
                "--seed", "11", "--dist", str(out), "--json"]
        code1, text1 = run_cli(argv)
        code2, text2 = run_cli(argv)
        assert (code1, text1) == (code2, text2) == (0, text1)
        payload = json.loads(text1)
        assert set(payload) == {
            "accept", "statistic_A", "threshold_tau", "m_used", "M_drawn", "per_bin"
        }

    def test_sample_file_input(self, tmp_path):
        p = JointDistribution.uniform(2, 2, 4)
        from cit.dist_core import sample_fixed

        samples = sample_fixed(p, 200, 9)
        path = tmp_path / "samples.tsv"
        write_sample_file(path, samples, p.dims)
        code, text = run_cli(
            ["test", "--mode", "binary", "--eps", "0.5", "--samples", str(path)]
        )
        assert code == 0 and "m=200" in text

    def test_power_subcommand(self, tmp_path):
        plan_path = tmp_path / "plan.kv"
        plan_path.write_text(PLAN_TEXT)
        out = tmp_path / "power.csv"
        code, text = run_cli(["power", "--plan", str(plan_path), "--out", str(out)])
        assert code == 0 and out.exists()

    def test_workers_csv_byte_identical(self, tmp_path):
        plan_path = tmp_path / "plan.kv"
        plan_path.write_text(PLAN_TEXT.replace("eps=0.5", "eps=0.5,0.3"))
        csv = {}
        for workers in ("1", "2"):
            out = tmp_path / f"power{workers}.csv"
            argv = ["power", "--plan", str(plan_path), "--out", str(out), "--workers", workers]
            assert run_cli(argv)[0] == 0
            csv[workers] = out.read_bytes()
        assert len(csv["1"].splitlines()) == 3
        assert csv["2"] == csv["1"]

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_code(self, tmp_path, workers):
        plan_path = tmp_path / "plan.kv"
        plan_path.write_text(PLAN_TEXT)
        out = tmp_path / "power.csv"
        argv = ["power", "--plan", str(plan_path), "--out", str(out), "--workers", workers]
        assert run_cli(argv) == (2, "") and not out.exists()

    def test_workers_capped_at_cell_count(self, monkeypatch, tmp_path):
        sizes = []

        class InlinePool:
            """Runs each submitted cell in this process; records the pool size."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(harness.futures, "ProcessPoolExecutor", InlinePool)
        plan_path = tmp_path / "plan.kv"
        plan_path.write_text(PLAN_TEXT.replace("eps=0.5", "eps=0.5,0.3"))
        csv = {}
        for workers in ("1", "64"):
            out = tmp_path / f"power{workers}.csv"
            argv = ["power", "--plan", str(plan_path), "--out", str(out), "--workers", workers]
            assert run_cli(argv)[0] == 0
            csv[workers] = out.read_bytes()
        assert sizes == [2]  # two cells: a pool of two, and none for --workers 1
        assert csv["64"] == csv["1"]

    @pytest.mark.parametrize("mode", ["binary", "cmi", "general"])
    def test_huge_budget_exit_code(self, pinned_files, mode):
        # the int64 counts of a budget above 2^62 could wrap: refused, not drawn
        err = io.StringIO()
        argv = ["test", "--mode", mode, "--eps", "0.3", "--m", str(10**19),
                "--dist", str(pinned_files[1])]
        with contextlib.redirect_stderr(err):
            assert run_cli(argv) == (2, "")
        assert "above 2^62" in err.getvalue()

    def test_repeated_distribution_cell_exit_code(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("#dims 2 2 1\n1\t1\t1\t0.5\n1\t1\t1\t0.25\n2\t2\t1\t0.5\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run_cli(["test", "--eps", "0.5", "--dist", str(path)])
        assert (code, out) == (2, "")
        assert "dup.tsv: cell 1 1 1 listed 2 times" in err.getvalue()

    @pytest.mark.parametrize("extra", [
        ["--beta", "inf"],
        ["--mode", "general", "--zeta", "inf"],
        ["--zeta", "nan"],
        ["--tau", "nan"],
        ["--tau", "inf", "--json"],
        ["--tau", "nan", "--json"],
    ])
    def test_non_finite_knob_exit_code(self, pinned_files, extra):
        # once an OverflowError traceback, a tau=nan verdict or a NaN JSON token
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            argv = ["test", "--eps", "0.5", "--dist", str(pinned_files[1]), *extra]
            assert run_cli(argv) == (2, "")
        assert err.getvalue().startswith("error: ") and "must be finite" in err.getvalue()

    def test_non_finite_plan_zeta_exit_code(self, tmp_path):
        # once an `ok` row with accept_rate_null 0.0
        plan_path, out = tmp_path / "plan.kv", tmp_path / "power.csv"
        plan_path.write_text(PLAN_TEXT + "zeta=nan\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli(["power", "--plan", str(plan_path), "--out", str(out)]) == (2, "")
        assert "beta and zeta must be finite" in err.getvalue() and not out.exists()

    @pytest.mark.parametrize("mode, eps", [
        ("binary", "1e-200"),
        ("general", "1e-200"),
        ("cmi", "1e-200"),
        ("binary", "1e-160"),
        ("general", "1e-100"),
    ])
    def test_tiny_eps_exit_code(self, pinned_files, mode, eps):
        # once a ZeroDivisionError or OverflowError traceback
        err = io.StringIO()
        argv = ["test", "--mode", mode, "--eps", eps, "--dist", str(pinned_files[1])]
        with contextlib.redirect_stderr(err):
            assert run_cli(argv) == (2, "")
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert "is not finite" in err.getvalue()

    def test_tiny_eps_plan_exit_code(self, tmp_path):
        # once a ZeroDivisionError traceback
        plan_path, out = tmp_path / "plan.kv", tmp_path / "power.csv"
        plan_path.write_text(PLAN_TEXT.replace("eps=0.5", "eps=1e-200").replace("m=600", "m=auto"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli(["power", "--plan", str(plan_path), "--out", str(out)]) == (2, "")
        assert err.getvalue() == (
            "error: cell eps=1e-200 m=auto: sample budget at epsilon 1e-200 is not finite\n"
        )
        assert not out.exists()

    def test_bad_polynomial_coefficient_exit_code(self, tmp_path):
        # once a ZeroDivisionError traceback
        poly = tmp_path / "poly.txt"
        poly.write_text("1/0 : 1^2 2^2\n")
        err = io.StringIO()
        argv = ["debug", "estimate", "--poly", str(poly), "--num-vars", "2",
                "--fingerprint", "1:2 2:1"]
        with contextlib.redirect_stderr(err):
            assert run_cli(argv) == (2, "")
        assert err.getvalue() == "error: line 1: bad coefficient '1/0'\n"

    @pytest.mark.parametrize("line, token", [
        ("1 : 0^2 1^2", "0^2"),  # once 'variable index -1 outside [0, 2)'
        ("1 : a^2 2^2", "a^2"),  # once Python's int() message
        ("1 : 1^x 2^3", "1^x"),
        ("1 : 1^0 2^4", "1^0"),  # once 'exponent key ((0, 0), (1, 4)) holds ...'
    ])
    def test_bad_polynomial_monomial_exit_code(self, tmp_path, line, token):
        poly = tmp_path / "poly.txt"
        poly.write_text(f"# two variables\n{line}\n")
        err = io.StringIO()
        argv = ["debug", "estimate", "--poly", str(poly), "--num-vars", "2",
                "--fingerprint", "1:2 2:1"]
        with contextlib.redirect_stderr(err):
            assert run_cli(argv) == (2, "")
        assert err.getvalue() == (
            f"error: line 2: bad monomial {token!r}: expected i^e with i in [1, 2] and e >= 1\n"
        )

    @pytest.mark.parametrize("fingerprint, token", [
        ("1", "1"),  # once Python's "invalid literal for int() with base 10: ''"
        ("a:2", "a:2"),
        ("1:2:3", "1:2:3"),
        ("1:-2 1:6", "1:-2"),  # once read as count 4
        ("1:+3", "1:+3"),
        ("1_0:1", "1_0:1"),
    ])
    def test_bad_fingerprint_token_exit_code(self, tmp_path, fingerprint, token):
        poly = tmp_path / "poly.txt"
        poly.write_text("1 : 1^1 2^1\n")
        err = io.StringIO()
        argv = ["debug", "estimate", "--poly", str(poly), "--num-vars", "2",
                "--fingerprint", fingerprint]
        with contextlib.redirect_stderr(err):
            assert run_cli(argv) == (2, "")
        assert err.getvalue() == (f"error: fingerprint token {token!r} is not i:count in "
                                  "decimal digits with 1 <= i <= 2\n")

    def test_fingerprint_index_range_and_repeats(self, tmp_path):
        poly = tmp_path / "poly.txt"
        poly.write_text("1 : 1^1 2^1\n")
        argv = ["debug", "estimate", "--poly", str(poly), "--num-vars", "2", "--fingerprint"]
        # a repeated index adds up: 1:1 1:1 2:1 is the fingerprint 1:2 2:1
        assert run_cli([*argv, "1:1 1:1 2:1"]) == run_cli([*argv, "1:2 2:1"]) == (
            0, "estimate=1/3\n")
        for token in ("0:1", "3:1"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert run_cli([*argv, f"1:2 {token}"]) == (2, "")
            assert err.getvalue() == (f"error: fingerprint token {token!r} is not i:count in "
                                      "decimal digits with 1 <= i <= 2\n")

    def test_minm_cap_below_start_exit_code(self):
        # once 'budget exhausted: no m <= 16 reached power 0.7' (exit 3) with no probe run
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli(["minm", "--n", "40", "--eps", "0.5", "--m-cap", "16"]) == (2, "")
        # then 'm_start must be >= 1 and <= m_cap 16, got 32', naming a flag cit minm lacks
        assert err.getvalue() == "error: m_cap must be >= m_start 32, got 16\n"

    def test_invalid_plan_exit_code(self, tmp_path):
        plan_path = tmp_path / "bad.kv"
        plan_path.write_text("nonsense=1\n")
        code, _ = run_cli(["power", "--plan", str(plan_path), "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_time_budget_plan_key_exit_code(self, tmp_path):
        # a plan's rows never depend on how fast the host runs; the removed
        # key is spelled in two parts so that a search for it finds no use
        key = "budget" + "_seconds"
        plan_path, out = tmp_path / "plan.kv", tmp_path / "power.csv"
        plan_path.write_text(PLAN_TEXT + f"{key}=5\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli(["power", "--plan", str(plan_path), "--out", str(out)]) == (2, "")
        assert err.getvalue() == f"error: line 12: unknown plan key {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        # once sized at the 8x8 budget (m = 3239) on 2x2 instances
        ({"m=600": "m=auto", "gen_m=16": "ell1=8\nell2=8"},
         "family 'yes_binary_r1' at n=40 eps=0.5: "
         "family 'yes_binary_r1' builds its own alphabet: ell1 must be 2, got 8"),
        # once sized at 2x2x16 on 32x16x16 instances; now refused for that domain
        ({"null_family=yes_binary_r1": "null_family=nnn_d0",
          "alt_family=no_binary_r1": "alt_family=nnn_d1", "n=40": "n=16", "m=600": "m=auto"},
         "cell eps=0.5 m=auto: binary tester supports alphabet sizes up to 8"),
        # once "sample budget at epsilon 0.5 is not finite"
        ({"null_family=yes_binary_r1": "null_family=random_ci",
          "alt_family=no_binary_r1": "alt_family=random_far", "m=600": "m=auto\nell1=0"},
         "family 'random_ci' at n=40 eps=0.5: family 'random_ci' needs ell1 >= 1, got 0"),
        ({"null_family=yes_binary_r1": "null_family=random_ci", "gen_m=16": "ell2=3"},
         "family 'no_binary_r1' at n=40 eps=0.5: "
         "family 'no_binary_r1' builds its own alphabet: ell2 must be 2, got 3"),
    ])
    def test_plan_alphabet_mismatch_exit_code(self, monkeypatch, tmp_path, edit, message):
        def no_trial(*args):
            raise AssertionError("ran a trial before rejecting the plan")

        monkeypatch.setattr(harness, "run_trials", no_trial)
        text = PLAN_TEXT
        for old, new in edit.items():
            text = text.replace(old, new)
        plan_path, out = tmp_path / "plan.kv", tmp_path / "power.csv"
        plan_path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli(["power", "--plan", str(plan_path), "--out", str(out)]) == (2, "")
        assert err.getvalue() == f"error: {message}\n" and not out.exists()

    @pytest.mark.parametrize("edit, message", [
        # once an OverflowError traceback (exit 1) from calibrate_threshold
        ({"gen_m=16": "calibration_trials=100000000000000000000"},
         "calibration_trials must be <= 1000000000, got 100000000000000000000"),
        # once numpy's "Maximum allowed dimension exceeded", naming no field
        ({"trials=60": "trials=100000000000000000000"},
         "trials must be <= 1000000000, got 100000000000000000000"),
        # once numpy's "expected non-negative integer", naming no field
        ({"seed=7": "seed=-1"}, "seed must be >= 0, got -1"),
        # once ran, and reported both columns as 2 x 2
        ({"null_family=yes_binary_r1": "null_family=nnn_d0", "n=40": "n=16", "gen_m=16": "gen_m=4"},
         "families 'nnn_d0' and 'no_binary_r1' have different domains at n=16: "
         "(32, 16, 16) and (2, 2, 16)"),
        # once "bad plan value: ...", naming neither the key nor the line
        ({"m=600": "m=600  # budget"},
         "line 8: bad value for 'm': invalid literal for int() with base 10: '600  # budget'"),
        # the next three once ran every earlier cell, then exited 2 with no CSV
        ({"mode=binary": "mode=cmi", "eps=0.5": "eps=0.3,0.5"},
         "cell eps=0.5 m=600: cmi mode needs epsilon in (0, 1/2)"),
        ({"m=600": "m=20000,-5"}, "cell eps=0.5 m=-5: m_override must be >= 0"),
        # once refused by the plan as well, whose error named no cell
        ({"n=40": "n=100,0"}, "family 'yes_binary_r1' at n=0 eps=0.5: n must be >= 1"),
        # the next four once ran every earlier cell, then exited 2 with no CSV; each
        # is one family rule, which the plan shares with the family's generator
        ({"n=40": "n=40,16"}, "family 'yes_binary_r1' at n=16 eps=0.5: "
         "regime requires m < 0.9 * n (got m=16, n=16)"),
        ({"null_family=yes_binary_r1": "null_family=paninski_yes",
          "alt_family=no_binary_r1": "alt_family=paninski_no", "eps=0.5": "eps=0.5,0.7"},
         "family 'paninski_no' at n=40 eps=0.7: perturbed variant needs eps in (0, 1/2], "
         "got 0.7"),
        ({"mode=binary": "mode=general", "null_family=yes_binary_r1": "null_family=nnn_d0",
          "alt_family=no_binary_r1": "alt_family=nnn_d1", "n=40": "n=16,8"},
         "family 'nnn_d0' at n=8 eps=0.5: the nnn families need n >= 16, got 8"),
        ({"mode=binary": "mode=general", "null_family=yes_binary_r1": "null_family=random_ci",
          "alt_family=no_binary_r1": "alt_family=random_far\nell1=3\nell2=3",
          "eps=0.5": "eps=0.5,0.7"},
         "family 'random_far' at n=40 eps=0.7: eps 0.7 is above 1 - 1/min(ell1, ell2) = "
         "0.6666666666666667: no 3 x 3 instance is that far from conditional independence"),
        # once refused by the plan as well, whose error named no cell
        ({"mode=binary": "mode=foo"},
         "cell eps=0.5 m=600: mode must be one of ('binary', 'general', 'cmi')"),
        ({"gen_m=16": "gen_m=16\ncalibration_trials=50"}, "calibration_trials must be 0 or >= 100"),
        ({"trials=60": "trials"}, "line 9: expected 'key=value'"),
        ({"seed=7": "seed=7\nseed=8"}, "line 11: duplicate key 'seed'"),
        # the next four once ran a first cell for seconds, then exited 2 with no CSV;
        # each is a refusal of sample_budget, which the plan shares with the tester
        ({"eps=0.5": "eps=0.5,1e-300", "m=600": "m=auto"},
         "cell eps=1e-300 m=auto: sample budget at epsilon 1e-300 is not finite"),
        ({"mode=binary": "mode=general", "null_family=yes_binary_r1": "null_family=random_ci",
          "alt_family=no_binary_r1": "alt_family=random_far\nell1=3\nell2=3",
          "eps=0.5": "eps=0.5,1e-9", "m=600": "m=auto"},
         "cell eps=1e-09 m=auto: sample budget 37947331922020548608 above 2^62: "
         "its counts would overflow int64"),
        ({"m=600": "m=600,100000000000000000000"},
         "cell eps=0.5 m=100000000000000000000: sample budget 100000000000000000000 above "
         "2^62: its counts would overflow int64"),
        ({"mode=binary": "mode=cmi", "null_family=yes_binary_r1": "null_family=random_ci",
          "alt_family=no_binary_r1": "alt_family=random_far\nell1=3\nell2=3",
          "eps=0.5": "eps=0.3"},
         "cell eps=0.3 m=600: cmi mode requires binary X and Y"),
        # the next two once built an instance, then exited 2 with no CSV
        ({"null_family=yes_binary_r1": "null_family=random_ci",
          "alt_family=no_binary_r1": "alt_family=random_far\nell1=9"},
         "cell eps=0.5 m=600: binary tester supports alphabet sizes up to 8"),
        ({"null_family=yes_binary_r1": "null_family=nnn_d0",
          "alt_family=no_binary_r1": "alt_family=nnn_d1", "n=40": "n=16"},
         "cell eps=0.5 m=600: binary tester supports alphabet sizes up to 8"),
        # the next two once refused by the plan as well, whose error named no cell
        ({"alt_family=no_binary_r1": "alt_family=foo"},
         "family 'foo' at n=40 eps=0.5: unknown family 'foo'"),
        ({"gen_m=16": "gen_m=16\nell1=3"},
         "family 'yes_binary_r1' at n=40 eps=0.5: "
         "family 'yes_binary_r1' builds its own alphabet: ell1 must be 2, got 3"),
    ])
    def test_plan_refused_before_any_trial_exit_code(self, monkeypatch, tmp_path, edit,
                                                     message):
        def no_instance(spec):
            raise AssertionError("built an instance before rejecting the plan")

        for module in (cli, harness):
            monkeypatch.setattr(module, "make_instance", no_instance)
        text = PLAN_TEXT
        for old, new in edit.items():
            text = text.replace(old, new)
        plan_path, out = tmp_path / "plan.kv", tmp_path / "power.csv"
        plan_path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli(["power", "--plan", str(plan_path), "--out", str(out)]) == (2, "")
        assert err.getvalue() == f"error: {message}\n" and not out.exists()

    @pytest.mark.parametrize("argv, message", [
        # once an OverflowError traceback (exit 1) from calibrate_threshold
        (["calibrate", "--n", "20", "--m", "400", "--trials", "100000000000000000000"],
         "calibration trials must be <= 1000000000, got 100000000000000000000"),
        # once numpy's "Maximum allowed dimension exceeded", naming no field
        (["minm", "--n", "20", "--eps", "0.5", "--trials", "100000000000000000000"],
         "trials must be <= 1000000000, got 100000000000000000000"),
        (["minm", "--n", "20", "--eps", "0.5", "--target", "0.99"],
         "target_power must lie in (0.5, 0.95), got 0.99"),
        # once ran probes for over a second, then refused m = 2^63
        (["minm", "--n", "20", "--eps", "0.5", "--null-family", "yes_binary_r1", "--alt-family",
          "yes_binary_r1", "--trials", "50", "--m-cap", "100000000000000000000"],
         "cell eps=0.5 m=100000000000000000000: sample budget 100000000000000000000 above 2^62: "
         "its counts would overflow int64"),
    ])
    def test_trials_above_bound_exit_code(self, monkeypatch, argv, message):
        def no_instance(spec):
            raise AssertionError("built an instance before rejecting the trial count")

        for module in (cli, harness):
            monkeypatch.setattr(module, "make_instance", no_instance)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli(argv) == (2, "")
        assert err.getvalue() == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["test", "--eps", "0.5", "--m", "100", "--dist", "{dist}", "--seed", "-1"],
        ["gen", "--family", "random_far", "--n", "20", "--seed", "-1", "--out", "{out}"],
        ["calibrate", "--n", "20", "--m", "400", "--seed", "-1"],
        ["minm", "--n", "20", "--eps", "0.5", "--seed", "-1"],
    ])
    def test_negative_seed_exit_code(self, monkeypatch, pinned_files, tmp_path, argv):
        # once numpy's "expected non-negative integer", naming no flag
        def refuse(*args, **kwargs):
            raise AssertionError("started a run before rejecting the seed")

        for module in (cli, harness):
            monkeypatch.setattr(module, "make_instance", refuse)
        monkeypatch.setattr(cli, "run_tester", refuse)
        out = tmp_path / "inst.tsv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli([a.format(dist=pinned_files[1], out=out) for a in argv])
        assert code == (2, "")
        assert err.getvalue() == "error: --seed must be >= 0, got -1\n" and not out.exists()

    @pytest.mark.parametrize("eps, message", [
        ("1.5", "eps must lie in (0, 1], got 1.5: the proxy is a TV distance"),
        ("0.9", "eps 0.9 is above 1 - 1/min(ell1, ell2) = 0.5: no 2 x 2 instance is that far "
                "from conditional independence"),
    ])
    def test_gen_random_far_unreachable_eps_exit_code(self, monkeypatch, tmp_path, eps, message):
        # once 100 escalating resamples (about 3 s) before exit code 2
        def no_draw(*key):
            raise AssertionError("drew an instance before refusing eps")

        monkeypatch.setattr(instances, "generator", no_draw)
        out = tmp_path / "inst.tsv"
        argv = ["gen", "--family", "random_far", "--n", "2000", "--eps", eps, "--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli(argv) == (2, "")
        assert err.getvalue() == f"error: {message}\n" and not out.exists()

    @pytest.mark.parametrize("body, total", [
        ("1\t1\t1\t1e308\n2\t2\t1\t1e308\n", "inf"),  # once "np.float64(0.0) not within"
        ("", "0.0"),  # once "cannot normalize a zero-mass tensor", naming no file
    ])
    def test_distribution_total_exit_code(self, tmp_path, recwarn, body, total):
        path = tmp_path / "d.tsv"
        path.write_text("#dims 2 2 1\n" + body)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli(["test", "--eps", "0.5", "--dist", str(path)]) == (2, "")
        assert err.getvalue() == f"error: {path}: total mass {total} is not positive and finite\n"
        assert not recwarn.list

    @pytest.mark.parametrize("argv, message", [
        # once a 2x2 file and exit code 0
        (["gen", "--family", "no_binary_r1", "--n", "40", "--m", "10", "--ell1", "7",
          "--out", "{out}"],
         "family 'no_binary_r1' builds its own alphabet: ell1 must be 2, got 7"),
        (["gen", "--family", "random_far", "--n", "40", "--ell2", "0", "--out", "{out}"],
         "family 'random_far' needs ell2 >= 1, got 0"),
        (["minm", "--n", "40", "--eps", "0.5", "--ell1", "3", "--ell2", "3"],
         "family 'yes_binary_r1' at n=40 eps=0.5: "
         "family 'yes_binary_r1' builds its own alphabet: ell1 must be 2, got 3"),
        # once built an instance before refusing the alphabet
        (["calibrate", "--mode", "binary", "--family", "random_ci", "--ell1", "9", "--n", "30",
          "--m", "400"],
         "binary tester supports alphabet sizes up to 8"),
    ])
    def test_cli_alphabet_mismatch_exit_code(self, monkeypatch, tmp_path, argv, message):
        def no_instance(spec):
            raise AssertionError("built an instance before rejecting the alphabet")

        for module in (cli, harness):
            monkeypatch.setattr(module, "make_instance", no_instance)
        out = tmp_path / "inst.tsv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli([a.format(out=out) for a in argv]) == (2, "")
        assert err.getvalue() == f"error: {message}\n" and not out.exists()

    @pytest.mark.parametrize("m", ["-3", "0"])
    def test_bad_sample_budget_exit_code(self, tmp_path, m):
        p = JointDistribution.uniform(2, 2, 3)
        path = tmp_path / "samples.tsv"
        write_sample_file(path, sample_fixed(p, 40, 1), p.dims)
        argv = ["test", "--eps", "0.5", "--samples", str(path), "--m", m]
        assert run_cli(argv) == (2, "")

    @pytest.mark.parametrize("argv", [
        ["test", "--eps", "0.5", "--samples", "{missing}"],
        ["test", "--eps", "0.5", "--dist", "{missing}"],
        ["power", "--plan", "{missing}", "--out", "{tmp}/x.csv"],
        ["gen", "--family", "random_ci", "--n", "5", "--out", "{missing}/x.tsv"],
    ])
    def test_missing_path_exit_code(self, tmp_path, argv):
        paths = {"missing": str(tmp_path / "missing"), "tmp": str(tmp_path)}
        assert run_cli([a.format(**paths) for a in argv]) == (2, "")

    def test_non_utf8_sample_file_exit_code(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"#dims 2 2 2\n1\t1\t1\n\xff\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli(["test", "--eps", "0.5", "--samples", str(path)]) == (2, "")
        assert err.getvalue() == f"error: {path}: not UTF-8 text: byte 0xff: invalid start byte\n"

    @pytest.mark.parametrize("flag", ["--samples", "--dist"])
    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
    def test_non_ascii_header_digit_exit_code(self, tmp_path, flag, digit):
        # str.isdigit takes a superscript two and an Arabic-Indic three
        path = tmp_path / "header.tsv"
        row = {"--samples": "1\t1\t1\n", "--dist": "1\t1\t1\t1.0\n"}[flag]
        path.write_text(f"#dims {digit} 2 2\n{row}", encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli(["test", "--eps", "0.5", flag, str(path)]) == (2, "")
        header = f"#dims {digit} 2 2"
        assert err.getvalue() == f"error: {path}: expected '#dims l1 l2 n' header, got {header!r}\n"

    @pytest.mark.parametrize("mode", ["binary", "general"])
    def test_oversized_dims_exit_code(self, tmp_path, mode):
        # indices in range of dims with more cells than an index can hold
        path = tmp_path / "big.tsv"
        path.write_text("#dims 4294967296 4294967296 2\n1\t1\t1\n")
        err = io.StringIO()
        argv = ["test", "--mode", mode, "--eps", "0.5", "--samples", str(path)]
        with contextlib.redirect_stderr(err):
            assert run_cli(argv) == (2, "")
        dims = "4294967296 4294967296 2"
        assert err.getvalue() == f"error: {path}: dims '{dims}' give more cells than numpy can index\n"

    @pytest.mark.parametrize("argv, message", [
        (["test", "--eps", "2", "--dist", "{dist}"],
         "epsilon must lie in (0, 1] for mode binary"),
        (["test", "--eps", "0.5", "--samples", "{dims0}"], "{dims0}: dimensions must be positive"),
        (["debug", "flatten-grid", "--samples", "{samples}", "--t1", "-1", "--t2", "1"],
         "split sizes must be >= 0"),
    ])
    def test_refused_input_exit_code(self, pinned_files, tmp_path, argv, message):
        paths = {"dist": pinned_files[1], "samples": pinned_files[0], "dims0": tmp_path / "z.tsv"}
        paths["dims0"].write_text("#dims 0 2 2\n1\t1\t1\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli([a.format(**paths) for a in argv]) == (2, "")
        assert err.getvalue() == f"error: {message.format(**paths)}\n"

    def test_minm_trials_below_floor_exit_code(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli(["minm", "--n", "20", "--eps", "0.5", "--trials", "10"]) == (2, "")
        assert err.getvalue() == "error: trials must be >= 50\n"

    @pytest.mark.parametrize("argv", [
        ["power", "--plan", "{bad}", "--out", "{bad}.csv"],
        ["debug", "estimate", "--poly", "{bad}", "--num-vars", "2", "--fingerprint", "1:2"],
    ])
    def test_non_utf8_text_file_exit_code(self, tmp_path, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"# a plan or a polynomial\n\xff\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli([a.format(bad=bad) for a in argv]) == (2, "")
        assert err.getvalue() == f"error: {bad}: not UTF-8 text: byte 0xff: invalid start byte\n"

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only forked workers inherit the monkeypatched cell runner")
    def test_dead_worker_exit_code(self, monkeypatch, tmp_path):
        # the worker of cell 1 ends as one the kernel's OOM killer ends: no
        # exception and no result reach the parent
        monkeypatch.setattr(harness, "_run_cell", _run_cell_but_die_on_cell_1)
        plan_path = tmp_path / "plan.kv"
        plan_path.write_text(PLAN_TEXT.replace("eps=0.5", "eps=0.5,0.3"))
        out = tmp_path / "power.csv"
        err = io.StringIO()
        argv = ["power", "--plan", str(plan_path), "--out", str(out), "--workers", "2"]
        with contextlib.redirect_stderr(err):
            assert run_cli(argv) == (2, "")
        prefix = "error: a worker process ended before its cell finished: "
        assert err.getvalue().startswith(prefix) and err.getvalue().count("\n") == 1
        assert not out.exists()

    def test_out_of_memory_exit_code(self, monkeypatch, pinned_files):
        # the sampler fails the way numpy does when the draws cannot be held
        def no_memory(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(testers, "conditional_cell_counts", no_memory)
        err = io.StringIO()
        argv = ["test", "--mode", "general", "--eps", "0.5", "--m", str(10**12),
                "--dist", str(pinned_files[1])]
        with contextlib.redirect_stderr(err):
            assert run_cli(argv) == (2, "")
        assert err.getvalue() == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"

    def test_pseudo_distribution_rows_past_one(self, tmp_path):
        # divided by its total, each bin's conditional table sums past 1 by
        # rounding; the general draw's multinomials must take it, searched or not
        values = (0.06, 0.15, 0.11, 0.25, 0.15, 0.17, 0.12, 0.23, 0.21,
                  0.21, 0.23, 0.13, 0.04, 0.25, 0.11, 0.21, 0.3, 0.21)
        cells = [(x, y, z) for x in (1, 2, 3) for y in (1, 2, 3) for z in (1, 2)]
        path = tmp_path / "pseudo.tsv"
        path.write_text("#dims 3 3 2\n" + "".join(
            f"{x}\t{y}\t{z}\t{v!r}\n" for (x, y, z), v in zip(cells, values)))
        p, _ = read_distribution_file(path)
        assert np.all((p.mass / p.z_marginal).sum(axis=(0, 1)) > 1.0)
        for m in ("24", "2000", str(10**9)):
            argv = ["test", "--mode", "general", "--eps", "0.5", "--m", m, "--dist", str(path)]
            with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("error", RuntimeWarning)
                code, out = run_cli(argv)
            assert code == 0 and out.startswith(("accept A=", "reject A="))

    def test_budget_exhausted_exit_code(self):
        code, _ = run_cli(
            ["minm", "--n", "16", "--eps", "0.5", "--null-family", "random_ci",
             "--alt-family", "random_ci", "--target", "0.7", "--trials", "50",
             "--m-cap", "64", "--seed", "0"]
        )
        assert code == 3

    def test_calibrate_subcommand(self):
        code, text = run_cli(
            ["calibrate", "--mode", "binary", "--family", "random_ci", "--n", "30",
             "--m", "400", "--trials", "120", "--seed", "2"]
        )
        assert code == 0 and text.startswith("tau=")

    def test_debug_estimate(self, tmp_path):
        poly = tmp_path / "poly.txt"
        poly.write_text("1 : 1^1 2^1\n")
        code, text = run_cli(
            ["debug", "estimate", "--poly", str(poly), "--num-vars", "2",
             "--fingerprint", "1:2 2:1"]
        )
        assert code == 0 and text.strip() == "estimate=1/3"

    def test_gen_binary_heavy_bin_parameter_defaults_to_half_n(self, tmp_path):
        # once exit code 2, "the binary ensembles need a positive heavy-bin parameter m"
        written = []
        for extra in ([], ["--m", "32"]):
            out = tmp_path / f"inst{len(extra)}.tsv"
            code, text = run_cli(["gen", "--family", "yes_binary_r1", "--n", "64", *extra,
                                  "--out", str(out)])
            written.append((code, text.replace(str(out), "OUT"), out.read_bytes()))
        assert written[0] == written[1] and written[0][0] == 0

    def test_gen_cube_family(self, tmp_path):
        out = tmp_path / "cube.tsv"
        code, text = run_cli(
            ["gen", "--family", "nnn_d0", "--n", "16", "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        dist, factor = read_distribution_file(out)
        assert dist.dims == (32, 16, 16) and factor == 1.0

    def test_debug_flatten_grid(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("#dims 2 2 1\n1\t1\t1\n1\t1\t1\n")
        code, text = run_cli(
            ["debug", "flatten-grid", "--samples", str(path), "--t1", "1", "--t2", "1"]
        )
        assert code == 0
        assert text.splitlines() == ["3,1", "1,0"]
