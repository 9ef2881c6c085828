"""The README's examples: its plan file parses and its Python blocks run."""

import re
from pathlib import Path

from cit.harness import parse_plan_text

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def test_plan_example_parses():
    # the example once carried comments after its values, which the
    # parser refuses ("bad plan value: invalid literal for int() ...")
    (text,) = [block for block in _blocks("text") if block.startswith("mode=")]
    plan = parse_plan_text(text)
    assert (plan.mode, plan.null_family, plan.alt_family) == (
        "binary", "yes_binary_r1", "no_binary_r1"
    )
    assert (plan.n_values, plan.eps_values, plan.m_values) == ((100, 400), (0.5, 0.3), ("auto",))
    assert (plan.trials, plan.master_seed, plan.gen_m, plan.calibration_trials) == (
        300, 7, None, 300
    )


def test_python_examples_run():
    blocks = _blocks("python")
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
