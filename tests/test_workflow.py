"""The CI workflow reads as GitHub and bash read it: step names are unique,
so a ``--skip NAME`` of ``scripts/ci_local.py`` or a log line names one
step, and every ``run:`` block parses as a bash script."""

import subprocess
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")  # declared in the "test" extra of pyproject.toml

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
STEPS = [step for job in yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"].values()
         for step in job["steps"]]


def test_step_names_are_unique():
    names = [step["name"] for step in STEPS if "name" in step]
    assert len(set(names)) == len(names), sorted(n for n in names if names.count(n) > 1)
    assert all("name" in step or "uses" in step for step in STEPS)


@pytest.mark.parametrize("step", [s for s in STEPS if "run" in s], ids=lambda s: s["name"][:40])
def test_run_blocks_parse_as_bash(step):
    proc = subprocess.run(["bash", "-n"], input=step["run"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
