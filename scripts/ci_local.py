#!/usr/bin/env python3
"""Run the shell steps of the CI workflow on this machine, offline.

Each ``run:`` step of ``.github/workflows/tests.yml`` runs in order, as
CI runs it, under ``bash --noprofile --norc -e -o pipefail``, in a fresh
copy of the tree in a temporary directory (so the files the steps write
land there).  A ``milnorcalc`` shim on ``PATH`` stands in for the
installed entry point: it runs ``python -m milnorcalc.cli`` on the
copy's ``src``.  ``$GITHUB_STEP_SUMMARY`` names a file, printed at the
end.  Each step's result and time is printed; the script exits 1 if a
step fails, else 0.

    python scripts/ci_local.py                        # every step it can run
    python scripts/ci_local.py --skip "Tier-1 tests"  # leave out a step (repeatable)

What it cannot run, each named as skipped in the output:

* ``uses:`` steps (checking out, setting up Python): the tree is copied,
  and the Python running this script runs every step.
* the ``Install`` step: ``pip install`` fetches the build backend over the
  network; the shim stands in for what it installs.
* the other entries of the version matrix: one run takes the running
  Python's entry, ``if: matrix.python-version == '...'`` (or ``!=``) is
  evaluated against its version, and a step for another entry is skipped.
  Any other ``if:`` condition is not evaluated, and its step is skipped.

It needs PyYAML (``pip install ".[test]"`` brings it) to read the workflow.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
NEEDS_NETWORK = {"Install"}
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench-out",
                              ".benchmarks", "*.egg-info", "build")
VERSION = "{}.{}".format(*sys.version_info[:2])
CONDITION = re.compile(r"""matrix\.python-version\s*(==|!=)\s*'([^']*)'""")


def steps(workflow: dict) -> list[dict]:
    """The steps of the workflow's one job."""
    [job] = workflow["jobs"].values()
    return job["steps"]


def skip_reason(step: dict, skipped: set[str]) -> str | None:
    """Why the step does not run here, or None if it runs."""
    name = step.get("name", step.get("uses", "?"))
    if "run" not in step:
        return f"uses {step.get('uses')}, not a shell step"
    if name in skipped:
        return "--skip"
    if name in NEEDS_NETWORK:
        return "needs the network; the milnorcalc shim stands in"
    condition = step.get("if")
    if condition is None:
        return None
    match = CONDITION.fullmatch(condition.strip())
    if match is None:
        return f"cannot evaluate if: {condition}"
    op, value = match.groups()
    return None if (VERSION == value) == (op == "==") else f"if: {condition} (python {VERSION})"


def shim(directory: Path, tree: Path) -> None:
    """A ``milnorcalc`` executable in ``directory`` that runs the tree's command line."""
    path = directory / "milnorcalc"
    path.write_text(f'#!/bin/sh\nPYTHONPATH="{tree / "src"}${{PYTHONPATH:+:$PYTHONPATH}}" '
                    f'exec "{sys.executable}" -m milnorcalc.cli "$@"\n')
    path.chmod(0o755)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Run the CI workflow's shell steps offline.")
    parser.add_argument("--skip", action="append", default=[], metavar="NAME", help="a step name to leave out")
    args = parser.parse_args(argv)
    try:
        import yaml
    except ImportError:
        print("ci_local.py needs PyYAML to read the workflow: pip install pyyaml", file=sys.stderr)
        return 2
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    names = [step.get("name") for step in steps(workflow)]
    unknown = set(args.skip) - set(names)
    if unknown:
        print(f"no such step: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed, skipped, start = [], [], time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="ci-local-") as tmp:
        tree, bin_dir, summary = Path(tmp) / "tree", Path(tmp) / "bin", Path(tmp) / "summary.md"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        bin_dir.mkdir()
        shim(bin_dir, tree)
        summary.touch()
        env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
                   GITHUB_STEP_SUMMARY=str(summary))
        env.pop("PYTHONPATH", None)
        for step in steps(workflow):
            name = step.get("name", step.get("uses", "?"))
            reason = skip_reason(step, set(args.skip))
            if reason is not None:
                skipped.append(name)
                print(f"skip    {name}: {reason}", flush=True)
                continue
            script = step["run"].replace("${{ matrix.python-version }}", VERSION)
            began = time.perf_counter()
            proc = subprocess.run(["bash", "--noprofile", "--norc", "-e", "-o", "pipefail", "-c", script],
                                  cwd=tree, env=env, capture_output=True, text=True)
            took = time.perf_counter() - began
            print(f"{'pass' if proc.returncode == 0 else 'FAIL':<6}  {name}  ({took:.1f}s)", flush=True)
            if proc.returncode != 0:
                failed.append(name)
                print("".join(f"    {line}\n" for line in (proc.stdout + proc.stderr).splitlines()[-30:]), end="")
        text = summary.read_text(encoding="utf-8")
    if text:
        print(f"step summary:\n{text}", end="")
    print(f"{len(failed)} failed, {len(skipped)} skipped  ({time.perf_counter() - start:.0f}s)"
          + (f": failed {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
