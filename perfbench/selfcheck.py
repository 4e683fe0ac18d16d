#!/usr/bin/env python3
"""Self-check of the benchmark itself (takes about a minute).

    python3 perfbench/selfcheck.py

* Runs the smallest configuration (``--smoke``) of every workload,
  untraced and traced, and asserts that each prints a correct result
  whose metric names and units are exactly those in BENCHMARK.json, and
  that untraced runs never loaded the tracer.
* Asserts the bypass predictions as exact counts: the identity sweep
  never reaches the smooth-CI classes, the mu-class or the front end;
  a plane-pairs-p4 report builds c(TP^n) 34 times; the (3,4) rung calls
  ``csm_smooth_ci_degrees`` at least 4095 times, almost all repeats.
* Asserts that the benchmark refuses to run without the program: in a
  copy holding only BENCHMARK.json and this directory it exits non-zero
  without printing a result.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import tracer
from run import HERE, OUT, ROOT, import_program
from workloads import WORKLOADS, LadderComponents

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")
    print(f"ok  {message}")


def run_smoke(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def smoke(workload: str, trace: int) -> dict:
    proc = run_smoke(workload, trace)
    check(proc.returncode == 0,
          f"{workload} trace={trace} exits 0" + ("" if proc.returncode == 0 else f": {proc.stderr[-500:]}"))
    result = json.loads(proc.stdout.splitlines()[-1])
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    check(printed == expected, f"{workload} trace={trace} prints the {section} metrics of BENCHMARK.json")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} trace={trace} correct, {result['attempted']} attempted, none failed")
    stem = f"{workload}-seed1-trace{trace}"
    meta = json.loads((OUT / f"result-{stem}.json").read_text())["meta"]
    check(meta["tracer_loaded"] == bool(trace), f"{workload} trace={trace} tracer loaded only when tracing")
    if trace:
        result["trace"] = json.loads((OUT / f"trace-{stem}.json").read_text())
    return result


def main() -> int:
    check(sorted(w["name"] for w in BENCH["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json lists exactly the implemented workloads")
    traced = {}
    for workload in WORKLOADS:
        smoke(workload, 0)
        traced[workload] = smoke(workload, 1)

    sweep = traced["identity-sweep"]["metrics"]
    for name in ("engine.csm_smooth_ci_degrees.calls", "engine.mu_class.calls",
                 "cli.calls", "engine.compute_report.calls"):
        check(sweep[name]["value"] == 0, f"identity-sweep: {name} == 0")
    check(sweep["identities.trials"]["value"] > 0, "identity-sweep: trials counted")

    reports = {r["label"]: r for r in traced["fixtures"]["trace"]["per_report"]}
    tangent = reports["plane-pairs-p4"]["calls"].get("bundles.chern_tangent")
    check(tangent == 34, f"fixtures: chern_tangent calls per plane-pairs-p4 report == 34 (got {tangent})")

    sys.path.insert(0, str(ROOT / "src"))
    mc = import_program()
    ladder = LadderComponents(ROOT, random.Random(1), smoke=False)
    ladder.build(mc, OUT / "docs")
    doc, roles = ladder.document((3, 4), ladder.rng)
    tr = tracer.Tracer()
    tr.install(mc)
    try:
        failures = ladder.run_pass(mc, [("3x4", (doc, ladder.expected((3, 4), roles)))], tr.op)
    finally:
        tr.uninstall()
    check(not failures, f"(3,4) rung matches the oracle {failures}")
    row = tracer.per_report(tr.spans, tr.labels)[0]
    calls = row["calls"]["engine.csm_smooth_ci_degrees"]
    repeat = row["repeat_share"]["engine.csm_smooth_ci_degrees"]
    check(calls >= 4095 and repeat > 0.99,
          f"(3,4) rung: csm_smooth_ci_degrees calls {calls} >= 4095, repeat share {repeat:.4f} > 0.99")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_smoke("fixtures", 0, cwd=bare)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          f"without the program the benchmark exits {proc.returncode} and prints no result")
    shutil.rmtree(bare)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
