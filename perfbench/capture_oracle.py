#!/usr/bin/env python3
"""Record the outputs the benchmark compares against, from the current program.

    python3 perfbench/capture_oracle.py

Writes ``oracle/fixtures.json`` (each fixture's ``crosscheck`` text,
``compute --output json`` text and both exit codes, from child
processes) and ``oracle/ladder.json`` (the Milnor class of every row of
every ladder rung, keyed by factor role).  The committed files were
captured before any change to ``src/``; re-capturing replaces that
reference, so do it only when an output change is intended and stated.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, import_program, milnorcalc_args, run_child
from workloads import ORACLE_DIR, LadderComponents, LadderDim


def capture_fixtures() -> dict:
    oracle = {}
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        *_, cross = run_child(milnorcalc_args(["crosscheck", str(path)]))
        *_, compute = run_child(milnorcalc_args(["compute", str(path), "--output", "json"]))
        oracle[path.stem] = {
            "crosscheck_stdout": cross.stdout.decode("utf-8"),
            "crosscheck_exit": cross.returncode,
            "compute_json_stdout": compute.stdout.decode("utf-8"),
            "compute_exit": compute.returncode,
        }
    return oracle


def capture_ladder(mc) -> dict:
    oracle = {}
    for cls in (LadderComponents, LadderDim):
        wl = cls(ROOT, None, smoke=False)
        rungs = {}
        for rung in wl.rungs:
            doc, roles = wl.document(rung)
            spec, intersection_csm, requested = mc.cli.parse_document(doc)
            report = mc.engine.compute_report(spec, requested, intersection_csm)
            classes = {}
            for v in report.varieties:
                routes = {rv.route for rv in v.milnor}
                if not v.agree or not {"definition", "thm1"} <= routes:
                    raise SystemExit(f"{wl.name} {wl.label(rung)} {v.name}: no agreed class")
                coeffs = list(v.consensus.integer_coeffs())
                if classes.setdefault(roles[v.name], coeffs) != coeffs:
                    raise SystemExit(f"{wl.name} {wl.label(rung)}: role {roles[v.name]} differs")
            rungs[wl.label(rung)] = classes
        oracle[wl.name] = rungs
    return oracle


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    mc = import_program()
    ORACLE_DIR.mkdir(exist_ok=True)
    for name, data in (("fixtures", capture_fixtures()), ("ladder", capture_ladder(mc))):
        path = ORACLE_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
