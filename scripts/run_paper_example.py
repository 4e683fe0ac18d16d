#!/usr/bin/env python3
"""Walk through the pair-of-hyperplanes example in P^4, route by route.

Loads fixtures/paper-example.json, prints every class, and crosschecks
the Milnor-class routes against each other.  Everything is exact.
"""

from pathlib import Path

from milnorcalc.cli import load_document, render_crosscheck, render_text
from milnorcalc.engine import compute_report

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "paper-example.json"


def main() -> None:
    spec, intersection_csm, _ = load_document(str(FIXTURE))
    report = compute_report(spec, None, intersection_csm)
    print(render_text(report))
    print(render_crosscheck(report), end="")


if __name__ == "__main__":
    main()
