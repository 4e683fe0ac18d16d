#!/usr/bin/env python3
"""Mutation check: every mutant below must make the tier-1 tests fail.

A mutant is one (name, file, old text, new text) edit of the program.
Each is applied to its own copy of the tree in a temporary directory,
and the tier-1 tests run there under ``pytest -x``, so a killed mutant
stops at its first failing test.  The script exits 1 when a mutant
survives (the tests pass with the edit: a test is missing) or when its
old text does not occur exactly once in its file (the list has gone
stale); it exits 0 when every mutant is killed.  The unchanged copy is
tested first and must pass, so that a kill is the edit's doing.  A
surviving mutant is never dropped from the list: the missing test is
added instead.

    python scripts/mutants.py              # every mutant
    python scripts/mutants.py --list       # the names
    python scripts/mutants.py NAME ...     # only these
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE, CHOW, CLI = "src/milnorcalc/engine.py", "src/milnorcalc/chow.py", "src/milnorcalc/cli.py"
BUNDLES, VARIETIES = "src/milnorcalc/bundles.py", "src/milnorcalc/varieties.py"
RECORDS = "src/milnorcalc/records.py"
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench-out",
                              ".benchmarks", "*.egg-info", "build")

WARM_MEMO = '''def _off_by_one_when_warm(f):
    seen = set()

    def memo(n, degree, k):
        warm = (n, degree, k) in seen
        seen.add((n, degree, k))
        return f(n, degree, k - warm)

    memo.cache_clear = seen.clear
    return memo


@_off_by_one_when_warm
def _aluffi_of_linear_locus('''

MUTANTS = [
    # sign conventions and exponents of the routes
    ("aluffi-global-sign", ENGINE, "ALUFFI_GLOBAL_SIGN = -1", "ALUFFI_GLOBAL_SIGN = 1"),
    # (the definition route's sign is the order of its subtraction, one per parity)
    ("definition-even-subtraction-order", ENGINE, "return cfj - csm if dim_x", "return csm - cfj if dim_x"),
    ("definition-odd-subtraction-order", ENGINE, "== 0 else csm - cfj", "== 0 else cfj - csm"),
    ("local-milnor-number-sign", ENGINE, "return _sign(dim_x) * (chi_fiber - 1)",
     "return -_sign(dim_x) * (chi_fiber - 1)"),
    ("tangent-correction-exponent", ENGINE, "line_power(n, 1, -(n + 1) * (r - 1))", "line_power(n, 1, -(n + 1) * r)"),
    ("gamma-recursion-sign", ENGINE, "mu[name] - sum(gamma[upper]", "mu[name] + sum(gamma[upper]"),
    ("containment-without-uppers-sets", VARIETIES, "out |= above[upper]", "pass"),
    ("linear-locus-segre-exponent", ENGINE, "line_power(n, 1, k - n) * h_power(n, n - k)",
     "line_power(n, 1, k - n - 1) * h_power(n, n - k)"),
    ("twisted-cotangent-power", ENGINE, "line_power(n, degree - 1, n + 1)", "line_power(n, degree - 1, n)"),
    ("milnor-from-mu-power", ENGINE, "line_power(n, degree, n - 1)", "line_power(n, degree, n)"),
    ("linear-locus-memo-warm-hit", ENGINE, "@lru_cache(maxsize=1024)\ndef _aluffi_of_linear_locus(", WARM_MEMO),
    # verdicts
    ("agree-with-one-route", CLI, "len(v.milnor) >= 2", "len(v.milnor) >= 1"),
    ("unchecked-outranks-disagree", CLI, '("DISAGREE", "UNCHECKED")', '("UNCHECKED", "DISAGREE")'),
    # exact ring arithmetic over the integers: only a unit divides, and a coefficient is an int
    ("division-by-any-nonzero-constant", CHOW, "if c0 != 1 and c0 != -1:", "if c0 == 0:"),
    ("quotient-ignores-sign-of-c0", CHOW, "q.append(a if c0 == 1 else -a)", "q.append(a)"),
    ("sparse-quotient-one-term-early", CHOW, "if i > k:\n                    break",
     "if i >= k:\n                    break"),
    ("coefficient-of-non-ascii-digits", CHOW, "if digits.isascii() and digits.isdigit():", "if digits.isdigit():"),
    # the packed product kernel: the digit width's sign bit, the borrow, the mask, and the two thresholds
    ("packed-digit-without-sign-bit", CHOW, "(m * len(triples)).bit_length() + 1", "(m * len(triples)).bit_length()"),
    ("packed-digit-without-borrow", CHOW, "            v += 1\n", ""),
    ("packed-mask-one-digit-short", CHOW, "& ((1 << m * bits) - 1)", "& ((1 << (m - 1) * bits) - 1)"),
    ("packed-from-eleven-terms", CHOW, "_PACKED_MIN_TERMS = 12", "_PACKED_MIN_TERMS = 11"),
    ("packed-up-to-193-bits", CHOW, "_PACKED_MAX_BITS = 192", "_PACKED_MAX_BITS = 193"),
    # the signs that the product-rule routes give their terms as dot weights
    ("product-weight", ENGINE, "csm_list[-1], -sign)]", "csm_list[-1], sign)]"),
    ("expansion-weight", ENGINE, "(x, y, sign * s * t)", "(x, y, sign * s)"),
    ("telescope-weight", ENGINE, "signs = [_sign(total - d) for d in codims]", "signs = [_sign(d) for d in codims]"),
    # the intersection's pp shares thm1's evaluation only on thm1's inputs
    ("pp-shares-thm1-unconditionally", ENGINE, "elif inputs == (cfj_list, csm_list):",
     'elif isinstance(routes["thm1"], ChowClass):'),
    # a factor's pp inputs: c_i backfilled from its own c^SM, and whether a gamma is nonzero
    ("smooth-factor-c-not-backfilled", ENGINE, "(zero(h.ambient_dim), csm, False)",
     "(zero(h.ambient_dim), zero(h.ambient_dim), False)"),
    ("nonzero-gamma-flag-inverted", ENGINE, "any(gamma for _, gamma, _ in others)",
     "not any(gamma for _, gamma, _ in others)"),
    # a smooth singular locus: its Segre class and the checks of its declaration
    ("segre-multiplies-by-normal", BUNDLES, "return z_class / normal", "return z_class * normal"),
    ("normal-guard-one-degree-late", VARIETIES, "range(self.normal_rank + 1, len(num))",
     "range(self.normal_rank + 2, len(num))"),
    ("locus-codimension-rank-plus-one", VARIETIES, "if a] != [m] or", "if a] != [m + 1] or"),
    # the document readers compiled from the field table
    ("object-reader-skips-unknown-keys", CLI, "if not value.keys() <= allowed:", "if False:"),
    ("int-reader-excludes-its-lower-bound", CLI, "lo <= value <= hi", "lo < value <= hi"),
    ("reader-without-given-twice", CLI, '"given twice" if value is _TWICE else f"expected', 'f"expected'),
    ("reader-takes-fraction-strings", CLI, 'rf"-?[0-9]{{1,{d}}}"', 'rf"-?[0-9]{{1,{d}}}(/[1-9])?"'),
    # compute_report is the one check of a spec: parse_document validates nothing
    ("report-without-validation", ENGINE, "    validate(ci)\n    unknown =", "    unknown ="),
    ("intersection-class-on-one-hypersurface", ENGINE,
     "if intersection_csm is not None and len(ci.hypersurfaces) == 1:", "if False:"),
    # a supplied SM class leads with the class of its variety
    ("sm-class-below-codimension-unchecked", VARIETIES, "if any(csm.coeffs[:codim]):", "if False:"),
    ("sm-class-lead-unchecked", VARIETIES, "if lead is not None and csm.coeffs[codim] != lead:", "if False:"),
    ("intersection-lead-unchecked-when-transversal", ENGINE, "degree if ci.transversality_asserted else None",
     "None"),
    ("intersection-lead-exact-when-not-transversal", ENGINE, "degree if ci.transversality_asserted else None",
     "degree"),
    ("intersection-lead-range-unchecked", ENGINE, "if not errors and not 0 < intersection_csm.coeffs[r] <= degree:",
     "if False:"),
    ("open-closure-class-unchecked", VARIETIES, "if lead is not None and lead != degree:", "if False:"),
    ("open-closure-sm-lead-from-its-class", VARIETIES, "            lead = degree\n", ""),
    ("intersection-sm-class-unchecked", ENGINE, "        if errors:\n            raise ValidationError(errors)",
     "        pass"),
    # the record base: slots set by their bound setters, __post_init__ where a class has one
    ("records-never-post-init", RECORDS, "if self._checked:", "if False:"),
    ("slot-setters-reversed", RECORDS, "for f in fields), hasattr(", "for f in reversed(fields)), hasattr("),
]


def apply(tree: Path, file: str, old: str, new: str) -> None:
    path = tree / file
    text = path.read_text(encoding="utf-8")
    count = text.count(old)
    if count != 1:
        raise LookupError(f"old text occurs {count} times in {file}")
    path.write_text(text.replace(old, new), encoding="utf-8")


def run(*edit: str) -> tuple[bool, str]:
    """(failed, detail) of tier-1 in a fresh copy of the tree, with the (file, old, new) edit if one is given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        if edit:
            apply(tree, *edit)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return False, "survived: every tier-1 test passed"
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return True, failed[0][:160] if failed else f"pytest exit {proc.returncode}"


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        print("\n".join(name for name, *_ in MUTANTS))
        return 0
    unknown = set(argv) - {name for name, *_ in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    failed, detail = run()
    if failed:
        print(f"the unchanged copy fails tier-1, so no mutant can be judged: {detail}")
        return 1
    print(f"the unchanged copy passes tier-1  ({time.perf_counter() - start:.0f}s)", flush=True)
    bad = []
    for name, file, old, new in MUTANTS:
        if argv and name not in argv:
            continue
        began = time.perf_counter()
        try:
            killed, detail = run(file, old, new)
        except LookupError as error:
            killed, detail = False, f"stale: {error}"
        took = time.perf_counter() - began
        print(f"{'killed' if killed else 'FAIL':<6}  {name:<38} {took:5.1f}s  {detail}", flush=True)
        if not killed:
            bad.append(name)
    print(f"{len(bad)} of the mutants not killed{': ' + ', '.join(bad) if bad else ''}"
          f"  ({time.perf_counter() - start:.0f}s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
