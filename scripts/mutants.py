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
    ("definition-sign", ENGINE, "return _sign(dim_x) * (cfj - csm)", "return _sign(dim_x + 1) * (cfj - csm)"),
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
    # exact ring arithmetic
    ("reduced-without-gcd", CHOW, "g = gcd(den, *num)", "g = 1"),
    ("division-sign-of-c0", CHOW, "sign = 1 if c0 > 0 or n % 2 else -1", "sign = 1"),
    ("sparse-quotient-one-term-early", CHOW, "if i > k:\n                    break",
     "if i >= k:\n                    break"),
    ("tensor-line-denominator-of-t", CHOW, "p, q = -t.numerator, t.denominator", "p, q = -t.numerator, 1"),
    # the signs that the product-rule routes give their terms as dot weights
    ("product-weight", ENGINE, "csm_list[-1], -sign)]", "csm_list[-1], sign)]"),
    ("expansion-weight", ENGINE, "(x, y, sign * s * t)", "(x, y, sign * s)"),
    ("telescope-weight", ENGINE, "signs = [_sign(total - d) for d in codims]", "signs = [_sign(d) for d in codims]"),
    # the intersection's pp shares thm1's evaluation only on thm1's inputs
    ("pp-shares-thm1-unconditionally", ENGINE, "elif inputs == (cfj_list, csm_list):",
     'elif isinstance(routes["thm1"], ChowClass):'),
    # a smooth singular locus: its Segre class and the checks of its declaration
    ("segre-multiplies-by-normal", BUNDLES, "return z_class / normal", "return z_class * normal"),
    ("normal-guard-one-degree-late", VARIETIES, "range(self.normal_rank + 1, len(num))",
     "range(self.normal_rank + 2, len(num))"),
    ("locus-codimension-rank-plus-one", VARIETIES, "if a] != [m] or", "if a] != [m + 1] or"),
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
        print(f"{'killed' if killed else 'FAIL':<6}  {name:<32} {took:5.1f}s  {detail}", flush=True)
        if not killed:
            bad.append(name)
    print(f"{len(bad)} of the mutants not killed{': ' + ', '.join(bad) if bad else ''}"
          f"  ({time.perf_counter() - start:.0f}s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
