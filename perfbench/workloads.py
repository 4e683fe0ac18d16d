"""Inputs, passes and output checks of the benchmark workloads.

Every workload runs its inputs two ways, the way a user meets them:

* as ``milnorcalc`` child processes, one at a time (a closed loop with
  one client), each checked against its expected output;
* in-process through the public API, one pass over the whole input set
  per timed sample.

``build`` is the set-up the benchmark times: it reads or generates every
input before the first timed operation.  The seeded ``rng`` orders the
inputs and names the generated varieties; it never changes what a
correct output is.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ORACLE_DIR = Path(__file__).resolve().parent / "oracle"

#: The README grid of the identity sweep: n = 2..8, r = 1..min(4, n).
SWEEP_GRID = tuple((n, r) for n in range(2, 9) for r in range(1, min(4, n) + 1))
SWEEP_TRIALS_PER_CELL = 4
#: Child processes all run the README's example cell, so their times
#: form one distribution.
SWEEP_CLI_CELL = (4, 3)
SWEEP_CLI_TRIALS = 10

COMPONENT_AMBIENT = 8
#: Component counts of the hyperplane-arrangement factors, all in P^8.
#: The inclusion-exclusion over the product pieces has 2^(prod k) - 1
#: terms: 15, 63, 511, 255 and 4095.
COMPONENT_RUNGS = ((2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 4))
#: Ambient dimensions of the pair-of-hyperplanes-cut-by-a-hyperplane rungs.
DIM_RUNGS = (8, 16, 24, 32)


def _arrangement(k: int, n: int) -> dict:
    """k hyperplanes in general position in P^n.  A pair is singular
    along one P^(n-2), so it also carries the data the mu-class and
    stratification routes need."""
    entry = {"degree": k, "singularity": {"kind": "arrangement", "components": [1] * k}}
    if k == 2:
        entry["sing_locus"] = {"kind": "linear", "dim": n - 2}
        entry["strata"] = [
            {"name": "reg", "dim": n - 1, "chiF": 1},
            {"name": "axis", "dim": n - 2, "chiF": 0,
             "closure": {"kind": "linear", "dim": n - 2}},
        ]
    return entry


def _crosscheck_rows(text: str) -> list[tuple[str, str, str]]:
    """(variety, route, Milnor class) rows of ``crosscheck`` text output."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("variety "))
    rows = []
    for line in lines[start + 1 :]:
        if not line:
            break
        rows.append(tuple(re.split(r" {2,}", line, maxsplit=2)))
    return rows


class Workload:
    name = ""
    #: Share of ``--seconds`` spent on child processes; the rest goes to
    #: in-process passes.
    cli_share = 0.5

    def __init__(self, root: Path, rng, smoke: bool):
        self.root = root
        self.rng = rng
        self.smoke = smoke

    def build(self, mc, workdir: Path) -> None:
        raise NotImplementedError

    def cli_ops(self):
        """Endless (label, argv, expected) for child processes."""
        raise NotImplementedError

    def check_cli(self, expected, returncode: int, stdout: bytes) -> str | None:
        raise NotImplementedError

    def next_pass(self) -> list:
        """(label, payload) for one in-process pass, built before timing."""
        raise NotImplementedError

    def compute(self, mc, payload):
        raise NotImplementedError

    def check(self, mc, payload, result) -> str | None:
        raise NotImplementedError

    def run_pass(self, mc, items, op) -> list[tuple[str, str]]:
        """Run one pass; ``op(label)`` brackets each operation.  Returns
        (label, problem) for every operation that failed or was wrong."""
        failures = []
        for label, payload in items:
            try:
                with op(label):
                    result = self.compute(mc, payload)
                problem = self.check(mc, payload, result)
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                problem = f"{type(exc).__name__}: {exc}"
            if problem is not None:
                failures.append((label, problem))
        return failures

    def derived(self, pass_ms: float) -> dict:
        """Workload-specific figures from the median in-process pass time."""
        return {}

    def _shuffled(self, items):
        items = list(items)
        self.rng.shuffle(items)
        return items


class Fixtures(Workload):
    """The shipped fixtures, compared byte for byte with their outputs at
    the commit that defined the benchmark."""

    name = "fixtures"
    cli_share = 0.8

    def build(self, mc, workdir):
        self.oracle = json.loads((ORACLE_DIR / "fixtures.json").read_text(encoding="utf-8"))
        self.paths = {}
        for name in self.oracle:
            path = self.root / "fixtures" / f"{name}.json"
            if not path.is_file():
                raise FileNotFoundError(path)
            self.paths[name] = str(path)

    def cli_ops(self):
        while True:
            for name in self._shuffled(sorted(self.oracle)):
                yield name, ["crosscheck", self.paths[name]], self.oracle[name]

    def check_cli(self, expected, returncode, stdout):
        if returncode != expected["crosscheck_exit"]:
            return f"exit {returncode}, expected {expected['crosscheck_exit']}"
        if stdout != expected["crosscheck_stdout"].encode("utf-8"):
            return "crosscheck output differs from the oracle"
        return None

    def next_pass(self):
        return [(name, name) for name in self._shuffled(sorted(self.oracle))]

    def compute(self, mc, name):
        spec, intersection_csm, requested = mc.cli.load_document(self.paths[name])
        report = mc.engine.compute_report(spec, requested and set(requested), intersection_csm)
        return report, mc.cli.render_crosscheck(report), mc.cli.report_to_json(report) + "\n"

    def check(self, mc, name, result):
        report, text, js = result
        expected = self.oracle[name]
        exit_code = 0 if report.all_agree else 3
        if exit_code != expected["crosscheck_exit"] or exit_code != expected["compute_exit"]:
            return f"verdict exit {exit_code} differs from the oracle"
        if text != expected["crosscheck_stdout"]:
            return "crosscheck text differs from the oracle"
        if js != expected["compute_json_stdout"]:
            return "compute JSON differs from the oracle"
        return None


class IdentitySweep(Workload):
    """Both identities on every cell of the README grid, fresh random
    classes in every pass."""

    name = "identity-sweep"

    def build(self, mc, workdir):
        self.grid = SWEEP_GRID[:3] if self.smoke else SWEEP_GRID
        self.trials = 1 if self.smoke else SWEEP_TRIALS_PER_CELL

    def trials_per_pass(self) -> int:
        return 2 * len(self.grid) * self.trials

    def derived(self, pass_ms):
        return {"sweep_trials_per_s": self.trials_per_pass() / (pass_ms / 1000.0)}

    def cli_ops(self):
        n, r = SWEEP_CLI_CELL
        while True:
            seed = self.rng.randrange(2**31)
            argv = ["identity", "--n", str(n), "--r", str(r),
                    "--trials", str(SWEEP_CLI_TRIALS), "--seed", str(seed)]
            yield f"n={n} r={r} seed={seed}", argv, None

    def check_cli(self, expected, returncode, stdout):
        lines = stdout.decode("utf-8").splitlines()
        if returncode != 0 or not lines or lines[-1] != "total failures: 0":
            return f"identity exit {returncode}: {lines[-1:]}"
        if len(lines) != 3 or any(f"trials={SWEEP_CLI_TRIALS} " not in line for line in lines[:2]):
            return "identity output has an unexpected shape"
        return None

    def next_pass(self):
        seed = self.rng.randrange(2**31)
        return [
            (f"n={n} r={r} {kind}", (kind, n, r, seed))
            for n, r in self.grid
            for kind in ("expansion", "telescope")
        ]

    def compute(self, mc, payload):
        kind, n, r, seed = payload
        check = (
            mc.identities.check_expansion_identity
            if kind == "expansion"
            else mc.identities.check_telescope_identity
        )
        return check(n, r, self.trials, seed)

    def check(self, mc, payload, report):
        if report.trials != self.trials or report.failures:
            return report.render()
        return None


class Ladder(Workload):
    """Generated documents through ``cli.parse_document`` and
    ``engine.compute_report``; every row must agree with at least the
    definition and thm1 routes, on the Milnor class in the oracle."""

    rungs: tuple = ()
    smoke_rungs: tuple = ()

    def label(self, rung) -> str:
        raise NotImplementedError

    def derived(self, pass_ms):
        return {self.name.replace("-", "_") + "_s": pass_ms / 1000.0}

    def factors(self, rung) -> tuple[int, list[tuple[str, dict]]]:
        """Ambient dimension and (oracle role, hypersurface entry) per factor."""
        raise NotImplementedError

    def document(self, rung, rng=None):
        """The rung's document and the oracle role of each row name.

        Without ``rng`` the factors keep their canonical order and names;
        with it, both are drawn from it, so no two passes share a spec.
        """
        n, factors = self.factors(rung)
        prefix = "F"
        if rng is not None:
            rng.shuffle(factors)
            prefix = f"F{rng.randrange(10**6)}_"
        hypersurfaces = [{"name": f"{prefix}{i}", **entry} for i, (_, entry) in enumerate(factors)]
        roles = {h["name"]: role for h, (role, _) in zip(hypersurfaces, factors)}
        roles[" ∩ ".join(h["name"] for h in hypersurfaces)] = "intersection"
        doc = {"ambient": {"kind": "projective", "dim": n}, "transversal": True,
               "hypersurfaces": hypersurfaces}
        return doc, roles

    def expected(self, rung, roles) -> dict:
        classes = self.oracle[self.label(rung)]
        return {name: classes[role] for name, role in roles.items()}

    def build(self, mc, workdir):
        self.oracle = json.loads((ORACLE_DIR / "ladder.json").read_text(encoding="utf-8"))[self.name]
        self.active = self.smoke_rungs if self.smoke else self.rungs
        # Child processes all run the smallest rung, so their times form
        # one distribution; the larger rungs would leave too few samples.
        rung = self.rungs[0]
        doc, roles = self.document(rung)
        n = doc["ambient"]["dim"]
        self.cli_texts = {
            name: mc.chow.format_class(mc.chow.make_class(n, coeffs))
            for name, coeffs in self.expected(rung, roles).items()
        }
        workdir.mkdir(parents=True, exist_ok=True)
        self.cli_path = workdir / f"{self.name}-{self.label(rung)}.json"
        self.cli_path.write_text(json.dumps(doc), encoding="utf-8")

    def cli_ops(self):
        label = self.label(self.rungs[0])
        while True:
            yield label, ["crosscheck", str(self.cli_path)], self.cli_texts

    def check_cli(self, texts, returncode, stdout):
        text = stdout.decode("utf-8")
        if returncode != 0 or not text.endswith("crosscheck: AGREE\n"):
            return f"crosscheck exit {returncode} without AGREE"
        routes: dict = {}
        for name, route, value in _crosscheck_rows(text):
            if texts.get(name) != value:
                return f"{name} {route}: {value} differs from the oracle"
            routes.setdefault(name, set()).add(route)
        if set(routes) != set(texts) or any({"definition", "thm1"} - r for r in routes.values()):
            return "a row lacks the definition or thm1 route"
        return None

    def next_pass(self):
        items = []
        for rung in self._shuffled(self.active):
            doc, roles = self.document(rung, self.rng)
            items.append((self.label(rung), (doc, self.expected(rung, roles))))
        return items

    def compute(self, mc, payload):
        doc, _ = payload
        spec, intersection_csm, requested = mc.cli.parse_document(doc)
        return mc.engine.compute_report(spec, requested and set(requested), intersection_csm)

    def check(self, mc, payload, report):
        _, expected = payload
        if {v.name for v in report.varieties} != set(expected):
            return "unexpected rows"
        for v in report.varieties:
            routes = {rv.route for rv in v.milnor}
            if not {"definition", "thm1"} <= routes:
                return f"{v.name}: definition or thm1 missing"
            if not v.agree:
                return f"{v.name}: routes disagree"
            if not all(rv.value.is_integral() for rv in v.milnor):
                return f"{v.name}: non-integral Milnor class"
            if list(v.consensus.integer_coeffs()) != expected[v.name]:
                return f"{v.name}: Milnor class differs from the oracle"
        return None


class LadderComponents(Ladder):
    """More and more arrangement components in a fixed P^8."""

    name = "ladder-components"
    # A pass takes about half of a 20 s run and two are always made, so
    # the children get most of the rest.
    cli_share = 0.45
    rungs = COMPONENT_RUNGS
    smoke_rungs = COMPONENT_RUNGS[:2]

    def label(self, rung):
        return "x".join(map(str, rung))

    def factors(self, rung):
        n = COMPONENT_AMBIENT
        return n, [(str(k), _arrangement(k, n)) for k in rung]


class LadderDim(Ladder):
    """A pair of hyperplanes cut by a generic hyperplane, in growing P^n."""

    name = "ladder-dim"
    rungs = DIM_RUNGS
    smoke_rungs = DIM_RUNGS[:2]

    def label(self, rung):
        return f"n{rung}"

    def factors(self, n):
        hyperplane = {"degree": 1, "singularity": {"kind": "smooth"}}
        return n, [("pair", _arrangement(2, n)), ("hyperplane", hyperplane)]


WORKLOADS = {w.name: w for w in (Fixtures, IdentitySweep, LadderComponents, LadderDim)}
