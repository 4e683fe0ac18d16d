import importlib
import json
import os
import subprocess
import sys
import types
from functools import cached_property
from pathlib import Path

import pytest

import milnorcalc
from milnorcalc.chow import make_class, one
from milnorcalc.engine import ClassReport, CONVENTIONS, RouteValue, SkippedRoute, VarietyReport
from milnorcalc.identities import RandomInstance
from milnorcalc.records import Record, replace
from milnorcalc.varieties import Arrangement, HypersurfaceSpec, Smooth, SmoothLocus, Stratified, Stratum, validation_errors


class Point(Record):
    x: int
    y: int
    label: str = "p"
    weight: int = 1


class Pair(Record):
    x: int
    y: int


def test_positional_keyword_and_default_construction():
    assert Point(1, 2)._values() == (1, 2, "p", 1)
    assert Point(1, 2, "q", 3) == Point(y=2, x=1, weight=3, label="q")
    assert Point(1, 2, weight=5) == Point(1, 2, "p", 5)
    assert Point._fields == ("x", "y", "label", "weight")
    s = Stratum("sing", 2)
    assert (s.chi_fiber, s.closure_class, s.mu, s.gamma) == (1, None, None, None)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((1,), {}, "missing required arguments: ['y']"),
        ((), {"y": 2}, "missing required arguments: ['x']"),
        ((1, 2, "q", 3, 4), {}, "takes 4 positional arguments but 5 were given"),
        ((1, 2), {"z": 3}, "unexpected keyword argument 'z'"),
        ((1, 2), {"x": 3}, "multiple values for argument 'x'"),
    ],
    ids=["missing", "missing-first", "too-many", "unknown", "twice"],
)
def test_construction_errors(args, kwargs, message):
    with pytest.raises(TypeError, match=message.replace("[", r"\[").replace("]", r"\]")):
        Point(*args, **kwargs)


def test_field_without_default_after_default_is_refused():
    with pytest.raises(TypeError, match="without a default"):

        class Bad(Record):
            a: int = 0
            b: int


def test_post_init_still_validates_bundles():
    """A smooth singular locus checks its normal bundle's rank and total
    class when it is built, and again on ``replace``."""
    n, point = 3, make_class(3, [0, 0, 0, 1])
    SmoothLocus(point, 1, make_class(n, [1, 2, 0, 0]))
    SmoothLocus(point, 1, make_class(n, [1, -5, 0, 0]))
    with pytest.raises(ValueError, match="rank must be non-negative"):
        SmoothLocus(point, -1, one(n))
    with pytest.raises(ValueError, match="constant term 1"):
        SmoothLocus(point, 1, make_class(n, [2, 0, 0, 0]))
    with pytest.raises(ValueError, match="constant term 1"):
        SmoothLocus(point, 1, make_class(n, [-1, 0, 0, 0]))
    with pytest.raises(ValueError, match="cannot have c_2"):
        SmoothLocus(point, 1, make_class(n, [1, 1, 1, 0]))
    with pytest.raises(ValueError, match="cannot have c_2"):
        replace(SmoothLocus(point, 3, make_class(n, [1, 1, 1, 0])), normal_rank=1)
    # the normal class on another ambient space is the input check's to report
    locus = replace(SmoothLocus(point, 3, one(n)), normal=one(n + 1))
    spec = HypersurfaceSpec("X", n, 2, Arrangement((1, 1)), locus)
    assert validation_errors(spec) == ["X.sing_locus.normal: wrong ambient dimension"]


def test_post_init_fills_a_derived_default():
    class Span(Record):
        lo: int
        hi: int = None

        def __post_init__(self):
            if self.hi is None:
                object.__setattr__(self, "hi", self.lo + 1)

    assert Span(1) == Span(1, 2) != Span(1, 3)
    assert replace(Span(1), lo=5).hi == 2  # the filled value is a field like any other
    assert vars(Span(1)) == {}  # and it lives in its slot


def test_fields_live_in_slots():
    """Each class's own fields are its ``__slots__``; a new record's
    ``__dict__`` is empty, and a subclass adds slots for its new fields only."""
    class Labelled(Pair):
        label: str = "p"

    rv = RouteValue("pp", one(2))
    assert RouteValue.__slots__ == ("route", "value") and Point.__slots__ == Point._fields
    assert vars(rv) == {} and vars(Point(1, 2)) == {}
    assert Labelled.__slots__ == ("label",) and Labelled._fields == ("x", "y", "label")
    assert vars(Labelled(1, 2)) == {} and Labelled(1, 2, "q").label == "q"


def test_post_init_runs_only_where_a_class_has_one(monkeypatch):
    """Whether a class has a ``__post_init__`` is settled when it is
    defined: a hook added to the base later is never called."""
    def refuse(self):
        raise AssertionError("called")

    monkeypatch.setattr(Record, "__post_init__", refuse, raising=False)
    assert RouteValue("pp", one(2)).route == "pp" and Pair(1, 2).y == 2


def test_cached_property_and_immutability_on_a_report_row():
    row = VarietyReport("Z", "hypersurface", 1, one(2), None, None,
                        (RouteValue("pp", one(2)), RouteValue("thm1", one(2))))
    assert vars(row) == {}
    assert row.agree is True and vars(row) == {"agree": True}
    for name in ("name", "agree", "extra"):
        with pytest.raises(AttributeError, match=f"^VarietyReport is immutable; cannot change '{name}'$"):
            setattr(row, name, None)
        with pytest.raises(AttributeError, match=f"^VarietyReport is immutable; cannot change '{name}'$"):
            delattr(row, name)
    assert row.name == "Z" and row.agree is True


def test_class_report_conventions_are_a_copy_of_the_constant():
    report = ClassReport(2, True, ())
    assert report.conventions == CONVENTIONS
    assert report.conventions is not CONVENTIONS
    report.conventions["aluffi_global_sign"] = 1  # changes a copy only
    assert report.conventions == CONVENTIONS
    with pytest.raises(TypeError, match="takes 3 positional arguments but 4 were given"):
        ClassReport(2, True, (), {"x": 1})
    with pytest.raises(TypeError, match="unexpected keyword argument 'conventions'"):
        ClassReport(2, True, (), conventions={"x": 1})


def test_equality_within_one_class_only():
    assert Pair(1, 2) == Pair(1, 2)
    assert Pair(1, 2) != Pair(2, 1)
    assert Pair(1, 2) != Point(1, 2)
    assert Pair(1, 2) != (1, 2)
    assert RouteValue("pp", one(2)) != SkippedRoute("pp", one(2))
    assert Smooth() == Smooth() and Smooth() != Stratified()


def test_hash_agrees_with_equality():
    assert hash(Pair(1, 2)) == hash(Pair(1, 2)) == hash((1, 2))
    assert len({Pair(1, 2), Pair(1, 2), Pair(2, 1)}) == 2
    assert {Stratum("a", 1): 1}[Stratum("a", 1, 1)] == 1
    def report(asserted):
        rows = (VarietyReport("Z", "hypersurface", 1, one(2), None, None, (RouteValue("pp", one(2)),)),)
        return ClassReport(2, asserted, rows)

    assert report(True) is not report(True) and hash(report(True)) == hash(report(True))
    assert len({report(True), report(True), report(False)}) == 2


def test_repr_format():
    assert repr(Point(1, 2)) == "Point(x=1, y=2, label='p', weight=1)"
    assert repr(Smooth()) == "Smooth()"
    assert repr(RouteValue("pp", one(1))).startswith("RouteValue(route='pp', value=ChowClass(")


def test_records_are_immutable():
    p = Pair(1, 2)
    with pytest.raises(AttributeError, match="immutable"):
        p.x = 3
    with pytest.raises(AttributeError, match="immutable"):
        p.z = 3
    with pytest.raises(AttributeError, match="immutable"):
        del p.x
    assert p == Pair(1, 2)


def test_replace():
    p = Point(1, 2, weight=3)
    q = replace(p, y=5)
    assert q == Point(1, 5, "p", 3) and p == Point(1, 2, "p", 3)
    assert replace(p) == p and replace(p) is not p
    filled = replace(Stratum("sing", 2, 0), mu=1, gamma=1)
    assert filled == Stratum("sing", 2, 0, None, None, 1, 1)
    with pytest.raises(TypeError, match=r"no fields \['z'\]"):
        replace(p, z=1)


def test_cached_property_on_a_record():
    class Cached(Record):
        a: int
        calls: list

        @cached_property
        def doubled(self):
            self.calls.append(1)
            return 2 * self.a

    c = Cached(4, [])
    assert c.doubled == 8 and c.doubled == 8
    assert c.calls == [1]
    assert c == Cached(4, [1])  # the cached value is not a field
    inst = RandomInstance(0, 2, 1, (1,), (one(2),), (one(2),))
    assert inst.cfj_list is inst.cfj_list
    assert inst.cfj_list == (one(2) + (-1) * one(2),)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """Importing dataclasses pulls in inspect, ast, dis and tokenize, and
    every frozen dataclass compiles its methods at import: the command
    line pays both on every start."""
    env = dict(os.environ, PYTHONPATH=str(Path(milnorcalc.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, milnorcalc.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.strip() == "[]"


# -- start-up: a command loads only what it runs --------------------------------

SRC = Path(milnorcalc.__file__).parent.parent
ROOT = SRC.parent
RATIONALS = {"fractions", "decimal", "numbers"}
ARGPARSE = {"argparse", "gettext", "locale"}  # the command line is read from one table in ``commandline``


def startup_run(*argv):
    """``python -X importtime -m milnorcalc.cli argv`` with no bytecode
    written, as a user's first run; (process, every module it imported)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "milnorcalc.cli", *argv],
                          capture_output=True, text=True, env=env)
    lines = proc.stderr.splitlines()
    modules = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
    proc.stderr = "".join(line + "\n" for line in lines if not line.startswith("import time:"))
    return proc, modules


@pytest.mark.parametrize("command", [["crosscheck"], ["compute", "--output", "json"]], ids=" ".join)
@pytest.mark.parametrize("fixture", sorted(p.name for p in (ROOT / "fixtures").glob("*.json")))
def test_startup_document_commands_leave_out_fractions_and_identities(fixture, command):
    """Every fixture is integral: ``fractions`` (with ``decimal`` and
    ``numbers``) and ``identities`` stay unimported, and so does
    ``argparse`` (with ``gettext`` and ``locale``)."""
    proc, modules = startup_run(*command, str(ROOT / "fixtures" / fixture))
    assert proc.returncode in (0, 3), proc.stderr
    assert "milnorcalc.engine" in modules
    assert not modules & (RATIONALS | ARGPARSE | {"milnorcalc.identities"})


def test_startup_identity_leaves_out_fractions():
    proc, modules = startup_run("identity", "--n", "4", "--r", "3", "--trials", "10")
    assert proc.returncode == 0, proc.stderr
    assert "milnorcalc.identities" in modules
    assert not modules & (RATIONALS | ARGPARSE)


def test_startup_rational_coefficients_exit_2_without_fractions(tmp_path):
    """A coefficient is an integer: "3/3" and a "1/2" point class both exit 2
    with the item's path, and neither loads ``fractions``; "1" reads as 1."""
    doc = json.loads((ROOT / "fixtures" / "nodal-cubic.json").read_text())
    node = doc["hypersurfaces"][0]["strata"][1]
    node["closure"] = {"kind": "explicit", "class": ["0", "0", "1"], "csm": [0, "-0", "1"]}
    (tmp_path / "whole.json").write_text(json.dumps(doc))
    integral, _ = startup_run("crosscheck", str(ROOT / "fixtures" / "nodal-cubic.json"))
    whole, modules = startup_run("crosscheck", str(tmp_path / "whole.json"))
    assert (whole.returncode, whole.stdout, whole.stderr) == (0, integral.stdout, "")
    for key, value in (("class", ["0", "0", "3/3"]), ("csm", [0, 0, "1/2"])):
        node["closure"] = {"kind": "explicit", "class": [0, 0, 1], "csm": [0, 0, 1], key: value}
        (tmp_path / "rational.json").write_text(json.dumps(doc))
        rational, modules = startup_run("crosscheck", str(tmp_path / "rational.json"))
        assert (rational.returncode, rational.stdout) == (2, "")
        assert rational.stderr == (f"error: hypersurfaces[0].strata[1].closure.{key}[2]: "
                                   "expected [-]digits of at most 700 digits\n")
        assert not modules & RATIONALS


def test_startup_cli_import_without_site_leaves_out_typing_and_weakref():
    """Under ``-S``, so that no ``.pth`` file of the interpreter's ``site``
    imports them first: the records and the document readers use neither
    ``typing`` nor ``weakref``, ``dataclasses``, ``inspect`` or ``argparse``."""
    modules = {"typing", "weakref", "dataclasses", "inspect", "argparse"}
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-S", "-c", "import sys, milnorcalc.cli; "
                           f"print(sorted(set({sorted(modules)!r}) & set(sys.modules)))"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


def test_startup_identity_names_resolve_on_first_access():
    names = ["IdentityReport", "RandomInstance", "check_expansion_identity",
             "check_identities", "check_telescope_identity", "sweep"]
    script = (
        "import sys, milnorcalc\n"
        "assert 'milnorcalc.identities' not in sys.modules\n"
        f"from milnorcalc import {', '.join(names)}\n"
        "import milnorcalc.identities as identities\n"
        f"assert all(globals()[name] is getattr(identities, name) for name in {names!r})\n"
        f"assert set({names!r}) <= set(dir(milnorcalc))\n"
        "try:\n"
        "    milnorcalc.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "module 'milnorcalc' has no attribute 'no_such_name'\n"


def test_tracer_wraps_and_restores_every_name():
    """The benchmark's tracer finds each name it wraps where its caller
    looks it up, and puts the original back."""
    path = ROOT / "perfbench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(), str(path), "exec"), tracer.__dict__)
    mc = types.SimpleNamespace(**{name: importlib.import_module(f"milnorcalc.{name}")
                                  for name in ("chow", "bundles", "varieties", "engine", "identities", "cli")})
    table = tracer.wrap_table(mc)
    originals = [vars(owner)[attr] for owner, attr, _, _ in table]
    tr = tracer.Tracer()
    tr.install(mc)
    try:
        for (owner, attr, _, _), original in zip(table, originals):
            wrapped = vars(owner)[attr]
            assert wrapped is not original and wrapped.__wrapped__ is original, attr
    finally:
        tr.uninstall()
    for (owner, attr, _, _), original in zip(table, originals):
        assert vars(owner)[attr] is original, attr
