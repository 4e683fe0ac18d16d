import os
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

import milnorcalc
from milnorcalc.bundles import BundleChern
from milnorcalc.chow import make_class, one
from milnorcalc.engine import ClassReport, CONVENTIONS, RouteValue, SkippedRoute, VarietyReport
from milnorcalc.identities import RandomInstance
from milnorcalc.records import Record, replace
from milnorcalc.varieties import Smooth, Stratified, Stratum


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
    n = 3
    BundleChern(n, 1, make_class(n, [1, 2, 0, 0]))
    BundleChern(n, 1, make_class(n, [1, Fraction(1, 2), 0, 0]))  # stored over 2
    with pytest.raises(ValueError, match="rank must be non-negative"):
        BundleChern(n, -1, one(n))
    with pytest.raises(ValueError, match="constant term 1"):
        BundleChern(n, 1, make_class(n, [2, 0, 0, 0]))
    with pytest.raises(ValueError, match="constant term 1"):
        BundleChern(n, 1, make_class(n, [Fraction(1, 2), 0, 0, 0]))
    with pytest.raises(ValueError, match="cannot have c_2"):
        BundleChern(n, 1, make_class(n, [1, 1, 1, 0]))
    with pytest.raises(ValueError, match="wrong ambient space"):
        replace(BundleChern(n, 1, one(n)), total=one(n + 1))


def test_post_init_fills_a_derived_default():
    class Span(Record):
        lo: int
        hi: int = None

        def __post_init__(self):
            if self.hi is None:
                object.__setattr__(self, "hi", self.lo + 1)

    assert Span(1) == Span(1, 2) != Span(1, 3)
    assert replace(Span(1), lo=5).hi == 2  # the filled value is a field like any other


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
