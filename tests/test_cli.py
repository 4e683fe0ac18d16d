import contextlib
import copy
import functools
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import milnorcalc
from conftest import (
    COMPUTE_TEXT,
    FIXTURES,
    JSON_OUTPUT,
    ORACLE,
    clear_class_memos,
    cone_doc,
    cut_doc,
    explicit_closures,
    isolated_singularities_doc,
    join_csm,
    join_doc,
    normal_crossing_doc,
    public_strata,
)
from milnorcalc.chow import ChowClass, h_power, line_power, make_class
from milnorcalc.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_DISAGREEMENT,
    EXIT_OK,
    EXIT_UNCHECKED,
    EXIT_VALIDATION,
    MAX_AMBIENT_DIM,
    MAX_CLOSURE_DEGREES,
    MAX_COMPONENTS,
    MAX_DEGREE,
    MAX_DESCRIPTION,
    MAX_DIGITS,
    MAX_HYPERSURFACES,
    MAX_LOCUS_DIGITS,
    MAX_NAME,
    MAX_PARTS,
    MAX_STRATA,
    TRANSVERSALITY_WARNING,
    _DOCUMENT,
    _EXPECTED,
    _POWERS,
    _DIGITS,
    _TWICE,
    REQUIRED,
    _DocumentError,
    _object,
    _read_document,
    KIND,
    NUMBER,
    COEFF,
    load_document,
    crosscheck_verdict,
    main,
    parse_document,
    render_crosscheck,
    render_text,
    report_to_dict,
    report_to_json,
)
from milnorcalc.engine import (
    ROUTE_ORDER,
    _analyze_factor,
    compute_report,
    gamma_weights,
    milnor_from_strata,
    milnor_from_strata_ci,
    milnor_product,
    trivial_stratification,
)
from milnorcalc.identities import check_identities
from milnorcalc.varieties import Arrangement, Stratification, Stratum, ValidationError

FIXTURE_NAMES = sorted(p.stem for p in FIXTURES.glob("*.json"))
CLI = [sys.executable, "-m", "milnorcalc.cli"]
CLI_ENV = dict(os.environ, PYTHONPATH=str(Path(milnorcalc.__file__).parent.parent), PYTHONIOENCODING="utf-8")


def run_cli(*argv):
    """``milnorcalc`` as a child process, the way a user runs it."""
    return subprocess.run([*CLI, *argv], capture_output=True, env=CLI_ENV)


def write_doc(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def assert_classes_read_back(data, report):
    """Every coefficient list of a JSON report reads back as the report's class."""
    n = data["ambient_dim"]
    assert len(data["varieties"]) == len(report.varieties)
    for row, v in zip(data["varieties"], report.varieties):
        assert make_class(n, row["cfj"]) == v.cfj
        assert (None if row["csm"] is None else make_class(n, row["csm"])) == v.csm
        assert [make_class(n, rv["coeffs"]) for rv in row["milnor_routes"]] == [rv.value for rv in v.milnor]
        assert (None if row["milnor"] is None else make_class(n, row["milnor"])) == v.consensus


def plane_pair_doc():
    return {
        "ambient": {"kind": "projective", "dim": 4},
        "transversal": True,
        "hypersurfaces": [
            {
                "name": "Z1",
                "degree": 2,
                "singularity": {"kind": "arrangement", "components": [1, 1]},
                "sing_locus": {"kind": "linear", "dim": 2},
                "strata": [
                    {"name": "reg", "dim": 3, "chiF": 1},
                    {
                        "name": "sing",
                        "dim": 2,
                        "chiF": 0,
                        "closure": {"kind": "linear", "dim": 2},
                    },
                ],
            },
            {"name": "Z2", "degree": 1, "singularity": {"kind": "smooth"}},
        ],
    }


# -- compute -----------------------------------------------------------------

def test_compute_paper_example(fixtures_dir, capsys):
    code = main(["compute", str(fixtures_dir / "paper-example.json")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "H^2 + H^3 + H^4" in out
    assert "-H^3" in out
    assert "routes AGREE" in out
    assert TRANSVERSALITY_WARNING in out


def test_compute_single_method(fixtures_dir, capsys):
    code = main([
        "compute", str(fixtures_dir / "paper-example.json"), "--method", "aluffi",
    ])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "aluffi" in out
    assert "definition" not in out


def test_compute_remark_fixture_disagrees(fixtures_dir, capsys):
    code = main(["compute", str(fixtures_dir / "quadric-tangent-plane.json")])
    captured = capsys.readouterr()
    assert code == EXIT_DISAGREEMENT
    assert "routes DISAGREE" in captured.out
    assert TRANSVERSALITY_WARNING in captured.out
    assert "definition : H^3" in captured.out
    assert "thm1       : 0" in captured.out


def test_compute_validation_error(tmp_path, capsys):
    doc = plane_pair_doc()
    doc["hypersurfaces"][0]["degree"] = -1
    code = main(["compute", write_doc(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "hypersurfaces[0].degree" in err


def _set_degree_true(doc):
    doc["hypersurfaces"][1]["degree"] = True


def _set_dim_true(doc):
    doc["ambient"]["dim"] = True


def _set_component_true(doc):
    doc["hypersurfaces"][0]["singularity"]["components"] = [True, 1]


@pytest.mark.parametrize(
    "edit, field",
    [
        (_set_degree_true, "hypersurfaces[1].degree"),
        (_set_dim_true, "ambient.dim"),
        (_set_component_true, "hypersurfaces[0].singularity.components"),
    ],
    ids=["degree", "dim", "components"],
)
def test_compute_rejects_booleans_as_integers(tmp_path, capsys, edit, field):
    doc = plane_pair_doc()
    edit(doc)
    code = main(["compute", write_doc(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert field in err


def hyperplanes_doc(n, components):
    """Arrangements of hyperplanes in P^n, one per entry of ``components``."""
    return {
        "ambient": {"kind": "projective", "dim": n},
        "transversal": True,
        "hypersurfaces": [
            {"name": f"A{i}", "degree": k,
             "singularity": {"kind": "arrangement", "components": [1] * k}}
            for i, k in enumerate(components)
        ],
    }


def smooth_doc(n, degrees):
    """Smooth hypersurfaces of the given degrees in P^n."""
    return {
        "ambient": {"kind": "projective", "dim": n},
        "transversal": True,
        "hypersurfaces": [
            {"name": f"S{i}", "degree": d, "singularity": {"kind": "smooth"}}
            for i, d in enumerate(degrees)
        ],
    }


def closures_doc(n, closure_degrees, count=8):
    """``count`` stratified hypersurfaces of degree MAX_DEGREE in P^n; each
    stratum but the open one has a ci closure of distinct degrees, one
    stratum per entry of ``closure_degrees``, the number of its degrees."""
    return {
        "ambient": {"kind": "projective", "dim": n},
        "transversal": True,
        "hypersurfaces": [
            {
                "name": f"Z{i}",
                "degree": MAX_DEGREE,
                "singularity": {"kind": "stratified"},
                "strata": [{"name": "reg", "dim": n - 1, "chiF": 1}] + [
                    {"name": f"c{j}", "dim": n - k, "chiF": 0,
                     "closure": {"kind": "ci", "degrees": [
                         MAX_DEGREE - 2 * (count * j + i) - m for m in range(k)
                     ]}}
                    for j, k in enumerate(closure_degrees, start=1)
                ],
            }
            for i in range(count)
        ],
    }


def _ci_closure_over_the_degree_cap():
    doc = plane_pair_doc()
    doc["hypersurfaces"][0]["strata"][1]["closure"] = {"kind": "ci", "degrees": [1, MAX_DEGREE + 1]}
    return doc


@pytest.mark.parametrize(
    "doc, field",
    [
        (hyperplanes_doc(MAX_AMBIENT_DIM + 1, [2]), "ambient.dim"),
        (hyperplanes_doc(MAX_HYPERSURFACES + 2, [1] * (MAX_HYPERSURFACES + 1)), "hypersurfaces"),
        (hyperplanes_doc(16, [MAX_COMPONENTS + 1]), "hypersurfaces[0].singularity.components"),
        (
            hyperplanes_doc(16, [MAX_COMPONENTS // 2, MAX_COMPONENTS // 2 + 1]),
            "hypersurfaces[1].singularity.components",
        ),
        (smooth_doc(4, [2, MAX_DEGREE + 1]), "hypersurfaces[1].degree"),
        (
            {**hyperplanes_doc(4, []), "hypersurfaces": [{
                "name": "A", "degree": MAX_DEGREE,
                "singularity": {"kind": "arrangement", "components": [MAX_DEGREE + 1, -1]},
            }]},
            "hypersurfaces[0].singularity.components",
        ),
        (_ci_closure_over_the_degree_cap(), "hypersurfaces[0].strata[1].closure.degrees"),
        (
            closures_doc(64, [2] * (MAX_CLOSURE_DEGREES // 16 + 1)),
            "hypersurfaces[7].strata",
        ),
    ],
    ids=[
        "dim", "hypersurfaces", "components", "components-in-all", "degree",
        "component-degree", "ci-degree", "closure-degrees-in-all",
    ],
)
def test_compute_rejects_oversized_input(tmp_path, capsys, doc, field):
    path = write_doc(tmp_path, doc)
    start = time.perf_counter()
    code = main(["compute", path])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert f"error: {field}: " in err
    assert elapsed < 1.0


def test_parse_document_accepts_input_at_the_caps():
    spec, _, _ = parse_document(hyperplanes_doc(MAX_AMBIENT_DIM, [2]))
    assert spec.ambient_dim == MAX_AMBIENT_DIM
    spec, _, _ = parse_document(hyperplanes_doc(16, [1] * MAX_HYPERSURFACES))
    assert len(spec.hypersurfaces) == MAX_HYPERSURFACES
    spec, _, _ = parse_document(hyperplanes_doc(16, [MAX_COMPONENTS // 2] * 2))
    assert sum(len(h.singularity.component_degrees) for h in spec.hypersurfaces) == MAX_COMPONENTS
    spec, _, _ = parse_document(smooth_doc(4, [MAX_DEGREE] * 4))
    assert {h.degree for h in spec.hypersurfaces} == {MAX_DEGREE}
    spec, _, _ = parse_document(closures_doc(64, [2] * (MAX_CLOSURE_DEGREES // 16)))
    assert sum(len(h.strata.strata) - 1 for h in spec.hypersurfaces) * 2 == MAX_CLOSURE_DEGREES


def assert_runs_quickly(tmp_path, doc, command="crosscheck"):
    """Run ``command`` on ``doc`` as a process: accepted, no traceback,
    under a second.  Returns the decoded stdout."""
    start = time.perf_counter()
    proc = run_cli(command, write_doc(tmp_path, doc))
    elapsed = time.perf_counter() - start
    assert proc.returncode != EXIT_VALIDATION, proc.stderr
    assert b"Traceback" not in proc.stderr
    assert elapsed < 1.0
    return proc.stdout.decode("utf-8")


def test_p64_documents_at_the_caps_run_quickly(tmp_path):
    """Each is among the slowest documents found at the caps: eight
    arrangements of distinct component degrees, eight smooth
    hypersurfaces of the largest degree, and eight hypersurfaces whose
    strata carry every ci closure degree allowed."""
    n = MAX_AMBIENT_DIM
    per = MAX_COMPONENTS // MAX_HYPERSURFACES
    components = [list(range(i + 1, i + per + 1)) for i in range(MAX_HYPERSURFACES)]
    assert max(map(sum, components)) <= MAX_DEGREE
    arrangements = {
        "ambient": {"kind": "projective", "dim": n},
        "transversal": True,
        "hypersurfaces": [
            {"name": f"A{i}", "degree": sum(c),
             "singularity": {"kind": "arrangement", "components": c}}
            for i, c in enumerate(components)
        ],
    }
    out = assert_runs_quickly(tmp_path, arrangements)
    assert "A0 ∩ A1" in out
    assert_runs_quickly(tmp_path, smooth_doc(n, [MAX_DEGREE - i for i in range(MAX_HYPERSURFACES)]))
    assert_runs_quickly(tmp_path, closures_doc(n, [2] * (MAX_CLOSURE_DEGREES // 16)))


def strata_doc(count, chain=False):
    """A cubic in P^8 with ``count`` strata; with ``chain`` each point
    stratum contains the next one."""
    strata = [{"name": "reg", "dim": 7, "chiF": 1}] + [
        {"name": f"p{i}", "dim": 0, "chiF": 0} for i in range(1, count)
    ]
    if chain:
        for upper, lower in zip(strata[1:], strata[2:]):
            upper["contains"] = [lower["name"]]
    return {
        "ambient": {"kind": "projective", "dim": 8},
        "hypersurfaces": [
            {"name": "Z", "degree": 3, "singularity": {"kind": "stratified"}, "strata": strata}
        ],
    }


@pytest.mark.parametrize("command", ["compute", "crosscheck"])
@pytest.mark.parametrize(
    "doc", [strata_doc(MAX_STRATA + 1), strata_doc(3000, chain=True)], ids=["cap+1", "chain-3000"]
)
def test_too_many_strata_exit_2_without_traceback(tmp_path, command, doc):
    """Rejected before validation, so a containment chain longer than the
    recursion limit cannot reach any recursive check."""
    env = dict(os.environ, PYTHONPATH=str(Path(milnorcalc.__file__).parent.parent))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "milnorcalc.cli", command, write_doc(tmp_path, doc)],
        capture_output=True, text=True, env=env,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == EXIT_VALIDATION
    assert f"error: hypersurfaces[0].strata: at most {MAX_STRATA}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 1.0


def test_parse_document_accepts_strata_at_the_cap():
    spec, _, _ = parse_document(strata_doc(MAX_STRATA))
    assert len(spec.hypersurfaces[0].strata.strata) == MAX_STRATA


def stratified_intersection_doc(counts, n=8):
    """Transversal cubics in P^n, the i-th with ``counts[i]`` strata: the
    open one and point strata, all with closures, so the pp route runs."""
    return {
        "ambient": {"kind": "projective", "dim": n},
        "transversal": True,
        "hypersurfaces": [
            {
                "name": f"Z{i}",
                "degree": 3,
                "singularity": {"kind": "stratified"},
                "strata": [
                    {"name": "reg", "dim": n - 1, "chiF": 1,
                     "closure": {"kind": "ci", "degrees": [3]}}
                ] + [
                    {"name": f"p{j}", "dim": 0, "chiF": 0,
                     "closure": {"kind": "linear", "dim": 0}}
                    for j in range(1, k)
                ],
            }
            for i, k in enumerate(counts)
        ],
    }


def test_eight_hypersurfaces_of_64_strata_in_p64_run_quickly(tmp_path):
    """The pp route on the intersection factors over the hypersurfaces, so
    64^8 strata tuples cost eight sums and a few products."""
    doc = stratified_intersection_doc([MAX_STRATA] * MAX_HYPERSURFACES, n=MAX_AMBIENT_DIM)
    out = assert_runs_quickly(tmp_path, doc)
    name = " ∩ ".join(f"Z{i}" for i in range(MAX_HYPERSURFACES))
    assert any(line.startswith(f"{name}  pp ") for line in out.splitlines())


def test_pp_on_an_intersection_skips_an_open_class_no_tuple_reads(tmp_path):
    """A cubic with a node and no class for its open stratum, cut by a
    smooth hyperplane: no tuple of nonzero weight pairs the cubic's open
    stratum with a singular stratum of the hyperplane, so pp still runs."""
    doc = {
        "ambient": {"kind": "projective", "dim": 4},
        "transversal": True,
        "hypersurfaces": [
            {"name": "Z", "degree": 3, "singularity": {"kind": "stratified"},
             "strata": [
                 {"name": "reg", "dim": 3, "chiF": 1},
                 {"name": "node", "dim": 0, "chiF": 0, "closure": {"kind": "linear", "dim": 0}},
             ]},
            {"name": "H", "degree": 1, "singularity": {"kind": "smooth"}},
        ],
    }
    proc = run_cli("compute", write_doc(tmp_path, doc))
    assert proc.returncode == EXIT_OK
    row = proc.stdout.decode("utf-8").split("== Z ∩ H (intersection, dim 2)\n")[1]
    assert row.startswith(
        "  c^FJ : 3H^2 + 3H^3 + 9H^4\n"
        "  c^SM : unavailable\n"
        "  Milnor class:\n"
        "    pp : 0\n"
        "  routes AGREE\n"
    )


@pytest.mark.parametrize("command", ["compute", "crosscheck"])
def test_oversized_numbers_exit_2_without_traceback(tmp_path, command):
    """A JSON integer past Python's digit limit for int conversion, and a
    3001-digit degree, which once took about a minute to crosscheck."""
    long_integer = tmp_path / "long-integer.json"
    long_integer.write_text(json.dumps(plane_pair_doc()).replace('"degree": 1', '"degree": 1' + "0" * 5000))
    huge_degree = write_doc(tmp_path, smooth_doc(MAX_AMBIENT_DIM, [10**3000, 10**3000 + 1]))
    for path, message in [
        (str(long_integer), f"error: {long_integer}: not valid JSON ("),
        (huge_degree, f"error: hypersurfaces[0].degree: must be at most {MAX_DEGREE}"),
    ]:
        start = time.perf_counter()
        proc = run_cli(command, path)
        elapsed = time.perf_counter() - start
        stderr = proc.stderr.decode("utf-8")
        assert proc.returncode == EXIT_VALIDATION
        assert message in stderr
        assert "Traceback" not in stderr
        assert elapsed < 1.0


def quadric_doc(**changes):
    doc = json.loads((FIXTURES / "quadric-tangent-plane.json").read_text())
    doc.update(changes)
    return doc


def _with(doc, edit):
    edit(doc)
    return doc


def _closure_csm(coeffs):
    return lambda doc: doc["hypersurfaces"][0]["strata"][1].update(
        closure={"kind": "explicit", "class": ["0", "0", "1"], "csm": coeffs}
    )


def integrality_doc(digits=601, count=8, n=8):
    """A cubic in P^n whose point stratum has an explicit closure csm of
    ``count`` coefficients 1/d with distinct ``digits``-digit d, which
    once stopped the run on a non-integral class: the reader now refuses
    the first rational string."""
    denominators = [10 ** (digits - 1) + 2 * k + 1 for k in range(count)]
    return {
        "ambient": {"kind": "projective", "dim": n},
        "hypersurfaces": [{
            "name": "C", "degree": 3, "singularity": {"kind": "stratified"},
            "strata": [
                {"name": "reg", "dim": n - 1, "chiF": 1},
                {"name": "p", "dim": 0, "chiF": 0, "closure": {
                    "kind": "explicit", "class": [0] * n + [1],
                    "csm": ["0"] + [f"1/{d}" for d in denominators],
                }},
            ],
        }],
    }


def distinct_denominators_doc(digits=5):
    """Eight cubics in P^64 of 64 strata, each point stratum with an explicit
    closure csm whose coefficients have distinct ``digits``-digit
    denominators: their common denominator grew with every stratum, and
    crosscheck ran for more than 20 s, until the reader refused rationals."""
    doc = stratified_intersection_doc([MAX_STRATA] * MAX_HYPERSURFACES, n=MAX_AMBIENT_DIM)
    denominators = iter(range(10 ** (digits - 1) + 1, 10**digits, 2))
    for h in doc["hypersurfaces"]:
        for s in h["strata"][1:]:
            s["closure"] = {"kind": "explicit", "class": [0] * MAX_AMBIENT_DIM + [1],
                            "csm": [f"1/{next(denominators)}" for _ in range(MAX_AMBIENT_DIM + 1)]}
    return doc


@pytest.mark.parametrize("command", ["compute", "crosscheck"])
@pytest.mark.parametrize(
    "doc, code, message",
    [
        (_with(plane_pair_doc(), lambda d: d.update(routes=[["x"], "pp"])),
         EXIT_VALIDATION, "error: routes: unknown field"),
        (_with(plane_pair_doc(), lambda d: d["hypersurfaces"][0]["strata"][1].update(dim=1 - 10**4300)),
         EXIT_VALIDATION, "error: hypersurfaces[0].strata[1].dim: must be at least 0"),
        (_with(quadric_doc(), lambda d: d["intersection"]["csm"]["combination"][0].update(weight=-(10**4299))),
         EXIT_VALIDATION, f"error: intersection.csm.combination[0].weight: at most {MAX_DIGITS} digits"),
        (_with(plane_pair_doc(), _closure_csm(["0", "0", "1e10000000"])),
         EXIT_VALIDATION, "error: hypersurfaces[0].strata[1].closure.csm[2]: expected [-]digits of at most"),
        (quadric_doc(intersection={"csm": {"combination": [
            {"kind": "ci", "degrees": [k % 7 + 1, k // 7 % 5 + 1], "weight": 1} for k in range(2000)
        ]}}), EXIT_VALIDATION, f"error: intersection.csm.combination: at most {MAX_PARTS}\n"),
        (integrality_doc(), EXIT_VALIDATION,
         "error: hypersurfaces[0].strata[1].closure.csm[1]: expected [-]digits of at most"),
        (_with(smooth_doc(3, [2]), lambda d: d["hypersurfaces"][0].update(name="Q\ud800")),
         EXIT_VALIDATION, "error: hypersurfaces[0].name: expected at most 64 printable characters"),
        (distinct_denominators_doc(), EXIT_VALIDATION,
         "error: hypersurfaces[0].strata[1].closure.csm[0]: expected [-]digits of at most"),
    ],
    ids=["route-list", "huge-dim", "huge-weight", "exponent", "combination-2000", "rational-coefficient",
         "surrogate-name", "distinct-denominators"],
)
def test_documents_that_once_crashed_or_ran_long(tmp_path, command, doc, code, message):
    """Each of these ended in a traceback, or ran for seconds, before every
    field had a bound and coefficients were integers."""
    start = time.perf_counter()
    proc = run_cli(command, write_doc(tmp_path, doc))
    elapsed = time.perf_counter() - start
    stderr = proc.stderr.decode("utf-8")
    assert proc.returncode == code
    assert message in stderr
    assert "Traceback" not in stderr
    assert elapsed < 1.0


@pytest.mark.parametrize("command", ["compute", "crosscheck"])
def test_deeply_nested_json_exits_2_without_traceback(tmp_path, command):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    start = time.perf_counter()
    proc = run_cli(command, str(path))
    elapsed = time.perf_counter() - start
    stderr = proc.stderr.decode("utf-8")
    assert proc.returncode == EXIT_VALIDATION
    assert f"error: {path}: not valid JSON (" in stderr
    assert "Traceback" not in stderr
    assert elapsed < 1.0


def _big_numbers_doc(edit_stratum, n=MAX_AMBIENT_DIM):
    """Eight hypersurfaces with a codimension-2 stratum each, edited by
    ``edit_stratum``: products over the factors add up the digits."""
    doc = {
        "ambient": {"kind": "projective", "dim": n},
        "transversal": True,
        "hypersurfaces": [
            {"name": f"Z{i}", "degree": MAX_DEGREE, "singularity": {"kind": "stratified"},
             "strata": [
                 {"name": "reg", "dim": n - 1, "chiF": 1, "closure": {"kind": "ci", "degrees": [MAX_DEGREE]}},
                 {"name": "s", "dim": n - 2, "chiF": 0, "closure": {"kind": "linear", "dim": n - 2}},
             ]}
            for i in range(MAX_HYPERSURFACES)
        ],
    }
    for h in doc["hypersurfaces"]:
        edit_stratum(h, h["strata"][1])
    return doc


def _locus(h, s):
    big = 10**MAX_LOCUS_DIGITS - 1
    del h["strata"][0]["closure"]  # an arrangement derives its own c^SM
    h.update(
        singularity={"kind": "arrangement", "components": [1, MAX_DEGREE - 1]},
        sing_locus={"kind": "smooth", "class": [0, 0, big], "normal": {"rank": 2, "chern": [1, big, big]}},
    )


DIGIT_CAP_EDITS = pytest.mark.parametrize(
    "edit",
    [
        lambda h, s: s.update(chiF=1 - 10**MAX_DIGITS),
        lambda h, s: s.update(closure={"kind": "explicit", "class": [0, 0, 10**MAX_DIGITS - 1],
                                       "csm": [0, 0, str(10**MAX_DIGITS - 1)]}),
        _locus,
    ],
    ids=["chiF", "explicit-csm", "sing-locus"],
)


@DIGIT_CAP_EDITS
def test_numbers_at_the_digit_caps_print_and_run_quickly(tmp_path, edit):
    """Classes with more digits than Python converts to a string by default
    are printed, and the slowest documents found at the digit caps (the
    sing_locus class is divided by its normal class, so their digits
    multiply) take under a second as a process."""
    start = time.perf_counter()
    proc = run_cli("crosscheck", write_doc(tmp_path, _big_numbers_doc(edit)))
    elapsed = time.perf_counter() - start
    assert proc.returncode == EXIT_DISAGREEMENT, proc.stderr
    assert b"Traceback" not in proc.stderr
    assert elapsed < 1.0


def test_a_report_sums_the_expansion_in_closed_form(monkeypatch):
    """The report gives the expansion and telescoped routes thm1's class,
    evaluating the product rule once: on the sing-locus digit-cap document
    it calls neither term-by-term sum and makes at most 90 ring products
    (the 2^8 mixed products of the expansion took over 600, and a second
    closed-form evaluation 95)."""
    spec, intersection_csm, _ = parse_document(_big_numbers_doc(_locus))

    def term_by_term(*args):
        raise AssertionError("the report formed a sum term by term")

    monkeypatch.setattr(milnorcalc.engine, "milnor_expansion", term_by_term)
    monkeypatch.setattr(milnorcalc.engine, "milnor_telescope", term_by_term)
    calls = []
    mul = ChowClass.__mul__
    monkeypatch.setattr(ChowClass, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    report = compute_report(spec, None, intersection_csm)
    assert {"expansion", "cor11"} <= {rv.route for rv in report.varieties[-1].milnor}
    assert len(calls) <= 90


def _kernel_paths(monkeypatch):
    """Counts of the packed and the loop path of the ring-product kernel:
    the calls of ``chow._pack`` (twice per packed pair) and of
    ``chow._accumulate`` (once per pair on the loop)."""
    calls = {"packed": 0, "loop": 0}
    for name, path in (("_pack", "packed"), ("_accumulate", "loop")):
        def counted(*args, f=getattr(milnorcalc.chow, name), path=path):
            calls[path] += 1
            return f(*args)
        monkeypatch.setattr(milnorcalc.chow, name, counted)
    return calls


def test_the_ladders_p32_product_rule_takes_the_packed_path(monkeypatch):
    """On the benchmark's P^32 rung of the dimension ladder, every product of
    ``milnor_product`` (its ``dot`` and the division by c(TP^n)) is packed."""
    calls = _kernel_paths(monkeypatch)
    per_call = []
    product = milnorcalc.engine.milnor_product

    def counted(*args):
        before = dict(calls)
        value = product(*args)
        per_call.append({path: calls[path] - before[path] for path in calls})
        return value

    monkeypatch.setattr(milnorcalc.engine, "milnor_product", counted)
    [doc] = [d for d in _ladder_documents() if d["ambient"]["dim"] == 32]
    spec, intersection_csm, _ = parse_document(doc)
    assert compute_report(spec, None, intersection_csm).all_agree
    assert per_call and all(c == {"packed": 6, "loop": 0} for c in per_call)  # two pairs in dot, one product


@DIGIT_CAP_EDITS
def test_the_digit_cap_documents_take_the_loop(monkeypatch, edit):
    """On the digit-cap documents, whose coefficients run to thousands of
    bits, every ring product stays on the loop: packing lost there."""
    calls = _kernel_paths(monkeypatch)
    spec, intersection_csm, _ = parse_document(_big_numbers_doc(edit))
    compute_report(spec, None, intersection_csm)
    assert calls["packed"] == 0 and calls["loop"] > 0


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_a_report_validates_its_document_once(fixtures_dir, monkeypatch, name):
    """Reading a document validates nothing; compute_report validates the
    whole spec, and no factor or intersection class formula validates its
    part again, nor does the gamma walk of a factor's strata.  The ``validate``
    of ``cli`` and of ``varieties``, which ``strata_topological_order``
    calls, are counted too.  Earlier ``parse_document`` validated the spec
    as well."""
    calls = []
    validate = milnorcalc.varieties.validate
    for module in (milnorcalc.cli, milnorcalc.engine, milnorcalc.varieties):
        monkeypatch.setattr(module, "validate", lambda s: calls.append(s) or validate(s))
    spec, intersection_csm, _ = load_document(str(fixtures_dir / f"{name}.json"))
    assert calls == []
    compute_report(spec, None, intersection_csm)
    assert calls == [spec]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_a_report_builds_no_strata_records(fixtures_dir, monkeypatch, name):
    """A factor's gammas go into a dict and its open stratum's SM class
    into its ``pp`` inputs: a report builds no Stratum or Stratification
    beyond the parsed spec's, not even the one-stratum stratification of a
    smooth factor.  Earlier each factor with strata, or smooth, got one
    filled copy."""
    spec, intersection_csm, _ = load_document(str(fixtures_dir / f"{name}.json"))
    built = []
    for record in (Stratum, Stratification):
        init = record.__init__
        monkeypatch.setattr(record, "__init__", lambda self, *a, init=init, **k: built.append(self) or init(self, *a, **k))
    compute_report(spec, None, intersection_csm)
    assert built == []


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_a_report_multiplies_no_class_by_a_sign(fixtures_dir, monkeypatch, name):
    """Every sign in a report is the order of a subtraction or a ``dot``
    weight: on cold memos and again on warm ones, ``compute_report`` calls
    ``ChowClass.scale`` by neither 1 nor -1.  Earlier the definition route,
    each gamma-weighted sum and v_i of ``pp``, the aluffi route and the
    class [X] of a degree-1 factor did."""
    spec, intersection_csm, _ = load_document(str(fixtures_dir / f"{name}.json"))
    clear_class_memos()
    scalars, scale = [], ChowClass.scale
    monkeypatch.setattr(ChowClass, "scale", lambda c, q: scalars.append(q) or scale(c, q))
    for _ in range(2):
        compute_report(spec, None, intersection_csm)
    assert [q for q in scalars if q in (1, -1)] == []


def _fields(field, path="document"):
    """(path, field) for every field declared below ``field``."""
    kind, _, _, sub, _ = field
    yield path, field
    if kind is list:
        yield from _fields(sub, f"{path}[]")
    elif kind is dict:
        for key, member in sub.items():
            yield from _fields(member, f"{path}.{key}")
    elif kind is KIND:
        for choice, fields in sub.items():
            for key, member in fields.items():
                yield from _fields(member, f"{path}<{choice}>.{key}")


def test_every_declared_field_has_a_bound():
    fields = list(_fields(_DOCUMENT))
    assert len(fields) > 40
    for path, (kind, bound, _, _, _) in fields:
        if kind is int:
            assert isinstance(bound, tuple) and len(bound) == 2, path
        elif kind in (NUMBER, COEFF):
            assert bound in _POWERS, path
        elif kind in (str, list):
            assert isinstance(bound, int) and bound > 0, path
        else:
            assert kind in (bool, dict, KIND) and bound is None, path


@pytest.mark.parametrize(
    "coeff, accepted",
    [
        ("1/2", False), ("-3", True), ("007/010", False), (-5, True), ("9" * MAX_DIGITS, True),
        ("1/" + "7" * MAX_DIGITS, False), ("1e5", False), ("1.5", False), (" 1", False), ("+1", False),
        ("1/-2", False), ("1/0", False), ("1/000", False), ("1_000", False), ("\u0661", False),
        ("9" * (MAX_DIGITS + 1), False), ("1/" + "7" * (MAX_DIGITS + 1), False), (10**MAX_DIGITS, False),
        (1.0, False), (True, False), (None, False), ("3/3", False), ("007", True), ("-0", True),
    ],
)
def test_coefficient_format(coeff, accepted):
    """Integers and [-]digits strings of at most MAX_DIGITS digits; no
    rational string, not even one that is an integer, such as "3/3"."""
    doc = _with(plane_pair_doc(), _closure_csm(["0", "0", coeff]))
    if accepted:
        parse_document(doc)
    else:
        with pytest.raises(ValidationError, match=r"hypersurfaces\[0\]\.strata\[1\]\.closure\.csm\[2\]: "):
            parse_document(doc)


def _check(doc):
    """A document's whole check in the library: ``parse_document`` reads
    its format, and ``compute_report`` validates the spec it declares."""
    spec, intersection_csm, _ = parse_document(doc)
    return compute_report(spec, None, intersection_csm)


def _nodal_cubic(index, cls, csm):
    """``nodal-cubic`` with an ``explicit`` closure on its stratum ``index``."""
    doc = json.loads((FIXTURES / "nodal-cubic.json").read_text())
    doc["hypersurfaces"][0]["strata"][index]["closure"] = {"kind": "explicit", "class": cls, "csm": csm}
    return doc


def _conic_and_tangent_line(csm):
    """A smooth conic and a tangent line in P^2, not asserted transversal:
    they meet in one double point, so the reduced intersection's SM class
    is H^2 while c^FJ leads with 2H^2."""
    return {"ambient": {"kind": "projective", "dim": 2}, "transversal": False,
            "hypersurfaces": [{"name": "C", "degree": 2, "singularity": {"kind": "smooth"}},
                              {"name": "L", "degree": 1, "singularity": {"kind": "smooth"}}],
            "intersection": {"csm": {"coeffs": csm}}}


@pytest.mark.parametrize(
    "doc, message",
    [
        (_nodal_cubic(1, [0, 0, 1], [0, 1, 1]),
         "hypersurfaces[0].strata.node.closure: SM class must vanish below codimension 2"),
        (_nodal_cubic(1, [0, 0, 1], [0, 0, 2]),
         "hypersurfaces[0].strata.node.closure: SM class must equal the class, 1, in codimension 2"),
        (_nodal_cubic(0, [0, 2], [0, 3]),
         "hypersurfaces[0].strata.reg.closure: class must be 3H, the class of the hypersurface"),
        (_nodal_cubic(0, [0, 3], [0, 5]),
         "hypersurfaces[0].strata.reg.closure: SM class must equal the class, 3, in codimension 1"),
        (_with(json.loads((FIXTURES / "quadric-tangent-plane.json").read_text()),
               lambda d: d["intersection"].update(csm={"coeffs": [0, 0, 1, 3]})),
         "intersection.csm: SM class must equal the class, 2, in codimension 2"),
        (_conic_and_tangent_line([0, 0, 3]),
         "intersection.csm: SM class must lead with a degree in 1..2 in codimension 2"),
        (_with(json.loads((FIXTURES / "quadric-tangent-plane.json").read_text()),
               lambda d: d["intersection"]["csm"]["combination"].append({"kind": "ci", "degrees": [2]})),
         "intersection.csm: SM class must vanish below codimension 2"),
    ],
    ids=["node-csm-below", "node-csm-lead", "open-class", "open-csm-lead", "intersection-lead",
         "intersection-lead-above-degree", "intersection-below"],
)
def test_impossible_supplied_classes_exit_2_with_their_path(tmp_path, doc, message):
    """A supplied SM class leads with the class of its variety: a closure's
    in the stratum's codimension, the open stratum's dH, and the
    intersection's (prod d_i) H^r.  Before these checks the four nodal
    cubics ran through every route and exited 3."""
    for command in ("compute", "crosscheck"):
        proc = run_cli(command, write_doc(tmp_path, doc))
        stderr = proc.stderr.decode("utf-8")
        assert (proc.returncode, proc.stdout) == (EXIT_VALIDATION, b"")
        assert f"error: {message}\n" in stderr and "Traceback" not in stderr


def test_a_non_reduced_intersection_leads_with_its_reduced_degree(tmp_path):
    """Without transversality the intersection may be non-reduced, and its
    SM class leads with the reduced variety's degree, at most prod d_i: the
    conic's double point with its tangent line has c^SM = H^2, and the
    definition route gives c^FJ - c^SM = 2H^2 - H^2."""
    proc = run_cli("compute", write_doc(tmp_path, _conic_and_tangent_line([0, 0, 1])))
    assert (proc.returncode, proc.stderr) == (0, b"")
    row = _check(_conic_and_tangent_line([0, 0, 1])).varieties[-1]
    assert [(rv.route, rv.value) for rv in row.milnor] == [("definition", h_power(2, 2))]


def test_empty_strata_reach_validation():
    doc = smooth_doc(3, [2])
    doc["hypersurfaces"][0]["strata"] = []
    with pytest.raises(ValidationError, match=r"^hypersurfaces\[0\]\.strata: need at least one stratum$"):
        _check(doc)


@pytest.mark.parametrize(
    "edit, path",
    [
        (lambda d: d.update(transversel=True), "transversel"),
        (lambda d: d["ambient"].update(dimension=4), "ambient.dimension"),
        (lambda d: d["hypersurfaces"][0].update(sing_lucus=None), "hypersurfaces[0].sing_lucus"),
        (lambda d: d["hypersurfaces"][0]["singularity"].update(weights=[1, 1]),
         "hypersurfaces[0].singularity.weights"),
        (lambda d: d["hypersurfaces"][0]["strata"][1]["closure"].update(degrees=[1]),
         "hypersurfaces[0].strata[1].closure.degrees"),
        (lambda d: d.update({"x" * 100: 1}), "'" + "x" * MAX_NAME + "'"),
        (lambda d: d.update({"\n": 1}), "'\\n'"),
    ],
    ids=["top", "kind-object", "hypersurface", "singularity", "closure", "long-key", "unprintable-key"],
)
def test_an_undeclared_key_is_rejected_with_its_path(edit, path):
    """A key that the format does not declare is rejected, never ignored;
    a long or unprintable key is shown cut and escaped."""
    with pytest.raises(ValidationError, match=f"^{re.escape(path)}: unknown field$"):
        parse_document(_with(plane_pair_doc(), edit))


@pytest.mark.parametrize(
    "old, new, path",
    [
        ('"transversal": true', '"transversal": true, "transversal": false', "transversal"),
        ('"degree": 2', '"degree": 2, "degree": 3', "hypersurfaces[0].degree"),
        ('"chiF": 0', '"chiF": 0, "chiF": 1', "hypersurfaces[0].strata[1].chiF"),
        ('"kind": "linear", "dim": 2}}', '"kind": "linear", "kind": "ci", "dim": 2}}',
         "hypersurfaces[0].strata[1].closure.kind"),
    ],
    ids=["top", "hypersurface", "stratum", "kind"],
)
def test_a_key_given_twice_exits_2_with_its_path(tmp_path, capsys, old, new, path):
    """JSON keeps the last of two equal keys; the document reader rejects
    the key instead of computing with either value."""
    text = json.dumps(plane_pair_doc())
    assert text.count(old) == 1
    file = tmp_path / "twice.json"
    file.write_text(text.replace(old, new))
    assert main(["compute", str(file)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {path}: given twice\n"


def test_a_description_of_bounded_printable_text_is_accepted():
    parse_document(_with(plane_pair_doc(), lambda d: d.update(description="d" * MAX_DESCRIPTION)))
    for description in ["d" * (MAX_DESCRIPTION + 1), "a\nb", 1]:
        with pytest.raises(ValidationError, match="^description: expected "):
            parse_document(_with(plane_pair_doc(), lambda d: d.update(description=description)))


def test_root_paths_have_no_document_prefix():
    doc = plane_pair_doc()
    doc["description"] = 5
    with pytest.raises(ValidationError, match=r"^description: expected a string$"):
        parse_document(doc)
    with pytest.raises(ValidationError, match=r"^document: expected an object$"):
        parse_document([])


# -- fuzzing the front end ------------------------------------------------------

FIELD_NAMES = sorted({
    path.rsplit(".", 1)[-1].split("<")[0] for path, _ in _fields(_DOCUMENT) if "." in path
} | {"linear", "ci", "explicit", "smooth", "arrangement", "stratified", "projective"})

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(FIELD_NAMES),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=6), children, max_size=5),
    max_leaves=24,
)

HUGE = [10**4000, -(10**4000), 10**MAX_DIGITS, -(10**MAX_DIGITS) + 1, 2**64, "1e100000", "7" * 4000 + "/3"]


def _locations(node, out):
    """(container, key) of every value below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        out.append((node, key))
        _locations(value, out)
    return out


@st.composite
def mutated_docs(draw):
    """A normal-crossing document with one field replaced by another JSON
    value, deleted, grown past every list bound, or made huge."""
    doc = draw(normal_crossing_docs(draw(st.sampled_from([0, 1]))))
    container, key = draw(st.sampled_from(_locations(doc, [])))
    mutation = draw(st.sampled_from(["replace", "delete", "grow", "huge"]))
    value = container[key]
    if mutation == "delete":
        del container[key]
    elif mutation == "grow" and isinstance(value, list) and value:
        container[key] = (value * (MAX_COMPONENTS + 1))[: MAX_COMPONENTS + 1]
    elif mutation == "huge":
        container[key] = draw(st.sampled_from(HUGE))
    else:
        container[key] = draw(json_values)
    return doc


def assert_front_end_holds(doc):
    """compute (text and JSON) and crosscheck end in a documented exit
    code, raise nothing, and take under a second each."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_doc(Path(tmp), doc)
        for argv in (["compute"], ["compute", "--output", "json"], ["crosscheck"]):
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([*argv, path])
            assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_DISAGREEMENT, EXIT_UNCHECKED)
            assert time.perf_counter() - start < 1.0


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=json_values)
def test_fuzz_any_json_value(doc):
    assert_front_end_holds(doc)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_docs())
def test_fuzz_mutated_normal_crossing_documents(doc):
    assert_front_end_holds(doc)


# -- the compiled readers against the reference walk ------------------------------

def ref_read(value, field, totals: dict, key=None):
    """The one-walk reader that the compiled readers replaced, kept as the
    reference: ``value`` checked against ``field`` with defaults filled in,
    re-dispatching on the field's kind at every node."""
    kind, bound, _, sub, total = field
    try:
        if value is _TWICE:
            raise _DocumentError("given twice")
        if kind is COEFF and type(value) is str:
            if re.fullmatch(_DIGITS[bound], value) is None:
                raise _DocumentError(f"expected [-]digits of at most {bound} digits")
            return int(value)
        if type(value) is not {NUMBER: int, COEFF: int, KIND: dict}.get(kind, kind):
            raise _DocumentError(f"expected {_EXPECTED[kind]}")
        if kind is int and not bound[0] <= value <= bound[1]:
            lo, hi = bound
            raise _DocumentError(f"must be at least {lo}" if value < lo else f"must be at most {hi}")
        if (kind is NUMBER or kind is COEFF) and abs(value) >= _POWERS[bound]:
            raise _DocumentError(f"at most {bound} digits")
        if kind is str and not (len(value) <= bound and value.isprintable()):
            raise _DocumentError(f"expected at most {bound} printable characters")
        if kind is list:
            if len(value) > bound:
                raise _DocumentError(f"at most {bound}")
            indexed = sub[0] is not int and sub[0] is not str
            value = [ref_read(v, sub, totals, i if indexed else None) for i, v in enumerate(value)]
            if total is not None:
                cap, noun, weigh = total
                totals[noun] = totals.get(noun, 0) + (sum(map(weigh, value)) if weigh else len(value))
                if totals[noun] > cap:
                    raise _DocumentError(f"at most {cap} {noun} in all")
        elif kind is dict or kind is KIND:
            out = {}
            if kind is KIND:
                out["kind"] = choice = value.get("kind")
                if type(choice) is not str or choice not in sub:
                    raise _DocumentError("given twice" if choice is _TWICE else f"expected one of: {', '.join(sub)}",
                                         ".kind")
                sub = sub[choice]
            unknown = value.keys() - sub.keys() - out.keys()
            if unknown:
                name = min(unknown)
                raise _DocumentError("unknown field", f".{name}" if name.isprintable() and len(name) <= MAX_NAME
                                     else f".{ascii(name[:MAX_NAME])}")
            for name, member in sub.items():
                if name in value:
                    out[name] = ref_read(value[name], member, totals, name)
                elif member[2] is REQUIRED:
                    raise _DocumentError("missing", f".{name}")
                else:
                    out[name] = member[2]
            return out
        return value
    except _DocumentError as exc:
        if key is not None:
            exc.keys.append(f"[{key}]" if type(key) is int else f".{key}")
        raise


def _ladder_documents():
    """Every rung's document of both ladder workloads of the benchmark."""
    path = ROOT_DIR / "perfbench" / "workloads.py"
    workloads = types.ModuleType("workloads")
    workloads.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), workloads.__dict__)
    ladders = [cls(ROOT_DIR, random.Random(0), False) for cls in (workloads.LadderComponents, workloads.LadderDim)]
    return [ladder.document(rung)[0] for ladder in ladders for rung in ladder.rungs]


ROOT_DIR = Path(milnorcalc.__file__).resolve().parent.parent.parent
READER_DOCUMENTS = [
    *(json.loads(path.read_text(), object_pairs_hook=_object) for path in sorted(FIXTURES.glob("*.json"))),
    normal_crossing_doc(4, [[1, 1, 2], [1, 1]]), normal_crossing_doc(5, [[1, 2, 1]]),
    join_doc(5, 3, 1), join_doc(4, 2, 0), *_ladder_documents(),
]
OTHER_TYPES = [None, True, False, 1.5, "x", [], {}, [1], {"kind": "linear"}, 0, 2]
OUT_OF_RANGE = [-1, 0, MAX_AMBIENT_DIM + 1, MAX_DEGREE + 1, -(10**6)]
LONG_INTS = [10**MAX_DIGITS, -(10**MAX_DIGITS), 10**MAX_DIGITS - 1, 10**MAX_LOCUS_DIGITS, 10**900]
RATIONAL_STRINGS = ["1/0", "1/000", "1e5", "+1", " 1", "1.5", "1/-2", "\u0661", "1/" + "7" * (MAX_DIGITS + 1),
                    "9" * (MAX_LOCUS_DIGITS + 1), "1/2", "-3"]
KEYS = ["bogus", "x" * 100, "\n", "é" * (MAX_NAME + 1), "kind", "name", "weight"]
CAPS = [MAX_HYPERSURFACES + 1, MAX_AMBIENT_DIM + 1, MAX_AMBIENT_DIM + 2, MAX_STRATA + 1, MAX_PARTS + 1,
        MAX_COMPONENTS + 1, len(ROUTE_ORDER) + 1]


@pytest.mark.parametrize("coeff", sorted({*RATIONAL_STRINGS, "3/3", "007/010", "007", "-0", "1_000", "\uff11", "",
                                           "-", "--1", "1 ", "0x1", "9" * MAX_DIGITS}))
def test_make_class_rejects_every_string_the_reader_rejects(coeff):
    """A string coefficient has one form, ``[-]digits``, in a document and in
    ``make_class``; only the reader caps its digits, and none here is over."""
    assert not (coeff.lstrip("-").isdigit() and len(coeff) > MAX_DIGITS)
    doc = _with(plane_pair_doc(), _closure_csm(["0", "0", coeff]))
    try:
        parse_document(doc)
    except ValidationError:
        with pytest.raises(TypeError):
            make_class(2, [0, 0, coeff])
    else:
        assert make_class(2, [0, 0, coeff]).coeffs[2] == int(coeff)


def mutate(doc, rng):
    """A copy of ``doc`` with one or two edits, each at a random place and
    most of them ones the readers must refuse: a wrong type, a key given
    twice, an out-of-range int, an int of too many digits, a bad rational
    string, an unknown or overlong key, a missing key, or a list over its cap."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 2)):
        places = _locations(doc, [])
        objects = [doc, *(c[k] for c, k in places if type(c[k]) is dict and c[k])]
        lists = [(c, k) for c, k in places if type(c[k]) is list and c[k]]
        container, key = rng.choice(places)
        edit = rng.choice(["type", "twice", "range", "digits", "rational", "unknown", "missing", "cap"])
        if edit == "unknown":
            rng.choice(objects)[rng.choice(KEYS)] = copy.deepcopy(rng.choice(OTHER_TYPES))
        elif edit == "missing":
            obj = rng.choice(objects)
            del obj[rng.choice(sorted(obj))]
        elif edit == "cap" and lists:
            container, key = rng.choice(lists)
            container[key] = (container[key] * MAX_COMPONENTS)[: rng.choice(CAPS)]
        else:
            pool = {"type": OTHER_TYPES, "twice": [_TWICE], "range": OUT_OF_RANGE, "digits": LONG_INTS,
                    "rational": RATIONAL_STRINGS, "cap": OTHER_TYPES}[edit]
            value = rng.choice(pool)
            container[key] = value if value is _TWICE else copy.deepcopy(value)
    return doc


def read_outcome(read, doc):
    """The checked value and the totals, or the error's message and path."""
    totals = {}
    try:
        return "value", repr(read(doc, totals)), totals
    except _DocumentError as exc:
        return "error", str(exc), "".join(reversed(exc.keys))


def ref_read_document(doc, totals):
    return ref_read(doc, _DOCUMENT, totals)


@pytest.mark.parametrize("seed", range(4))
def test_compiled_readers_match_the_reference_walk(seed):
    """On each document and on mutants of it, the readers compiled from the
    field table give the reference's value, or its first error and path."""
    rng = random.Random(seed)
    for doc in READER_DOCUMENTS:
        assert read_outcome(_read_document, doc) == read_outcome(ref_read_document, doc)
        for _ in range(100):
            mutated = mutate(doc, rng)
            assert read_outcome(_read_document, mutated) == read_outcome(ref_read_document, mutated)


# -- the normal-crossing family ------------------------------------------------

def crosscheck_exit(doc) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        return main(["crosscheck", write_doc(Path(tmp), doc)])


# -- isolated singularities: the truth in closed form ---------------------------

@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 7), d=st.integers(2, 5), mus=st.lists(st.integers(1, 6), min_size=1, max_size=4))
@example(n=2, d=2, mus=[1])
@example(n=3, d=2, mus=[1])
def test_isolated_singularities_give_the_sum_of_milnor_numbers(n, d, mus):
    """``definition``, ``aluffi`` and ``pp``, each from its own input, give
    (sum mus) H^n, and crosscheck agrees."""
    spec, intersection_csm, _ = parse_document(isolated_singularities_doc(n, d, mus))
    [row] = compute_report(spec, None, intersection_csm).varieties
    routes = {rv.route: rv.value for rv in row.milnor}
    for route in ("definition", "aluffi", "pp"):
        assert routes[route] == sum(mus) * h_power(n, n), route
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        assert main(["crosscheck", write_doc(Path(tmp), isolated_singularities_doc(n, d, mus))]) == EXIT_OK
    assert re.search(r"^X: \d+ routes, AGREE\n\ncrosscheck: AGREE\n\Z", out.getvalue(), re.M)


@pytest.mark.parametrize("n", [2, 3])
def test_isolated_singularities_with_the_wrong_point_sign_disagree(n):
    assert crosscheck_exit(isolated_singularities_doc(n, 3, [1, 4], sign=-1)) == EXIT_DISAGREEMENT


def cut_by_a_hyperplane(doc, csm_degrees, points=0):
    """``doc`` cut by a smooth hyperplane H, asserted transversal, with the
    intersection's c^SM supplied as that of the smooth complete
    intersection of ``csm_degrees``, plus ``points`` times a point's."""
    point = [{"kind": "linear", "dim": 0, "weight": points}] if points else []
    return doc | {
        "transversal": True,
        "hypersurfaces": doc["hypersurfaces"] + [{"name": "H", "degree": 1, "singularity": {"kind": "smooth"}}],
        "intersection": {"csm": {"combination": [{"kind": "ci", "degrees": csm_degrees}, *point]}},
    }


@settings(max_examples=45, deadline=None)
@given(n=st.integers(3, 7), d=st.integers(2, 5), mus=st.lists(st.integers(1, 6), min_size=1, max_size=3))
@example(n=3, d=2, mus=[1])
def test_isolated_singularities_cut_by_a_hyperplane_that_misses_them(n, d, mus):
    """X ∩ H is a smooth complete intersection of degrees (d, 1), so its
    Milnor class is 0 by ``definition`` (the supplied c^SM), ``thm1`` (the
    product rule) and ``pp`` (the strata); a c^SM with an extra point
    disagrees, and one of degrees (d + 1, 1), whose leading term is not
    the class of X ∩ H, is refused."""
    doc = isolated_singularities_doc(n, d, mus)
    spec, intersection_csm, _ = parse_document(cut_by_a_hyperplane(doc, [d, 1]))
    row = compute_report(spec, None, intersection_csm).varieties[-1]
    routes = {rv.route: rv.value for rv in row.milnor}
    for route in ("definition", "thm1", "pp"):
        assert routes[route] == make_class(n, []), route
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        assert main(["crosscheck", write_doc(Path(tmp), cut_by_a_hyperplane(doc, [d, 1]))]) == EXIT_OK
    assert "\nX ∩ H: 5 routes, AGREE\n" in out.getvalue()
    assert out.getvalue().endswith("\ncrosscheck: AGREE\n")
    assert crosscheck_exit(cut_by_a_hyperplane(doc, [d, 1], points=1)) == EXIT_DISAGREEMENT
    assert crosscheck_exit(cut_by_a_hyperplane(doc, [d + 1, 1])) == EXIT_VALIDATION


# -- joins: positive-dimensional, non-reduced singular schemes -------------------

@st.composite
def join_params(draw, n_parity, c_parity):
    """(n, d, k) with n in 2..10 and c = n - k in 2..n of the given
    parities, d in 2..5: every coefficient stays within MAX_LOCUS_DIGITS."""
    n, k = draw(st.sampled_from([(n, n - c) for n in range(2, 11) for c in range(2, n + 1)
                                 if (n % 2, c % 2) == (n_parity, c_parity)]))
    return n, draw(st.integers(2, 5)), k


def _routes_by_row(doc):
    spec, intersection_csm, _ = parse_document(doc)
    return [{rv.route: rv.value for rv in row.milnor} for row in compute_report(spec, None, intersection_csm).varieties]


PARITIES = pytest.mark.parametrize("n_parity, c_parity", [(0, 0), (0, 1), (1, 0), (1, 1)],
                                   ids=["even-n-even-codim", "even-n-odd-codim", "odd-n-even-codim", "odd-n-odd-codim"])


@PARITIES
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_joins_agree_on_three_independent_inputs(n_parity, c_parity, data):
    """``definition`` (the cone formula's c^SM), ``aluffi`` (the non-reduced
    singular scheme as a ``smooth`` locus) and ``pp`` (the vertex stratum)
    give one Milnor class, and crosscheck agrees; at k = 0 it is the cone's
    (d-1)^n H^n."""
    n, d, k = data.draw(join_params(n_parity, c_parity))
    [routes] = _routes_by_row(join_doc(n, d, k))
    assert routes["definition"] == routes["aluffi"] == routes["pp"]
    if k == 0:
        assert routes["pp"] == (d - 1) ** n * h_power(n, n)
    assert crosscheck_exit(join_doc(n, d, k)) == EXIT_OK


def _plus_point_on_the_csm(h, n, d, c):
    h["strata"][0]["closure"]["csm"][n] += 1


def _vertex_chif_plus_one(h, n, d, c):
    h["strata"][1]["chiF"] += 1


def _locus_of_degree_d(h, n, d, c):
    h["sing_locus"]["class"][c] = d ** c
    h["sing_locus"]["normal"]["chern"] = list(line_power(n, d, c).integer_coeffs())


@pytest.mark.parametrize("perturb", [_plus_point_on_the_csm, _vertex_chif_plus_one, _locus_of_degree_d],
                         ids=["csm-plus-point", "vertex-chiF-plus-one", "locus-degree-d"])
@pytest.mark.parametrize("n, d, k", [(2, 2, 0), (3, 3, 1), (4, 3, 1), (5, 2, 2), (6, 4, 2)])
def test_a_perturbed_join_disagrees(n, d, k, perturb):
    """Each input read by one route only: a point added to the supplied
    c^SM, the vertex's chiF plus one, or a singular scheme of degree d
    partials in place of d - 1."""
    doc = join_doc(n, d, k)
    perturb(doc["hypersurfaces"][0], n, d, n - k)
    assert crosscheck_exit(doc) == EXIT_DISAGREEMENT


@pytest.mark.parametrize("n, d, k", [(3, 2, 1), (4, 2, 2), (4, 3, 1), (5, 3, 0), (6, 4, 2), (7, 5, 3)])
def test_a_linear_locus_is_the_reduced_scheme(n, d, k):
    """The vertex declared as ``{"kind": "linear", "dim": k}`` is the
    reduced P^k.  For d = 2 the singular scheme is reduced and the routes
    agree; for d >= 3 it is not, and ``aluffi`` reads the wrong Segre
    class."""
    doc = join_doc(n, d, k)
    doc["hypersurfaces"][0]["sing_locus"] = {"kind": "linear", "dim": k}
    assert crosscheck_exit(doc) == (EXIT_OK if d == 2 else EXIT_DISAGREEMENT)


@PARITIES
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_join_cut_by_a_hyperplane_is_a_smaller_join(n_parity, c_parity, data):
    """J(n, d, k) cut by a hyperplane H in general position is
    J(n-1, d, k-1) inside H: with H . c^SM(J(n-1, d, k-1)) supplied, the
    intersection row agrees on ``definition``, ``thm1`` and ``pp``, and a
    point added to that class makes ``definition`` disagree."""
    n, d, k = data.draw(join_params(n_parity, c_parity).filter(lambda p: p[2] >= 1))
    csm = [0, *join_csm(n - 1, d, k - 1).integer_coeffs()]
    doc = join_doc(n, d, k) | {
        "transversal": True,
        "hypersurfaces": join_doc(n, d, k)["hypersurfaces"] + [
            {"name": "H", "degree": 1, "singularity": {"kind": "smooth"}}],
        "intersection": {"csm": {"coeffs": csm}},
    }
    routes = _routes_by_row(doc)[-1]
    assert routes["definition"] == routes["thm1"] == routes["pp"]
    assert crosscheck_exit(doc) == EXIT_OK
    csm[-1] += 1
    assert crosscheck_exit(doc) == EXIT_DISAGREEMENT


# -- cones and hyperplane cuts: gamma peeled through chains of strata -------------

CONE_CUT = {"cone": cone_doc, "cut": cut_doc}
CONE_CUT_BASES = [
    *(("normal crossings", n, tuple(ds)) for n in range(2, 6)
      for ds in ([1, 1], [1, 2], [2, 2], [1, 1, 1], [1, 1, 2], [2, 3], [1] * (n + 1), [1] * (n + 2))
      if 1 + sum(math.comb(len(ds), j) for j in range(2, min(len(ds), n) + 1)) <= MAX_STRATA),
    *(("isolated points", n, d, mus) for n in range(2, 10) for d in range(2, 5) for mus in ((1,), (2, 1))),
    *(("join", n, d, k) for n in range(2, 10) for d in range(2, 5) for k in range(n - 1)),
]


def cone_cut_base(kind, n, *params):
    """A base document in ``explicit_closures`` form."""
    if kind == "normal crossings":
        return explicit_closures(normal_crossing_doc(n, [list(params[0])]))
    if kind == "isolated points":
        return explicit_closures(isolated_singularities_doc(n, params[0], list(params[1])))
    return explicit_closures(join_doc(n, *params))


@functools.cache
def cone_cut_cases(parity, last=None):
    """(base, word) for every base and word of length at most 3 in cone and
    cut that keeps the ambient space within P^2..P^9 and ends in P^n of the
    given parity, and, given ``last``, ends with that operation."""
    cases = []
    for base in CONE_CUT_BASES:
        for word in itertools.chain.from_iterable(itertools.product(CONE_CUT, repeat=j) for j in range(4)):
            dims = list(itertools.accumulate((1 if op == "cone" else -1 for op in word), initial=base[1]))
            if all(2 <= m <= 9 for m in dims) and dims[-1] % 2 == parity and (last is None or word[-1:] == (last,)):
                cases.append((base, word))
    return cases


def cone_cut_doc(base, word):
    return functools.reduce(lambda doc, op: CONE_CUT[op](doc), word, cone_cut_base(*base))


@pytest.mark.parametrize("parity", [0, 1], ids=["even-n", "odd-n"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cones_and_cuts_agree(parity, data):
    """Normal crossings, isolated points and joins, coned and cut up to three
    times, with every input derived in closed form and ``contains`` lists of
    covering relations only: ``definition`` (the coned or cut c^SM of X) and
    ``pp`` (the coned or cut strata, whose chiF other than 0 and 1 gamma
    peels through chains of strata) agree, and crosscheck agrees."""
    doc = cone_cut_doc(*data.draw(st.sampled_from(cone_cut_cases(parity))))
    [routes] = _routes_by_row(doc)
    assert routes["definition"] == routes["pp"]
    assert crosscheck_exit(doc) == EXIT_OK


def _cone_vertex_chif_plus_one(strata):
    strata[-1]["chiF"] += 1


def _coned_stratum_chif_plus_one(strata):
    strata[1]["chiF"] += 1


def _plus_point_on_the_coned_csm(strata):
    strata[0]["closure"]["csm"][-1] += 1


@pytest.mark.parametrize("perturb", [_cone_vertex_chif_plus_one, _coned_stratum_chif_plus_one,
                                     _plus_point_on_the_coned_csm],
                         ids=["vertex-chiF-plus-one", "coned-chiF-plus-one", "csm-plus-point"])
@pytest.mark.parametrize("parity", [0, 1], ids=["even-n", "odd-n"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_a_perturbed_cone_disagrees(perturb, parity, data):
    """On a document whose last operation is a cone, each input of the cone
    formula that one route reads: the new vertex's chiF plus one, a coned
    singular stratum's chiF plus one, or a second point in c^SM(X)."""
    doc = cone_cut_doc(*data.draw(st.sampled_from(cone_cut_cases(parity, "cone"))))
    assume(len(doc["hypersurfaces"][0]["strata"]) > 2)  # a singular stratum besides the vertex
    perturb(doc["hypersurfaces"][0]["strata"])
    assert crosscheck_exit(doc) == EXIT_DISAGREEMENT


# -- cones on intersection rows: the cone over X cut back to X ------------------

def cone_cut_back(doc):
    """The cone over X in P^(n+1), X in ``explicit_closures`` form in P^n,
    cut by a hyperplane that misses the vertex: X again, a transversal
    intersection whose c^SM is c^SM(X) pushed into P^(n+1), the
    coefficients shifted up one codimension.  Two factors: the cone's
    strata from ``cone_doc`` and a smooth hyperplane."""
    cone = cone_doc(doc)
    csm = doc["hypersurfaces"][0]["strata"][0]["closure"]["csm"]
    return cone | {
        "transversal": True,
        "hypersurfaces": cone["hypersurfaces"] + [{"name": "cut", "degree": 1, "singularity": {"kind": "smooth"}}],
        "intersection": {"csm": {"coeffs": [0, *csm]}},
    }


# Bases in P^11 and P^12 whose cones land in P^12 and P^13, where a
# report's classes are dense enough for the packed ring-product kernel.
HIGH_CONE_BASES = [("join", 11, 2, 4), ("join", 12, 3, 5), ("isolated points", 12, 2, (2, 1)),
                   ("normal crossings", 11, (1, 1, 2))]


@pytest.mark.parametrize("parity", [0, 1], ids=["even-n", "odd-n"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_cone_cut_back_agrees_on_its_intersection_row(parity, data):
    """Normal crossings, isolated points and joins, coned and cut up to three
    times, then coned once more and cut by a hyperplane that misses the
    vertex, in P^n of the given parity: ``definition`` (X's c^SM pushed
    forward), ``thm1`` (the product rule on the two factors) and ``pp``
    (the cone's strata, whose vertex chiF gamma peels through every
    level) agree on the intersection row, and crosscheck agrees."""
    doc = cone_cut_back(cone_cut_doc(*data.draw(st.sampled_from(cone_cut_cases(1 - parity)))))
    assert doc["ambient"]["dim"] % 2 == parity
    routes = _routes_by_row(doc)[-1]
    assert routes["definition"] == routes["thm1"] == routes["pp"]
    assert crosscheck_exit(doc) == EXIT_OK


@pytest.mark.parametrize("base", HIGH_CONE_BASES, ids=lambda base: f"{base[0]}-cone-in-P{base[1] + 1}")
def test_a_cone_cut_back_in_high_dimension_goes_through_the_packed_kernel(monkeypatch, base):
    """In P^12 and P^13 the intersection row agrees on ``definition``,
    ``thm1`` and ``pp``, and some of its ring products take the packed path."""
    doc = cone_cut_back(cone_cut_base(*base))
    clear_class_memos()
    calls = _kernel_paths(monkeypatch)
    routes = _routes_by_row(doc)[-1]
    assert routes["definition"] == routes["thm1"] == routes["pp"]
    assert calls["packed"] > 0
    assert crosscheck_exit(doc) == EXIT_OK


@pytest.mark.parametrize("perturb, intersection_agrees", [(_coned_stratum_chif_plus_one, False),
                                                         (_cone_vertex_chif_plus_one, True)],
                         ids=["coned-chiF-plus-one", "vertex-chiF-plus-one"])
@pytest.mark.parametrize("parity", [0, 1], ids=["even-n", "odd-n"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_a_perturbed_cone_cut_back_disagrees(perturb, intersection_agrees, parity, data):
    """A cone chiF plus one moves ``pp`` alone, and crosscheck exits 3.  A
    coned singular stratum meets the hyperplane, so the cone's factor row
    and the intersection row both disagree.  The vertex does not: its
    point class times the hyperplane class is 0 in P^n, so only the factor
    row disagrees."""
    base = data.draw(st.sampled_from(cone_cut_cases(1 - parity) + [(b, ()) for b in HIGH_CONE_BASES]))
    doc = cone_cut_back(cone_cut_doc(*base))
    assume(len(doc["hypersurfaces"][0]["strata"]) > 2)  # a singular stratum besides the vertex
    perturb(doc["hypersurfaces"][0]["strata"])
    spec, intersection_csm, _ = parse_document(doc)
    cone_row, _, intersection_row = compute_report(spec, None, intersection_csm).varieties
    assert not cone_row.agree
    assert intersection_row.agree is intersection_agrees
    assert crosscheck_exit(doc) == EXIT_DISAGREEMENT


def _route_outcome(row, route):
    """The row's class for ``route``, or the reason it was skipped."""
    return next((rv.value for rv in row.milnor if rv.route == route), None) or next(
        s.reason for s in row.skipped if s.route == route)


def _outcome(function, *args):
    try:
        return function(*args)
    except ValueError as exc:
        return str(exc)


def assert_pp_is_the_public_strata_sum(doc):
    """Each hypersurface row's ``pp`` is ``milnor_from_strata`` of its
    ``gamma_weights``-filled strata (``trivial_stratification`` for a
    smooth factor without strata), and an intersection row's is
    ``milnor_from_strata_ci`` of the public filled strata: the same class,
    or the same message for a skipped route."""
    spec, intersection_csm, _ = parse_document(doc)
    report = compute_report(spec, None, intersection_csm)
    n, factors = spec.ambient_dim, spec.hypersurfaces
    csms = [_analyze_factor(h).csm for h in factors]
    for h, csm, row in zip(factors, csms, report.varieties):
        strat = trivial_stratification(n, h.degree, csm) if h.strata is None else gamma_weights(h.strata)
        assert _route_outcome(row, "pp") == _outcome(milnor_from_strata, strat, h.degree, n)
    if len(factors) > 1:
        strats = [public_strata(h, csm) for h, csm in zip(factors, csms)]
        expected = _outcome(milnor_from_strata_ci, strats, [h.degree for h in factors], n)
        assert _route_outcome(report.varieties[-1], "pp") == expected


@pytest.mark.parametrize("parity", [0, 1], ids=["even-n", "odd-n"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_reports_pp_is_the_public_strata_sum(parity, data):
    """Cones and cuts (chains of strata whose chiF other than 0 and 1 gamma
    peels through) and normal crossings, one or two arrangements with at
    most one smooth factor, in P^n of either parity: a report's ``pp``,
    built from gammas in a dict with no strata records, is the public
    functions' value on every row.  A non-open chiF is sometimes moved, so
    that gammas of every sign and zero occur."""
    if data.draw(st.booleans()):
        doc = cone_cut_doc(*data.draw(st.sampled_from(cone_cut_cases(parity))))
    else:
        doc = data.draw(normal_crossing_docs(parity))
        if len(doc["hypersurfaces"]) < doc["ambient"]["dim"] and data.draw(st.booleans()):
            doc["hypersurfaces"].append({"name": "S", "degree": data.draw(st.integers(1, 3)),
                                         "singularity": {"kind": "smooth"}})
    strata = [s for h in doc["hypersurfaces"] for s in h.get("strata", [])[1:]]
    if strata and data.draw(st.booleans()):
        data.draw(st.sampled_from(strata))["chiF"] = data.draw(st.integers(-2, 3))
    assert_pp_is_the_public_strata_sum(doc)


@st.composite
def normal_crossing_docs(draw, parity):
    """One or two arrangements in P^n, n of the given parity, each of one
    to four components of degree 1-3."""
    n = 2 * draw(st.integers(1, 3)) + parity
    factors = draw(st.lists(
        st.lists(st.integers(1, 3), min_size=1, max_size=4), min_size=1, max_size=2
    ))
    return normal_crossing_doc(n, factors)


def assert_intersection_product_routes(doc):
    """An intersection row's thm1 and pp equal the product-rule kernel on
    each route's own inputs, evaluated afresh: thm1 on the factors' c^FJ
    and c^SM, pp through ``milnor_from_strata_ci`` on the public filled strata."""
    spec, intersection_csm, _ = parse_document(doc)
    if len(spec.hypersurfaces) < 2:
        return
    row = compute_report(spec, None, intersection_csm).varieties[-1]
    routes = {rv.route: rv.value for rv in row.milnor}
    factors = [_analyze_factor(h) for h in spec.hypersurfaces]
    n, r = spec.ambient_dim, len(factors)
    assert routes["thm1"] == milnor_product([f.cfj for f in factors], [f.csm for f in factors], n, n - r)
    strats = [public_strata(f.spec, f.csm) for f in factors]
    assert routes["pp"] == milnor_from_strata_ci(strats, [f.spec.degree for f in factors], n)


@pytest.mark.parametrize("parity", [0, 1], ids=["even-n", "odd-n"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_normal_crossing_family_agrees(parity, data):
    """Every row agrees on at least two routes, and a chiF changed to 1 or 2
    on any stratum but the open one makes some row disagree.  Either way
    the intersection's thm1 and pp are the kernel's values on their own
    inputs, whether or not pp shares thm1's evaluation."""
    doc = data.draw(normal_crossing_docs(parity))
    assert crosscheck_exit(doc) == EXIT_OK
    assert_intersection_product_routes(doc)
    strata = [s for h in doc["hypersurfaces"] for s in h["strata"][1:]]
    if strata:
        data.draw(st.sampled_from(strata))["chiF"] = data.draw(st.sampled_from([1, 2]))
        assert crosscheck_exit(doc) == EXIT_DISAGREEMENT
        assert_intersection_product_routes(doc)


@pytest.mark.parametrize("parity", [0, 1], ids=["even-n", "odd-n"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_normal_crossing_json_output_is_exact(parity, data):
    """An accepted document's compute JSON is what ``json.dumps`` writes
    of the report, and each of its classes reads back exactly."""
    doc = data.draw(normal_crossing_docs(parity))
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        assert main(["compute", write_doc(Path(tmp), doc), "--output", "json"]) == EXIT_OK
    spec, intersection_csm, _ = parse_document(doc)
    report = compute_report(spec, None, intersection_csm)
    assert out.getvalue() == ref_json(report)
    assert_classes_read_back(json.loads(out.getvalue()), report)
    assert ('"A0 \\u2229 A1"' in out.getvalue()) == (len(doc["hypersurfaces"]) == 2)


@pytest.mark.parametrize("parity", [0, 1], ids=["even-n", "odd-n"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_every_selected_route_is_listed_once_in_order(parity, data):
    """Each row lists every selected route exactly once, as a class or a
    skip reason, and each list follows ROUTE_ORDER."""
    doc = data.draw(normal_crossing_docs(parity))
    methods = data.draw(st.none() | st.sets(st.sampled_from(ROUTE_ORDER), min_size=1))
    spec, intersection_csm, _ = parse_document(doc)
    selected = [r for r in ROUTE_ORDER if methods is None or r in methods]
    for row in compute_report(spec, methods, intersection_csm).varieties:
        computed, skipped = [rv.route for rv in row.milnor], [sk.route for sk in row.skipped]
        assert sorted(computed + skipped, key=ROUTE_ORDER.index) == selected
        assert computed == sorted(computed, key=ROUTE_ORDER.index)
        assert skipped == sorted(skipped, key=ROUTE_ORDER.index)


CONTRADICTIONS = {
    "intersection": _with(
        smooth_doc(3, [2]), lambda d: d.update(intersection={"csm": {"coeffs": [0, 2, 0, 99]}})
    ),
    "hypersurfaces[0].sing_locus": _with(
        smooth_doc(3, [2]),
        lambda d: d["hypersurfaces"][0].update(sing_locus={"kind": "linear", "dim": 0}),
    ),
    "intersecton": _with(quadric_doc(), lambda d: d.update(intersecton=d.pop("intersection"))),
    "hypersurfaces[0].strata.reg.closure": _with(
        json.loads((FIXTURES / "paper-example.json").read_text()),
        lambda d: d["hypersurfaces"][0]["strata"][0].update(
            closure={"kind": "explicit", "class": [0, 2, 0, 0, 0], "csm": [0, 2, 0, 0, 99]}
        ),
    ),
    "intersection.csm": _with(
        json.loads((FIXTURES / "quadric-tangent-plane.json").read_text()),
        lambda d: d["intersection"]["csm"].update(coeffs=[0, 0, 2, 2]),
    ),
}


@pytest.mark.parametrize(
    "field",
    CONTRADICTIONS,
    ids=["intersection-csm", "smooth-sing-locus", "misspelt-key", "arrangement-open-closure", "csm-coeffs-and-combination"],
)
def test_a_contradictory_document_exits_2_with_the_field_path(tmp_path, field):
    """An intersection class on one hypersurface, a singular locus on a
    smooth one (a quadric in P^3 in both), a misspelt key, a closure class
    on an arrangement's open stratum and an intersection class given both
    as coeffs and as a combination are rejected.  Earlier each document ran
    to AGREE and exit 0: the first ignored its class, the second its locus,
    the third its intersection class (DISAGREE, exit 3, when spelt right),
    the fourth read the closure class in the intersection's pp route only,
    and the fifth dropped its combination (DISAGREE, exit 3, without the
    coeffs)."""
    doc = CONTRADICTIONS[field]
    proc = run_cli("crosscheck", write_doc(tmp_path, doc))
    stderr = proc.stderr.decode("utf-8")
    assert proc.returncode == EXIT_VALIDATION
    assert stderr.startswith(f"error: {field}: ")
    assert "Traceback" not in stderr and proc.stdout == b""
    with pytest.raises(ValidationError, match=f"^{re.escape(field)}: "):
        _check(doc)


@pytest.mark.parametrize("edit, error", [
    (lambda d: None, "intersection: a single hypersurface has no intersection row"),
    (lambda d: d["hypersurfaces"][0].update(degree=MAX_DEGREE + 1),
     f"hypersurfaces[0].degree: must be at most {MAX_DEGREE}"),
    (lambda d: d["hypersurfaces"][0].update(sing_locus={"kind": "linear", "dim": 0}),
     "hypersurfaces[0].sing_locus: a smooth hypersurface has no singular locus"),
], ids=["alone", "with-a-format-error", "with-a-broken-invariant"])
def test_an_intersection_class_on_one_hypersurface_is_checked_after_the_spec(tmp_path, edit, error):
    """A document is read, then its spec validated, then the intersection
    class checked against it, so a second error is reported first.  Earlier
    the intersection class was checked before anything else."""
    doc = _with(copy.deepcopy(CONTRADICTIONS["intersection"]), edit)
    proc = run_cli("crosscheck", write_doc(tmp_path, doc))
    assert (proc.returncode, proc.stdout, proc.stderr.decode("utf-8")) == (EXIT_VALIDATION, b"", f"error: {error}\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(error)}$"):
        _check(doc)


def _fixture_with_locus(name, locus):
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    doc["hypersurfaces"][0]["sing_locus"] = locus
    return doc


@pytest.mark.parametrize("command", [["compute", "--method", "aluffi"], ["crosscheck"]])
@pytest.mark.parametrize("name, cls, rank, chern, field", [
    ("two-planes-p3", [0, 0, 1, 0], 1, [1, 1], "normal.rank"),
    ("nodal-cubic", [0, 0, 1], 9, [1], "normal.rank"),
    ("two-planes-p3", [0, 0, 0, 1], 2, [1, 2, 1], "class"),
    ("two-planes-p3", [0, 0, 1, 1], 2, [1, 2, 1], "class"),
    ("two-planes-p3", [0, 0, -1, 0], 2, [1, 2, 1], "class"),
    ("two-planes-p3", [0, 0, 0, 0], 2, [1, 2, 1], "class"),
], ids=["line-of-rank-1", "point-of-rank-9", "point-of-rank-2", "two-codimensions", "negative", "zero"])
def test_a_smooth_locus_must_agree_with_its_normal_rank(tmp_path, capsys, command, name, cls, rank, chern, field):
    """A ``smooth`` singular locus of a hypersurface of P^n has a normal
    rank m in [2, n] and a class that is a positive multiple of H^m.
    Earlier a line in P^3 with a rank-1 normal bundle gave ``aluffi``
    -H^2 + H^3 (the truth is -H^2) and crosscheck blamed the routes, and a
    point of rank 9 in P^2 gave AGREE."""
    doc = _fixture_with_locus(name, {"kind": "smooth", "class": cls, "normal": {"rank": rank, "chern": chern}})
    assert main([*command, write_doc(tmp_path, doc)]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: hypersurfaces[0].sing_locus.{field}: ")
    with pytest.raises(ValidationError, match=rf"^hypersurfaces\[0\]\.sing_locus\.{re.escape(field)}: "):
        _check(doc)


def test_a_smooth_locus_of_the_right_rank_is_its_linear_locus():
    """The axis of two planes in P^3 as a ``smooth`` locus, class H^2 with
    normal bundle O(1) + O(1), gives what the ``linear`` locus gives."""
    smooth = _fixture_with_locus("two-planes-p3", {"kind": "smooth", "class": [0, 0, 1, 0],
                                                    "normal": {"rank": 2, "chern": [1, 2, 1]}})
    linear = json.loads((FIXTURES / "two-planes-p3.json").read_text())
    assert _routes_by_row(smooth) == _routes_by_row(linear)
    assert _routes_by_row(smooth)[0]["aluffi"] == -h_power(3, 2)


@pytest.mark.parametrize("chern, message", [
    ([2, 2, 1], "a total Chern class has constant term 1"),
    ([1, 2, 1, 1], "rank-2 bundle cannot have c_3 != 0"),
], ids=["constant-term", "c-above-the-rank"])
def test_a_normal_class_that_no_bundle_has_exits_2(tmp_path, capsys, chern, message):
    """The normal bundle's guards run where the locus is built: a total
    class with constant term other than 1, or with c_j != 0 above the rank,
    exits 2 with the path of ``normal``."""
    doc = _fixture_with_locus("two-planes-p3", {"kind": "smooth", "class": [0, 0, 1, 0],
                                                 "normal": {"rank": 2, "chern": chern}})
    assert main(["crosscheck", write_doc(tmp_path, doc)]) == EXIT_VALIDATION
    assert capsys.readouterr() == ("", f"error: hypersurfaces[0].sing_locus.normal: {message}\n")


@pytest.mark.parametrize("n", [5, 6])
def test_two_normal_crossing_factors_of_five_components(tmp_path, n):
    """27 strata each, so 729 strata tuples, with ci closures."""
    doc = normal_crossing_doc(n, [[1, 2, 1, 3, 1], [2, 1, 1, 1, 1]])
    assert [len(h["strata"]) for h in doc["hypersurfaces"]] == [27, 27]
    out = assert_runs_quickly(tmp_path, doc)
    assert out.endswith("crosscheck: AGREE\n")
    doc["hypersurfaces"][1]["strata"][-1]["chiF"] = 2
    proc = run_cli("crosscheck", write_doc(tmp_path, doc))
    assert proc.returncode == EXIT_DISAGREEMENT
    assert proc.stdout.decode("utf-8").endswith("crosscheck: DISAGREE\n")


def test_compute_rejects_float_coefficients(tmp_path, capsys):
    doc = plane_pair_doc()
    doc["intersection"] = {"csm": {"coeffs": [0, 0, 1.0, 2.0, 1]}}
    code = main(["compute", write_doc(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "intersection.csm.coeffs[2]" in err


def test_compute_missing_file(capsys):
    code = main(["compute", "no-such-file.json"])
    assert code == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


def test_compute_rational_coefficient_exits_2(tmp_path, capsys):
    doc = {
        "ambient": {"kind": "projective", "dim": 2},
        "transversal": True,
        "hypersurfaces": [
            {
                "name": "C",
                "degree": 3,
                "singularity": {"kind": "stratified"},
                "strata": [
                    {"name": "reg", "dim": 1, "chiF": 1},
                    {
                        "name": "node",
                        "dim": 0,
                        "chiF": 0,
                        "closure": {
                            "kind": "explicit",
                            "class": ["0", "0", "1"],
                            "csm": ["0", "0", "1/2"],
                        },
                    },
                ],
            }
        ],
    }
    code = main(["compute", write_doc(tmp_path, doc)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: hypersurfaces[0].strata[1].closure.csm[2]: expected [-]digits of at most 700 digits\n")


def test_a_rational_coefficient_stops_before_the_first_factor(tmp_path, capsys, monkeypatch):
    """Eight cubics in P^64 whose first factor's closure classes carry a
    1/2: the reader stops on the first one, and no factor is analysed."""
    doc = stratified_intersection_doc([MAX_STRATA] * MAX_HYPERSURFACES, n=MAX_AMBIENT_DIM)
    for s in doc["hypersurfaces"][0]["strata"][1:]:
        s["closure"] = {"kind": "explicit", "class": [0] * MAX_AMBIENT_DIM + [1],
                        "csm": ["0"] * MAX_AMBIENT_DIM + ["1/2"]}
    calls = []
    analyze = milnorcalc.engine._analyze_factor
    monkeypatch.setattr(milnorcalc.engine, "_analyze_factor", lambda h: calls.append(h.name) or analyze(h))
    code = main(["compute", write_doc(tmp_path, doc)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: hypersurfaces[0].strata[1].closure.csm[{MAX_AMBIENT_DIM}]: "
        f"expected [-]digits of at most {MAX_DIGITS} digits\n"
    )
    assert calls == []


def test_compute_json_output_round_trips(fixtures_dir, capsys):
    path = fixtures_dir / "paper-example.json"
    code = main(["compute", str(path), "--output", "json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    spec, intersection_csm, _ = load_document(str(path))
    report = compute_report(spec, None, intersection_csm)
    assert out == ref_json(report)
    data = json.loads(out)
    assert_classes_read_back(data, report)
    assert data["transversality_warning"] is True
    assert data["conventions"]["aluffi_global_sign"] == -1
    x_row = data["varieties"][-1]
    assert x_row["milnor"] == ["0", "0", "0", "-1", "0"]


def ref_report_dict(report, verdict=None) -> dict:
    """The report field by field, with the crosscheck ``verdict`` and each
    row's own verdict when given: the reference for ``report_to_json``."""
    def coeffs(c):
        if c is None:
            return None
        return list(map(str, c.integer_coeffs())) if c.is_integral() else [str(a) for a in c.coeffs]

    data = {
        "ambient_dim": report.ambient_dim,
        "transversality_asserted": report.transversality_asserted,
        "transversality_warning": report.used_product_routes,
        "conventions": report.conventions,
        "agree": report.all_agree,
        "varieties": [{
            "name": v.name, "kind": v.kind, "dim": v.dim, "cfj": coeffs(v.cfj),
            "csm": coeffs(v.csm), "csm_route": v.csm_route,
            "milnor_routes": [{"route": rv.route, "coeffs": coeffs(rv.value)} for rv in v.milnor],
            "skipped": [{"route": sk.route, "reason": sk.reason} for sk in v.skipped],
            "agree": v.agree, "milnor": coeffs(v.consensus),
        } for v in report.varieties],
    }
    if verdict is not None:
        data["verdict"] = verdict
        for row, v in zip(data["varieties"], report.varieties):
            row["verdict"] = "DISAGREE" if not v.agree else "AGREE" if len(v.milnor) >= 2 else "UNCHECKED"
    return data


def ref_json(report, verdict=None) -> str:
    return json.dumps(ref_report_dict(report, verdict), indent=2, sort_keys=True) + "\n"


hypersurface_names = st.text(st.sampled_from('"\\/é∩ ') | st.characters(), min_size=1, max_size=MAX_NAME)


@st.composite
def writer_docs(draw, parity):
    """A normal-crossing intersection, or isolated singularities alone or cut
    by a hyperplane, in P^n of the given parity, its hypersurfaces renamed."""
    kind = draw(st.sampled_from(["normal crossing", "isolated", "isolated and cut"]))
    if kind == "normal crossing":
        doc = draw(normal_crossing_docs(parity))
    else:
        n, d = 2 * draw(st.integers(1, 3)) + parity, draw(st.integers(2, 4))
        doc = isolated_singularities_doc(n, d, draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
        if kind == "isolated and cut":
            # an extra point in the c^SM of X ∩ H disagrees; in P^2 it would change its class
            doc = cut_by_a_hyperplane(doc, [d, 1], draw(st.integers(0, int(n > 2))))
    names = draw(st.lists(hypersurface_names.filter(str.isprintable), min_size=len(doc["hypersurfaces"]),
                          max_size=len(doc["hypersurfaces"]), unique=True))
    for h, name in zip(doc["hypersurfaces"], names):
        h["name"] = name
    return doc


def assert_json_outputs_match_the_reference(doc):
    spec, intersection_csm, _ = parse_document(doc)
    report = compute_report(spec, None, intersection_csm)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_doc(Path(tmp), doc)
        for argv, expected in ((["compute", path, "--output", "json"], ref_json(report)),
                               (["crosscheck", path, "--output", "json"], ref_json(report, crosscheck_verdict(report)))):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(argv)
            assert out.getvalue() == expected
    assert report_to_dict(report) == json.loads(ref_json(report))


@pytest.mark.parametrize("parity", [0, 1], ids=["even-n", "odd-n"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_json_writer_matches_the_reference(parity, data):
    """Compute JSON and crosscheck JSON, with its verdicts, are ``json.dumps``
    of the report written out field by field."""
    assert_json_outputs_match_the_reference(data.draw(writer_docs(parity)))


def test_json_writer_escapes_names():
    doc = cut_by_a_hyperplane(isolated_singularities_doc(4, 3, [2]), [3, 1])
    doc["hypersurfaces"][0]["name"], doc["hypersurfaces"][1]["name"] = 'a "b" \\c/', "é∩\U0001d4b3"
    assert_json_outputs_match_the_reference(doc)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_rendering_a_report_reads_integer_coefficients(fixtures_dir, name):
    """Every class of a report holds ints, and the renderers give the same
    text for a cold report and a warm one, whose memoised classes are
    shared with the first."""
    clear_class_memos()
    spec, intersection_csm, _ = load_document(str(fixtures_dir / f"{name}.json"))
    report = compute_report(spec, None, intersection_csm)
    texts = [render(report) for render in (render_crosscheck, render_text, report_to_json)]
    classes = [c for v in report.varieties for c in (v.cfj, v.csm, *(rv.value for rv in v.milnor))]
    assert all(type(a) is int for c in classes if isinstance(c, ChowClass) for a in c.coeffs)
    warm = compute_report(spec, None, intersection_csm)
    assert [render(warm) for render in (render_crosscheck, render_text, report_to_json)] == texts


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_text_renderers_format_each_class_object_once(fixtures_dir, monkeypatch, name):
    """Routes and rows share class objects; ``render_text`` and
    ``render_crosscheck`` format each distinct object once."""
    spec, intersection_csm, _ = load_document(str(fixtures_dir / f"{name}.json"))
    report = compute_report(spec, None, intersection_csm)
    expected = render_text(report), render_crosscheck(report)
    formatted = []
    fmt = milnorcalc.cli.format_class
    monkeypatch.setattr(milnorcalc.cli, "format_class", lambda c: formatted.append(c) or fmt(c))
    assert render_text(report) == expected[0]
    every = [c for v in report.varieties for c in (v.cfj, v.csm, *(rv.value for rv in v.milnor)) if c is not None]
    assert len(formatted) == len({id(c) for c in every}) < len(every)
    formatted.clear()
    assert render_crosscheck(report) == expected[1]
    assert len(formatted) == len({id(rv.value) for v in report.varieties for rv in v.milnor})


@pytest.mark.parametrize("argv", [["crosscheck"], ["compute", "--output", "json"]])
def test_a_reader_that_quits_early_ends_quietly(fixtures_dir, argv):
    """The reader closes its end before the child writes anything."""
    proc = subprocess.Popen([*CLI, *argv, str(fixtures_dir / "paper-example.json")],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CLI_ENV)
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert stderr == b""


@pytest.mark.parametrize("doc, code", [({}, EXIT_VALIDATION), (integrality_doc(), EXIT_VALIDATION)])
def test_an_error_message_to_a_closed_stderr_keeps_its_exit_code(tmp_path, doc, code):
    """stdout and stderr share one pipe whose reader quit at once, as in
    ``compute doc.json 2>&1 | head -c 0``: the message has nowhere to go,
    and the exit code still says what went wrong."""
    proc = subprocess.Popen([*CLI, "compute", write_doc(tmp_path, doc)],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=CLI_ENV)
    proc.stdout.close()
    assert proc.wait(timeout=60) == code


# -- the command line ---------------------------------------------------------

README = FIXTURES.parent / "README.md"


def test_the_readme_states_the_method_choices_and_the_exit_codes():
    """The ``compute`` synopsis offers exactly the routes of ``ROUTE_ORDER``
    after ``all``, and the "Exit codes" paragraph names exactly the values
    of the ``EXIT_*`` constants of ``cli``."""
    text = README.read_text(encoding="utf-8")
    [choices] = re.findall(r"^milnorcalc compute INPUT\.json \[--method ([^\]]+)\]", text, re.M)
    assert tuple(choices.split("|")) == ("all",) + ROUTE_ORDER
    [paragraph] = re.findall(r"^Exit codes: .*?(?=\n\n)", text, re.M | re.S)
    codes = {value for name, value in vars(milnorcalc.cli).items() if name.startswith("EXIT_")}
    assert {int(code) for code in re.findall(r"`(\d+)`", paragraph)} == codes == {0, 2, 3, 5, 141}


COMPUTE = {"command": "compute", "input": "in.json", "method": "all", "output": "text"}
CROSSCHECK = {"command": "crosscheck", "input": "in.json", "output": "text"}
IDENTITY = {"command": "identity", "n": 4, "r": 3, "trials": 100, "seed": 0}


@pytest.mark.parametrize("argv, fields", [
    ("compute in.json", COMPUTE),
    ("compute in.json --method pp --output json", COMPUTE | {"method": "pp", "output": "json"}),
    ("compute --method=aluffi --output=json in.json", COMPUTE | {"method": "aluffi", "output": "json"}),
    ("compute --output json in.json", COMPUTE | {"output": "json"}),
    ("compute in.json --out json --meth pp", COMPUTE | {"method": "pp", "output": "json"}),
    ("compute in.json --output json --output text", COMPUTE),
    ("crosscheck in.json", CROSSCHECK),
    ("crosscheck in.json --output json", CROSSCHECK | {"output": "json"}),
    ("crosscheck --o=json in.json", CROSSCHECK | {"output": "json"}),
    ("identity --n 4 --r 3", IDENTITY),
    ("identity --n 4 --r 3 --trials 10 --seed 42", IDENTITY | {"trials": 10, "seed": 42}),
    ("identity --r=3 --n=4 --t 7", IDENTITY | {"trials": 7}),
    ("identity --n 4 --r 3 --seed -4", IDENTITY | {"seed": -4}),
    ("identity --n 4 --r 3 --seed=-4", IDENTITY | {"seed": -4}),
])
def test_each_accepted_command_line_reaches_its_command(monkeypatch, argv, fields):
    """Both option forms, options on either side of the input, unique
    prefixes of long options, negative values, and the last of a repeat."""
    seen = []
    for command in ("compute", "crosscheck", "identity"):
        monkeypatch.setattr(milnorcalc.cli, f"cmd_{command}", lambda args: seen.append(args) or ("", "", EXIT_OK))
    assert main(argv.split()) == EXIT_OK
    [args] = seen
    assert {key: value for key, value in vars(args).items() if key != "func"} == fields


@pytest.mark.parametrize("argv, message", [
    ("", "required: command"),
    ("frobnicate", "invalid choice: 'frobnicate'"),
    ("compute", "required: input"),
    ("crosscheck", "required: input"),
    ("compute a.json b.json", "unrecognized arguments: b.json"),
    ("compute a.json --bogus", "unrecognized arguments: --bogus"),
    ("compute a.json --method x", "argument --method: invalid choice: 'x'"),
    ("crosscheck a.json --output x", "argument --output: invalid choice: 'x'"),
    ("crosscheck a.json --output", "argument --output: expected one argument"),
    ("identity --n x --r 2", "argument --n: invalid int value: 'x'"),
    ("identity --r 2", "required: --n"),
])
def test_each_usage_error_exits_2_with_the_usage_line(argv, message):
    proc = run_cli(*argv.split())
    err = proc.stderr.decode("utf-8")
    assert (proc.returncode, proc.stdout) == (EXIT_VALIDATION, b"")
    assert err.startswith("usage: milnorcalc")
    assert re.search(r"^milnorcalc( [a-z]+)?: error: .*" + re.escape(message), err, re.M), err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", ["", "compute", "crosscheck", "identity"])
def test_help_goes_to_stdout_and_exits_0(command, flag):
    proc = run_cli(*command.split(), flag)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
    assert proc.stdout.decode("utf-8").startswith(f"usage: milnorcalc {command}".rstrip())


@pytest.mark.parametrize("stream, argv, code", [
    ("stdout", ["--help"], EXIT_OK),
    ("stdout", ["compute", "--help"], EXIT_OK),
    ("stderr", ["frobnicate"], EXIT_VALIDATION),
    ("stderr", ["compute"], EXIT_VALIDATION),
    ("stderr", ["identity", "--n", "x", "--r", "2"], EXIT_VALIDATION),
])
def test_help_and_usage_errors_into_a_closed_stream_keep_their_exit_code(stream, argv, code):
    """The read end of the pipe is closed before the child writes."""
    read, write = os.pipe()
    os.close(read)
    try:
        other = "stderr" if stream == "stdout" else "stdout"
        proc = subprocess.run([*CLI, *argv], env=CLI_ENV, **{stream: write, other: subprocess.PIPE})
    finally:
        os.close(write)
    assert proc.returncode == code
    assert b"Traceback" not in getattr(proc, other)


@pytest.mark.parametrize("stderr", ["closed", "read-only"])
@pytest.mark.parametrize("doc", [None, {}], ids=["usage", "validation"])
def test_an_error_without_a_writable_stderr_exits_2(tmp_path, doc, stderr):
    """As in ``milnorcalc ... 2>&-``: descriptor 2 is closed from the start, so
    ``sys.stderr`` is None, or open for reading only, so writing fails with
    EBADF.  The message goes nowhere, and never to stdout."""
    argv = ["frobnicate"] if doc is None else ["compute", write_doc(tmp_path, doc)]
    with open(os.devnull, "rb") as read_only:
        how = {"preexec_fn": lambda: os.close(2)} if stderr == "closed" else {"stderr": read_only}
        proc = subprocess.run([*CLI, *argv], env=CLI_ENV, stdout=subprocess.PIPE, **how)
    assert (proc.returncode, proc.stdout) == (EXIT_VALIDATION, b"")


@pytest.mark.parametrize("argv", ["crosscheck nodal-cubic.json", "compute --output json nodal-cubic.json",
                                  "identity --n 3 --r 2 --trials 5"])
def test_output_without_a_stdout_exits_141(fixtures_dir, argv):
    """As in ``milnorcalc ... >&-``: descriptor 1 is closed from the start, so
    the output is lost as into a reader that quit early."""
    argv = [str(fixtures_dir / arg) if arg.endswith(".json") else arg for arg in argv.split()]
    proc = subprocess.run([*CLI, *argv], env=CLI_ENV, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("stderr", ["closed", "read-only"])
def test_a_disagreement_without_a_writable_stderr_exits_3_with_the_report(fixtures_dir, stderr):
    """The disagreement message is lost, and never lands in stdout; the
    report and the exit code stay as with a writable stderr."""
    expected = json.loads(ORACLE.read_text(encoding="utf-8"))["quadric-tangent-plane"]["compute_json_stdout"]
    with open(os.devnull, "rb") as read_only:
        how = {"preexec_fn": lambda: os.close(2)} if stderr == "closed" else {"stderr": read_only}
        proc = subprocess.run([*CLI, "compute", "--output", "json", str(fixtures_dir / "quadric-tangent-plane.json")],
                              env=CLI_ENV, stdout=subprocess.PIPE, **how)
    assert proc.returncode == EXIT_DISAGREEMENT
    assert proc.stdout == expected.encode("utf-8")


# -- crosscheck ---------------------------------------------------------------

def test_crosscheck_paper_example(fixtures_dir, capsys):
    code = main(["crosscheck", str(fixtures_dir / "paper-example.json")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "Z1: 6 routes, AGREE" in out
    assert "Z1 ∩ Z2: 5 routes, AGREE" in out
    assert "crosscheck: AGREE" in out


def test_crosscheck_remark_fixture(fixtures_dir, capsys):
    code = main(["crosscheck", str(fixtures_dir / "quadric-tangent-plane.json")])
    out = capsys.readouterr().out
    assert code == EXIT_DISAGREEMENT
    assert "DISAGREE" in out
    assert TRANSVERSALITY_WARNING in out


def test_crosscheck_smooth_suite_is_silent(fixtures_dir, capsys):
    code = main(["crosscheck", str(fixtures_dir / "smooth-suite.json")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "DISAGREE" not in out


@pytest.mark.parametrize(
    "name",
    [
        "paper-example.json",
        "two-planes-p3.json",
        "plane-pairs-p4.json",
        "nodal-cubic.json",
        "smooth-suite.json",
    ],
)
def test_crosscheck_shipped_fixtures_agree(fixtures_dir, capsys, name):
    code = main(["crosscheck", str(fixtures_dir / name)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "crosscheck: AGREE" in out


def test_crosscheck_skips_product_routes_without_assertion(tmp_path, capsys):
    doc = plane_pair_doc()
    doc["transversal"] = False
    code = main(["crosscheck", write_doc(tmp_path, doc)])
    out = capsys.readouterr().out
    # every route that needs the hypothesis is skipped on the
    # intersection row, so nothing is left to compare there
    assert code == EXIT_UNCHECKED
    assert "Z1 ∩ Z2: 0 routes, UNCHECKED" in out
    assert TRANSVERSALITY_WARNING not in out
    assert "transversality not asserted" in out


def test_crosscheck_detects_wrong_milnor_fibre_data(tmp_path, capsys):
    doc = plane_pair_doc()
    doc["hypersurfaces"][0]["strata"][1]["chiF"] = 2  # deliberately wrong
    code = main(["crosscheck", write_doc(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == EXIT_DISAGREEMENT
    assert "DISAGREE" in out


def test_a_disagreeing_row_outranks_an_unchecked_one(tmp_path):
    """W, the two planes of ``two-planes-p3`` with a wrong chiF on their
    axis, is DISAGREE; its intersection with a plane T, not asserted
    transversal, keeps only the definition route of its supplied class,
    so it is UNCHECKED; the overall verdict is DISAGREE."""
    doc = json.loads((FIXTURES / "two-planes-p3.json").read_text())
    doc["hypersurfaces"][0]["strata"][1]["chiF"] = 2
    doc["hypersurfaces"].append({"name": "T", "degree": 1, "singularity": {"kind": "smooth"}})
    doc["transversal"] = False
    doc["intersection"] = {"csm": {"combination": [{"kind": "linear", "dim": 1, "weight": 2},
                                                   {"kind": "linear", "dim": 0, "weight": -1}]}}
    proc = run_cli("crosscheck", write_doc(tmp_path, doc))
    out = proc.stdout.decode("utf-8")
    assert proc.returncode == EXIT_DISAGREEMENT
    assert re.search(r"^W: \d routes, DISAGREE\n", out, re.M) and "W ∩ T: 1 routes, UNCHECKED\n" in out
    assert out.endswith("\ncrosscheck: DISAGREE\n")


def test_intersection_pp_reports_missing_strata_data_factor_by_factor(tmp_path):
    """A's stratum a1 has a nonzero gamma and no closure class, and A's open
    stratum regA has no class either.  The intersection's pp route names a1,
    as A's own pp row does.  Earlier it named regA, the first missing class
    that the sum over strata tuples read."""
    doc = {
        "ambient": {"kind": "projective", "dim": 4},
        "transversal": True,
        "hypersurfaces": [
            {"name": "A", "degree": 2, "singularity": {"kind": "stratified"},
             "strata": [{"name": "regA", "dim": 3, "chiF": 1}, {"name": "a1", "dim": 2, "chiF": 0}]},
            {"name": "B", "degree": 2, "singularity": {"kind": "arrangement", "components": [1, 1]},
             "strata": [{"name": "regB", "dim": 3, "chiF": 1},
                        {"name": "b1", "dim": 2, "chiF": 0, "closure": {"kind": "linear", "dim": 2}}]},
        ],
    }
    proc = run_cli("crosscheck", write_doc(tmp_path, doc))
    out = proc.stdout.decode("utf-8")
    reason = "  (skipped pp: stratum a1: SM class of the closure is missing)\n"
    assert proc.returncode == EXIT_UNCHECKED
    assert (reason + "B: ") in out
    assert out.endswith(reason + "\ncrosscheck: UNCHECKED\n")
    assert "regA" not in out


@pytest.mark.parametrize("command", ["compute", "crosscheck"])
@pytest.mark.parametrize("name, routes", [
    ("quadric-tangent-plane", ["thm1", "expansion", "cor11"]),
    ("two-planes-p3", ["definition", "thm1"]),
], ids=["product-copies", "one-subtraction"])
def test_a_document_cannot_choose_its_routes(fixtures_dir, tmp_path, command, name, routes):
    """A document has no ``routes`` key: ``crosscheck`` runs every route,
    and ``compute --method`` filters the output.  Earlier the first
    document printed AGREE and exited 0 on three copies of one product,
    although the full document disagrees, and the second AGREE on a
    single subtraction."""
    doc = json.loads((fixtures_dir / f"{name}.json").read_text())
    doc["routes"] = routes
    proc = run_cli(command, write_doc(tmp_path, doc))
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stdout == b""
    assert proc.stderr.decode("utf-8") == "error: routes: unknown field\n"


def test_crosscheck_row_with_one_route_is_unchecked(fixtures_dir, tmp_path):
    """aluffi covers single hypersurfaces only, and without the assertion of
    transversality no product route runs, so the intersection row of the
    quadric and its tangent plane keeps definition alone: nothing to compare."""
    doc = json.loads((fixtures_dir / "quadric-tangent-plane.json").read_text())
    doc["transversal"] = False
    path = write_doc(tmp_path, doc)
    proc = run_cli("crosscheck", path)
    out = proc.stdout.decode("utf-8")
    assert proc.returncode == EXIT_UNCHECKED
    assert "Q: 6 routes, AGREE\n" in out
    assert "Q ∩ T: 1 routes, UNCHECKED\n" in out
    assert out.endswith("crosscheck: UNCHECKED\n")
    assert "AGREE" not in out.split("Q ∩ T: ")[1]
    compute = run_cli("compute", path)
    assert compute.returncode == EXIT_OK
    assert b"routes UNCHECKED" not in compute.stdout


@pytest.mark.parametrize(
    "name, edit, verdict, rows",
    [
        ("quadric-tangent-plane", {"transversal": False}, "UNCHECKED",
         {"Q": "AGREE", "T": "AGREE", "Q ∩ T": "UNCHECKED"}),
        ("quadric-tangent-plane", {}, "DISAGREE", {"Q ∩ T": "DISAGREE"}),
        ("paper-example", {}, "AGREE", {"Z1": "AGREE", "Z2": "AGREE", "Z1 ∩ Z2": "AGREE"}),
    ],
    ids=["quadric-tangent-plane-not-transversal", "quadric-tangent-plane", "paper-example"],
)
def test_crosscheck_json_carries_the_verdicts(fixtures_dir, tmp_path, name, edit, verdict, rows):
    """``agree`` only says that no two routes differ; the verdicts say
    whether anything was compared, as the exit code does."""
    doc = json.loads((fixtures_dir / f"{name}.json").read_text()) | edit
    path = write_doc(tmp_path, doc)
    proc = run_cli("crosscheck", path, "--output", "json")
    data = json.loads(proc.stdout)
    exits = {"AGREE": EXIT_OK, "DISAGREE": EXIT_DISAGREEMENT, "UNCHECKED": EXIT_UNCHECKED}
    assert proc.returncode == exits[verdict]
    assert data["verdict"] == verdict
    assert rows.items() <= {v["name"]: v["verdict"] for v in data["varieties"]}.items()
    assert "verdict" not in run_cli("compute", path, "--output", "json").stdout.decode("utf-8")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_default_output_matches_the_oracle(fixtures_dir, name):
    """Default crosscheck text and compute JSON, byte for byte, with their
    exit codes, as recorded in the benchmark's oracle."""
    expected = json.loads(ORACLE.read_text(encoding="utf-8"))[name]
    path = str(fixtures_dir / f"{name}.json")
    cross = run_cli("crosscheck", path)
    compute = run_cli("compute", path, "--output", "json")
    assert cross.stdout == expected["crosscheck_stdout"].encode("utf-8")
    assert cross.returncode == expected["crosscheck_exit"]
    assert compute.stdout == expected["compute_json_stdout"].encode("utf-8")
    assert compute.returncode == expected["compute_exit"]


@pytest.mark.parametrize("case", sorted(json.loads(JSON_OUTPUT.read_text(encoding="utf-8"))))
def test_json_output_matches_the_golden_file(fixtures_dir, tmp_path, case):
    """Compute and crosscheck JSON, byte for byte, with their exit codes, on
    every fixture and on fixtures whose ``edit`` of the top-level fields
    leaves a row UNCHECKED."""
    expected = json.loads(JSON_OUTPUT.read_text(encoding="utf-8"))[case]
    doc = json.loads((fixtures_dir / f"{expected['fixture']}.json").read_text(encoding="utf-8")) | expected["edit"]
    path = write_doc(tmp_path, doc)
    for command in ("compute", "crosscheck"):
        proc = run_cli(command, path, "--output", "json")
        assert proc.stdout == expected[f"{command}_stdout"].encode("utf-8")
        assert proc.returncode == expected[f"{command}_exit"]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_compute_text_matches_the_golden_file(fixtures_dir, name):
    expected = json.loads(COMPUTE_TEXT.read_text(encoding="utf-8"))[name]
    proc = run_cli("compute", str(fixtures_dir / f"{name}.json"))
    assert proc.stdout == expected["stdout"].encode("utf-8")
    assert proc.returncode == expected["exit"]


# -- identity ------------------------------------------------------------------

def test_identity_subcommand(capsys):
    code = main(["identity", "--n", "4", "--r", "3", "--trials", "100", "--seed", "42"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "failures=0" in out
    assert "total failures: 0" in out


def test_identity_rejects_bad_ranges(capsys):
    assert main(["identity", "--n", "4", "--r", "0"]) == EXIT_VALIDATION
    capsys.readouterr()
    assert main(["identity", "--n", "2", "--r", "3"]) == EXIT_VALIDATION


def test_identity_takes_the_document_caps():
    """r = n = 18 took 23 s and r = 64 never finished; at the caps the
    command takes a fraction of a second."""
    for n, r in [(MAX_AMBIENT_DIM + 1, 1), (MAX_HYPERSURFACES + 1, MAX_HYPERSURFACES + 1), (64, 64)]:
        start = time.perf_counter()
        proc = run_cli("identity", "--n", str(n), "--r", str(r), "--trials", "1")
        assert proc.returncode == EXIT_VALIDATION
        assert f"error: need n <= {MAX_AMBIENT_DIM} and r <= {MAX_HYPERSURFACES}" in proc.stderr.decode()
        assert b"Traceback" not in proc.stderr
        assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    proc = run_cli("identity", "--n", str(MAX_AMBIENT_DIM), "--r", str(MAX_HYPERSURFACES), "--trials", "1")
    assert proc.returncode == EXIT_OK
    assert time.perf_counter() - start < 1.0


def test_identity_output_is_deterministic(capsys):
    main(["identity", "--n", "3", "--r", "2", "--trials", "25", "--seed", "5"])
    first = capsys.readouterr().out
    check_identities.cache_clear()  # recompute, do not read the memo
    main(["identity", "--n", "3", "--r", "2", "--trials", "25", "--seed", "5"])
    second = capsys.readouterr().out
    assert first == second


# -- document parsing ----------------------------------------------------------

def test_parse_document_builds_valid_spec():
    spec, intersection_csm, third = parse_document(plane_pair_doc())
    assert spec.ambient_dim == 4
    assert spec.transversality_asserted
    assert intersection_csm is None
    assert third is None
    report = compute_report(spec)
    assert report.all_agree


def test_parse_document_field_paths_in_errors():
    doc = plane_pair_doc()
    del doc["hypersurfaces"][1]["degree"]
    with pytest.raises(ValidationError, match=r"hypersurfaces\[1\].degree"):
        parse_document(doc)


def test_arrangement_requires_transversal_flag(tmp_path, capsys):
    """Arrangements are pairwise transversal by definition, so the document
    has no flag for it, true or false, and the model has no such field."""
    for flag in (False, True):
        doc = plane_pair_doc()
        doc["hypersurfaces"][0]["singularity"]["pairwise_transversal"] = flag
        path = write_doc(tmp_path, doc)
        for command in ("compute", "crosscheck"):
            assert main([command, path]) == EXIT_VALIDATION
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: hypersurfaces[0].singularity.pairwise_transversal: unknown field\n"
    with pytest.raises(TypeError, match="pairwise_transversal"):
        Arrangement((1, 1), pairwise_transversal=False)


def test_parse_document_rejects_non_projective():
    doc = plane_pair_doc()
    doc["ambient"]["kind"] = "abelian"
    with pytest.raises(ValidationError, match="projective"):
        parse_document(doc)


def test_load_document_fixture_intersection_csm(fixtures_dir):
    spec, csm, _ = load_document(str(fixtures_dir / "quadric-tangent-plane.json"))
    assert csm is not None
    assert csm.integer_coeffs() == (0, 0, 2, 3)
