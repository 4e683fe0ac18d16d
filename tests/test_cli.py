import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import milnorcalc
from conftest import FIXTURES, normal_crossing_doc
from milnorcalc.cli import (
    EXIT_DISAGREEMENT,
    EXIT_INTEGRALITY,
    EXIT_OK,
    EXIT_UNCHECKED,
    EXIT_VALIDATION,
    MAX_AMBIENT_DIM,
    MAX_CLOSURE_DEGREES,
    MAX_COMPONENTS,
    MAX_DEGREE,
    MAX_HYPERSURFACES,
    MAX_STRATA,
    TRANSVERSALITY_WARNING,
    load_document,
    main,
    parse_document,
    report_from_json,
    report_to_json,
)
from milnorcalc.engine import compute_report
from milnorcalc.varieties import Arrangement, ValidationError

ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "oracle" / "fixtures.json"


def run_cli(*argv):
    """``milnorcalc`` as a child process, the way a user runs it."""
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(milnorcalc.__file__).parent.parent),
        PYTHONIOENCODING="utf-8",
    )
    return subprocess.run(
        [sys.executable, "-m", "milnorcalc.cli", *argv], capture_output=True, env=env
    )


def write_doc(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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


# -- the normal-crossing family ------------------------------------------------

def crosscheck_exit(doc) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        return main(["crosscheck", write_doc(Path(tmp), doc)])


@st.composite
def normal_crossing_docs(draw, parity):
    """One or two arrangements in P^n, n of the given parity, each of one
    to four components of degree 1-3."""
    n = 2 * draw(st.integers(1, 3)) + parity
    factors = draw(st.lists(
        st.lists(st.integers(1, 3), min_size=1, max_size=4), min_size=1, max_size=2
    ))
    return normal_crossing_doc(n, factors)


@pytest.mark.parametrize("parity", [0, 1], ids=["even-n", "odd-n"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_normal_crossing_family_agrees(parity, data):
    """Every row agrees on at least two routes, and a chiF changed to 1 or 2
    on any stratum but the open one makes some row disagree."""
    doc = data.draw(normal_crossing_docs(parity))
    assert crosscheck_exit(doc) == EXIT_OK
    strata = [s for h in doc["hypersurfaces"] for s in h["strata"][1:]]
    if strata:
        data.draw(st.sampled_from(strata))["chiF"] = data.draw(st.sampled_from([1, 2]))
        assert crosscheck_exit(doc) == EXIT_DISAGREEMENT


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


def test_compute_integrality_failure(tmp_path, capsys):
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
    err = capsys.readouterr().err
    assert code == EXIT_INTEGRALITY
    assert "non-integral" in err
    assert "route" in err


def test_compute_json_output_round_trips(fixtures_dir, capsys):
    code = main([
        "compute", str(fixtures_dir / "paper-example.json"), "--output", "json",
    ])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    rendered = out.strip()
    assert report_to_json(report_from_json(rendered)) == rendered
    data = json.loads(rendered)
    assert data["transversality_warning"] is True
    assert data["conventions"]["aluffi_global_sign"] == -1
    x_row = data["varieties"][-1]
    assert x_row["milnor"] == ["0", "0", "0", "-1", "0"]


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


@pytest.mark.parametrize("routes", [[], ["definition"], ["pp", "pp"]], ids=["none", "one", "repeated"])
def test_crosscheck_needs_two_distinct_routes(fixtures_dir, tmp_path, capsys, routes):
    """With fewer than two routes every row agrees vacuously, so the
    known DISAGREE case would pass; compute still takes one route."""
    doc = json.loads((fixtures_dir / "quadric-tangent-plane.json").read_text())
    doc["routes"] = routes
    path = write_doc(tmp_path, doc)
    assert main(["crosscheck", path]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: routes: crosscheck needs at least two distinct routes" in captured.err
    if routes:
        assert main(["compute", path]) == EXIT_OK
        assert "routes AGREE" in capsys.readouterr().out


def test_crosscheck_row_with_one_route_is_unchecked(fixtures_dir, tmp_path):
    """aluffi covers single hypersurfaces only, so the intersection row of
    the non-transversal fixture keeps definition alone: nothing to compare."""
    doc = json.loads((fixtures_dir / "quadric-tangent-plane.json").read_text())
    doc["routes"] = ["definition", "aluffi"]
    path = write_doc(tmp_path, doc)
    proc = run_cli("crosscheck", path)
    out = proc.stdout.decode("utf-8")
    assert proc.returncode == EXIT_UNCHECKED
    assert "Q: 2 routes, AGREE\n" in out
    assert "Q ∩ T: 1 routes, UNCHECKED\n" in out
    assert out.endswith("crosscheck: UNCHECKED\n")
    assert "AGREE" not in out.split("Q ∩ T: ")[1]
    compute = run_cli("compute", path)
    assert compute.returncode == EXIT_OK
    assert b"routes UNCHECKED" not in compute.stdout


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.json")))
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


def test_identity_output_is_deterministic(capsys):
    main(["identity", "--n", "3", "--r", "2", "--trials", "25", "--seed", "5"])
    first = capsys.readouterr().out
    main(["identity", "--n", "3", "--r", "2", "--trials", "25", "--seed", "5"])
    second = capsys.readouterr().out
    assert first == second


# -- document parsing ----------------------------------------------------------

def test_parse_document_builds_valid_spec():
    spec, intersection_csm, routes = parse_document(plane_pair_doc())
    assert spec.ambient_dim == 4
    assert spec.transversality_asserted
    assert intersection_csm is None
    assert routes is None
    report = compute_report(spec)
    assert report.all_agree


def test_parse_document_routes_filter(tmp_path, capsys):
    doc = plane_pair_doc()
    doc["routes"] = ["definition", "pp"]
    code = main(["compute", write_doc(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "thm1" not in out


def test_parse_document_rejects_unknown_route():
    doc = plane_pair_doc()
    doc["routes"] = ["definition", "bogus"]
    with pytest.raises(ValidationError, match="unknown routes"):
        parse_document(doc)


def test_parse_document_field_paths_in_errors():
    doc = plane_pair_doc()
    del doc["hypersurfaces"][1]["degree"]
    with pytest.raises(ValidationError, match=r"hypersurfaces\[1\].degree"):
        parse_document(doc)


def test_arrangement_requires_transversal_flag(tmp_path, capsys):
    """Only pairwise-transversal arrangements are supported, so the parser
    rejects the flag set to false and the model has no such field."""
    doc = plane_pair_doc()
    doc["hypersurfaces"][0]["singularity"]["pairwise_transversal"] = False
    path = write_doc(tmp_path, doc)
    for command in ("compute", "crosscheck"):
        assert main([command, path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            "error: hypersurfaces[0].singularity.pairwise_transversal: "
            "only pairwise-transversal arrangements are supported" in captured.err
        )
    doc["hypersurfaces"][0]["singularity"]["pairwise_transversal"] = True
    spec, _, _ = parse_document(doc)
    assert spec.hypersurfaces[0].singularity == Arrangement((1, 1))
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
