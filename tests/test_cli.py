import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import milnorcalc
from milnorcalc.cli import (
    EXIT_DISAGREEMENT,
    EXIT_INTEGRALITY,
    EXIT_OK,
    EXIT_VALIDATION,
    MAX_AMBIENT_DIM,
    MAX_COMPONENTS,
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
from milnorcalc.varieties import ValidationError


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
    ],
    ids=["dim", "hypersurfaces", "components", "components-in-all"],
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
    # intersection row, so nothing is left to disagree
    assert code == EXIT_OK
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


def test_parse_document_rejects_non_projective():
    doc = plane_pair_doc()
    doc["ambient"]["kind"] = "abelian"
    with pytest.raises(ValidationError, match="projective"):
        parse_document(doc)


def test_load_document_fixture_intersection_csm(fixtures_dir):
    spec, csm, _ = load_document(str(fixtures_dir / "quadric-tangent-plane.json"))
    assert csm is not None
    assert csm.integer_coeffs() == (0, 0, 2, 3)
