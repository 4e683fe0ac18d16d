"""Acceptance gate: one test per criterion, every comparison exact.

Each test prints its own PASS/FAIL line so the gate reads as a
checklist under ``pytest tests/test_acceptance.py -v -s``.
"""

import contextlib
import random

from milnorcalc.chow import make_class, one, zero
from milnorcalc.cli import (
    EXIT_DISAGREEMENT,
    TRANSVERSALITY_WARNING,
    load_document,
    main,
)
from milnorcalc.engine import (
    cfj_ci,
    compute_report,
    csm_inclusion_exclusion,
    gamma_weights,
    milnor_definition,
    milnor_from_mu,
    milnor_from_strata,
    mu_class,
)
from milnorcalc.identities import check_expansion_identity, check_telescope_identity
from milnorcalc.varieties import (
    Arrangement,
    HypersurfaceSpec,
    LinearLocus,
    Stratification,
    Stratum,
    csm_linear_subspace,
)
from milnorcalc.bundles import chern_cotangent, chern_line, chern_twist

from conftest import FIXTURES


def cls(n, *coeffs):
    return make_class(n, list(coeffs))


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def test_criterion_1_cfj_and_csm_of_z1():
    with criterion(1, "c^FJ(Z1) and c^SM(Z1) match the known values"):
        z1 = HypersurfaceSpec("Z1", 4, 2, Arrangement((1, 1)))
        assert cfj_ci(z1) == cls(4, 0, 2, 6, 8, 4)
        assert csm_inclusion_exclusion(z1) == cls(4, 0, 2, 7, 9, 5)


def test_criterion_2_milnor_z1_three_routes():
    with criterion(2, "M(Z1) = H^2+H^3+H^4 via definition, mu-class and strata"):
        expected = cls(4, 0, 0, 1, 1, 1)
        z1 = HypersurfaceSpec("Z1", 4, 2, Arrangement((1, 1)))
        by_definition = milnor_definition(
            cfj_ci(z1), csm_inclusion_exclusion(z1), 3
        )
        by_mu = milnor_from_mu(mu_class(4, 2, LinearLocus(2)), 2, 4)
        strat = gamma_weights(
            Stratification(
                (
                    Stratum("reg", 3, chi_fiber=1),
                    Stratum(
                        "sing", 2, chi_fiber=0, csm_closure=csm_linear_subspace(4, 2)
                    ),
                )
            )
        )
        by_strata = milnor_from_strata(strat, 2, 4)
        assert by_definition == by_mu == by_strata == expected


def test_criterion_3_milnor_of_the_intersection_all_routes():
    with criterion(3, "M(Z1 n Z2) = -H^3 on every applicable route"):
        spec, icsm, _ = load_document(str(FIXTURES / "paper-example.json"))
        report = compute_report(spec, None, icsm)
        x_row = report.varieties[-1]
        routes = {rv.route: rv.value for rv in x_row.milnor}
        assert set(routes) == {"definition", "thm1", "expansion", "cor11", "pp"}
        expected = cls(4, 0, 0, 0, -1, 0)
        assert all(value == expected for value in routes.values())


def test_criterion_4_non_transversal_fixture(capsys):
    with criterion(4, "non-transversal fixture: definition H^3, product rule 0, exit 3"):
        spec, icsm, _ = load_document(str(FIXTURES / "quadric-tangent-plane.json"))
        report = compute_report(spec, None, icsm)
        x_row = report.varieties[-1]
        routes = {rv.route: rv.value for rv in x_row.milnor}
        point = make_class(3, [0, 0, 0, 1])
        assert routes["definition"] == point
        assert routes["thm1"] == zero(3)
        assert not x_row.agree
        code = main(["crosscheck", str(FIXTURES / "quadric-tangent-plane.json")])
        out = capsys.readouterr().out
        assert code == EXIT_DISAGREEMENT
        assert "DISAGREE" in out
        assert TRANSVERSALITY_WARNING in out


def test_criterion_5_identity_sweep():
    with criterion(5, "expansion and cor11 identities: zero failures on the full grid"):
        for n in range(2, 9):
            for r in range(1, min(4, n) + 1):
                assert check_expansion_identity(n, r, trials=100, seed=1054).passed
                assert check_telescope_identity(n, r, trials=100, seed=1054).passed


def test_criterion_6_property_suite():
    with criterion(6, "exact algebra properties: zero failures"):
        rng = random.Random(60992)

        def rand(n):
            return make_class(n, [rng.randint(-9, 9) for _ in range(n + 1)])

        for _ in range(200):
            n = rng.randint(0, 6)
            a, b, c = rand(n), rand(n), rand(n)
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a.dual().dual() == a
            assert (a * b).dual() == a.dual() * b.dual()
            u, v = rng.randint(-4, 4), rng.randint(-4, 4)
            assert a.tensor_line(u).tensor_line(v) == a.tensor_line(u + v)
            assert a.tensor_line(u).dual() == a.dual().tensor_line(-u)

        for n in range(2, 9):
            for _ in range(200):
                coeffs = [rng.randint(-9, 9) for _ in range(n + 1)]
                coeffs[0] = rng.choice([1, -1])  # a unit of Z[H]/(H^(n+1))
                unit = make_class(n, coeffs)
                assert unit * unit.invert() == one(n)

        for n in range(2, 9):
            for d in range(1, 7):
                twisted = chern_twist(chern_cotangent(n), n, d)
                independent = (
                    make_class(n, [1, d - 1]) ** (n + 1)
                    * chern_line(n, d).invert()
                )
                assert twisted == independent


def test_criterion_7_smoothness_and_euler_characteristics():
    with criterion(7, "smooth suite vanishes; integrals match Euler characteristics"):
        spec, icsm, _ = load_document(str(FIXTURES / "smooth-suite.json"))
        report = compute_report(spec, None, icsm)
        for row in report.varieties:
            assert row.milnor, row.name
            for rv in row.milnor:
                assert rv.value == zero(4), (row.name, rv.route)
        # the smooth (1,2,3) intersection is a genus-4 curve
        assert report.varieties[-1].csm.integral() == -6

        paper_spec, paper_icsm, _ = load_document(str(FIXTURES / "paper-example.json"))
        paper = compute_report(paper_spec, None, paper_icsm)
        assert paper.varieties[0].csm.integral() == 5   # chi(Z1) = 4 + 4 - 3
        assert paper.varieties[1].csm.integral() == 4   # chi(P^3)
        assert paper.varieties[2].csm.integral() == 4   # chi(Z1 n Z2) = 3 + 3 - 2
        for n in range(11):
            for k in range(n + 1):
                assert csm_linear_subspace(n, k).integral() == k + 1
