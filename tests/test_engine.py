import itertools
import json
import random
import time
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from milnorcalc import engine
from milnorcalc.bundles import (
    chern_cotangent,
    chern_line,
    chern_tangent,
    chern_twist,
    fundamental_class_ci,
    segre_smooth,
)
from milnorcalc.chow import ChowClass, _sign, h_power, line_power, make_class, one, zero
from milnorcalc.cli import load_document, main, parse_document
from milnorcalc.engine import (
    IntegralityError,
    ROUTE_ORDER,
    _aluffi_of_linear_locus,
    _analyze_factor,
    _build_row,
    _cfj,
    cfj_ci,
    compute_report,
    csm_inclusion_exclusion,
    csm_intersection_inclusion_exclusion,
    csm_smooth_ci,
    csm_smooth_ci_degrees,
    gamma_weights,
    local_milnor_number,
    milnor_definition,
    milnor_expansion,
    milnor_from_mu,
    milnor_from_strata,
    milnor_from_strata_ci,
    milnor_product,
    milnor_telescope,
    mu_class,
    product_rule,
    trivial_stratification,
)
from milnorcalc.varieties import (
    Arrangement,
    CompleteIntersectionSpec,
    HypersurfaceSpec,
    LinearLocus,
    Smooth,
    Stratification,
    Stratified,
    Stratum,
    csm_linear_subspace,
    open_stratum,
)

from conftest import (
    COMPUTE_TEXT,
    FIXTURES,
    ORACLE,
    chow_class,
    clear_class_memos,
    coefficients,
    isolated_singularities_doc,
    normal_crossing_doc,
)


def cls(n, *coeffs):
    return make_class(n, list(coeffs))


# -- shared fixtures --------------------------------------------------------

Z1 = HypersurfaceSpec(
    "Z1",
    4,
    2,
    Arrangement((1, 1)),
    LinearLocus(2),
    Stratification(
        (
            Stratum("reg", 3, chi_fiber=1),
            Stratum("sing", 2, chi_fiber=0, csm_closure=csm_linear_subspace(4, 2)),
        )
    ),
)
Z2 = HypersurfaceSpec("Z2", 4, 1, Smooth())
PAPER_CI = CompleteIntersectionSpec(4, (Z1, Z2), True)

CFJ_Z1 = cls(4, 0, 2, 6, 8, 4)
CSM_Z1 = cls(4, 0, 2, 7, 9, 5)
M_Z1 = cls(4, 0, 0, 1, 1, 1)
CFJ_Z2 = cls(4, 0, 1, 4, 6, 4)
CFJ_X = cls(4, 0, 0, 2, 4, 4)
CSM_X = cls(4, 0, 0, 2, 5, 4)
M_X = cls(4, 0, 0, 0, -1, 0)

# a pair of planes through a common line in P^3 (odd-dimensional ambient)
PAIR_P3 = HypersurfaceSpec(
    "W",
    3,
    2,
    Arrangement((1, 1)),
    LinearLocus(1),
    Stratification(
        (
            Stratum("reg", 2, chi_fiber=1),
            Stratum("axis", 1, chi_fiber=0, csm_closure=csm_linear_subspace(3, 1)),
        )
    ),
)
M_PAIR_P3 = cls(3, 0, 0, -1, 0)


def random_classes(rng, n, count):
    return [
        ChowClass(n, tuple(rng.randint(-9, 9) for _ in range(n + 1)))
        for _ in range(count)
    ]


# -- virtual and SM classes -------------------------------------------------

def test_cfj_paper_values():
    assert cfj_ci(Z1) == CFJ_Z1
    assert cfj_ci(Z2) == CFJ_Z2
    assert cfj_ci(PAPER_CI) == CFJ_X


def test_csm_smooth_values():
    assert csm_smooth_ci(Z2) == CFJ_Z2
    quadric = HypersurfaceSpec("Q", 3, 2, Smooth())
    csm_q = csm_smooth_ci(quadric)
    assert csm_q == cls(3, 0, 2, 4, 4)
    assert csm_q.integral() == 4  # chi of a smooth quadric surface
    hyperplane = HypersurfaceSpec("P", 5, 1, Smooth())
    assert csm_smooth_ci(hyperplane) == cls(5, 1, 1) ** 5 * h_power(5, 1)


def test_csm_smooth_rejects_singular_input():
    with pytest.raises(ValueError):
        csm_smooth_ci(Z1)


def test_csm_inclusion_exclusion_paper_value():
    assert csm_inclusion_exclusion(Z1) == CSM_Z1


def test_csm_inclusion_exclusion_single_component():
    lone = HypersurfaceSpec("L", 4, 2, Arrangement((2,)))
    assert csm_inclusion_exclusion(lone) == csm_smooth_ci_degrees(4, [2])


def test_csm_intersection_inclusion_exclusion():
    assert csm_intersection_inclusion_exclusion(PAPER_CI) == CSM_X
    # same value assembled by hand from linear subspaces
    assert CSM_X == 2 * csm_linear_subspace(4, 2) - csm_linear_subspace(4, 1)


def test_csm_empty_intersection_vanishes():
    assert csm_smooth_ci_degrees(2, [1, 1, 1]) == zero(2)


def test_no_hypersurfaces_leave_the_whole_ambient_space():
    """With nothing cut out, c^FJ and c^SM are both c(TP^n)."""
    assert _cfj(3, []) == csm_smooth_ci_degrees(3, []) == chern_tangent(3)
    (row,) = compute_report(CompleteIntersectionSpec(3, ())).varieties
    assert row.cfj == row.csm == chern_tangent(3) and row.agree


def enumerated_csm(n, per_factor):
    """Reference c^SM: inclusion-exclusion over every non-empty subset of
    the pieces cut by one component per factor, 2^(prod k_i) - 1 terms,
    each the SM (= virtual) class of a smooth complete intersection."""
    smooth = {}

    def csm(degs):
        key = tuple(sorted(degs))
        if key not in smooth:
            hs = tuple(HypersurfaceSpec(f"H{i}", n, d, Smooth()) for i, d in enumerate(key))
            smooth[key] = (
                zero(n) if len(key) > n else cfj_ci(CompleteIntersectionSpec(n, hs, True))
            )
        return smooth[key]

    pieces = [
        frozenset(enumerate(choice))
        for choice in itertools.product(*(range(len(c)) for c in per_factor))
    ]
    total = zero(n)
    for size in range(1, len(pieces) + 1):
        for subset in itertools.combinations(pieces, size):
            components = sorted(frozenset().union(*subset))
            total += (-1) ** (size + 1) * csm([per_factor[i][j] for i, j in components])
    return total


@st.composite
def arrangement_intersections(draw, max_pieces=9):
    """Transversal intersections in P^n (n <= 7) of at most three factors,
    each smooth or an arrangement of components of degree 1-3, with at
    most ``max_pieces`` pieces cut by one component per factor.  The
    components often outnumber n, so the subsets of more than n of them,
    which cut out nothing, are covered too."""
    n = draw(st.integers(1, 7))
    r = draw(st.integers(1, min(3, n)))
    factors, pieces = [], 1
    for i in range(r):
        degs = draw(st.lists(st.integers(1, 3), min_size=1, max_size=max_pieces // pieces))
        pieces *= len(degs)
        if len(degs) == 1 and draw(st.booleans()):
            singularity = Smooth()
        else:
            singularity = Arrangement(tuple(degs))
        factors.append(HypersurfaceSpec(f"F{i}", n, sum(degs), singularity))
    return CompleteIntersectionSpec(n, tuple(factors), True)


@settings(max_examples=60, deadline=None)
@given(arrangement_intersections())
def test_grouped_inclusion_exclusion_matches_subset_enumeration(ci):
    """The closed form against the enumeration of every subset of pieces."""
    n = ci.ambient_dim
    per_factor = [
        (h.degree,) if isinstance(h.singularity, Smooth) else h.singularity.component_degrees
        for h in ci.hypersurfaces
    ]
    expected = enumerated_csm(n, per_factor)
    assert csm_intersection_inclusion_exclusion(ci).coeffs == expected.coeffs
    for h, degs in zip(ci.hypersurfaces, per_factor):
        if isinstance(h.singularity, Arrangement):
            assert csm_inclusion_exclusion(h).coeffs == enumerated_csm(n, [degs]).coeffs


@pytest.mark.parametrize("counts", [(3, 3, 3), (4, 4)], ids=["three-triples", "4+4"])
def test_hyperplane_arrangements_in_p8_agree_quickly(counts):
    """Three triples of hyperplanes make 27 pieces (about 1.3e8 subsets
    to enumerate); the closed form needs one ring product per factor."""
    factors = tuple(
        HypersurfaceSpec(f"A{i}", 8, k, Arrangement((1,) * k)) for i, k in enumerate(counts)
    )
    ci = CompleteIntersectionSpec(8, factors, True)
    routes = ["definition", "thm1", "expansion", "cor11"]
    start = time.perf_counter()
    report = compute_report(ci, methods=set(routes))
    elapsed = time.perf_counter() - start
    x_row = report.varieties[-1]
    assert [rv.route for rv in x_row.milnor] == routes
    assert x_row.agree and report.all_agree
    assert x_row.csm_route == "inclusion-exclusion"
    assert elapsed < 1.0


def pair_cut_by_hyperplane(n):
    """A pair of hyperplanes, singular along a P^(n-2), cut by a hyperplane."""
    pair = HypersurfaceSpec(
        "pair",
        n,
        2,
        Arrangement((1, 1)),
        LinearLocus(n - 2),
        Stratification(
            (
                Stratum("reg", n - 1, chi_fiber=1),
                Stratum("axis", n - 2, chi_fiber=0, csm_closure=csm_linear_subspace(n, n - 2)),
            )
        ),
    )
    return CompleteIntersectionSpec(n, (pair, HypersurfaceSpec("H", n, 1, Smooth())), True)


def test_pair_of_hyperplanes_cut_by_a_hyperplane_in_p128_agrees_quickly():
    """Long products in the truncated ring: about 12 s with Fraction
    coefficients, well under a second on integer numerators."""
    routes = ["definition", "thm1", "expansion", "cor11", "pp"]
    start = time.perf_counter()
    report = compute_report(pair_cut_by_hyperplane(128), methods=set(routes))
    elapsed = time.perf_counter() - start
    x_row = report.varieties[-1]
    assert [rv.route for rv in x_row.milnor] == routes
    assert x_row.agree and report.all_agree
    assert elapsed < 2.0


def test_line_bundle_classes_take_closed_forms_in_a_report(monkeypatch):
    """c(O(d))^(-1), c(T*P^n (x) O(d)) and the Segre class of a linear
    locus are closed forms: the only twist left is the regrading of the
    mu-class in ``milnor_from_mu``, one per row with a singular-locus
    descriptor; no bundle function is called, and c(TP^n) is read from
    its memo."""
    n = 32
    ci = pair_cut_by_hyperplane(n)
    clear_class_memos()
    chern_tangent(n)
    misses = chern_tangent.cache_info().misses
    twists, bundle_calls = [], []
    tensor_line = ChowClass.tensor_line
    monkeypatch.setattr(ChowClass, "tensor_line", lambda c, t: twists.append(t) or tensor_line(c, t))
    for name in ("chern_cotangent", "chern_line", "chern_twist"):
        monkeypatch.setattr(engine, name, lambda *args, name=name: bundle_calls.append(name))
    report = compute_report(ci)
    assert report.all_agree
    assert "aluffi" in [rv.route for rv in report.varieties[0].milnor]
    assert twists == [h.degree for h in ci.hypersurfaces if h.sing_locus is not None] == [2]
    assert bundle_calls == []
    assert chern_tangent.cache_info().misses == misses
    twists.clear()  # the mu-class route of a linear locus is memoised
    assert compute_report(ci) == report
    assert twists == []


def test_a_smooth_factor_computes_its_cfj_once(monkeypatch):
    """The SM class of a smooth factor is its c^FJ, taken from the one
    division by c(O(d)), not computed a second time; a second factor of
    the same degree reads c^FJ from the memo."""
    clear_class_memos()
    divide, calls = ChowClass.__truediv__, []
    monkeypatch.setattr(ChowClass, "__truediv__", lambda c, u: calls.append(u) or divide(c, u))
    factor = _analyze_factor(HypersurfaceSpec("S", 16, 5, Smooth()))
    assert len(calls) == 1
    assert factor.csm == factor.cfj == _cfj(16, [5])
    assert factor.csm_route == "smooth model"
    calls.clear()
    assert _analyze_factor(HypersurfaceSpec("S", 16, 5, Smooth())) == factor
    assert calls == []


@pytest.mark.parametrize("doc", [json.loads((FIXTURES / "paper-example.json").read_text(encoding="utf-8")),
                                 normal_crossing_doc(4, [[1, 1], [1, 2], [2]])],
                         ids=["paper-example", "three-arrangements"])
def test_a_report_computes_each_factors_pp_once(monkeypatch, doc):
    """The intersection's ``pp`` is built from the classes its factor rows
    hold: one ``milnor_from_strata`` call per factor with a stratification."""
    spec, intersection_csm, _ = parse_document(doc)
    clear_class_memos()
    calls = []
    monkeypatch.setattr(engine, "milnor_from_strata",
                        lambda strat, d, n: calls.append(d) or milnor_from_strata(strat, d, n))
    report = compute_report(spec, None, intersection_csm)
    assert calls == [h.degree for h in spec.hypersurfaces]
    monkeypatch.undo()
    pp = {rv.route: rv.value for rv in report.varieties[-1].milnor}["pp"]
    strats = [_analyze_factor(h).strat for h in spec.hypersurfaces]
    assert pp == milnor_from_strata_ci(strats, [h.degree for h in spec.hypersurfaces], spec.ambient_dim)
    assert report.all_agree


def _fixture_doc(name):
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


def _with_moved_chif(doc, step):
    """A copy of ``doc`` whose first stratified factor has its first
    non-open chiF moved by ``step``: that factor's ``pp`` then differs
    from its ``definition``."""
    doc = json.loads(json.dumps(doc))
    next(h for h in doc["hypersurfaces"] if h.get("strata", [])[1:])["strata"][1]["chiF"] += step
    return doc


@pytest.mark.parametrize("doc, evaluations", [
    *[pytest.param(_fixture_doc(name), 1, id=name)
      for name in ("paper-example", "plane-pairs-p4", "quadric-tangent-plane", "smooth-suite")],
    pytest.param(normal_crossing_doc(4, [[1, 1], [1, 2], [2]]), 1, id="three-arrangements"),
    *[pytest.param(_with_moved_chif(_fixture_doc(name), step), 2, id=f"{name}-chiF{step:+d}")
      for name in ("paper-example", "plane-pairs-p4") for step in (1, -1)],
    *[pytest.param(_with_moved_chif(normal_crossing_doc(5, [[1, 1, 2], [1, 1]]), step), 2,
                   id=f"two-arrangements-chiF{step:+d}") for step in (1, -1)],
])
def test_an_intersection_row_evaluates_the_product_rule_once_per_input(monkeypatch, doc, evaluations):
    """The intersection's ``pp`` takes thm1's class when its inputs are
    thm1's, that is when every factor's ``pp`` equals its ``definition``:
    one ``milnor_product`` call per report.  A factor whose ``pp`` differs
    makes a second call, for ``pp`` alone, and the row disagrees."""
    spec, intersection_csm, _ = parse_document(doc)
    clear_class_memos()
    calls = []
    monkeypatch.setattr(engine, "milnor_product", lambda *args: calls.append(args) or milnor_product(*args))
    report = compute_report(spec, None, intersection_csm)
    monkeypatch.undo()
    assert len(calls) == evaluations
    *factor_routes, routes = [{rv.route: rv.value for rv in row.milnor} for row in report.varieties]
    shared = evaluations == 1
    assert all(f["pp"] == f["definition"] for f in factor_routes) == shared
    strats = [_analyze_factor(h).strat for h in spec.hypersurfaces]
    assert routes["pp"] == milnor_from_strata_ci(strats, [h.degree for h in spec.hypersurfaces], spec.ambient_dim)
    assert (routes["pp"] == routes["thm1"]) == shared
    if not shared:
        assert not report.varieties[-1].agree


@st.composite
def ambient_and_degrees(draw):
    """P^n with n = 1..64 and 1..min(8, n) degrees in 1..1000, drawn from
    a pool of at most three so that degrees repeat."""
    n = draw(st.integers(1, 64))
    pool = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=3))
    return n, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=min(8, n)))


@settings(max_examples=60, deadline=None)
@given(ambient_and_degrees())
@example((63, [1000, 1000, 7]))
@example((64, [1, 1, 2, 2, 3, 3, 3, 999]))
def test_cfj_matches_the_bundle_composition(case):
    n, degrees = case
    lines = prod([chern_line(n, d) for d in degrees], start=one(n))
    expected = chern_tangent(n) * lines.invert() * fundamental_class_ci(n, degrees)
    assert _cfj(n, degrees) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(1, 1000), st.integers(0, 63))
@example(63, 1000, 61)
@example(64, 2, 62)
def test_mu_class_of_a_linear_locus_matches_the_bundle_composition(n, d, j):
    k = j % n
    normal = chern_line(n, 1) ** (n - k)
    expected = chern_twist(chern_cotangent(n), n, d) * segre_smooth(normal, h_power(n, n - k))
    assert mu_class(n, d, LinearLocus(k)) == expected


# -- memoised classes ---------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(2, 32), st.integers(1, 6), st.integers(0, 30))
@example(32, 6, 30)
@example(2, 1, 0)
def test_the_memoised_linear_locus_route_is_the_mu_class_route(n, d, j):
    k = j % (n - 1)
    expected = milnor_from_mu(mu_class(n, d, LinearLocus(k)), d, n)
    assert _aluffi_of_linear_locus(n, d, k) == expected
    assert _aluffi_of_linear_locus(n, d, k) == expected  # read back from the memo


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cfj_is_one_class_for_any_order_of_its_degrees(data):
    n, degrees = data.draw(ambient_and_degrees())
    shuffled = data.draw(st.permutations(degrees))
    assert _cfj(n, shuffled) is _cfj(n, degrees)
    clear_class_memos()
    computed = _cfj(n, shuffled)
    clear_class_memos()
    assert _cfj(n, degrees) == computed


def test_a_plane_pairs_report_computes_the_mu_class_its_factors_share_once(monkeypatch):
    """Both factors of plane-pairs-p4 are quadrics in P^4 singular along
    a P^2: one mu-class serves both aluffi rows."""
    spec, _, _ = load_document(str(FIXTURES / "plane-pairs-p4.json"))
    clear_class_memos()
    calls = []
    monkeypatch.setattr(engine, "mu_class", lambda *args: calls.append(args) or mu_class(*args))
    report = compute_report(spec)
    assert calls == [(4, 2, LinearLocus(2))]
    aluffi = [rv.value for v in report.varieties for rv in v.milnor if rv.route == "aluffi"]
    assert aluffi == [M_Z1, M_Z1]


def test_a_smooth_singular_locus_is_computed_on_every_report(monkeypatch):
    """A smooth locus carries a user-supplied class, so it is never
    memoised: each report computes its mu-class, and loci of the same rank
    with different classes give different aluffi rows."""
    specs = [parse_document(isolated_singularities_doc(3, 3, mus))[0] for mus in ([1], [2], [1])]
    calls = []
    monkeypatch.setattr(engine, "mu_class", lambda *args: calls.append(args) or mu_class(*args))
    rows = [compute_report(spec, {"aluffi"}).varieties[0].milnor for spec in specs]
    assert len(calls) == 3
    assert [rv.value for (rv,) in rows] == [h_power(3, 3), 2 * h_power(3, 3), h_power(3, 3)]


def test_fixture_outputs_match_their_pins_from_cold_and_warm_memos(capsys):
    """Crosscheck text and compute JSON, pinned in the benchmark's oracle,
    and compute text, pinned in the golden file, of every fixture: twice in
    one process, the second time from memoised classes."""
    oracle = json.loads(ORACLE.read_text(encoding="utf-8"))
    golden = json.loads(COMPUTE_TEXT.read_text(encoding="utf-8"))
    names = sorted(p.stem for p in FIXTURES.glob("*.json"))
    assert sorted(oracle) == sorted(golden) == names
    clear_class_memos()
    for _ in range(2):
        for name in names:
            path, pinned = str(FIXTURES / f"{name}.json"), oracle[name]
            runs = [(["crosscheck", path], pinned["crosscheck_stdout"], pinned["crosscheck_exit"]),
                    (["compute", path, "--output", "json"], pinned["compute_json_stdout"], pinned["compute_exit"]),
                    (["compute", path], golden[name]["stdout"], golden[name]["exit"])]
            for argv, stdout, code in runs:
                assert main(argv) == code
                assert capsys.readouterr().out == stdout


# -- definition route -------------------------------------------------------

def test_milnor_definition_paper_values():
    assert milnor_definition(CFJ_Z1, CSM_Z1, 3) == M_Z1
    assert milnor_definition(CFJ_Z2, CFJ_Z2, 3) == zero(4)
    assert milnor_definition(CFJ_X, CSM_X, 2) == M_X


def test_milnor_definition_mismatch():
    with pytest.raises(ValueError):
        milnor_definition(CFJ_Z1, cls(3, 0, 1), 2)


# -- product rule -----------------------------------------------------------

def test_class_products_match_other_routes():
    assert product_rule([CSM_Z1, CFJ_Z2], 4) == CSM_X
    assert product_rule([CFJ_Z1, CFJ_Z2], 4) == CFJ_X
    assert product_rule([CSM_Z1], 4) == CSM_Z1  # r=1 is the identity


def test_milnor_product_paper_value():
    assert milnor_product([CFJ_Z1, CFJ_Z2], [CSM_Z1, CFJ_Z2], 4, 2) == M_X


def test_milnor_product_smooth_inputs_vanish():
    assert milnor_product([CFJ_Z2, CFJ_X], [CFJ_Z2, CFJ_X], 4, 1) == zero(4)


def test_milnor_product_rejects_empty_or_uneven():
    with pytest.raises(ValueError):
        milnor_product([], [], 4, 2)
    with pytest.raises(ValueError):
        milnor_product([CFJ_Z1], [], 4, 2)


def test_non_transversal_remark_values():
    # smooth quadric surface cut by a tangent plane in P^3
    cfj_x = cfj_ci(
        CompleteIntersectionSpec(
            3,
            (
                HypersurfaceSpec("Q", 3, 2, Smooth()),
                HypersurfaceSpec("T", 3, 1, Smooth()),
            ),
            True,
        )
    )
    assert cfj_x == cls(3, 0, 0, 2, 2)
    # the honest intersection is two lines through a point
    csm_x = 2 * csm_linear_subspace(3, 1) - csm_linear_subspace(3, 0)
    assert csm_x == cls(3, 0, 0, 2, 3)
    assert milnor_definition(cfj_x, csm_x, 1) == h_power(3, 3)
    # while the product rule sees only the smooth factors
    csm_q = csm_smooth_ci_degrees(3, [2])
    csm_t = csm_smooth_ci_degrees(3, [1])
    assert milnor_product([csm_q, csm_t], [csm_q, csm_t], 3, 1) == zero(3)


# -- expansion and telescoped sum -------------------------------------------

def test_expansion_paper_value():
    assert milnor_expansion([M_Z1, zero(4)], [CSM_Z1, CFJ_Z2], [1, 1], 4) == M_X


def test_expansion_vanishes_without_milnor_input():
    zs = [zero(4), zero(4), zero(4)]
    cs = random_classes(random.Random(7), 4, 3)
    assert milnor_expansion(zs, cs, [1, 1, 1], 4) == zero(4)


def test_expansion_r2_matches_printed_formula():
    rng = random.Random(101)
    n = 4
    for _ in range(20):
        m1, m2, c1, c2 = random_classes(rng, n, 4)
        d1, d2 = rng.randint(1, 5), rng.randint(1, 5)
        correction = (cls(n, 1, 1) ** (n + 1)).invert()
        printed = correction * (
            (-1) ** n * (m1 * m2)
            + (-1) ** d1 * (c1 * m2)
            + (-1) ** d2 * (m1 * c2)
        )
        assert milnor_expansion([m1, m2], [c1, c2], [d1, d2], n) == printed


def test_expansion_r3_matches_printed_formula():
    rng = random.Random(202)
    n = 6
    for _ in range(10):
        m1, m2, m3, c1, c2, c3 = random_classes(rng, n, 6)
        d1, d2, d3 = (rng.randint(1, 5) for _ in range(3))
        correction = (cls(n, 1, 1) ** (2 * (n + 1))).invert()
        printed = correction * (
            m1 * m2 * m3
            + (-1) ** (d1 + d2) * (c1 * c2 * m3)
            + (-1) ** (d1 + d3) * (c1 * m2 * c3)
            + (-1) ** (d2 + d3) * (m1 * c2 * c3)
            + (-1) ** (n - d1) * (c1 * m2 * m3)
            + (-1) ** (n - d2) * (m1 * c2 * m3)
            + (-1) ** (n - d3) * (m1 * m2 * c3)
        )
        assert milnor_expansion([m1, m2, m3], [c1, c2, c3], [d1, d2, d3], n) == printed


def test_telescope_paper_value():
    assert (
        milnor_telescope([M_Z1, zero(4)], [CSM_Z1, CFJ_Z2], [CFJ_Z1, CFJ_Z2], [1, 1], 4)
        == M_X
    )


def test_telescope_vanishes_without_milnor_input():
    rng = random.Random(8)
    cs = random_classes(rng, 5, 3)
    fs = random_classes(rng, 5, 3)
    zs = [zero(5)] * 3
    assert milnor_telescope(zs, cs, fs, [1, 2, 3], 5) == zero(5)


def test_codimension_not_degree_in_factorwise_routes():
    """Both factors singular with even degree: the factorwise routes
    agree with the definition exactly when the sign parameter is the
    codimension (1 per hypersurface); feeding the polynomial degrees
    flips two terms and breaks the agreement."""
    w1 = HypersurfaceSpec("W1", 4, 2, Arrangement((1, 1)), LinearLocus(2))
    w2 = HypersurfaceSpec("W2", 4, 2, Arrangement((1, 1)), LinearLocus(2))
    ci = CompleteIntersectionSpec(4, (w1, w2), True)
    cfj_x = cfj_ci(ci)
    csm_x = csm_intersection_inclusion_exclusion(ci)
    expected = milnor_definition(cfj_x, csm_x, 2)
    assert expected == cls(4, 0, 0, 0, -4, 3)

    m = [M_Z1, M_Z1]
    csm = [CSM_Z1, CSM_Z1]
    cfj = [CFJ_Z1, CFJ_Z1]
    assert milnor_product(cfj, csm, 4, 2) == expected
    assert milnor_expansion(m, csm, [1, 1], 4) == expected
    assert milnor_telescope(m, csm, cfj, [1, 1], 4) == expected
    assert milnor_from_strata_ci(
        [_z1_strata_filled(), _z1_strata_filled()], [2, 2], 4
    ) == expected
    # the degree convention is wrong here
    assert milnor_expansion(m, csm, [2, 2], 4) != expected


def ref_product_rule(classes, n):
    """Reference: the earlier product rule, a product started at one(n)."""
    classes = list(classes)
    return line_power(n, 1, -(n + 1) * (len(classes) - 1)) * prod(classes, start=one(n))


def ref_milnor_expansion(m_list, csm_list, codims, n):
    """Reference: one fresh signed product per choice, 2^r - 1 of them."""
    r = len(m_list)
    acc = zero(n)
    for picks in itertools.product((0, 1), repeat=r):
        if all(picks):
            continue
        exponent = sum((n - codims[i]) * e for i, e in enumerate(picks))
        term = prod([csm_list[i] if e else m_list[i] for i, e in enumerate(picks)], start=one(n))
        acc += _sign(exponent) * term
    return _sign(n * r - n) * (ref_product_rule([one(n)] * r, n) * acc)


def ref_milnor_telescope(m_list, csm_list, cfj_list, codims, n):
    """Reference: one fresh product over a concatenated list per summand."""
    r = len(m_list)
    if r == 0:
        return zero(n)
    acc = zero(n)
    for i in range(r):
        term = prod(list(cfj_list[:i]) + [m_list[i]] + list(csm_list[i + 1 :]), start=one(n))
        acc += _sign(sum(codims) - codims[i]) * term
    return ref_product_rule([one(n)] * r, n) * acc


@st.composite
def factor_lists(draw):
    """Milnor, SM and virtual classes and codimensions of both parities
    for r = 0..5 factors, all integral or mixed with rationals."""
    n = draw(st.integers(1, 6))
    r = draw(st.integers(0, 5))
    coeff = draw(st.sampled_from([st.integers(-9, 9), coefficients]))
    m, csm, cfj = ([draw(chow_class(n, coeff)) for _ in range(r)] for _ in range(3))
    codims = draw(st.lists(st.integers(1, 5), min_size=r, max_size=r))
    return n, m, csm, cfj, codims


@settings(max_examples=150, deadline=None)
@given(factor_lists())
def test_shared_prefix_routes_match_the_references(factors):
    n, m, csm, cfj, codims = factors
    expansion = milnor_expansion(m, csm, codims, n)
    telescope = milnor_telescope(m, csm, cfj, codims, n)
    assert expansion.coeffs == ref_milnor_expansion(m, csm, codims, n).coeffs
    assert telescope.coeffs == ref_milnor_telescope(m, csm, cfj, codims, n).coeffs
    if m:
        assert product_rule(csm, n).coeffs == ref_product_rule(csm, n).coeffs
        assert product_rule(cfj, n).coeffs == ref_product_rule(cfj, n).coeffs


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(1, 6), st.data())
def test_the_report_product_rule_sums_the_expansion_and_the_telescope(n, r, data):
    """The product rule the report evaluates once per intersection, on
    cfj_i = csm_i + (-1)^(n-1) m_i, equals the 2^r - 1 mixed products of
    the hypersurface factors' m_i summed one by one and the telescoped sum."""
    coeff = data.draw(st.sampled_from([st.integers(-9, 9), coefficients]))
    m, csm = ([data.draw(chow_class(n, coeff)) for _ in range(r)] for _ in range(2))
    cfj = [s + _sign(n - 1) * x for s, x in zip(csm, m)]
    value = milnor_product(cfj, csm, n, n - r)
    assert value == milnor_expansion(m, csm, [1] * r, n)
    assert value == milnor_telescope(m, csm, cfj, [1] * r, n)


def test_routes_with_no_factor_are_zero():
    assert milnor_expansion([], [], [], 5) == zero(5)
    assert milnor_telescope([], [], [], [], 5) == zero(5)
    with pytest.raises(ValueError):
        product_rule([], 5)
    with pytest.raises(ValueError):
        milnor_product([], [], 5, 5)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(1, 4), st.integers(0, 7), st.data())
def test_milnor_product_matches_the_two_product_rules(n, r, dim_x, data):
    """One correction applied to the difference of the products, with the
    sign taken by negation, equals (-1)^dim(X) times the difference of
    the two product rules, each started at the correction."""
    coeff = data.draw(st.sampled_from([st.integers(-9, 9), coefficients]))
    cfj, csm = ([data.draw(chow_class(n, coeff)) for _ in range(r)] for _ in range(2))
    expected = _sign(dim_x) * (ref_product_rule(cfj, n) - ref_product_rule(csm, n))
    assert milnor_product(cfj, csm, n, dim_x).coeffs == expected.coeffs


def test_product_counts(monkeypatch):
    """The expansion shares partial products: at most 2^(r+1) - 3 with
    the correction, against r(2^r - 1) + 1 when each mixed product is
    formed afresh.  The product rule starts from the correction."""
    rng = random.Random(17)
    n, r = 6, 4
    m, csm = random_classes(rng, n, r), random_classes(rng, n, r)
    calls = []
    mul = ChowClass.__mul__
    monkeypatch.setattr(ChowClass, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    milnor_expansion(m, csm, [1, 2, 3, 4], n)
    assert len(calls) <= 2 ** (r + 1) - 3
    calls.clear()
    product_rule(csm, n)
    assert len(calls) == r


# -- mu-class route ----------------------------------------------------------

def test_mu_class_values():
    assert mu_class(4, 2, LinearLocus(2)) == M_Z1
    assert mu_class(4, 3, None) == zero(4)
    assert mu_class(2, 3, LinearLocus(0)) == h_power(2, 2)  # nodal cubic


def test_mu_class_rejects_unknown_descriptor():
    with pytest.raises(ValueError):
        mu_class(3, 2, object())


def test_milnor_from_mu_values():
    assert milnor_from_mu(mu_class(4, 2, LinearLocus(2)), 2, 4) == M_Z1
    assert milnor_from_mu(zero(4), 2, 4) == zero(4)
    assert milnor_from_mu(mu_class(2, 3, LinearLocus(0)), 3, 2) == h_power(2, 2)


def test_milnor_from_mu_odd_ambient_dimension():
    # the global sign calibration must hold for odd n as well
    assert milnor_from_mu(mu_class(3, 2, LinearLocus(1)), 2, 3) == M_PAIR_P3


# -- stratification route ----------------------------------------------------

def _z1_strata_filled():
    # gamma weights plus the SM class of the open stratum's closure,
    # which is Z1 itself; mixed tuples of the intersection formula use it
    from milnorcalc.records import replace

    strat = gamma_weights(Z1.strata)
    strata = tuple(replace(s, csm_closure=CSM_Z1) if s.name == "reg" else s for s in strat.strata)
    return replace(strat, strata=strata)


def test_local_milnor_number():
    assert local_milnor_number(0, 3) == 1     # double hyperplane locus in P^4
    assert local_milnor_number(1, 3) == 0     # smooth point
    assert local_milnor_number(0, 1) == 1     # node on a plane curve
    assert local_milnor_number(3, 2) == 2


def test_gamma_weights_paper_stratification():
    strat = _z1_strata_filled()
    gamma = {s.name: s.gamma for s in strat.strata}
    mu = {s.name: s.mu for s in strat.strata}
    assert mu == {"reg": 0, "sing": 1}
    assert gamma == {"reg": 0, "sing": 1}


def test_gamma_weights_single_stratum():
    strat = gamma_weights(Stratification((Stratum("reg", 2),)))
    assert strat.strata[0].gamma == 0


def test_gamma_weights_three_level_chain():
    # chi values chosen so mu = (0, a, b) with a=2, b=5 along a chain
    dim_x = 2
    chi = lambda mu: 1 + (-1) ** dim_x * mu
    strat = Stratification(
        (
            Stratum("reg", 2, chi_fiber=chi(0)),
            Stratum("mid", 1, chi_fiber=chi(2)),
            Stratum("deep", 0, chi_fiber=chi(5)),
        ),
        closure_order=(("mid", "deep"),),
    )
    filled = gamma_weights(strat)
    gamma = {s.name: s.gamma for s in filled.strata}
    assert gamma == {"reg": 0, "mid": 2, "deep": 3}


def test_milnor_from_strata_values():
    assert milnor_from_strata(_z1_strata_filled(), 2, 4) == M_Z1
    smooth = trivial_stratification(4, 1, CFJ_Z2)
    assert milnor_from_strata(smooth, 1, 4) == zero(4)
    nodal = gamma_weights(
        Stratification(
            (
                Stratum("reg", 1, chi_fiber=1),
                Stratum("node", 0, chi_fiber=0, csm_closure=h_power(2, 2)),
            )
        )
    )
    assert milnor_from_strata(nodal, 3, 2) == h_power(2, 2)


def test_milnor_from_strata_missing_data():
    unfilled = Z1.strata
    with pytest.raises(ValueError, match="gamma"):
        milnor_from_strata(unfilled, 2, 4)
    no_csm = gamma_weights(
        Stratification(
            (Stratum("reg", 3), Stratum("sing", 2, chi_fiber=0))
        )
    )
    with pytest.raises(ValueError, match="closure"):
        milnor_from_strata(no_csm, 2, 4)


def test_milnor_from_strata_ci_reduces_to_hypersurface_case():
    strat = _z1_strata_filled()
    assert milnor_from_strata_ci([strat], [2], 4) == milnor_from_strata(strat, 2, 4)


def test_milnor_from_strata_ci_paper_value():
    z1 = _z1_strata_filled()
    z2 = trivial_stratification(4, 1, CFJ_Z2)
    assert milnor_from_strata_ci([z1, z2], [2, 1], 4) == M_X


def test_milnor_from_strata_ci_smooth_factors_vanish():
    a = trivial_stratification(4, 1, csm_smooth_ci_degrees(4, [1]))
    b = trivial_stratification(4, 2, csm_smooth_ci_degrees(4, [2]))
    assert milnor_from_strata_ci([a, b], [1, 2], 4) == zero(4)


def ref_milnor_from_strata_ci(strats, degrees, n):
    """Reference: the earlier sum over every tuple of strata, one per
    factor, reading each class and gamma as the tuple needs it."""
    strats, degrees = list(strats), list(degrees)
    r = len(strats)
    open_names = [open_stratum(s).name for s in strats]
    line_totals = [chern_line(n, d) for d in degrees]
    acc = zero(n)
    for chosen in itertools.product(*(s.strata for s in strats)):
        eps = [1 if s.name == open_names[i] else 0 for i, s in enumerate(chosen)]
        if all(eps):
            continue
        weight = 1
        for i, s in enumerate(chosen):
            if eps[i]:
                continue
            if s.gamma is None:
                raise ValueError(f"stratum {s.name}: gamma not computed yet")
            weight *= s.gamma
        if weight == 0:
            continue
        term = one(n)
        for i, s in enumerate(chosen):
            if s.csm_closure is None:
                raise ValueError(f"stratum {s.name}: SM class of the closure is missing")
            term = term * s.csm_closure
            if eps[i]:
                term = term * line_totals[i]
        acc += (weight * _sign((n - 1) * sum(eps))) * term
    denominator = prod(line_totals, start=one(n)).invert()
    return _sign(n * r - n) * (
        line_power(n, 1, -(n + 1) * (r - 1)) * (denominator * acc)
    )


@st.composite
def stratified_factors(draw):
    """r = 1..4 stratifications in P^n, up to 5 strata each with the open
    one anywhere: gammas zero, nonzero or missing, and closure classes
    missing on any stratum, the open one too."""
    n = draw(st.integers(2, 6))
    r = draw(st.integers(1, 4))
    strats = []
    for i in range(r):
        k = draw(st.integers(1, 5))
        top = draw(st.integers(0, k - 1))
        strats.append(Stratification(tuple(
            Stratum(
                f"f{i}s{j}",
                n - 1 if j == top else draw(st.integers(0, n - 2)),
                csm_closure=draw(st.none() | chow_class(n, st.integers(-9, 9))),
                gamma=draw(st.none() | st.sampled_from([0, 0, 1, -1, 2, -3])),
            )
            for j in range(k)
        )))
    degrees = draw(st.lists(st.integers(1, 4), min_size=r, max_size=r))
    return strats, degrees, n


def ref_first_missing(strats):
    """Reference for the error, written out factor by factor: each
    factor's own first non-open stratum without gamma, or with a nonzero
    gamma and no closure class; then the first open stratum without a
    closure class where another factor has a non-open stratum of nonzero
    gamma.  None when nothing is missing."""
    opens = [open_stratum(s) for s in strats]
    for strat, reg in zip(strats, opens):
        for s in strat.strata:
            if s is reg:
                continue
            if s.gamma is None:
                return f"stratum {s.name}: gamma not computed yet"
            if s.gamma != 0 and s.csm_closure is None:
                return f"stratum {s.name}: SM class of the closure is missing"
    for i, reg in enumerate(opens):
        others = [s for j, (strat, o) in enumerate(zip(strats, opens)) if j != i
                  for s in strat.strata if s is not o]
        if reg.csm_closure is None and any(s.gamma != 0 for s in others):
            return f"stratum {reg.name}: SM class of the closure is missing"
    return None


@settings(max_examples=300, deadline=None)
@given(stratified_factors())
def test_factored_pp_matches_the_tuple_sum(case):
    """The tuple sum decides the value and whether the call raises; the
    factor-by-factor reference decides the message."""
    strats, degrees, n = case

    def outcome(route):
        try:
            return route(strats, degrees, n).coeffs, None
        except ValueError as exc:
            return None, str(exc)

    value, error = outcome(milnor_from_strata_ci)
    ref_value, ref_error = outcome(ref_milnor_from_strata_ci)
    assert value == ref_value
    assert (error is None) == (ref_error is None)
    assert error == ref_first_missing(strats)


def test_pair_of_planes_in_p3_all_routes():
    cfj = cfj_ci(PAIR_P3)
    csm = csm_inclusion_exclusion(PAIR_P3)
    assert csm == cls(3, 0, 2, 5, 4)
    assert csm.integral() == 4  # chi: 3 + 3 - 2
    assert milnor_definition(cfj, csm, 2) == M_PAIR_P3
    strat = gamma_weights(PAIR_P3.strata)
    assert milnor_from_strata(strat, 2, 3) == M_PAIR_P3


# -- report assembly ---------------------------------------------------------

def test_report_paper_example_all_routes_agree():
    report = compute_report(PAPER_CI)
    assert report.all_agree
    z1_row, z2_row, x_row = report.varieties
    assert [rv.route for rv in z1_row.milnor] == [
        "definition", "thm1", "expansion", "cor11", "aluffi", "pp",
    ]
    assert z1_row.consensus == M_Z1
    assert z2_row.consensus == zero(4)
    assert [rv.route for rv in x_row.milnor] == [
        "definition", "thm1", "expansion", "cor11", "pp",
    ]
    assert x_row.consensus == M_X
    assert x_row.name == "Z1 ∩ Z2"


def test_report_methods_filter():
    report = compute_report(PAPER_CI, methods={"definition"})
    for row in report.varieties:
        assert [rv.route for rv in row.milnor] == ["definition"]


def test_a_route_neither_computed_nor_skipped_raises():
    """A row reads every selected route from its one route table, so a
    route missing from the table fails loudly instead of vanishing."""
    n, c = 2, chern_tangent(2)
    routes = dict.fromkeys(ROUTE_ORDER, zero(n)) | {"aluffi": "skipped for the test"}
    row = _build_row("P", "hypersurface", 1, c, c, "supplied", routes, ROUTE_ORDER)
    assert [rv.route for rv in row.milnor] == [r for r in ROUTE_ORDER if r != "aluffi"]
    assert [(sk.route, sk.reason) for sk in row.skipped] == [("aluffi", "skipped for the test")]
    del routes["pp"]
    with pytest.raises(KeyError, match="pp"):
        _build_row("P", "hypersurface", 1, c, c, "supplied", routes, ROUTE_ORDER)
    assert _build_row("P", "hypersurface", 1, c, c, "supplied", routes, ["thm1"]).agree


def test_an_intersection_class_needs_no_or_several_hypersurfaces():
    """A single hypersurface has no intersection row to take a supplied
    intersection class; with no hypersurfaces it is the class of P^n."""
    quadric = CompleteIntersectionSpec(3, (HypersurfaceSpec("Q", 3, 2, Smooth()),))
    with pytest.raises(ValueError, match="single hypersurface"):
        compute_report(quadric, None, make_class(3, [0, 2, 0, 99]))
    (row,) = compute_report(CompleteIntersectionSpec(3, ()), None, chern_tangent(3)).varieties
    assert row.csm_route == "supplied" and row.agree


def test_report_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown routes"):
        compute_report(PAPER_CI, methods={"definition", "magic"})


def test_report_without_transversality_skips_product_routes():
    ci = CompleteIntersectionSpec(4, (Z1, Z2), False)
    report = compute_report(ci)
    x_row = report.varieties[-1]
    assert [rv.route for rv in x_row.milnor] == []
    assert {sk.route for sk in x_row.skipped} >= {"thm1", "expansion", "cor11", "pp"}
    assert not report.used_product_routes


def test_report_single_hypersurface_has_one_row():
    report = compute_report(CompleteIntersectionSpec(2, (
        HypersurfaceSpec(
            "C", 2, 3, Stratified(), LinearLocus(0),
            Stratification((
                Stratum("reg", 1, chi_fiber=1),
                Stratum("node", 0, chi_fiber=0, csm_closure=h_power(2, 2)),
            )),
        ),
    ), True))
    assert len(report.varieties) == 1
    row = report.varieties[0]
    assert {rv.route for rv in row.milnor} == {"expansion", "cor11", "aluffi", "pp"}
    assert row.agree and row.consensus == h_power(2, 2)
    assert {sk.route for sk in row.skipped} == {"definition", "thm1"}


def test_report_dim_zero_intersection():
    planes = tuple(HypersurfaceSpec(f"P{i}", 4, 1, Smooth()) for i in range(4))
    report = compute_report(CompleteIntersectionSpec(4, planes, True))
    x_row = report.varieties[-1]
    assert x_row.dim == 0
    assert x_row.csm == h_power(4, 4)  # a reduced point
    assert x_row.consensus == zero(4)


def test_report_integrality_guard():
    bad_csm = make_class(2, ["0", "0", "1/2"])
    strat = Stratification(
        (
            Stratum("reg", 1, chi_fiber=1),
            Stratum("node", 0, chi_fiber=0, csm_closure=bad_csm),
        )
    )
    spec = CompleteIntersectionSpec(
        2, (HypersurfaceSpec("C", 2, 3, Stratified(), None, strat),), True
    )
    with pytest.raises(IntegralityError, match=r"Milnor class \(\w+ route\)"):
        compute_report(spec)


def test_milnor_support_starts_at_singular_codimension():
    cases = [
        (compute_report(PAPER_CI).varieties[0].consensus, 2),   # Sing Z1 = P^2
        (compute_report(PAPER_CI).varieties[2].consensus, 3),   # Sing X = a line
        (M_PAIR_P3, 2),                                         # Sing = a line in P^3
    ]
    for milnor, codim in cases:
        assert all(milnor.coeffs[j] == 0 for j in range(codim))
