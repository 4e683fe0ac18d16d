import pytest

from milnorcalc.chow import h_power, line_power, make_class
from milnorcalc.engine import gamma_weights
from milnorcalc.records import replace
from milnorcalc.varieties import (
    Arrangement,
    CompleteIntersectionSpec,
    HypersurfaceSpec,
    LinearLocus,
    Smooth,
    Stratification,
    Stratified,
    Stratum,
    ValidationError,
    containment_map,
    csm_linear_subspace,
    open_stratum,
    strata_topological_order,
    validate,
    validation_errors,
)


def z1_spec():
    strata = Stratification(
        (
            Stratum("reg", 3, chi_fiber=1),
            Stratum("sing", 2, chi_fiber=0, csm_closure=csm_linear_subspace(4, 2)),
        )
    )
    return HypersurfaceSpec("Z1", 4, 2, Arrangement((1, 1)), LinearLocus(2), strata)


def test_valid_paper_spec():
    spec = z1_spec()
    assert validate(spec) is spec
    ci = CompleteIntersectionSpec(
        4, (spec, HypersurfaceSpec("Z2", 4, 1, Smooth())), True
    )
    assert validate(ci) is ci


def test_validation_is_idempotent():
    spec = z1_spec()
    assert validation_errors(spec) == validation_errors(validate(spec))


def test_too_many_hypersurfaces():
    planes = tuple(
        HypersurfaceSpec(f"P{i}", 4, 1, Smooth()) for i in range(5)
    )
    ci = CompleteIntersectionSpec(4, planes, True)
    with pytest.raises(ValidationError, match="dim X = -1"):
        validate(ci)


def test_arrangement_degree_sum_checked():
    bad = HypersurfaceSpec("B", 3, 3, Arrangement((1, 1)))
    errors = validation_errors(bad)
    assert any("components" in e and "sum" in e for e in errors)


def test_a_smooth_hypersurface_has_no_singular_locus():
    """Earlier a smooth quadric declaring a singular point passed, and its
    aluffi route reported 0 regardless of the locus."""
    bad = HypersurfaceSpec("Q", 3, 2, Smooth(), LinearLocus(0))
    assert validation_errors(bad) == ["Q.sing_locus: a smooth hypersurface has no singular locus"]
    with pytest.raises(ValidationError, match=r"hypersurfaces\[0\]\.sing_locus: a smooth"):
        validate(CompleteIntersectionSpec(3, (bad,)))


@pytest.mark.parametrize("sing", [Smooth(), Arrangement((1, 1))], ids=["smooth", "arrangement"])
def test_the_open_stratum_of_a_derived_hypersurface_has_no_closure_class(sing):
    """Earlier the supplied class was ignored on the hypersurface's own row,
    which derives its c^SM, and read by the intersection's pp route."""
    closure = make_class(3, [0, 2, 0, 0]), make_class(3, [0, 2, 0, 99])
    bad = HypersurfaceSpec("Q", 3, 2, sing, strata=Stratification((Stratum("reg", 2, 1, *closure),)))
    assert validation_errors(bad) == [
        "Q.strata.reg.closure: the open stratum's closure is the hypersurface, whose classes are derived"
    ]
    with pytest.raises(ValidationError, match=r"^hypersurfaces\[0\]\.strata\.reg\.closure: "):
        validate(CompleteIntersectionSpec(3, (bad,)))
    validate(replace(bad, strata=Stratification((Stratum("reg", 2),))))
    validate(replace(bad, singularity=Stratified()))


def test_stratified_requires_strata():
    bad = HypersurfaceSpec("B", 3, 2, Stratified())
    assert any("strata: required" in e for e in validation_errors(bad))


def test_cycle_in_closure_order_is_an_error():
    strat = Stratification(
        (
            Stratum("reg", 2),
            Stratum("a", 1),
            Stratum("b", 1),
        ),
        closure_order=(("a", "b"), ("b", "a")),
    )
    errors = validation_errors(strat)
    assert any("cycle" in e or "decrease" in e for e in errors)


def test_long_containment_chain_is_rejected_without_recursion():
    """A chain longer than the recursion limit gives one error per link,
    not a RecursionError."""
    points = tuple(Stratum(f"p{i}", 0) for i in range(3000))
    chain = tuple((a.name, b.name) for a, b in zip(points, points[1:]))
    errors = validation_errors(Stratification((Stratum("reg", 7),) + points, chain))
    assert sum("strictly decrease" in e for e in errors) == len(chain)


def test_two_top_strata_rejected():
    strat = Stratification((Stratum("a", 2), Stratum("b", 2)))
    assert any("exactly one open stratum" in e for e in validation_errors(strat))


def test_open_stratum_chi_fiber_must_be_one():
    strat = Stratification((Stratum("reg", 2, chi_fiber=3), Stratum("s", 0)))
    assert any("chiF" in e for e in validation_errors(strat))


def test_closure_class_concentration_checked():
    strat = Stratification(
        (
            Stratum("reg", 3),
            Stratum("s", 2, chi_fiber=0, closure_class=make_class(4, [0, 1, 1])),
        )
    )
    errors = validation_errors(
        HypersurfaceSpec("H", 4, 2, Stratified(), None, strat)
    )
    assert any("concentrated in codimension 2" in e for e in errors)


def test_topological_order_paper_stratification():
    strat = z1_spec().strata
    assert [s.name for s in strata_topological_order(strat)] == ["reg", "sing"]


def test_topological_order_single_stratum():
    strat = Stratification((Stratum("reg", 2),))
    assert [s.name for s in strata_topological_order(strat)] == ["reg"]


def test_topological_order_ties_break_by_name():
    strat = Stratification(
        (
            Stratum("reg", 3),
            Stratum("s_b", 2, chi_fiber=0),
            Stratum("s_a", 2, chi_fiber=0),
            Stratum("s_c", 1, chi_fiber=0),
        ),
        closure_order=(("s_a", "s_c"), ("s_b", "s_c")),
    )
    assert [s.name for s in strata_topological_order(strat)] == [
        "reg",
        "s_a",
        "s_b",
        "s_c",
    ]


def test_containment_is_transitive_and_open_covers_all():
    strat = Stratification(
        (
            Stratum("reg", 3),
            Stratum("a", 2, chi_fiber=0),
            Stratum("b", 1, chi_fiber=0),
        ),
        closure_order=(("a", "b"),),
    )
    above = containment_map(strat)
    assert above["reg"] == frozenset()
    assert above["a"] == frozenset({"reg"})
    assert above["b"] == frozenset({"reg", "a"})
    assert open_stratum(strat).name == "reg"


def test_containment_closes_covering_relations_transitively():
    # reg > a > b > c with only the covering pairs declared: c reaches a
    # through b alone, which the open stratum's implicit pairs cannot hide
    dim_x = 3
    chi = lambda mu: 1 + (-1) ** dim_x * mu
    strat = Stratification(
        (
            Stratum("c", 0, chi_fiber=chi(7)),
            Stratum("reg", 3),
            Stratum("b", 1, chi_fiber=chi(5)),
            Stratum("a", 2, chi_fiber=chi(2)),
        ),
        closure_order=(("b", "c"), ("a", "b")),
    )
    above = containment_map(strat)
    assert above["c"] == frozenset({"b", "a", "reg"})
    assert above["b"] == frozenset({"a", "reg"})
    gamma = {s.name: s.gamma for s in gamma_weights(strat).strata}
    # gamma_c = mu_c - (gamma_b + gamma_a + gamma_reg) = 7 - (3 + 2 + 0)
    assert gamma == {"reg": 0, "a": 2, "b": 3, "c": 2}


def test_csm_linear_subspace_values():
    assert csm_linear_subspace(4, 3) == make_class(4, [0, 1, 4, 6, 4])
    assert csm_linear_subspace(4, 2) == make_class(4, [0, 0, 1, 3, 3])
    assert csm_linear_subspace(3, 3) == make_class(3, [1, 4, 6, 4])
    with pytest.raises(ValueError):
        csm_linear_subspace(3, 4)


def ref_csm_linear_subspace(n, k):
    """(1+H)^(k+1) H^(n-k) as a ring product."""
    return line_power(n, 1, k + 1) * h_power(n, n - k)


def test_csm_linear_subspace_is_the_ring_product():
    for n in range(65):
        for k in range(n + 1):
            assert csm_linear_subspace(n, k) == ref_csm_linear_subspace(n, k)
        for k in (-1, n + 1):
            with pytest.raises(ValueError):
                csm_linear_subspace(n, k)


def test_csm_linear_subspace_integral_is_euler_characteristic():
    for n in range(11):
        for k in range(n + 1):
            assert csm_linear_subspace(n, k).integral() == k + 1


def test_point_class():
    assert csm_linear_subspace(4, 0) == h_power(4, 4)


def test_closure_sm_classes_lead_with_their_classes():
    """In a hypersurface, a closure's SM class vanishes below the stratum's
    codimension and there equals its class; the open stratum's closure is
    the hypersurface, of class dH, whose SM class leads with dH."""
    def spec(reg=None, node=None):
        reg_cls, reg_csm = reg or (None, None)
        node_cls, node_csm = node or (None, None)
        strata = Stratification((Stratum("reg", 1, 1, reg_cls, reg_csm), Stratum("node", 0, 0, node_cls, node_csm)))
        return HypersurfaceSpec("C", 2, 3, Stratified(), None, strata)

    point, line = h_power(2, 2), h_power(2, 1)
    assert validation_errors(spec((3 * line, 3 * line + point), (point, point))) == []
    assert validation_errors(spec((None, 3 * line), (None, 2 * point))) == []  # a class not given is not checked
    assert validation_errors(spec(node=(point, line + point))) == [
        "C.strata.node.closure: SM class must vanish below codimension 2"]
    assert validation_errors(spec(node=(None, make_class(2, [1])))) == [
        "C.strata.node.closure: SM class must vanish below codimension 2"]
    assert validation_errors(spec(node=(point, 2 * point))) == [
        "C.strata.node.closure: SM class must equal the class, 1, in codimension 2"]
    assert validation_errors(spec(reg=(2 * line, None))) == [
        "C.strata.reg.closure: class must be 3H, the class of the hypersurface"]
    assert validation_errors(spec(reg=(None, 5 * line))) == [
        "C.strata.reg.closure: SM class must equal the class, 3, in codimension 1"]
    # a Stratification alone has no ambient space to read codimensions in
    assert validation_errors(spec(node=(point, line)).strata) == []
