from __future__ import annotations

import itertools
from math import prod
from pathlib import Path

import pytest
from hypothesis import strategies as st

from milnorcalc import bundles, engine
from milnorcalc.chow import ChowClass, h_power, line_power, make_class, one
from milnorcalc.records import replace

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "oracle" / "fixtures.json"
COMPUTE_TEXT = Path(__file__).resolve().parent / "golden" / "compute-text.json"
JSON_OUTPUT = Path(__file__).resolve().parent / "golden" / "json-output.json"


def clear_class_memos():
    """Empty every memo of classes that integers fix, so that the next
    report does the work, and builds the classes, of a fresh process."""
    for memo in (bundles.chern_tangent, engine._cfj_of_sorted, engine._csm_of_sorted_unions,
                 engine._tangent_correction, engine._aluffi_of_linear_locus):
        memo.cache_clear()


def public_strata(h, csm):
    """The filled stratification that a report's ``pp`` for the factor ``h``
    equals, built by the public functions: ``gamma_weights`` of its strata
    with the open stratum's missing closure SM class set to the factor's
    c^SM ``csm``, or the ``trivial_stratification`` of a smooth factor
    without strata."""
    if h.strata is None:
        return engine.trivial_stratification(h.ambient_dim, h.degree, csm)
    strat = engine.gamma_weights(h.strata)
    reg = engine.open_stratum(strat)
    backfilled = replace(reg, csm_closure=csm) if reg.csm_closure is None else reg
    return replace(strat, strata=tuple(backfilled if s is reg else s for s in strat.strata))


coefficients = st.integers(-9, 9)


def chow_class(n: int, coeff=coefficients):
    return st.lists(coeff, min_size=n + 1, max_size=n + 1).map(
        lambda cs: ChowClass(n, cs)
    )


@st.composite
def classes(draw, count: int = 1, min_dim: int = 0, max_dim: int = 6, coeff=coefficients):
    """`count` classes sharing one random ambient dimension."""
    n = draw(st.integers(min_dim, max_dim))
    drawn = [draw(chow_class(n, coeff)) for _ in range(count)]
    return drawn[0] if count == 1 else tuple(drawn)


@st.composite
def unit_classes(draw, min_dim: int = 0, max_dim: int = 6):
    """Units: classes with constant term 1 or -1."""
    c = draw(classes())
    head = draw(st.sampled_from([1, -1]))
    return ChowClass(c.ambient_dim, (head,) + c.coeffs[1:])


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def normal_crossing_hypersurface(name: str, n: int, degrees) -> dict:
    """Document entry for components of the given degrees in general
    position in P^n, with the strata that follow from the degrees alone.

    Each set S of 2..n components gives a stratum, the points on exactly
    those components: its closure is the complete intersection of S
    (``linear`` when every degree is 1, ``ci`` otherwise), it contains the
    strata of the supersets of S, and its chiF is 0, since locally the
    hypersurface is x_1...x_j = 0, whose Milnor fibre is a (j-1)-torus.
    Two components also get their smooth singular locus: class
    d1 d2 H^2, normal bundle O(d1) + O(d2).
    """
    k = len(degrees)
    sets = [S for size in range(2, min(k, n) + 1) for S in itertools.combinations(range(k), size)]

    def label(S):
        return "s" + "_".join(map(str, S))

    strata = [{"name": "reg", "dim": n - 1, "chiF": 1}]
    for S in sets:
        degs = [degrees[i] for i in S]
        closure = (
            {"kind": "linear", "dim": n - len(S)}
            if set(degs) == {1}
            else {"kind": "ci", "degrees": degs}
        )
        strata.append({
            "name": label(S), "dim": n - len(S), "chiF": 0, "closure": closure,
            "contains": [label(T) for T in sets if set(S) < set(T)],
        })
    entry = {
        "name": name,
        "degree": sum(degrees),
        "singularity": {"kind": "arrangement", "components": list(degrees)},
        "strata": strata,
    }
    if k == 2:
        d1, d2 = degrees
        entry["sing_locus"] = {
            "kind": "smooth",
            "class": [0, 0, d1 * d2],
            "normal": {"rank": 2, "chern": [1, d1 + d2, d1 * d2]},
        }
    return entry


def normal_crossing_doc(n: int, factors) -> dict:
    """Transversal intersection in P^n of one normal-crossing arrangement
    per entry of ``factors``, each a list of component degrees."""
    return {
        "ambient": {"kind": "projective", "dim": n},
        "transversal": True,
        "hypersurfaces": [
            normal_crossing_hypersurface(f"A{i}", n, degrees) for i, degrees in enumerate(factors)
        ],
    }


def isolated_singularities_doc(n: int, d: int, mus, sign: int = 1) -> dict:
    """A hypersurface of degree d in P^n whose singular points have the
    Milnor numbers ``mus``: its Milnor class is (sum mus) H^n.

    Each route gets its own input.  ``definition`` reads the supplied
    c^SM = c^FJ + (-1)^n (sum mus) H^n (Parusinski's formula) on the open
    stratum's closure, with c^FJ = (1 + H)^(n+1) dH / (1 + dH); ``sign``
    -1 flips the point term.  ``aluffi`` reads the singular scheme, of
    class (sum mus) H^n with trivial normal bundle of rank n, since the
    Jacobian ideal of an isolated singularity is a complete intersection.
    ``pp`` reads one point stratum per mu, with chiF = 1 + (-1)^(n-1) mu.
    """
    total = sum(mus)
    cfj = make_class(n, [0, d]) * line_power(n, 1, n + 1) / line_power(n, d, 1)
    csm = cfj + sign * (-1) ** n * total * h_power(n, n)
    strata = [{"name": "reg", "dim": n - 1, "chiF": 1,
               "closure": {"kind": "explicit", "class": [0, d], "csm": list(csm.integer_coeffs())}}]
    strata += [{"name": f"p{i}", "dim": 0, "chiF": 1 + (-1) ** (n - 1) * mu, "closure": {"kind": "linear", "dim": 0}}
               for i, mu in enumerate(mus)]
    return {
        "ambient": {"kind": "projective", "dim": n},
        "hypersurfaces": [{
            "name": "X",
            "degree": d,
            "singularity": {"kind": "stratified"},
            "sing_locus": {"kind": "smooth", "class": [0] * n + [total], "normal": {"rank": n, "chern": [1]}},
            "strata": strata,
        }],
    }


def join_csm(n: int, d: int, k: int) -> ChowClass:
    """c^SM of the join J(n, d, k) in P^n, pushed forward.

    Y, a smooth hypersurface of degree d in P^(n-k-1), has c^SM(Y) = c^FJ(Y).
    The cone over W in P^(m-1) has c^SM = (1 + H) c^SM(W) + [pt] in P^m, with
    c^SM(W) read with the same coefficients in P^m (see e.g. Aluffi and
    Marcolli, "Algebro-geometric Feynman rules", 2011); J(n, d, k) is the
    cone k + 1 times over Y.
    """
    m = n - k - 1
    csm = make_class(m, [0, d]) * line_power(m, 1, m + 1) / line_power(m, d, 1)
    for m in range(n - k, n + 1):
        csm = line_power(m, 1, 1) * make_class(m, csm.integer_coeffs()) + h_power(m, m)
    return csm


def join_doc(n: int, d: int, k: int) -> dict:
    """The join J(n, d, k) of a vertex P^k with a smooth hypersurface Y of
    degree d >= 2 in a complementary P^(n-k-1): a hypersurface of degree d
    in P^n, singular exactly along the vertex (k = 0 is the cone over Y,
    an isolated point with mu = (d-1)^n).

    Each route gets its own input.  ``definition`` reads ``join_csm`` on
    the open stratum's closure.  ``aluffi`` reads the singular scheme, cut
    out by the n - k partials of Y's equation: a complete intersection of
    n - k hypersurfaces of degree d - 1, supported on P^k and non-reduced
    for d >= 3, so a ``smooth`` locus of class (d-1)^(n-k) H^(n-k) with
    normal class (1 + (d-1)H)^(n-k) of rank n - k.  ``pp`` reads the vertex
    stratum, whose Milnor fibre is that of Y's cone at its vertex:
    chiF = 1 + (-1)^(n-k-1) (d-1)^(n-k).
    """
    c = n - k
    csm = join_csm(n, d, k)
    return {
        "ambient": {"kind": "projective", "dim": n},
        "hypersurfaces": [{
            "name": "J",
            "degree": d,
            "singularity": {"kind": "stratified"},
            "sing_locus": {"kind": "smooth", "class": [0] * c + [(d - 1) ** c],
                           "normal": {"rank": c, "chern": list(line_power(n, d - 1, c).integer_coeffs())}},
            "strata": [
                {"name": "reg", "dim": n - 1, "chiF": 1,
                 "closure": {"kind": "explicit", "class": [0, d], "csm": list(csm.integer_coeffs())}},
                {"name": "vertex", "dim": k, "chiF": 1 + (-1) ** (c - 1) * (d - 1) ** c,
                 "closure": {"kind": "linear", "dim": k}},
            ],
        }],
    }


def _smooth_model_classes(n: int, model: dict) -> tuple[ChowClass, ChowClass]:
    """(class, c^SM) of a ``linear``, ``ci`` or ``explicit`` closure in P^n, in
    closed form: a P^k has (1 + H)^(k+1) H^(n-k), a smooth complete
    intersection c(TP^n) prod_i d_iH / (1 + d_iH)."""
    if model["kind"] == "linear":
        k = model["dim"]
        return h_power(n, n - k), line_power(n, 1, k + 1) * h_power(n, n - k)
    if model["kind"] == "ci":
        degrees = model["degrees"]
        cls = prod(degrees) * h_power(n, len(degrees))
        return cls, line_power(n, 1, n + 1) * cls / prod((line_power(n, d, 1) for d in degrees), start=one(n))
    return make_class(n, model["class"]), make_class(n, model["csm"])


def _explicit(cls: ChowClass, csm: ChowClass) -> dict:
    return {"kind": "explicit", "class": list(cls.integer_coeffs()), "csm": list(csm.integer_coeffs())}


def explicit_closures(doc: dict) -> dict:
    """``doc``, one hypersurface with strata (``normal_crossing_doc`` of one
    factor, ``isolated_singularities_doc`` or ``join_doc``), in the form that
    ``cone_doc`` and ``cut_doc`` read and write: a ``stratified``
    hypersurface without singular locus, the open stratum first, every
    closure ``explicit`` with full coefficient lists, and ``contains``
    lists that declare covering relations only.

    An arrangement's open stratum gets the hypersurface's classes: dH and
    c(TP^n) (1 - prod_i (1 + d_iH)^(-1)) (Aluffi 1999, see
    ``engine._csm_intersection_of_unions``)."""
    n = doc["ambient"]["dim"]
    [h] = doc["hypersurfaces"]
    reg, *rest = h["strata"]
    if h["singularity"]["kind"] == "arrangement":
        lines = prod((line_power(n, d, 1) for d in h["singularity"]["components"]), start=one(n))
        reg_classes = h["degree"] * h_power(n, 1), line_power(n, 1, n + 1) * (one(n) - one(n) / lines)
    else:
        reg_classes = _smooth_model_classes(n, reg["closure"])
    by_name, below = {s["name"]: s for s in rest}, {}

    def lower(s):  # the names strictly below s; dimensions decrease along ``contains``
        if s["name"] not in below:
            below[s["name"]] = set(s.get("contains", ())).union(*(lower(by_name[t]) for t in s.get("contains", ())))
        return below[s["name"]]
    strata = [{"name": reg["name"], "dim": reg["dim"], "chiF": 1, "closure": _explicit(*reg_classes), "contains": []}]
    for s in rest:
        covered = [t for t in s.get("contains", ()) if not any(t in lower(by_name[u]) for u in s["contains"])]
        strata.append({"name": s["name"], "dim": s["dim"], "chiF": s["chiF"],
                       "closure": _explicit(*_smooth_model_classes(n, s["closure"])), "contains": covered})
    return _stratified(n, h["name"], h["degree"], strata)


def _stratified(n: int, name: str, degree: int, strata: list) -> dict:
    return {
        "ambient": {"kind": "projective", "dim": n},
        "hypersurfaces": [{"name": name, "degree": degree, "singularity": {"kind": "stratified"}, "strata": strata}],
    }


def cone_doc(doc: dict) -> dict:
    """The cone over X in P^(n+1), X of degree d in P^n in ``explicit_closures``
    form: a hypersurface of degree d.

    Each stratum S becomes the cone over S minus the vertex: dimension + 1,
    the same chiF (locally S x C), the same closure-class coefficients, and
    closure c^SM (1 + H) c^SM(S-bar) + [pt] (Aluffi and Marcolli,
    "Algebro-geometric Feynman rules", 2011).  A new vertex stratum has
    dimension 0 and chiF d (n + 1 - chi(X)), chi(X) the H^n coefficient of
    c^SM(X): the Milnor fibre {f = 1} of a homogeneous f is a d-sheeted
    unramified cover of P^n minus X (e.g. Dimca, "Singularities and Topology
    of Hypersurfaces", 1992).  The vertex is declared only under the
    minimal singular strata, so ``contains`` keeps covering relations only.
    """
    n = doc["ambient"]["dim"]
    [h] = doc["hypersurfaces"]
    reg = h["strata"][0]
    names = {s["name"] for s in h["strata"]}
    vertex = next(f"o{i}" for i in itertools.count() if f"o{i}" not in names)
    chi = make_class(n, reg["closure"]["csm"]).integer_coeffs()[n]
    point = h_power(n + 1, n + 1)
    strata = [
        {"name": s["name"], "dim": s["dim"] + 1, "chiF": s["chiF"],
         "closure": _explicit(make_class(n + 1, s["closure"]["class"]),
                              line_power(n + 1, 1, 1) * make_class(n + 1, s["closure"]["csm"]) + point),
         "contains": s["contains"] or ([] if s is reg else [vertex])}
        for s in h["strata"]
    ]
    strata.append({"name": vertex, "dim": 0, "chiF": h["degree"] * (n + 1 - chi),
                   "closure": _explicit(point, point), "contains": []})
    return _stratified(n + 1, h["name"], h["degree"], strata)


def cut_doc(doc: dict) -> dict:
    """X cut by a generic hyperplane H, a hypersurface of degree d in
    H = P^(n-1), X in ``explicit_closures`` form.

    A generic H misses the point strata.  Each stratum of positive
    dimension loses one dimension and keeps its chiF (H is transversal to
    it); its closure class [S-bar] becomes H [S-bar], and its closure c^SM c
    becomes H c / (1 + H), the Verdier-Riemann-Roch formula for a
    transversal hyperplane, both read in P^(n-1), where H^(j+1) of P^n is
    H^j.
    """
    n = doc["ambient"]["dim"]
    [h] = doc["hypersurfaces"]
    kept = [s for s in h["strata"] if s["dim"] > 0]
    names = {s["name"] for s in kept}
    strata = [
        {"name": s["name"], "dim": s["dim"] - 1, "chiF": s["chiF"],
         "closure": {"kind": "explicit", "class": s["closure"]["class"][:n],
                     "csm": list((make_class(n, s["closure"]["csm"]) / line_power(n, 1, 1)).integer_coeffs())[:n]},
         "contains": [t for t in s["contains"] if t in names]}
        for s in kept
    ]
    return _stratified(n - 1, h["name"], h["degree"], strata)
