from __future__ import annotations

import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from milnorcalc.chow import ChowClass

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

coefficients = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)


def chow_class(n: int, coeff=coefficients):
    return st.lists(coeff, min_size=n + 1, max_size=n + 1).map(
        lambda cs: ChowClass(n, tuple(Fraction(c) for c in cs))
    )


@st.composite
def classes(draw, count: int = 1, min_dim: int = 0, max_dim: int = 6, coeff=coefficients):
    """`count` classes sharing one random ambient dimension."""
    n = draw(st.integers(min_dim, max_dim))
    drawn = [draw(chow_class(n, coeff)) for _ in range(count)]
    return drawn[0] if count == 1 else tuple(drawn)


@st.composite
def unit_classes(draw, min_dim: int = 0, max_dim: int = 6):
    """Classes with an invertible (nonzero) constant term."""
    c = draw(classes())
    head = draw(st.one_of(st.integers(1, 9), st.integers(-9, -1)))
    return ChowClass(c.ambient_dim, (Fraction(head),) + c.coeffs[1:])


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
