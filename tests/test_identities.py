import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from milnorcalc import engine, identities
from milnorcalc.chow import ChowClass, one, zero
from milnorcalc.engine import milnor_expansion, milnor_product, milnor_telescope
from milnorcalc.identities import (
    RandomInstance,
    _draws,
    check_expansion_identity,
    check_identities,
    check_telescope_identity,
    random_instance,
    sweep,
)
from milnorcalc.records import replace


def test_instances_are_reproducible():
    a = random_instance(random.Random(5), 4, 3, seed=5)
    b = random_instance(random.Random(5), 4, 3, seed=5)
    assert a == b
    assert a.cfj_list == b.cfj_list


def test_seed_draws_the_same_numerators():
    """A seed keeps drawing the trials it drew when classes were built
    through the checked constructor."""
    inst = random_instance(random.Random(5), 4, 3, seed=5)
    assert inst.codims == (5, 3, 3)
    assert [c.integer_coeffs() for c in inst.csm_list] == [
        (7, -9, 5, -2, -8), (-4, -6, 2, 6, -2), (3, 8, -6, 9, -2),
    ]
    assert [c.integer_coeffs() for c in inst.m_list] == [
        (-9, -3, 4, -1, -4), (3, -4, -7, -5, 5), (-5, -5, -9, -9, -3),
    ]
    assert inst.cfj_list is inst.cfj_list


@given(st.integers(0, 2**64), st.integers(-10**6, 10**6),
       st.one_of(st.integers(0, 2**70), st.integers(-5, -1)), st.integers(0, 40))
def test_draws_are_the_randint_stream(seed, lo, width, count):
    """The draw helper is CPython's randint, value for value and state for state;
    an empty range (width < 0) raises the same error before the first draw."""
    rng, reference = random.Random(seed), random.Random(seed)
    try:
        expected = [reference.randint(lo, lo + width) for _ in range(count)]
    except ValueError:
        with pytest.raises(ValueError):
            _draws(rng, lo, lo + width, count)
    else:
        assert _draws(rng, lo, lo + width, count) == expected
    assert rng.getstate() == reference.getstate()


def test_cfj_relation_holds_per_factor():
    inst = random_instance(random.Random(11), 5, 2, seed=11)
    for cfj, csm, m, d in zip(inst.cfj_list, inst.csm_list, inst.m_list, inst.codims):
        sign = 1 if (inst.n - d) % 2 == 0 else -1
        assert cfj - csm == sign * m


@given(st.lists(st.tuples(st.integers(1, 5), st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=4),
       st.integers(1, 7))
def test_cfj_list_is_the_class_sum_for_given_and_replaced_trials(factors, n):
    """``cfj_list`` is derived, never passed: it equals csm +- m for classes
    given by hand too, and ``replace`` forms it again from the new fields."""
    codims = tuple(d for d, _, _ in factors)
    csm = tuple(ChowClass(n, [a * (k + 2) for k in range(n + 1)]) for _, a, _ in factors)
    m = tuple(ChowClass(n, [b - 3 * k for k in range(n + 1)]) for _, _, b in factors)
    inst = RandomInstance(0, n, len(factors), codims, csm, m)
    assert inst.cfj_list == tuple(c - x if (n - d) % 2 else c + x for c, x, d in zip(csm, m, codims))
    swapped = replace(inst, m_list=csm)
    assert swapped.cfj_list == tuple(c - c if (n - d) % 2 else c + c for c, d in zip(csm, codims))
    with pytest.raises(ValueError):
        RandomInstance(0, n, 1, codims[:1], csm[:1], (one(n + 1),))


def test_expansion_identity_small_cases():
    assert check_expansion_identity(4, 2, trials=100, seed=42).passed
    assert check_expansion_identity(4, 1, trials=50, seed=1).passed
    assert check_expansion_identity(6, 3, trials=100, seed=3).passed


def test_telescope_identity_small_cases():
    assert check_telescope_identity(4, 2, trials=100, seed=42).passed
    assert check_telescope_identity(4, 1, trials=50, seed=1).passed
    assert check_telescope_identity(7, 4, trials=50, seed=9).passed


def test_r1_reduces_to_the_definition():
    inst = random_instance(random.Random(2), 5, 1, seed=2)
    m, csm, cfj, d = inst.m_list[0], inst.csm_list[0], inst.cfj_list[0], inst.codims[0]
    expansion = milnor_expansion([m], [csm], [d], 5)
    telescope = milnor_telescope([m], [csm], [cfj], [d], 5)
    product = milnor_product([cfj], [csm], 5, 5 - d)
    assert expansion == m
    assert telescope == m
    assert product == m


def test_invalid_ranges_rejected():
    with pytest.raises(ValueError):
        check_expansion_identity(4, 0)
    with pytest.raises(ValueError):
        check_telescope_identity(3, 4)
    with pytest.raises(ValueError):
        check_expansion_identity(4, 2, trials=0)


def test_reports_render_deterministically():
    first = check_expansion_identity(5, 2, trials=20, seed=7).render()
    check_identities.cache_clear()  # recompute, do not read the memo
    second = check_expansion_identity(5, 2, trials=20, seed=7).render()
    assert first == second
    assert "failures=0" in first


def test_failures_are_detected():
    # sabotage one factor so the tied relation breaks
    inst = random_instance(random.Random(3), 4, 2, seed=3)
    broken = RandomInstance(
        inst.seed, inst.n, inst.r, inst.codims,
        inst.csm_list, (inst.m_list[0] + inst.csm_list[0], inst.m_list[1]),
    )
    lhs = milnor_product(inst.cfj_list, inst.csm_list, inst.n, inst.dim_x)
    rhs = milnor_expansion(broken.m_list, broken.csm_list, broken.codims, inst.n)
    assert lhs != rhs or inst.csm_list[0] == zero(4)


def test_sweep_covers_the_grid():
    reports = list(sweep(n_range=range(2, 4), max_r=2, trials=5, seed=0))
    cells = {(r.n, r.r, r.identity) for r in reports}
    assert len(cells) == len(reports) == 2 * (2 + 2)
    assert all(r.passed for r in reports)


def test_paired_checks_draw_each_trial_once(monkeypatch):
    drawn = []
    draw = identities.random_instance
    monkeypatch.setattr(identities, "random_instance", lambda *a: drawn.append(1) or draw(*a))
    check_identities.cache_clear()
    expansion = check_expansion_identity(5, 3, trials=30, seed=12)
    telescope = check_telescope_identity(5, 3, trials=30, seed=12)
    check_identities.cache_clear()
    assert len(drawn) == 30
    assert (expansion, telescope) == check_identities(5, 3, 30, 12)
    assert [rep.identity for rep in (expansion, telescope)] == [
        "expansion identity", "telescope identity (cor11)",
    ]


def test_a_broken_telescope_fails_only_its_own_report(monkeypatch):
    """Every trial is still compared with both routes: a telescope that is
    off on trials 2 and 5 leaves the expansion report clean."""
    calls = []
    telescope = identities.milnor_telescope

    def broken(*args):
        value = telescope(*args)
        calls.append(1)
        return value + one(value.ambient_dim) if len(calls) in (3, 6) else value

    check_identities.cache_clear()
    monkeypatch.setattr(identities, "milnor_telescope", broken)
    try:
        expansion, tele = check_identities(4, 2, 8, 3)
    finally:
        check_identities.cache_clear()
    assert expansion.failures == ()
    assert tele.failures == (2, 5)
    assert tele.render().endswith("failures=2 (trials 2, 5)")


def count_sums(monkeypatch):
    """Record the pair count of every ``engine.dot`` call and count class
    additions and subtractions."""
    dots, sums = [], []
    dot = engine.dot
    monkeypatch.setattr(engine, "dot", lambda pairs, n: dots.append(len(pairs)) or dot(pairs, n))
    for name in ("__add__", "__sub__"):
        method = getattr(ChowClass, name)
        monkeypatch.setattr(ChowClass, name, lambda a, b, f=method: sums.append(1) or f(a, b))
    return dots, sums


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_the_expansion_forms_its_mixed_products_in_one_dot(monkeypatch, r):
    """All 2^r - 1 mixed products go to one accumulator, each its own pair:
    the expansion is not factored into a copy of the product rule."""
    inst = random_instance(random.Random(r), 6, r, seed=r)
    expected = milnor_product(inst.cfj_list, inst.csm_list, 6, inst.dim_x)
    dots, sums = count_sums(monkeypatch)
    assert milnor_expansion(inst.m_list, inst.csm_list, inst.codims, 6) == expected
    assert dots == [2**r - 1]
    assert sums == []


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_the_telescope_sums_one_pair_per_factor(monkeypatch, r):
    inst = random_instance(random.Random(r), 6, r, seed=r)
    expected = milnor_product(inst.cfj_list, inst.csm_list, 6, inst.dim_x)
    dots, sums = count_sums(monkeypatch)
    assert milnor_telescope(inst.m_list, inst.csm_list, inst.cfj_list, inst.codims, 6) == expected
    assert dots == [r]
    assert sums == []


@pytest.mark.parametrize("n, r", [(2, 1), (4, 3), (8, 4)])
def test_a_trial_negates_adds_and_subtracts_no_class(monkeypatch, n, r):
    """Signs ride as ``dot`` weights and a trial's classes come from its drawn
    integers, so one trial, drawing included, makes no class sum or negation."""
    calls = []
    for name in ("__neg__", "__add__", "__sub__"):
        method = getattr(ChowClass, name)
        monkeypatch.setattr(ChowClass, name, lambda *a, f=method, name=name: calls.append(name) or f(*a))
    check_identities.cache_clear()
    try:
        expansion, telescope = check_identities(n, r, 1, 5)
    finally:
        check_identities.cache_clear()
    assert expansion.passed and telescope.passed
    assert calls == []
