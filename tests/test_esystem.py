"""The E-system: polynomial values, subset solutions, liftings."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import yhecke.esystem
from yhecke.esystem import (
    ESolution,
    ESystemError,
    e_polynomial,
    enumerate_subsets,
    lift_subset,
    render_subset,
    solution_from_subset,
    verify_solution,
    zeta_value,
)
from yhecke.exactnum import Cyclotomic


def cy(d: int, q) -> Cyclotomic:
    return Cyclotomic.from_rational(d, q)


def e_polynomial_oracle(d: int, m: int, values) -> Cyclotomic:
    """Blunt restatement of the double-indexed sum, with its own index
    arithmetic."""
    total = Cyclotomic.zero(values[0].order)
    for s in range(d):
        i = (m + s) % d
        j = (d - s) % d
        total = total + values[i] * values[j]
    return total


def test_e_polynomial_examples():
    assert e_polynomial(1, 0, (cy(1, 1),)) == cy(1, 1)
    vals = (cy(2, 1), cy(2, 1))
    assert e_polynomial(2, 0, vals) == cy(2, 2)
    assert e_polynomial(2, 1, vals) == cy(2, 2)


def test_verify_solution_examples():
    assert verify_solution(1, (cy(1, 1),))
    assert verify_solution(3, (cy(3, 1), cy(3, 0), cy(3, 0)))
    assert not verify_solution(2, (cy(2, 1), cy(2, Fraction(1, 2))))
    with pytest.raises(ValueError):
        verify_solution(2, (cy(2, 2), cy(2, 1)))


def test_solution_from_subset_examples():
    s1 = solution_from_subset(1, {0})
    assert s1.values == (cy(1, 1),)
    s2 = solution_from_subset(2, {0, 1})
    assert s2.values[1] == cy(2, 0)
    s4 = solution_from_subset(4, {1})
    assert s4.values == (
        cy(4, 1),
        Cyclotomic.root(4, 1),
        cy(4, -1),
        -Cyclotomic.root(4, 1),
    )


def test_esolution_validates_on_construction():
    with pytest.raises(ValueError):
        ESolution(2, frozenset(), (cy(2, 1), cy(2, 0)))
    with pytest.raises(ValueError):
        ESolution(2, frozenset({0}), (cy(2, 1), cy(2, Fraction(1, 2))))
    with pytest.raises(ValueError):
        solution_from_subset(3, set())


@pytest.mark.parametrize("d", range(1, 9))
def test_all_subset_solutions_verify_exhaustively(d):
    count = 0
    for subset in enumerate_subsets(d):
        sol = solution_from_subset(d, subset)
        assert verify_solution(d, sol.values)
        for m in range(d):
            assert e_polynomial(d, m, sol.values) == e_polynomial_oracle(d, m, sol.values)
        count += 1
    assert count == 2**d - 1


@pytest.mark.parametrize("d", [9, 10])
def test_sampled_subset_solutions_verify(d):
    rng = random.Random(d)
    for _ in range(40):
        subset = frozenset(
            rng.sample(range(d), rng.randint(1, d))
        )
        sol = solution_from_subset(d, subset)
        assert verify_solution(d, sol.values)


def test_d3_printed_system():
    """For d = 3 the E-condition is the pair x1 + x2^2 = 2 x1^2 x2 and
    x1^2 + x2 = 2 x1 x2^2; all 7 subsets satisfy both exactly."""
    two = cy(3, 2)
    for subset in enumerate_subsets(3):
        sol = solution_from_subset(3, subset)
        _, x1, x2 = sol.values
        assert x1 + x2 * x2 == two * x1 * x1 * x2
        assert x1 * x1 + x2 == two * x1 * x2 * x2


def test_zeta_value_examples():
    assert zeta_value(solution_from_subset(1, {0})) == 1
    assert zeta_value(solution_from_subset(3, {0, 1, 2})) == Fraction(1, 3)
    assert zeta_value(solution_from_subset(6, {0, 3})) == Fraction(1, 2)


def test_lift_subset_examples():
    assert lift_subset(3, 3, {0, 2}) == frozenset({0, 2})
    assert lift_subset(2, 4, {0}) == frozenset({0, 2})
    assert lift_subset(2, 6, {1}) == frozenset({1, 3, 5})
    with pytest.raises(ValueError):
        lift_subset(4, 6, {0})
    with pytest.raises(ValueError):
        lift_subset(2, 4, set())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lift_cardinality_law(data):
    d = data.draw(st.integers(1, 6))
    mult = data.draw(st.integers(1, 3))
    d_prime = d * mult
    subset = frozenset(
        data.draw(st.sets(st.integers(0, d - 1), min_size=1, max_size=d))
    )
    lifted = lift_subset(d, d_prime, subset)
    assert len(lifted) == len(subset) * d_prime // d


def test_lift_transitivity_exhaustive_up_to_12():
    for d in range(1, 13):
        for dp in range(d, 13, d):
            for dpp in range(dp, 13, dp):
                for subset in enumerate_subsets(d):
                    direct = lift_subset(d, dpp, subset)
                    via = lift_subset(dp, dpp, lift_subset(d, dp, subset))
                    assert direct == via


def test_lifted_solutions_still_verify():
    for d, dp in [(2, 4), (2, 6), (3, 6), (4, 12)]:
        for subset in enumerate_subsets(d):
            lifted = lift_subset(d, dp, subset)
            sol = solution_from_subset(dp, lifted)
            assert verify_solution(dp, sol.values)
            assert zeta_value(sol) == Fraction(1, len(subset) * dp // d)


def test_render_subset():
    assert render_subset(4, {2, 0}) == "{0,2} mod 4"
    assert str(solution_from_subset(2, {0})) == "{0} mod 2"


# -- subset spellings and failed checks ---------------------------------------

def counting_verify(monkeypatch, result=None):
    """Count calls of the E-system check; with ``result`` set, fake its answer."""
    calls = []
    real = yhecke.esystem.verify_solution

    def check(d, values):
        calls.append(d)
        return real(d, values) if result is None else result

    monkeypatch.setattr(yhecke.esystem, "verify_solution", check)
    return calls


def test_subset_spellings_mod_d_share_one_verified_solution(monkeypatch):
    calls = counting_verify(monkeypatch)
    sols = [solution_from_subset(4, s) for s in ([1, 0], {0, 1}, {4, 1})]
    assert sols[0] == sols[1] == sols[2]
    assert sols[0].subset == frozenset({0, 1})
    assert calls == [4, 4, 4]


def test_empty_subset_raises_every_time_and_is_not_cached():
    for _ in range(3):
        with pytest.raises(ValueError):
            solution_from_subset(3, set())


def test_failed_check_raises_on_every_repeat(monkeypatch):
    calls = counting_verify(monkeypatch, result=False)
    for _ in range(3):
        with pytest.raises(ESystemError):
            solution_from_subset(2, {0})
    assert calls == [2, 2, 2]
