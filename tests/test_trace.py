"""The Markov trace: defining rules, cyclicity, factorization under the
E-condition, and the closed-form values used downstream."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import random_braid, random_element
from yhecke.braid import parse_braid
from yhecke.esystem import enumerate_subsets, solution_from_subset, zeta_value
from yhecke.exactnum import (
    LaurentU,
    OrderMismatchError,
    RatFunc,
    TracePolynomial,
    laurent_u_minus_one,
    substitute_x_values,
    trace_poly_substitute,
)
from yhecke.trace import markov_trace, trace_of_braid
from yhecke.yokonuma import (
    AlgebraElement,
    embed,
    framing_generator,
    generator,
    generator_inverse,
    idempotent_e,
    multiply,
    represent_braid,
)


def su(d: int, c) -> TracePolynomial:
    return TracePolynomial.from_scalar(d, c)


def hopf_trace_oracle(d: int) -> TracePolynomial:
    """Direct expansion of the quadratic relation against the trace rules:
    tr(g^2) = 1 + (u-1) * (1/d) sum_m x_m x_{d-m} - (u-1) z."""
    w = laurent_u_minus_one()
    acc = TracePolynomial.one(d)
    avg = TracePolynomial.zero(d)
    for m in range(d):
        avg = avg + TracePolynomial.x_var(d, m) * TracePolynomial.x_var(d, (d - m) % d)
    acc = acc + avg.scale(w * Fraction(1, d))
    acc = acc - TracePolynomial.z_var(d).scale(w)
    return acc


def trefoil_trace_oracle(d: int) -> TracePolynomial:
    """tr(g^3) = (u^2-u+1) z - (u^2-u) * (1/d) sum_m x_m x_{d-m}."""
    uu = LaurentU.from_dict({2: 1, 1: -1})  # u^2 - u
    avg = TracePolynomial.zero(d)
    for m in range(d):
        avg = avg + TracePolynomial.x_var(d, m) * TracePolynomial.x_var(d, (d - m) % d)
    return (
        TracePolynomial.z_var(d).scale(uu + 1)
        - avg.scale(uu * Fraction(1, d))
    )


def test_trace_of_unit_and_generator():
    for d, n in [(1, 2), (2, 2), (3, 3)]:
        assert markov_trace(AlgebraElement.one(d, n)) == TracePolynomial.one(d)
        assert markov_trace(generator(d, n, 1)) == TracePolynomial.z_var(d)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_trace_of_framing_power(d):
    for m in range(1, d):
        t2m = framing_generator(d, 2, 2, m)
        assert markov_trace(t2m) == TracePolynomial.x_var(d, m)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_trace_of_g_squared_matches_direct_expansion(d):
    g = generator(d, 2, 1)
    assert markov_trace(multiply(g, g)) == hopf_trace_oracle(d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_trace_of_g_cubed_matches_direct_expansion(d):
    assert trace_of_braid(d, parse_braid("1 1 1")) == trefoil_trace_oracle(d)


def test_trace_d1_sigma_squared():
    # d = 1 collapses the idempotent: tr(g^2) = 1 + (u-1) - (u-1) z.
    got = trace_of_braid(1, parse_braid("1 1"))
    expected = su(1, LaurentU.from_dict({1: 1})) - TracePolynomial.z_var(1).scale(
        laurent_u_minus_one()
    )
    assert got == expected


def test_trace_of_braid_substituted():
    sol = solution_from_subset(3, {0, 1, 2})
    f = trace_of_braid(3, parse_braid("1 1 1"), sol)
    u = RatFunc.u_var()
    z = RatFunc.z_var()
    zeta = Fraction(1, 3)
    assert f == (u * u - u + 1) * z - (u * u - u) * zeta


def test_trace_of_identity_braid():
    assert trace_of_braid(4, parse_braid("3:")) == TracePolynomial.one(4)


@pytest.mark.parametrize("d,n", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)])
def test_cyclicity_on_random_pairs(d, n):
    rng = random.Random(d * 31 + n)
    for _ in range(30):
        a = random_element(rng, d, n)
        b = random_element(rng, d, n)
        assert markov_trace(multiply(a, b)) == markov_trace(multiply(b, a))


@pytest.mark.parametrize("d,n", [(1, 2), (2, 2), (3, 2), (2, 3)])
def test_markov_and_framing_rules_on_random_elements(d, n):
    rng = random.Random(d * 17 + n)
    z = TracePolynomial.z_var(d)
    for _ in range(20):
        a = random_element(rng, d, n)
        big = embed(a, n + 1)
        g_n = generator(d, n + 1, n)
        assert markov_trace(multiply(big, g_n)) == z * markov_trace(a)
        for m in range(1, d):
            t_next = framing_generator(d, n + 1, n + 1, m)
            assert markov_trace(multiply(big, t_next)) == TracePolynomial.x_var(d, m) * markov_trace(a)


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3)])
def test_trace_of_alpha_e_g_rule(d, n):
    """tr(a e_n g_n) = z tr(a): the idempotent is transparent next to g_n."""
    rng = random.Random(d * 7 + n)
    z = TracePolynomial.z_var(d)
    e_g = multiply(idempotent_e(d, n + 1, n), generator(d, n + 1, n))
    for _ in range(15):
        a = random_element(rng, d, n)
        big = embed(a, n + 1)
        assert markov_trace(multiply(big, e_g)) == z * markov_trace(a)


@pytest.mark.parametrize("d,n", [(1, 2), (2, 2), (3, 2), (2, 3)])
def test_trace_inverse_rule_generic(d, n):
    """tr(a g_n^-1) = tr(a g_n) - (u^-1 - 1) tr(a e_n) + (u^-1 - 1) tr(a e_n g_n),
    before any substitution."""
    rng = random.Random(d * 23 + n)
    w = LaurentU.from_dict({-1: 1, 0: -1})
    g_n = generator(d, n + 1, n)
    g_inv = generator_inverse(d, n + 1, n)
    e_n = idempotent_e(d, n + 1, n)
    e_g = multiply(e_n, g_n)
    for _ in range(10):
        big = embed(random_element(rng, d, n), n + 1)
        lhs = markov_trace(multiply(big, g_inv))
        rhs = (
            markov_trace(multiply(big, g_n))
            - markov_trace(multiply(big, e_n)).scale(w)
            + markov_trace(multiply(big, e_g)).scale(w)
        )
        assert lhs == rhs


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_trace_of_idempotent_is_zeta_under_solutions(d):
    """tr(e_i) = 1/|S| under every subset solution."""
    e = idempotent_e(d, 2, 1)
    tr = markov_trace(e)
    for subset in enumerate_subsets(d):
        sol = solution_from_subset(d, subset)
        val = trace_poly_substitute(tr, sol)
        assert val == RatFunc.from_scalar(zeta_value(sol))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_factorization_under_solutions(d):
    """tr(a e_n) = tr(a) tr(e_n) under every E-solution."""
    rng = random.Random(d * 3)
    n = 2
    e_n = idempotent_e(d, n + 1, n)
    solutions = [solution_from_subset(d, S) for S in enumerate_subsets(d)]
    for _ in range(10):
        a = random_element(rng, d, n)
        lhs = markov_trace(multiply(embed(a, n + 1), e_n))
        rhs = markov_trace(a)
        for sol in solutions:
            assert substitute_x_values(lhs, sol.values) == tuple(
                f * zeta_value(sol) for f in substitute_x_values(rhs, sol.values)
            )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_trace_inverse_rule_under_solutions(d):
    """tr(a g_n^-1) = ((z + (u-1) zeta)/u) tr(a) once the E-condition holds."""
    rng = random.Random(d * 13)
    n = 2
    g_inv = generator_inverse(d, n + 1, n)
    u = RatFunc.u_var()
    z = RatFunc.z_var()
    for subset in enumerate_subsets(d):
        sol = solution_from_subset(d, subset)
        factor = (z + (u - 1) * zeta_value(sol)) / u
        for _ in range(5):
            a = random_element(rng, d, n)
            lhs = substitute_x_values(
                markov_trace(multiply(embed(a, n + 1), g_inv)), sol.values
            )
            rhs = tuple(factor * f for f in substitute_x_values(markov_trace(a), sol.values))
            assert lhs == rhs


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_substituted_braid_traces_are_rational(d):
    """Under every subset solution the trace of a braid image has zero
    coordinates on zeta_d^i for i >= 1, and trace_of_braid returns
    coordinate 0."""
    rng = random.Random(500 + d)
    solutions = [solution_from_subset(d, S) for S in enumerate_subsets(d)]
    for n in (2, 3, 4):
        for _ in range(3):
            b = random_braid(rng, n, len_max=5)
            poly = trace_of_braid(d, b)
            for sol in solutions:
                value, *rest = substitute_x_values(poly, sol.values)
                assert all(f.is_zero() for f in rest)
                assert trace_of_braid(d, b, sol) == value


def test_substituted_braid_trace_depends_only_on_subset_size():
    """The trace of a braid at (d, S) equals its trace at (|S|, Z/|S|Z), the
    full subset, where every x_m with m != 0 is 0, and both equal the full
    computation in Y_{d,n} substituted at (d, S)."""
    rng = random.Random(77)
    for n in (2, 3, 4):
        for _ in range(4):
            b = random_braid(rng, n, len_max=7)
            full = {
                k: trace_of_braid(k, b, solution_from_subset(k, range(k)))
                for k in range(1, (3 if n == 4 else 5) + 1)
            }
            for d in range(1, len(full) + 1):
                poly = markov_trace(represent_braid(d, b))
                for S in enumerate_subsets(d):
                    sol = solution_from_subset(d, S)
                    assert trace_of_braid(d, b, sol) == full[len(S)], (d, S, b)
                    assert trace_poly_substitute(poly, sol) == full[len(S)], (d, S, b)


def test_trace_of_braid_rejects_a_solution_of_another_order():
    b = parse_braid("1 1 1")
    with pytest.raises(OrderMismatchError, match="order 3 does not match solution order 2"):
        trace_of_braid(3, b, solution_from_subset(2, {0}))


# -- the integer kernel ----------------------------------------------------------

@pytest.mark.parametrize("d,n", [(1, 4), (2, 3), (3, 3), (4, 2), (4, 3), (2, 4), (4, 4)])
def test_trace_is_cyclic_on_braid_images_and_rational_elements(d, n):
    rng = random.Random(1000 * d + n)
    for _ in range(4):
        a = represent_braid(d, random_braid(rng, n, len_max=5))
        b = represent_braid(d, random_braid(rng, n, len_max=5))
        assert markov_trace(multiply(a, b)) == markov_trace(multiply(b, a))
        # coefficients with denominators that are not powers of d
        c = random_element(rng, d, n)
        assert markov_trace(multiply(a, c)) == markov_trace(multiply(c, a))


def test_trace_of_rational_element_is_linear():
    rng = random.Random(7)
    for d, n in ((2, 3), (3, 3), (4, 3)):
        a = random_element(rng, d, n)
        b = random_element(rng, d, n)
        c = LaurentU.from_dict({-1: Fraction(2, 3), 2: Fraction(-5, 7)})
        assert markov_trace(a.scale(c) + b) == markov_trace(a).scale(c) + markov_trace(b)
