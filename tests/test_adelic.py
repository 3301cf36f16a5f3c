"""Divisor chains, connecting maps, coherence, and the truncated adelic
invariant."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import random_braid, random_conjugator, random_element
from yhecke.adelic import (
    CoherenceError,
    CoherentElement,
    CoherentTrace,
    DivisibilityError,
    DivisorChain,
    adelic_delta,
    adelic_trace,
    coherent_represent,
    rho,
    theta,
    xi,
)
from yhecke.braid import BraidWord, markov_conjugate, markov_stabilize, parse_braid
from yhecke.esystem import lift_subset
from yhecke.exactnum import RatFunc, TracePolynomial
from yhecke.invariant import InvariantValue, lambda_param
from yhecke.trace import markov_trace
from yhecke.yokonuma import AlgebraElement, generator, idempotent_e, multiply, represent_braid


def test_divisor_chain_validation():
    DivisorChain((1, 2, 4))
    DivisorChain((3,))
    with pytest.raises(ValueError):
        DivisorChain(())
    with pytest.raises(ValueError):
        DivisorChain((2, 3))
    with pytest.raises(ValueError):
        DivisorChain((2, 2))
    with pytest.raises(ValueError):
        DivisorChain((0, 2))
    assert DivisorChain.parse("2,4,8").entries == (2, 4, 8)
    with pytest.raises(ValueError):
        DivisorChain.parse("2,x")
    assert str(DivisorChain((3, 6))) == "3,6"


def test_theta_examples():
    assert theta(2, 4, 3) == 1
    assert theta(5, 5, 2) == 2
    assert theta(3, 6, 5) == 2
    with pytest.raises(DivisibilityError):
        theta(4, 6, 1)


def test_rho_examples():
    # rho of the higher idempotent is the lower idempotent
    for d, dp in [(1, 2), (2, 4), (3, 6), (2, 6)]:
        assert rho(d, dp, idempotent_e(dp, 2, 1)) == idempotent_e(d, 2, 1)
        assert rho(d, dp, generator(dp, 3, 2)) == generator(d, 3, 2)
    # framings reduce mod d
    from yhecke.yokonuma import framing_generator

    assert rho(2, 4, framing_generator(4, 2, 1, 3)) == framing_generator(2, 2, 1, 1)
    with pytest.raises(DivisibilityError):
        rho(3, 4, AlgebraElement.one(4, 2))
    with pytest.raises(ValueError):
        rho(2, 4, AlgebraElement.one(2, 2))


def test_rho_is_ring_map_on_random_elements():
    rng = random.Random(42)
    for d, dp in [(2, 4), (3, 6)]:
        for _ in range(10):
            a = random_element(rng, dp, 3)
            b = random_element(rng, dp, 3)
            assert rho(d, dp, multiply(a, b)) == multiply(rho(d, dp, a), rho(d, dp, b))
            assert rho(d, dp, a + b) == rho(d, dp, a) + rho(d, dp, b)


def test_xi_examples():
    x = TracePolynomial.x_var
    assert xi(2, 4, x(4, 3)) == x(2, 1)
    assert xi(2, 4, x(4, 2)) == TracePolynomial.one(2)
    z6 = TracePolynomial.z_var(6)
    got = xi(3, 6, z6 * x(6, 5) + x(6, 2))
    z3 = TracePolynomial.z_var(3)
    assert got == z3 * x(3, 2) + x(3, 2)
    with pytest.raises(DivisibilityError):
        xi(4, 6, TracePolynomial.one(6))
    with pytest.raises(ValueError):
        xi(2, 4, TracePolynomial.one(2))


def test_connecting_maps_functorial():
    rng = random.Random(9)
    for d, dp, dpp in [(1, 2, 4), (2, 4, 12), (3, 6, 12), (1, 3, 6)]:
        for m in range(dpp):
            assert theta(d, dp, theta(dp, dpp, m)) == theta(d, dpp, m)
        for _ in range(5):
            a = random_element(rng, dpp, 2)
            assert rho(d, dp, rho(dp, dpp, a)) == rho(d, dpp, a)
            p = markov_trace(a)
            assert xi(d, dp, xi(dp, dpp, p)) == xi(d, dpp, p)


@pytest.mark.parametrize("chain", [(1, 2), (2, 4), (3, 6), (2, 6, 12)])
def test_representation_diagram_commutes(chain):
    rng = random.Random(sum(chain))
    chain_obj = DivisorChain(chain)
    for _ in range(10):
        b = random_braid(rng, n_max=3, len_max=6)
        ce = coherent_represent(chain_obj, b)  # verifies rho-coherence internally
        for d, part in zip(chain, ce.parts):
            assert part == represent_braid(d, b)


@pytest.mark.parametrize("chain", [(1, 2), (2, 4), (3, 6), (2, 6, 12)])
def test_trace_diagram_commutes(chain):
    rng = random.Random(3 * sum(chain))
    for _ in range(10):
        a = random_element(rng, chain[-1], rng.randint(2, 3))
        parts = [markov_trace(rho(d, chain[-1], a)) for d in chain]
        for j in range(len(chain) - 1):
            assert xi(chain[j], chain[j + 1], parts[j + 1]) == parts[j]


def test_coherent_element_rejects_violations():
    chain = DivisorChain((2, 4))
    good = coherent_represent(chain, parse_braid("1 -2 1"))
    bad_parts = (generator(2, 3, 1), generator(4, 3, 2))
    with pytest.raises(CoherenceError):
        CoherentElement(chain, bad_parts)
    with pytest.raises(ValueError):
        CoherentElement(chain, (good.parts[0],))
    with pytest.raises(ValueError):
        CoherentElement(chain, (good.parts[1], good.parts[1]))


def test_coherent_trace_construction_and_rejection():
    chain = DivisorChain((2, 4))
    ce = coherent_represent(chain, parse_braid("1 1"))
    ct = adelic_trace(ce)
    assert isinstance(ct, CoherentTrace)
    with pytest.raises(CoherenceError):
        CoherentTrace(chain, (TracePolynomial.z_var(2), TracePolynomial.one(4)))


def test_coherent_represent_examples():
    chain = DivisorChain((1, 2, 4))
    ce = coherent_represent(chain, parse_braid("1"))
    assert ce.parts == (generator(1, 2, 1), generator(2, 2, 1), generator(4, 2, 1))
    single = coherent_represent(DivisorChain((3,)), parse_braid("1 -2 1"))
    assert len(single.parts) == 1


def test_adelic_trace_examples():
    chain = DivisorChain((1, 2))
    ce = coherent_represent(chain, parse_braid("1"))
    ct = adelic_trace(ce)
    assert ct.parts == (TracePolynomial.z_var(1), TracePolynomial.z_var(2))
    e_parts = (idempotent_e(1, 2, 1), idempotent_e(2, 2, 1))
    ct2 = adelic_trace(CoherentElement(chain, e_parts))
    x1 = TracePolynomial.x_var(2, 1)
    assert ct2.parts[0] == TracePolynomial.one(1)
    assert ct2.parts[1] == (TracePolynomial.one(2) + x1 * x1).scale(Fraction(1, 2))
    ident = coherent_represent(chain, BraidWord(3, ()))
    assert adelic_trace(ident).parts == (TracePolynomial.one(1), TracePolynomial.one(2))


def test_adelic_delta_unknot_and_trefoil():
    assert adelic_delta(DivisorChain((1,)), {0}, BraidWord(1, ())) == (
        InvariantValue(1, 0, RatFunc.from_scalar(1)),
    )
    chain = DivisorChain((2, 4))
    vals = adelic_delta(chain, {0}, parse_braid("1 1 1"))
    for d, v in zip(chain.entries, vals):
        lifted = lift_subset(2, d, {0})
        lam = lambda_param(d, lifted)
        u, z = RatFunc.u_var(), RatFunc.z_var()
        body = (lam / z) * ((u * u - u + 1) * z - (u * u - u) * Fraction(1, len(lifted)))
        assert v == InvariantValue(d, 0, body)
    with pytest.raises(ValueError):
        adelic_delta(chain, set(), parse_braid("1"))


def test_coherent_idempotent_relations_componentwise():
    """The coherent idempotent tuple (e_{d,i})_d satisfies, at every level,
    commutation with the other idempotents and with the generators, plus
    the quadratic relation that defines the algebra."""
    from yhecke.exactnum import laurent_u_minus_one

    chain = DivisorChain((2, 4))
    n = 3
    for i in (1, 2):
        ce = CoherentElement(chain, tuple(idempotent_e(d, n, i) for d in chain.entries))
        for d, e_i in zip(chain.entries, ce.parts):
            one = AlgebraElement.one(d, n)
            w = laurent_u_minus_one()
            for j in (1, 2):
                e_j = idempotent_e(d, n, j)
                g_j = generator(d, n, j)
                assert multiply(e_i, e_j) == multiply(e_j, e_i)
                if j == i:
                    assert multiply(e_i, g_j) == multiply(g_j, e_i)
                else:
                    lhs = multiply(multiply(e_j, generator(d, n, i)), g_j)
                    rhs = multiply(multiply(generator(d, n, i), g_j), e_i)
                    assert lhs == rhs
            g_i = generator(d, n, i)
            assert multiply(g_i, g_i) == one + e_i.scale(w) - multiply(e_i, g_i).scale(w)


def test_adelic_delta_markov_invariance():
    chain = DivisorChain((2, 4))
    rng = random.Random(17)
    for _ in range(5):
        b = random_braid(rng, n_max=3, len_max=5)
        w = random_conjugator(rng, b.strands, len_max=3)
        base = adelic_delta(chain, {0}, b)
        assert adelic_delta(chain, {0}, markov_conjugate(b, w)) == base
        assert adelic_delta(chain, {0}, markov_stabilize(b, rng.choice((1, -1)))) == base
