"""The algebra Y_{d,n}: basis words, rewriting, relations, distinguished
elements."""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from conftest import (
    braid_image_oracle,
    letter_image_oracle,
    random_braid,
    random_element,
    tie_element,
    tie_keys,
)
from yhecke.adelic import rho
from yhecke.braid import BraidWord, parse_braid
from yhecke.exactnum import LaurentU, laurent_u_minus_one
from yhecke.yokonuma import (
    AlgebraElement,
    BasisWord,
    _word_times_letter,
    canonical_reduced_word,
    compose,
    embed,
    framing_generator,
    generator,
    generator_inverse,
    idempotent_e,
    identity_perm,
    multiply,
    perm_length,
    power_formula,
    represent_braid,
    transposition_perm,
)
from conftest import oracle_smallest_descent_word


# -- reduced words -------------------------------------------------------------

def test_canonical_reduced_word_examples():
    assert canonical_reduced_word((0, 1, 2)) == ()
    assert canonical_reduced_word((1, 0)) == (1,)
    assert canonical_reduced_word((2, 1, 0)) == (1, 2, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_canonical_reduced_word_properties(n):
    for perm in itertools.permutations(range(n)):
        word = canonical_reduced_word(perm)
        # matches the literal smallest-descent rule
        assert word == oracle_smallest_descent_word(perm)
        # length is the inversion count
        assert len(word) == perm_length(perm)
        # the word multiplies back to the permutation (leftmost acts last)
        acc = identity_perm(n)
        for i in word:
            acc = compose(acc, transposition_perm(n, i))
        assert acc == perm


# -- multiplication and relations ----------------------------------------------

def test_g_squared_expansion_d2():
    """Hand expansion of the quadratic relation for d = 2."""
    g = generator(2, 2, 1)
    sq = multiply(g, g)
    half = Fraction(1, 2)
    up = LaurentU.from_dict({1: half, 0: half})  # (u+1)/2
    um = LaurentU.from_dict({1: half, 0: -half})  # (u-1)/2
    ident = (0, 1)
    s1 = (1, 0)
    expected = {
        BasisWord(2, 2, (0, 0), ident): up,
        BasisWord(2, 2, (1, 1), ident): um,
        BasisWord(2, 2, (0, 0), s1): -um,
        BasisWord(2, 2, (1, 1), s1): -um,
    }
    assert sq.terms == expected


def test_unit_and_t_shift():
    one = AlgebraElement.one(3, 2)
    g = generator(3, 2, 1)
    assert multiply(one, g) == g and multiply(g, one) == g
    # t1 g1 = g1 t2: left-canonical form keeps the framing on strand 1.
    t1 = framing_generator(3, 2, 1)
    prod = multiply(t1, g)
    assert prod.terms == {BasisWord(3, 2, (1, 0), (1, 0)): LaurentU.from_scalar(1)}
    # and g1 t1 moves the framing to strand 2: g1 t1 = t2 g1.
    prod2 = multiply(g, t1)
    assert prod2.terms == {BasisWord(3, 2, (0, 1), (1, 0)): LaurentU.from_scalar(1)}


@pytest.mark.parametrize("d,n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 3)])
def test_defining_relations(d, n):
    one = AlgebraElement.one(d, n)
    w = laurent_u_minus_one()
    gens = [generator(d, n, i) for i in range(1, n)]
    ts = [framing_generator(d, n, j) for j in range(1, n + 1)]
    # braid and commuting relations
    for i in range(1, n):
        for j in range(1, n):
            gi, gj = gens[i - 1], gens[j - 1]
            if abs(i - j) > 1:
                assert multiply(gi, gj) == multiply(gj, gi)
            if abs(i - j) == 1:
                assert multiply(multiply(gi, gj), gi) == multiply(multiply(gj, gi), gj)
    # t-relations
    for a, b in itertools.product(ts, ts):
        assert multiply(a, b) == multiply(b, a)
    for j in range(1, n + 1):
        assert ts[j - 1] ** d == one
        for i in range(1, n):
            si = transposition_perm(n, i)
            target = ts[si[j - 1]]
            assert multiply(ts[j - 1], gens[i - 1]) == multiply(gens[i - 1], target)
    # quadratic relation
    for i in range(1, n):
        g = gens[i - 1]
        e = idempotent_e(d, n, i)
        assert multiply(g, g) == one + e.scale(w) - multiply(e, g).scale(w)


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (2, 4), (3, 4)])
def test_idempotent_relations(d, n):
    for i in range(1, n):
        e_i = idempotent_e(d, n, i)
        assert multiply(e_i, e_i) == e_i
        for j in range(1, n):
            e_j = idempotent_e(d, n, j)
            g_j = generator(d, n, j)
            assert multiply(e_i, e_j) == multiply(e_j, e_i)
            if j == i or abs(i - j) > 1:
                assert multiply(e_i, g_j) == multiply(g_j, e_i)
        for j in range(1, n):
            if abs(i - j) == 1:
                g_i, g_j = generator(d, n, i), generator(d, n, j)
                lhs = multiply(multiply(idempotent_e(d, n, j), g_i), g_j)
                rhs = multiply(multiply(g_i, g_j), idempotent_e(d, n, i))
                assert lhs == rhs


@pytest.mark.parametrize("d,n", [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_cubic_relations(d, n):
    """g^3 = -u g^2 + g + u, equivalently g^-1 = u^-1 g^2 + g - u^-1."""
    for i in range(1, n):
        g = generator(d, n, i)
        one = AlgebraElement.one(d, n)
        g2 = multiply(g, g)
        g3 = multiply(g2, g)
        u = LaurentU.u(1)
        assert g3 == g2.scale(-u) + g + one.scale(u)
        uinv = LaurentU.u(-1)
        assert generator_inverse(d, n, i) == g2.scale(uinv) + g - one.scale(uinv)


def test_idempotent_examples():
    assert idempotent_e(1, 2, 1) == AlgebraElement.one(1, 2)
    e = idempotent_e(2, 2, 1)
    half = LaurentU.from_scalar(Fraction(1, 2))
    assert e.terms == {
        BasisWord(2, 2, (0, 0), (0, 1)): half,
        BasisWord(2, 2, (1, 1), (0, 1)): half,
    }
    with pytest.raises(ValueError):
        idempotent_e(2, 2, 2)


@pytest.mark.parametrize("d,n", [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_power_formula_against_iterated_multiplication(d, n):
    for i in range(1, n):
        g = generator(d, n, i)
        gi = generator_inverse(d, n, i)
        acc = AlgebraElement.one(d, n)
        for m in range(0, 7):
            assert power_formula(d, n, i, m) == acc
            acc = multiply(acc, g)
        acc = AlgebraElement.one(d, n)
        for m in range(0, -7, -1):
            assert power_formula(d, n, i, m) == acc
            acc = multiply(acc, gi)


def test_power_formula_printed_cases():
    d, n = 3, 2
    g = generator(d, n, 1)
    e = idempotent_e(d, n, 1)
    eg = multiply(e, g)
    assert power_formula(d, n, 1, 1) == g
    beta3 = LaurentU.u(1) * laurent_u_minus_one()  # u(u-1)
    assert power_formula(d, n, 1, 3) == g - e.scale(beta3) + eg.scale(beta3)
    betam3 = LaurentU.from_dict({-1: 1, 0: -1}) * LaurentU.from_dict({-2: 1, 0: 1})
    assert power_formula(d, n, 1, -3) == g - e.scale(betam3) + eg.scale(betam3)


# -- braid representation --------------------------------------------------------

def test_represent_braid_examples():
    assert represent_braid(2, BraidWord(2, ())) == AlgebraElement.one(2, 2)
    assert represent_braid(3, parse_braid("1")) == generator(3, 2, 1)
    two_sided = represent_braid(3, parse_braid("2: -1 1"))
    assert two_sided == AlgebraElement.one(3, 2)


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3)])
def test_represent_braid_multiplicative(d, n):
    rng = random.Random(d * 100 + n)
    gens = [k for k in range(-(n - 1), n) if k != 0]
    for _ in range(10):
        a = BraidWord(n, tuple(rng.choice(gens) for _ in range(rng.randint(0, 5))))
        b = BraidWord(n, tuple(rng.choice(gens) for _ in range(rng.randint(0, 5))))
        ab = BraidWord(n, a.letters + b.letters)
        assert represent_braid(d, ab) == multiply(represent_braid(d, a), represent_braid(d, b))


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3)])
def test_associativity_random(d, n):
    rng = random.Random(d * 10 + n)
    for _ in range(15):
        a = random_element(rng, d, n)
        b = random_element(rng, d, n)
        c = random_element(rng, d, n)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        assert multiply(a + b, c) == multiply(a, c) + multiply(b, c)


@pytest.mark.parametrize("d,n", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_reachable_basis_words_have_full_dimension(d, n):
    """BFS over right multiplication by generators reaches d^n n! words."""
    seen: set[BasisWord] = set()
    frontier = [AlgebraElement.one(d, n)]
    seen.update(frontier[0].terms)
    muls = [generator(d, n, i) for i in range(1, n)]
    muls += [framing_generator(d, n, j) for j in range(1, n + 1)]
    while frontier:
        nxt = []
        for elem in frontier:
            for m in muls:
                prod = multiply(elem, m)
                for w in prod.terms:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(AlgebraElement.from_word(w))
        frontier = nxt
    assert len(seen) == d**n * math.factorial(n)


def test_embed():
    a = random_element(random.Random(5), 2, 2)
    big = embed(a, 4)
    assert big.n == 4 and len(big.terms) == len(a.terms)
    assert multiply(big, AlgebraElement.one(2, 4)) == big
    with pytest.raises(ValueError):
        embed(big, 2)


def test_mismatch_rejected():
    with pytest.raises(ValueError):
        multiply(AlgebraElement.one(2, 2), AlgebraElement.one(2, 3))
    with pytest.raises(ValueError):
        multiply(AlgebraElement.one(2, 2), AlgebraElement.one(3, 2))


def test_rendering_is_sorted_and_stable():
    e = idempotent_e(2, 2, 1)
    g = generator(2, 2, 1)
    s = str(multiply(e, g))
    assert s == "1/2*g1 + 1/2*t1*t2*g1"
    assert str(AlgebraElement.zero(2, 2)) == "0"
    assert str(AlgebraElement.one(2, 2)) == "1"


# -- basis word validation -----------------------------------------------------

@pytest.mark.parametrize(
    "d,n,framings,perm",
    [
        (2, 2, (0, 0), (0, 0)),  # not a permutation
        (2, 2, (0, 0), (0, 2)),
        (2, 2, (0, 2), (0, 1)),  # framing out of range
        (2, 2, (0,), (0, 1)),
        (2, 2, (0, 0), (0, 1, 2)),
        (0, 1, (0,), (0,)),
    ],
)
def test_basis_word_rejects_invalid_data(d, n, framings, perm):
    with pytest.raises(ValueError):
        BasisWord(d, n, framings, perm)


def test_basis_word_validation_survives_optimize():
    """The checks are explicit raises, so python -O keeps them."""
    import yhecke

    src = str(Path(yhecke.__file__).resolve().parents[1])
    code = (
        "from yhecke.yokonuma import BasisWord\n"
        "for args in ((2, 2, (0, 0), (0, 0)), (2, 2, (0, 5), (0, 1))):\n"
        "    try:\n"
        "        BasisWord(*args)\n"
        "    except ValueError:\n"
        "        print(__debug__, 'raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "raised", "False", "raised"]


def test_element_rejects_words_of_another_algebra():
    one = LaurentU.from_scalar(1)
    for word in (BasisWord(3, 2, (0, 0), (0, 1)), BasisWord(2, 3, (0, 0, 0), (0, 1, 2))):
        with pytest.raises(ValueError):
            AlgebraElement(2, 2, {BasisWord(2, 2, (0, 0), (0, 1)): one, word: one})


def test_element_validation_survives_optimize():
    """The check is an explicit raise, so python -O keeps it."""
    import yhecke

    src = str(Path(yhecke.__file__).resolve().parents[1])
    code = (
        "from yhecke.exactnum import LaurentU\n"
        "from yhecke.yokonuma import AlgebraElement, BasisWord\n"
        "one = LaurentU.from_scalar(1)\n"
        "try:\n"
        "    AlgebraElement(2, 2, {BasisWord(2, 2, (0, 0), (0, 1)): one, BasisWord(3, 2, (0, 0), (0, 1)): one})\n"
        "except ValueError:\n"
        "    print(__debug__, 'raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "raised"]


# -- the integer kernel ----------------------------------------------------------

KERNEL_ALGEBRAS = [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (4, 4)]


@pytest.mark.parametrize("d,n", KERNEL_ALGEBRAS)
def test_represent_braid_times_inverse_is_one(d, n):
    rng = random.Random(31 * d + n)
    for _ in range(4):
        letters = random_braid(rng, n, len_max=6).letters
        inverse = tuple(-k for k in reversed(letters))
        assert represent_braid(d, BraidWord(n, letters + inverse)) == AlgebraElement.one(d, n)
        assert represent_braid(d, BraidWord(n, inverse + letters)) == AlgebraElement.one(d, n)


@pytest.mark.parametrize("d,n", KERNEL_ALGEBRAS)
def test_represent_braid_of_concatenation_is_product(d, n):
    rng = random.Random(37 * d + n)
    for _ in range(4):
        b1 = random_braid(rng, n, len_max=5, min_len=0)
        b2 = random_braid(rng, n, len_max=5, min_len=0)
        both = BraidWord(n, b1.letters + b2.letters)
        assert represent_braid(d, both) == multiply(represent_braid(d, b1), represent_braid(d, b2))


@pytest.mark.parametrize("d,n", [(d, n) for d in (1, 2, 3, 4) for n in (2, 3)])
def test_letter_tables_are_integral_and_match_the_algebra(d, n):
    """Every E_A g_w * g_i^(+-1) table of the braids-and-ties rewriting, over
    every key (A, w), has integer coefficients and, expanded with E_A from
    its definition, equals the product formed in the algebra, with g_i^-1
    taken from the cubic relation g^-1 = u^-1 g^2 + g - u^-1."""
    images = {k: letter_image_oracle(d, n, k) for i in range(1, n) for k in (i, -i)}
    for key in tie_keys(n):
        left = tie_element(d, *key)
        for letter, image in images.items():
            table = _word_times_letter(key, letter, d > 1)
            assert all(type(e) is int and type(c) is int and c for _, e, c in table)
            got = AlgebraElement.zero(d, n)
            for key2, e, c in table:
                got = got + tie_element(d, *key2).scale(LaurentU.from_dict({e: c}))
            assert got == multiply(left, image), (key, letter)


@pytest.mark.parametrize("d,n", [(d, n) for d in (1, 2, 3, 4) for n in (2, 3, 4)])
def test_represent_braid_equals_the_product_of_letter_images(d, n):
    """represent_braid, built from the braids-and-ties rewriting, equals the
    ``multiply`` product of g_i and g_i^-1 = u^-1 g_i^2 + g_i - u^-1."""
    rng = random.Random(90 + 5 * d + n)
    for _ in range(3 if d * n < 16 else 2):
        b = random_braid(rng, n, len_max=5, min_len=0)
        assert represent_braid(d, b) == braid_image_oracle(d, b), (d, b)


def test_word_caches_are_bounded_and_exact_under_eviction(monkeypatch):
    """The reduced-word, basis-word, word-times-g and cyclotomic-polynomial
    caches are bounded; with a bound of 8 their entries are evicted and
    recomputed, and every braid image, product, trace and cyclotomic value
    stays what it was."""
    import yhecke.exactnum as exactnum
    import yhecke.trace as trace
    import yhecke.yokonuma as yokonuma
    from yhecke.exactnum import Cyclotomic

    for cache in (yokonuma.canonical_reduced_word, yokonuma._basis_word, yokonuma._word_times_g):
        assert cache.cache_info().maxsize == yokonuma.WORD_CACHE
    assert exactnum.cyclotomic_polynomial.cache_info().maxsize is not None
    rng = random.Random(12)
    braids = [(d, random_braid(rng, n, len_max=6)) for d in (2, 3) for n in (3, 4) for _ in range(2)]

    def compute():
        images = [represent_braid(d, b) for d, b in braids]
        return (
            images,
            [multiply(a, a) for a in images],
            [trace.markov_trace(a) for a in images],
            [(Cyclotomic.root(m, 1) + Cyclotomic.root(m, 2)) ** 3 for m in range(1, 31)],
        )

    expected = compute()
    small = {}
    for module, name in (
        (yokonuma, "canonical_reduced_word"),
        (yokonuma, "_basis_word"),
        (yokonuma, "_word_times_g"),
        (exactnum, "cyclotomic_polynomial"),
        (trace, "_trace_word"),
    ):
        small[name] = lru_cache(maxsize=8)(getattr(module, name).__wrapped__)
        monkeypatch.setattr(module, name, small[name])
    monkeypatch.setattr(trace, "canonical_reduced_word", small["canonical_reduced_word"])
    assert compute() == expected
    for name, cache in small.items():
        assert cache.cache_info().currsize <= 8, name
        assert cache.cache_info().misses > 8, name


@pytest.mark.parametrize("d,n", [(2, 2), (3, 3), (4, 3)])
def test_integer_form_round_trips(d, n):
    rng = random.Random(41 * d + n)
    for _ in range(10):
        a = random_element(rng, d, n)
        assert all(type(c) is int for poly in a.int_terms.values() for c in poly.values())
        assert AlgebraElement.from_ints(d, n, a.int_terms, a.den) == a
        assert AlgebraElement(d, n, a.terms) == a
    zero = AlgebraElement.zero(d, n)
    assert (zero.int_terms, zero.den) == ({}, 1)


def test_canonical_form_is_shared_by_every_construction():
    """Equal elements store equal integer terms over equal denominators,
    however they were built, so equality stays structural."""
    w = {(fr, perm): BasisWord(2, 2, fr, perm) for fr in ((0, 0), (1, 1)) for perm in ((0, 1), (1, 0))}
    one = LaurentU.from_scalar(1)
    e, g = idempotent_e(2, 2, 1), generator(2, 2, 1)
    # coefficients 2/2 share the factor 2 with d = 2
    pairs = [
        (e.scale(2), AlgebraElement(2, 2, {w[(0, 0), (0, 1)]: one, w[(1, 1), (0, 1)]: one})),
        (multiply(e, g).scale(2), AlgebraElement(2, 2, {w[(0, 0), (1, 0)]: one, w[(1, 1), (1, 0)]: one})),
        (multiply(e, e), e),
        (represent_braid(2, parse_braid("1 -1")), AlgebraElement.one(2, 2)),
        (represent_braid(2, parse_braid("1 1")), multiply(g, g)),
        (AlgebraElement.from_ints(2, 2, {w[(0, 0), (0, 1)]: {0: 4, 1: -6}}, 4),
         AlgebraElement(2, 2, {w[(0, 0), (0, 1)]: LaurentU.from_dict({0: 1, 1: Fraction(-3, 2)})})),
        (AlgebraElement.from_ints(2, 2, {w[(0, 0), (0, 1)]: {0: 0}}, 8), AlgebraElement.zero(2, 2)),
        (e - e, AlgebraElement.zero(2, 2)),
        (e.scale(0), AlgebraElement.zero(2, 2)),
        (rho(2, 4, idempotent_e(4, 2, 1)), e),
        (rho(2, 4, represent_braid(4, parse_braid("1 -1 1"))), represent_braid(2, parse_braid("1"))),
    ]
    for a, b in pairs:
        assert a == b and a.terms == b.terms
        assert (a.int_terms, a.den) == (b.int_terms, b.den)
        assert math.gcd(a.den, *(c for poly in a.int_terms.values() for c in poly.values())) == 1
        assert AlgebraElement(2, 2, a.terms) == a
        assert embed(a, 3) == embed(b, 3) and embed(a, 3).terms == embed(b, 3).terms
        assert rho(1, 2, a) == rho(1, 2, b)
    assert (AlgebraElement.zero(2, 2).int_terms, AlgebraElement.zero(2, 2).den) == ({}, 1)
    assert e != e.scale(2) and e.scale(2).den == 1 and e.den == 2
