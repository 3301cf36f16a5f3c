"""The Markov trace: defining rules, cyclicity, factorization under the
E-condition, and the closed-form values used downstream."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from conftest import framed_trace_oracle, random_braid, random_element, tie_element, tie_keys
import yhecke.esystem
import yhecke.exactnum
import yhecke.trace
import yhecke.yokonuma
from yhecke.braid import BraidWord, parse_braid
from yhecke.esystem import enumerate_subsets, solution_from_subset, zeta_value
from yhecke.exactnum import (
    LaurentU,
    RatFunc,
    TracePolynomial,
    laurent_u_minus_one,
    substitute_x_values,
    trace_poly_substitute,
)
from yhecke.trace import _trace_polynomial, markov_trace, trace_of_braid
from yhecke.yokonuma import (
    AlgebraElement,
    _join,
    _tie_expansion,
    embed,
    framing_generator,
    generator,
    generator_inverse,
    idempotent_e,
    multiply,
    power_formula,
    represent_braid,
    transposition_perm,
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
    f = trace_of_braid(3, parse_braid("1 1 1"), {0, 1, 2})
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
                assert trace_of_braid(d, b, sol.subset) == value


def test_substituted_braid_trace_depends_only_on_subset_size():
    """The trace of a braid at (d, S) equals its trace at (|S|, Z/|S|Z), the
    full subset, where every x_m with m != 0 is 0, and both equal the full
    computation in Y_{d,n} substituted at (d, S)."""
    rng = random.Random(77)
    for n in (2, 3, 4):
        for _ in range(4):
            b = random_braid(rng, n, len_max=7)
            full = {
                k: trace_of_braid(k, b, range(k))
                for k in range(1, (3 if n == 4 else 5) + 1)
            }
            for d in range(1, len(full) + 1):
                poly = markov_trace(represent_braid(d, b))
                for S in enumerate_subsets(d):
                    sol = solution_from_subset(d, S)
                    assert trace_of_braid(d, b, S) == full[len(S)], (d, S, b)
                    assert trace_poly_substitute(poly, sol) == full[len(S)], (d, S, b)


def test_braid_value_at_a_solution_builds_no_solution_and_substitutes_nothing(monkeypatch):
    """trace_of_braid reads the value at (d, S) off the trace in Y_{|S|,n}: it
    builds and verifies no solution and runs no substitution."""
    b = parse_braid("3: 1 -2 1 2")
    pairs = ((4, {0, 2}), (3, {1}), (3, {0, 1, 2}), (6, {0, 2, 4}))
    expected = [trace_poly_substitute(markov_trace(represent_braid(d, b)), solution_from_subset(d, S)) for d, S in pairs]

    def forbidden(*args):
        raise AssertionError("called on the value path")

    monkeypatch.setattr(yhecke.esystem, "verify_solution", forbidden)
    monkeypatch.setattr(yhecke.exactnum, "substitute_x_values", forbidden)
    monkeypatch.setattr(yhecke.trace, "trace_poly_substitute", forbidden)
    assert [trace_of_braid(d, b, S) for d, S in pairs] == expected


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


# -- braid traces through E_A g_w terms -------------------------------------------

def expansion_element(d: int, b: BraidWord, start: tuple = ()) -> AlgebraElement:
    """The expansion of E_start g_b on terms E_A g_w, summed in Y_{d,n};
    start defaults to singletons, where it is the braid image."""
    acc = AlgebraElement.zero(d, b.strands)
    for (blocks, perm), poly in _tie_expansion(d, b, start or tuple(range(b.strands))).items():
        acc = acc + tie_element(d, blocks, perm).scale(LaurentU.from_ints(poly))
    return acc


def test_braid_trace_through_ties_equals_the_y_dn_oracle():
    """trace_of_braid, which traces E_A g_w terms, is structurally equal to the
    trace of the braid's image in Y_{d,n} for every d, also d < n where the
    E_A are linearly dependent, and at a solution to the substitution oracle."""
    rng = random.Random(16)
    cases = [(d, BraidWord(n, ())) for d in (1, 4) for n in (1, 3)]
    for d in range(1, 7):
        for n in range(1, 6):
            for _ in range(3):
                cases.append((d, BraidWord(1, ()) if n == 1 else random_braid(rng, n, len_max=8, min_len=0)))
    for d, b in cases:
        assert trace_of_braid(d, b) == markov_trace(represent_braid(d, b)), (d, b)
    for d, S in ((4, {0, 1, 3}), (6, {0, 2, 4})):
        sol = solution_from_subset(d, S)
        for n in (2, 3, 4):
            b = random_braid(rng, n, len_max=6)
            assert trace_of_braid(d, b, S) == trace_poly_substitute(markov_trace(represent_braid(d, b)), sol), (d, S, b)


@pytest.mark.parametrize("d,n", [(1, 3), (2, 3), (3, 3), (2, 4)])
def test_tie_expansion_is_the_braid_image(d, n):
    """From singletons the expansion is the braid image; from (A, id) it is
    E_A times the image, for seeded partitions A (at d = 1 every E_A is 1)."""
    rng = random.Random(60 + 7 * d + n)
    single = tuple(range(n))
    for _ in range(4):
        b = random_braid(rng, n, len_max=6, min_len=0)
        image = represent_braid(d, b)
        assert expansion_element(d, b) == image, (d, b)
        blocks = rng.choice(tie_keys(n))[0]
        assert expansion_element(d, b, blocks) == multiply(tie_element(d, blocks, single), image), (d, b, blocks)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tie_rules_on_one_generator(d):
    n, single = 3, (0, 1, 2)
    for i in (1, 2):
        s_i = transposition_perm(n, i)
        for letters in ((i, -i), (-i, i)):
            assert _tie_expansion(d, BraidWord(n, letters), single) == {(single, single): {0: 1}}
        # g_i^2 = 1 + (u - 1) e_i - (u - 1) e_i g_i, and e_i = 1 at d = 1
        if d == 1:
            expected = {(single, single): {1: 1}, (single, s_i): {1: -1, 0: 1}}
        else:
            tied = _join(single, i - 1, i)
            expected = {(single, single): {0: 1}, (tied, single): {1: 1, 0: -1}, (tied, s_i): {1: -1, 0: 1}}
        assert _tie_expansion(d, BraidWord(n, (i, i)), single) == expected
        assert expansion_element(d, BraidWord(n, (i, i))) == power_formula(d, n, i, 2)


def test_joined_block_labels_are_canonical():
    assert _join((0, 1, 2, 3), 3, 1) == (0, 1, 2, 1)
    assert _join((0, 1, 0, 2), 1, 3) == (0, 1, 0, 1)
    assert _join((0, 1, 2, 1), 0, 2) == (0, 1, 0, 1)
    assert _join((0, 1, 2, 1), 1, 3) == (0, 1, 2, 1)
    assert _join((0, 1, 2, 3, 4), 4, 0) == (0, 1, 2, 3, 0)
    rng = random.Random(8)
    for _ in range(200):
        blocks = (0, 1, 2, 3, 4)
        for _ in range(rng.randint(1, 4)):
            a, b = rng.sample(range(5), 2)
            joined = _join(blocks, a, b)
            groups = {frozenset(j for j in range(5) if blocks[j] == k) for k in blocks}
            union = {g for g in groups if a in g or b in g}
            assert {frozenset(j for j in range(5) if joined[j] == k) for k in joined} == (groups - union) | {frozenset().union(*union)}
            # numbered 0, 1, ... by first strand
            firsts = [joined[j] for j in range(5) if joined[j] not in joined[:j]]
            assert firsts == list(range(len(firsts)))
            blocks = joined


def test_braid_traces_never_build_the_y_dn_image(monkeypatch):
    """A braid trace, generic or at a solution, calls none of
    ``represent_braid``, ``_letter_image`` and ``multiply``: the braid stays
    on E_A g_w terms, and Y_{d,n} is entered only in tr(E_A g_w)."""

    def forbidden(*args):
        raise AssertionError("a braid trace built its image in Y_{d,n}")

    for module in (yhecke.yokonuma, yhecke.trace):
        monkeypatch.setattr(module, "represent_braid", forbidden)
    monkeypatch.setattr(yhecke.yokonuma, "_letter_image", forbidden)
    monkeypatch.setattr(yhecke.yokonuma, "multiply", forbidden)
    b = parse_braid("4: 1 -2 3 -1 2 -3 -2")
    yhecke.trace._trace_word.cache_clear()
    assert not trace_of_braid(3, b).is_zero()
    assert not trace_of_braid(4, b, {0, 2}).is_zero()


def test_tie_trace_by_cycle_classes_equals_the_definition():
    """tr(E_A g_w), traced by its class key, is the trace of E_A g_w summed
    over all its framings: every key with n <= 4 and d <= 3, and seeded
    5-strand keys."""
    cases = [(d, key) for n in range(1, 5) for key in tie_keys(n) for d in (1, 2, 3)]
    rng = random.Random(33)
    cases += [(d, key) for d in (2, 3) for key in rng.sample(tie_keys(5), 12)]
    for d, key in cases:
        den, triples = yhecke.trace._tie_trace(d, key)
        acc: dict = {}
        for mono, e, c in triples:
            acc.setdefault(mono, {})[e] = c
        assert _trace_polynomial(d, den, acc) == markov_trace(tie_element(d, *key)), (d, key)


def test_word_trace_cache_is_bounded_and_exact_under_eviction(monkeypatch):
    """The word-trace cache is bounded; with a bound of 8, word traces are
    evicted and recomputed and every trace stays what it was."""
    assert yhecke.trace._trace_word.cache_info().maxsize == yhecke.trace.TRACE_WORD_CACHE
    rng = random.Random(10)
    cases = [(d, random_braid(rng, n, len_max=7)) for d in (2, 3) for n in (3, 4) for _ in range(3)]
    expected = [markov_trace(represent_braid(d, b)) for d, b in cases]
    small = lru_cache(maxsize=8)(yhecke.trace._trace_word.__wrapped__)
    monkeypatch.setattr(yhecke.trace, "_trace_word", small)
    for (d, b), value in zip(cases, expected):
        assert trace_of_braid(d, b) == value, (d, b)
        assert markov_trace(represent_braid(d, b)) == value, (d, b)
        assert small.cache_info().currsize <= 8
    assert small.cache_info().misses > 8


def class_key_framings(d: int, blocks: tuple, perm: tuple) -> dict:
    """Every framing c on the strands, grouped by the class key (J, w, s) of
    t^c E_J g_w, where J = blocks contains the cycles of w = perm and s is
    the sums of c over the blocks of J mod d."""
    out: dict = {}
    for c in itertools.product(range(d), repeat=len(perm)):
        sums = tuple(sum(a for a, b in zip(c, blocks) if b == k) % d for k in range(max(blocks) + 1))
        out.setdefault((blocks, perm, sums), []).append(c)
    return out


def test_class_key_trace_is_the_mean_of_the_framed_oracle():
    """``_trace_word`` on a class key (J, w, s) is the mean of the framed word
    oracle over every framing c with block sums s: tr(t^c E_J g_w) depends on
    nothing else.  Every class key with n <= 4 and d <= 3, and the class keys
    of seeded 5-strand (J, w) at d = 2, 3."""
    def joined(n):  # every (J, w) on n strands with J containing the cycles of w
        return [(a, w) for a, w in tie_keys(n) if all(a[j] == a[w[j]] for j in range(n))]

    pairs = [(d, key) for n in range(1, 5) for key in joined(n) for d in (1, 2, 3)]
    rng = random.Random(47)
    pairs += [(d, key) for d in (2, 3) for key in rng.sample(joined(5), 8)]
    yhecke.trace._trace_word.cache_clear()
    checked = 0
    for d, (blocks, perm) in pairs:
        for key, framings in class_key_framings(d, blocks, perm).items():
            total = TracePolynomial.zero(d)
            for c in framings:
                total += framed_trace_oracle(d, c, perm)
            den, triples = yhecke.trace._trace_word(d, key)
            acc: dict = {}
            for mono, e, c in triples:
                acc.setdefault(mono, {})[e] = c
            assert _trace_polynomial(d, den, acc) == total.scale(Fraction(1, len(framings))), (d, key)
            checked += 1
    assert checked == 1484  # 1366 keys with n <= 4 and 118 of the seeded 5-strand (J, w)


def test_no_trace_forms_a_framed_product(monkeypatch):
    """A braid trace, generic or at a solution, and ``markov_trace`` of a
    braid image never call ``yokonuma._word_times_g``: every trace step
    rewrites on terms E_A g_v, and the framed product serves ``multiply``."""

    def forbidden(*args):
        raise AssertionError("a trace formed a product of framed words")

    b = parse_braid("4: 1 -2 3 -1 2 -3 -2")
    image = represent_braid(3, b)
    yhecke.trace._trace_word.cache_clear()
    monkeypatch.setattr(yhecke.yokonuma, "_word_times_g", forbidden)
    assert markov_trace(image) == trace_of_braid(3, b)
    assert not markov_trace(image).is_zero()
    assert not trace_of_braid(4, b, {0, 2}).is_zero()


def test_no_trace_enumerates_framings(monkeypatch):
    """A braid trace, generic or at a solution, and ``markov_trace`` of a
    braid image never call ``yokonuma._block_zero_framings``: a class key is
    traced from one framing, and the enumeration serves ``represent_braid``."""

    def forbidden(*args):
        raise AssertionError("a trace enumerated framings")

    b = parse_braid("4: 1 -2 3 -1 2 -3 -2")
    image = represent_braid(3, b)
    expected = (markov_trace(image), trace_of_braid(4, b, {0, 2}))
    yhecke.trace._trace_word.cache_clear()
    for module in (yhecke.yokonuma, yhecke.trace):
        monkeypatch.setattr(module, "_block_zero_framings", forbidden, raising=False)
    assert (markov_trace(image), trace_of_braid(4, b, {0, 2})) == expected
    yhecke.trace._trace_word.cache_clear()
    assert trace_of_braid(3, b) == expected[0]
