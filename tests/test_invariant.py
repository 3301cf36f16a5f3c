"""The link invariant: normalization identities, closed-form values,
Markov-move invariance, the cubic skein relation, and the d = 1
2-variable (HOMFLYPT) specialization."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_braid, random_conjugator
from yhecke.braid import BraidWord, cyclic_reduce, markov_conjugate, markov_reduce, markov_stabilize, parse_braid
import yhecke.trace
from yhecke.braid import exponent_sum
from yhecke.esystem import reduce_subset
from yhecke.exactnum import PolyUZ, RatFunc
from yhecke.invariant import (
    InvariantValue,
    _make_value,
    delta_invariant,
    evaluate_numeric,
    homflypt_specialize,
    lambda_param,
    mirror_value,
    skein_check,
    value_add,
    value_scale,
    value_scale_half,
    value_sub,
)
from yhecke.trace import solution_value, trace_of_braid

PAIRS = [(1, {0}), (2, {0}), (2, {0, 1}), (3, {0, 1, 2}), (4, {0, 2})]


def uz():
    return RatFunc.u_var(), RatFunc.z_var()


@pytest.mark.parametrize("d,subset", PAIRS)
def test_lambda_identities(d, subset):
    lam = lambda_param(d, subset)
    u, z = uz()
    zeta = Fraction(1, len(subset))
    assert lam == (z - (1 - u) * zeta) / (u * z)
    # 1 - lambda u = z^-1 zeta (1 - u)
    assert 1 - lam * u == (1 / z) * zeta * (1 - u)


@pytest.mark.parametrize("d,subset", PAIRS)
def test_lambda_powers_in_closed_form_match_repeated_products(d, subset):
    lam = lambda_param(d, subset)
    u, z = uz()
    body = (z + 2 * u) / (u * (z - (1 - u) * Fraction(1, len(subset))))
    for k in range(-6, 7):
        folded = value_scale_half(InvariantValue(d, 0, body), 2 * k, lam)
        assert folded == InvariantValue(d, 0, body * lam**k)
        odd = value_scale_half(InvariantValue(d, 0, body), 2 * k + 1, lam)
        assert odd == InvariantValue(d, 1, body * lam**k)


@pytest.mark.parametrize("d,subset", PAIRS)
def test_normalization_times_sqrt_lambda_times_z_is_one(d, subset):
    lam = lambda_param(d, subset)
    u, z = uz()
    zeta = RatFunc.from_scalar(Fraction(1, len(subset)))
    # D = (1 - lambda u) / (sqrt(lambda) (1 - u) zeta), assembled literally.
    D = value_scale_half(
        InvariantValue(d, 0, (1 - lam * u) / ((1 - u) * zeta)), -1, lam
    )
    prod = value_scale(value_scale_half(D, 1, lam), z)
    assert prod == InvariantValue(d, 0, RatFunc.from_scalar(1))


@pytest.mark.parametrize("d,subset", PAIRS)
def test_unknot_presentations_evaluate_to_one(d, subset):
    one = InvariantValue(d, 0, RatFunc.from_scalar(1))
    assert delta_invariant(d, subset, BraidWord(1, ())) == one
    # stabilized presentations of the unknot
    assert delta_invariant(d, subset, parse_braid("1")) == one
    assert delta_invariant(d, subset, parse_braid("-1")) == one
    assert delta_invariant(d, subset, parse_braid("1 2")) == one
    assert delta_invariant(d, subset, parse_braid("1 -2")) == one


@pytest.mark.parametrize("d,subset", PAIRS)
def test_right_trefoil_formula(d, subset):
    lam = lambda_param(d, subset)
    u, z = uz()
    zeta = Fraction(1, len(subset))
    got = delta_invariant(d, subset, parse_braid("1 1 1"))
    body = (lam / z) * ((u * u - u + 1) * z - (u * u - u) * zeta)
    assert got == InvariantValue(d, 0, body)


@pytest.mark.parametrize("d,subset", PAIRS)
def test_left_trefoil_formula(d, subset):
    lam = lambda_param(d, subset)
    u, z = uz()
    zeta = Fraction(1, len(subset))
    got = delta_invariant(d, subset, parse_braid("-1 -1 -1"))
    ui = 1 / u
    bracket = (ui**3 - ui**2 + ui) * z - (ui**3 - ui**2 + ui - 1) * zeta
    # D (sqrt lambda)^-3 = lambda^-2 z^-1 at parity 0
    body = lam**-2 / z * bracket
    assert got == InvariantValue(d, 0, body)


@pytest.mark.parametrize("d,subset", PAIRS)
def test_hopf_link_derived_value(d, subset):
    """z^-1 sqrt(lambda) (1 + (u-1)(zeta - z)): the coefficient u-1 follows
    from the quadratic relation and the trace rules."""
    u, z = uz()
    zeta = RatFunc.from_scalar(Fraction(1, len(subset)))
    got = delta_invariant(d, subset, parse_braid("1 1"))
    body = (1 / z) * (1 + (u - 1) * (zeta - z))
    assert got == InvariantValue(d, 1, body)


@pytest.mark.parametrize("d,subset", PAIRS)
def test_markov_invariance_random(d, subset):
    rng = random.Random(d * 100 + len(subset))
    for _ in range(6):
        b = random_braid(rng, n_max=3, len_max=6)
        w = random_conjugator(rng, b.strands, len_max=4)
        base = delta_invariant(d, subset, b)
        assert delta_invariant(d, subset, markov_conjugate(b, w)) == base
        assert delta_invariant(d, subset, markov_stabilize(b, rng.choice((1, -1)))) == base


@pytest.mark.parametrize("d,subset", [(1, {0}), (2, {0, 1}), (3, {0, 1})])
def test_skein_relation_random(d, subset):
    rng = random.Random(d * 5)
    for _ in range(8):
        b = random_braid(rng, n_max=3, len_max=5)
        i = rng.randrange(len(b.letters))
        assert skein_check(d, subset, b, i)


def test_skein_check_spec_examples():
    subset = {0, 1}
    for i in range(3):
        assert skein_check(2, subset, parse_braid("1 1 1"), i)
        assert skein_check(2, subset, parse_braid("1 2 1"), i)
    with pytest.raises(ValueError):
        skein_check(2, subset, parse_braid("1 1"), 5)


def test_value_arithmetic_guards():
    subset = {0}
    lam = lambda_param(2, subset)
    one = InvariantValue(2, 0, RatFunc.from_scalar(1))
    rooted = value_scale_half(one, 1, lam)
    with pytest.raises(ValueError):
        value_add(one, rooted)
    zero = value_sub(one, one)
    assert zero.is_zero() and zero.half == 0
    assert value_add(zero, rooted) == rooted
    # folding: sqrt(lambda)^2 is a whole lambda
    assert value_scale_half(one, 2, lam) == InvariantValue(2, 0, lam)
    assert value_scale_half(rooted, -1, lam) == one
    assert value_scale_half(one, -3, lam) == InvariantValue(2, 1, lam**-2)


def test_homflypt_values_and_mirror():
    one = InvariantValue(1, 0, RatFunc.from_scalar(1))
    assert homflypt_specialize(BraidWord(1, ())) == one
    subset = {0}
    u, z = uz()
    lam = lambda_param(1, subset)
    hopf = homflypt_specialize(parse_braid("1 1"))
    assert hopf == InvariantValue(1, 1, (1 / z) * (1 + (u - 1) * (1 - z)))
    tre = homflypt_specialize(parse_braid("1 1 1"))
    assert tre == InvariantValue(1, 0, (lam / z) * ((u * u - u + 1) * z - (u * u - u)))
    # mirror: the involution u -> 1/u, z -> lambda z exchanges the trefoils
    left = homflypt_specialize(parse_braid("-1 -1 -1"))
    assert mirror_value(1, subset, tre) == left
    assert mirror_value(1, subset, left) == tre
    assert mirror_value(1, subset, mirror_value(1, subset, hopf)) == hopf


def test_homflypt_quadratic_skein():
    """At d = 1 the quadratic relation g^-1 = u^-1 g + (1 - u^-1) gives the
    2-variable skein identity
    D(L-) = (1/(lambda u)) D(L+) + (1 - u^-1) (1/sqrt(lambda)) D(L0)."""
    subset = {0}
    lam = lambda_param(1, subset)
    u, _ = uz()
    rng = random.Random(11)
    for _ in range(10):
        b = random_braid(rng, n_max=3, len_max=5)
        i = rng.randrange(len(b.letters))
        gen = abs(b.letters[i])

        def variant(exponent, b=b, i=i, gen=gen):
            middle = (gen,) * exponent if exponent >= 0 else (-gen,) * (-exponent)
            return BraidWord(b.strands, b.letters[:i] + middle + b.letters[i + 1 :])

        v_m = homflypt_specialize(variant(-1))
        v_p = homflypt_specialize(variant(1))
        v_0 = homflypt_specialize(variant(0))
        rhs = value_add(
            value_scale(v_p, 1 / (lam * u)),
            value_scale_half(value_scale(v_0, 1 - 1 / u), -1, lam),
        )
        assert v_m == rhs


def test_numeric_evaluation_tracks_symbolic():
    subset = {0, 1}
    b = parse_braid("1 1 1")
    v = delta_invariant(2, subset, b)
    u0, z0 = 0.7 + 0.2j, 1.3 - 0.4j
    lam = lambda_param(2, subset).eval_complex(u0, z0)
    direct = v.body.eval_complex(u0, z0) * (lam**0.5) ** v.half
    assert abs(evaluate_numeric(v, subset, u0, z0) - direct) < 1e-12


def test_rendering():
    v = delta_invariant(1, {0}, BraidWord(1, ()))
    assert str(v) == "sqrtLambda^0 * ((1) / (1))"


def test_invalid_values_rejected():
    with pytest.raises(ValueError):
        InvariantValue(2, 5, RatFunc.from_scalar(1))  # half not in {0, 1}
    with pytest.raises(ValueError):
        InvariantValue(2, 1, RatFunc.from_scalar(0))  # zero with sqrt(lambda)
    with pytest.raises(ValueError):
        PolyUZ((((-1, 0), Fraction(1)),))


def test_invalid_values_rejected_under_optimize():
    """The checks are explicit raises, so python -O keeps them."""
    import yhecke

    src = str(Path(yhecke.__file__).resolve().parents[1])
    code = (
        "from fractions import Fraction\n"
        "from yhecke.exactnum import PolyUZ, RatFunc\n"
        "from yhecke.invariant import InvariantValue\n"
        "for make in (lambda: InvariantValue(2, 5, RatFunc.from_scalar(1)),\n"
        "             lambda: PolyUZ((((0, -1), Fraction(1)),))):\n"
        "    try:\n"
        "        make()\n"
        "    except ValueError:\n"
        "        print(__debug__, 'raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "raised"] * 2


def test_lambda_is_shared_by_solutions_with_one_zeta():
    a = lambda_param(4, {0, 2})
    b = lambda_param(4, {1, 3})
    assert a == b and (a.num.terms, a.den.terms) == (b.num.terms, b.den.terms)
    assert lambda_param(4, {0}) != a


KNOTS = ["1 1 1", "1 -2 1 -2", "1 1 1 2 -1 2", "1 2 -3 4 -1 2 3 -4 -2 1 3 4"]
SUBSET_PAIRS = [(2, {0, 1}), (3, {0, 1, 2}), (3, {1}), (4, {0, 2}), (4, {0, 1, 3}), (6, {0, 2, 4})]


@pytest.mark.parametrize("word", KNOTS)
def test_knot_invariant_is_homflypt_with_z_scaled_by_subset_size(word):
    """An oracle that never forms Y_{d,n} with d > 1: for a knot the invariant
    at (d, S) is the HOMFLYPT specialization with z replaced by |S| z, with
    the same sqrt(lambda) parity."""
    b = parse_braid(word)
    base = homflypt_specialize(b)
    for d, subset in SUBSET_PAIRS:
        value = delta_invariant(d, subset, b)
        scaled = base.body.substitute(RatFunc.u_var(), RatFunc.z_var() * len(subset))
        assert (value.half, value.body) == (base.half, scaled), (word, d, subset)


def linking_numbers(b: BraidWord) -> list[int]:
    """The sorted pairwise linking numbers of the closure's components: half
    the signed crossings between two components."""
    at = list(range(b.strands))  # at[j]: the strand, by its start, now at position j
    signs = []
    for letter in b.letters:
        i = abs(letter) - 1
        signs.append((at[i], at[i + 1], 1 if letter > 0 else -1))
        at[i], at[i + 1] = at[i + 1], at[i]
    # closing the braid joins the strand ending at position j to the one starting there
    component = list(range(b.strands))
    for end, start in enumerate(at):
        old, new = component[start], component[end]
        component = [new if c == old else c for c in component]
    labels = sorted(set(component))
    total = {pair: 0 for pair in itertools.combinations(labels, 2)}
    for a, c, sign in signs:
        if component[a] != component[c]:
            total[tuple(sorted((component[a], component[c])))] += sign
    return sorted(v // 2 for v in total.values())


def test_invariants_separate_oriented_links_that_homflypt_does_not():
    """Two 3-component closures with equal HOMFLYPT (d = 1) and equal values
    at (2, {0}), told apart at |S| = 2 and 3.  Their pairwise linking numbers
    differ and are not negatives of each other, so the two are not mirror
    images; by Chlouveraki-Juyumaya-Karvounis-Lambropoulou the separating
    data are the linking numbers of the sub-links."""
    a, b = parse_braid("3: 1 1 1 1 1 2 1 2 -1 -2"), parse_braid("3: 1 1 2 -1 -1 2 1 1 2 2")
    assert (linking_numbers(a), linking_numbers(b)) == ([0, 0, 3], [-1, 2, 2])
    for d, subset in ((1, {0}), (2, {0})):
        assert delta_invariant(d, subset, a) == delta_invariant(d, subset, b)
    for d, subset in ((2, {0, 1}), (3, {0, 1, 2})):
        assert delta_invariant(d, subset, a) != delta_invariant(d, subset, b)


def make_oracle(d: int, subset, b: BraidWord) -> tuple[RatFunc, InvariantValue]:
    """The value of b at (d, S) and its invariant through ``RatFunc.make``: the
    x-free part of the generic trace at k = |S| over u^-low, folded with lambda
    by ``_make_value``."""
    k = len(reduce_subset(d, subset))
    p = trace_of_braid(k, b)
    low = min([0] + [c.min_exponent() for _, c in p.terms])
    num = PolyUZ.from_dict({(e - low, ze): q for (ze, xe), c in p.terms if not any(xe) for e, q in c.terms})
    traced = RatFunc.make(num, PolyUZ.monomial(-low, 0))
    den = traced.den * PolyUZ.monomial(0, b.strands - 1)
    return traced, _make_value(d, exponent_sum(b) - (b.strands - 1), traced.num, den, lambda_param(d, subset))


def test_integer_body_equals_the_make_oracle():
    """The value and body built over Z on u^a z^b L^c are the canonical forms
    ``RatFunc.make`` gives, for seeded braids with n <= 5 at |S| = 1..6 and
    at non-full subsets; lambda^fold with fold < 0 is cancelled where it divides."""
    rng = random.Random(33)
    cases = [(4, range(4), parse_braid("2: -1")), (1, {0}, parse_braid("4: -2 -3 -3")),
             (6, {0, 2, 4}, parse_braid("3: -2")), (4, {0, 1, 3}, parse_braid("1:"))]
    for _ in range(90):
        n = rng.randint(2, 5)
        b = random_braid(rng, n, len_max=8 if n < 5 else 5, min_len=0)
        if rng.random() < 0.4:
            b = BraidWord(n, tuple(-abs(x) for x in b.letters))
        k = rng.randint(1, 6)
        cases.append((k, range(k), b))
    for d, subset, b in cases:
        traced, value = make_oracle(d, subset, b)
        assert trace_of_braid(d, b, subset) == traced, (d, subset, b)
        assert delta_invariant(d, subset, b) == value, (d, subset, b)
    # the unknot as a negative stabilization: lambda^-1 is cancelled whole
    assert delta_invariant(4, range(4), parse_braid("2: -1")) == InvariantValue(4, 0, RatFunc.from_scalar(1))


def test_zero_trace_gives_the_zero_body(monkeypatch):
    monkeypatch.setattr(yhecke.trace, "_tie_trace", lambda d, key: (1, ()))
    zero = RatFunc.make(PolyUZ.zero(), PolyUZ.one())
    for fold in (-2, 0, 3):
        assert solution_value(2, parse_braid("1 1"), fold, 1) == zero
    assert delta_invariant(2, {0}, parse_braid("1 1")) == InvariantValue(2, 0, zero)


def seeded_presentations(seed: int, count: int) -> list[BraidWord]:
    """Braids on at most 5 strands, many of them conjugated, stabilized at
    either end or padded with a cancelling pair, so that the reductions act."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        b = random_braid(rng, n_max=4, len_max=5, min_len=0)
        if rng.random() < 0.5:
            b = markov_conjugate(b, random_conjugator(rng, b.strands, len_max=2))
        if b.strands < 5 and rng.random() < 0.6:
            sign = rng.choice((1, -1))
            if rng.random() < 0.5:
                b = markov_stabilize(b, sign)
            else:  # a new first strand
                b = BraidWord(b.strands + 1, (sign,) + tuple(k + 1 if k > 0 else k - 1 for k in b.letters))
        if rng.random() < 0.3:
            k, i = rng.choice((1, -1)) * rng.randint(1, b.strands - 1), rng.randint(0, len(b.letters))
            b = BraidWord(b.strands, b.letters[:i] + (k, -k) + b.letters[i:])
        out.append(b)
    return out


def test_markov_reduced_closure_has_the_same_invariant():
    """The reduction the invariant and adelic records trace: same value at
    k = |S| = 1..4, idempotent, and acting on most of the seeded words."""
    changed = 0
    for j, b in enumerate(seeded_presentations(44, 200)):
        reduced = markov_reduce(b)
        assert markov_reduce(reduced) == reduced, b
        assert reduced.strands <= b.strands and len(reduced.letters) <= len(b.letters)
        changed += reduced != b
        k = 1 + j % 4
        assert delta_invariant(k, range(k), reduced) == delta_invariant(k, range(k), b), (k, b)
    assert changed >= 100


def test_cyclic_reduction_keeps_strands_and_traces():
    """The reduction the trace records take: same strands, idempotent, and the
    same generic and substituted traces at d <= 3."""
    changed = 0
    for j, b in enumerate(seeded_presentations(45, 120)):
        reduced = cyclic_reduce(b)
        assert reduced.strands == b.strands and cyclic_reduce(reduced) == reduced, b
        changed += reduced != b
        d = 1 + j % 3
        assert trace_of_braid(d, reduced) == trace_of_braid(d, b), (d, b)
        assert trace_of_braid(d, reduced, range(d)) == trace_of_braid(d, b, range(d)), (d, b)
    assert changed >= 40
