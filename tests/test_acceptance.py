"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them live).

All equalities are exact; nothing is compared up to tolerance.
"""

from __future__ import annotations

import io
import itertools
import random
import time
from fractions import Fraction

from conftest import random_braid, random_conjugator, random_element
from yhecke.adelic import DivisorChain, adelic_delta, rho, xi
from yhecke.braid import BraidWord, markov_conjugate, markov_stabilize, parse_braid
from yhecke.cli import main as cli_main
from yhecke.esystem import (
    enumerate_subsets,
    lift_subset,
    solution_from_subset,
    verify_solution,
    zeta_value,
)
from yhecke.exactnum import (
    LaurentU,
    RatFunc,
    TracePolynomial,
    laurent_u_minus_one,
    substitute_x_values,
    trace_poly_substitute,
)
from yhecke.invariant import (
    InvariantValue,
    delta_invariant,
    homflypt_specialize,
    lambda_param,
    mirror_value,
    skein_check,
    value_add,
    value_scale,
    value_scale_half,
)
from yhecke.trace import markov_trace
from yhecke.yokonuma import (
    AlgebraElement,
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

FIVE_PAIRS = [(1, {0}), (2, {0}), (2, {0, 1}), (3, {0, 1}), (4, {0, 2})]
VALUE_PAIRS = [(1, {0}), (2, {0}), (2, {0, 1}), (3, {0, 1, 2}), (4, {0, 2})]


class criterion:
    """Prints the one-line verdict for a criterion and re-raises failures."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "FAIL" if exc_type else "PASS"
        print(f"ACCEPTANCE {self.name}: {verdict} ({elapsed:.1f}s)")
        return False


def test_01_relation_suite():
    """All defining relations, the quadratic relation, the idempotent
    relations, and the cubic relations, for d in 1..4 and n in 2..4."""
    with criterion("relation-suite"):
        for d in (1, 2, 3, 4):
            for n in (2, 3, 4):
                one = AlgebraElement.one(d, n)
                w = laurent_u_minus_one()
                u = LaurentU.u(1)
                uinv = LaurentU.u(-1)
                gens = {i: generator(d, n, i) for i in range(1, n)}
                es = {i: idempotent_e(d, n, i) for i in range(1, n)}
                ts = {j: framing_generator(d, n, j) for j in range(1, n + 1)}
                for i, j in itertools.product(range(1, n), repeat=2):
                    if abs(i - j) > 1:
                        assert multiply(gens[i], gens[j]) == multiply(gens[j], gens[i])
                    if abs(i - j) == 1:
                        assert multiply(multiply(gens[i], gens[j]), gens[i]) == multiply(
                            multiply(gens[j], gens[i]), gens[j]
                        )
                for a, b in itertools.product(range(1, n + 1), repeat=2):
                    assert multiply(ts[a], ts[b]) == multiply(ts[b], ts[a])
                for j in range(1, n + 1):
                    assert ts[j] ** d == one
                    for i in range(1, n):
                        si = transposition_perm(n, i)
                        assert multiply(ts[j], gens[i]) == multiply(gens[i], ts[si[j - 1] + 1])
                for i in range(1, n):
                    g, e = gens[i], es[i]
                    assert multiply(g, g) == one + e.scale(w) - multiply(e, g).scale(w)
                    g2 = multiply(g, g)
                    assert multiply(g2, g) == g2.scale(-u) + g + one.scale(u)
                    assert generator_inverse(d, n, i) == g2.scale(uinv) + g - one.scale(uinv)
                for i, j in itertools.product(range(1, n), repeat=2):
                    assert multiply(es[i], es[j]) == multiply(es[j], es[i])
                    if j == i or abs(i - j) > 1:
                        assert multiply(es[i], gens[j]) == multiply(gens[j], es[i])
                    if abs(i - j) == 1:
                        assert multiply(multiply(es[j], gens[i]), gens[j]) == multiply(
                            multiply(gens[i], gens[j]), es[i]
                        )


def test_02_power_formula_oracle():
    """power_formula equals iterated multiplication for |m| <= 6."""
    with criterion("power-formula"):
        for d in (1, 2, 3):
            for n in (2, 3):
                for i in range(1, n):
                    acc = AlgebraElement.one(d, n)
                    g = generator(d, n, i)
                    for m in range(0, 7):
                        assert power_formula(d, n, i, m) == acc
                        acc = multiply(acc, g)
                    acc = AlgebraElement.one(d, n)
                    gi = generator_inverse(d, n, i)
                    for m in range(0, -7, -1):
                        assert power_formula(d, n, i, m) == acc
                        acc = multiply(acc, gi)


def test_03_trace_axioms():
    """Unit, multiplicative rules, and cyclicity on 200 random pairs per
    (d, n) with d <= 3, n <= 3."""
    with criterion("trace-axioms"):
        for d in (1, 2, 3):
            for n in (1, 2, 3):
                rng = random.Random(1000 * d + n)
                assert markov_trace(AlgebraElement.one(d, n)) == TracePolynomial.one(d)
                z = TracePolynomial.z_var(d)
                g_n = generator(d, n + 1, n)
                for _ in range(100):
                    a = random_element(rng, d, n)
                    big = embed(a, n + 1)
                    assert markov_trace(multiply(big, g_n)) == z * markov_trace(a)
                    m = rng.randrange(1, d) if d > 1 else 0
                    if m:
                        t_next = framing_generator(d, n + 1, n + 1, m)
                        assert markov_trace(multiply(big, t_next)) == TracePolynomial.x_var(
                            d, m
                        ) * markov_trace(a)
                for _ in range(200):
                    a = random_element(rng, d, n)
                    b = random_element(rng, d, n)
                    assert markov_trace(multiply(a, b)) == markov_trace(multiply(b, a))


def test_04_esystem():
    """Subset solutions verify exactly (exhaustive to d = 8, sampled for
    d = 9, 10); the printed d = 3 equations hold; the idempotent traces to
    1/|S| under substitution."""
    with criterion("esystem"):
        for d in range(1, 9):
            for subset in enumerate_subsets(d):
                sol = solution_from_subset(d, subset)
                assert verify_solution(d, sol.values)
        for d in (9, 10):
            rng = random.Random(d)
            for _ in range(100):
                subset = frozenset(rng.sample(range(d), rng.randint(1, d)))
                sol = solution_from_subset(d, subset)
                assert verify_solution(d, sol.values)
        two = Fraction(2)
        for subset in enumerate_subsets(3):
            _, x1, x2 = solution_from_subset(3, subset).values
            assert x1 + x2 * x2 == two * x1 * x1 * x2
            assert x1 * x1 + x2 == two * x1 * x2 * x2
        for d in range(1, 11):
            tr_e = markov_trace(idempotent_e(d, 2, 1))
            subsets = (
                list(enumerate_subsets(d))
                if d <= 6
                else [
                    frozenset(random.Random(77 + d).sample(range(d), k))
                    for k in range(1, d + 1)
                ]
            )
            for subset in subsets:
                sol = solution_from_subset(d, subset)
                assert trace_poly_substitute(tr_e, sol) == RatFunc.from_scalar(zeta_value(sol))


def test_05_factorization():
    """tr(a e_n) = tr(a) zeta under every E-solution, 100 random a per
    (d, S) with d <= 4."""
    with criterion("factorization"):
        n = 2
        for d in (1, 2, 3, 4):
            rng = random.Random(4000 + d)
            e_n = idempotent_e(d, n + 1, n)
            solutions = [solution_from_subset(d, S) for S in enumerate_subsets(d)]
            for _ in range(100):
                a = random_element(rng, d, n)
                lhs_poly = markov_trace(multiply(embed(a, n + 1), e_n))
                rhs_poly = markov_trace(a)
                for sol in solutions:
                    lhs = substitute_x_values(lhs_poly, sol.values)
                    rhs = substitute_x_values(rhs_poly, sol.values)
                    assert lhs == tuple(f * zeta_value(sol) for f in rhs)


def test_06_closed_form_values():
    """Unknot, both trefoils, and the Hopf link against the closed forms
    (the Hopf value is the derived one, with coefficient u - 1)."""
    with criterion("closed-form-values"):
        for d, subset in VALUE_PAIRS:
            lam = lambda_param(d, subset)
            u, z = RatFunc.u_var(), RatFunc.z_var()
            zeta = Fraction(1, len(subset))
            one = InvariantValue(d, 0, RatFunc.from_scalar(1))
            assert delta_invariant(d, subset, BraidWord(1, ())) == one
            assert delta_invariant(d, subset, parse_braid("1")) == one
            got_r = delta_invariant(d, subset, parse_braid("1 1 1"))
            body_r = (lam / z) * ((u * u - u + 1) * z - (u * u - u) * zeta)
            assert got_r == InvariantValue(d, 0, body_r)
            got_l = delta_invariant(d, subset, parse_braid("-1 -1 -1"))
            ui = 1 / u
            body_l = lam**-2 / z * (
                (ui**3 - ui**2 + ui) * z - (ui**3 - ui**2 + ui - 1) * zeta
            )
            assert got_l == InvariantValue(d, 0, body_l)
            got_h = delta_invariant(d, subset, parse_braid("1 1"))
            body_h = (1 / z) * (1 + (u - 1) * (RatFunc.from_scalar(zeta) - z))
            assert got_h == InvariantValue(d, 1, body_h)


def test_07_markov_invariance():
    """Invariance under 300 random conjugations and 300 random
    (de)stabilizations across the five (d, S) pairs."""
    with criterion("markov-invariance"):
        per_pair = 60
        for d, subset in FIVE_PAIRS:
            rng = random.Random(7000 + 10 * d + len(subset))
            for _ in range(per_pair):
                b = random_braid(rng, n_max=4, len_max=8)
                base = delta_invariant(d, subset, b)
                w = random_conjugator(rng, b.strands, len_max=8)
                assert delta_invariant(d, subset, markov_conjugate(b, w)) == base
                stab = markov_stabilize(b, rng.choice((1, -1)))
                assert delta_invariant(d, subset, stab) == base


def test_08_skein_relation():
    """The cubic skein relation on 100 random (braid, crossing) quadruples
    per (d, S)."""
    with criterion("skein-relation"):
        for d, subset in FIVE_PAIRS:
            rng = random.Random(8000 + 10 * d + len(subset))
            for _ in range(100):
                b = random_braid(rng, n_max=4, len_max=6)
                i = rng.randrange(len(b.letters))
                assert skein_check(d, subset, b, i)


def test_09_homflypt_specialization():
    """At d = 1: the quadratic-relation skein identity on random crossings,
    and the trefoils are exchanged by the mirror substitution."""
    with criterion("homflypt-d1"):
        subset = {0}
        lam = lambda_param(1, subset)
        u = RatFunc.u_var()
        rng = random.Random(9001)
        for _ in range(60):
            b = random_braid(rng, n_max=4, len_max=6)
            i = rng.randrange(len(b.letters))
            gen_idx = abs(b.letters[i])

            def variant(exponent, b=b, i=i, gen_idx=gen_idx):
                mid = (gen_idx,) * exponent if exponent >= 0 else (-gen_idx,) * (-exponent)
                return BraidWord(b.strands, b.letters[:i] + mid + b.letters[i + 1 :])

            v_m = homflypt_specialize(variant(-1))
            v_p = homflypt_specialize(variant(1))
            v_0 = homflypt_specialize(variant(0))
            rhs = value_add(
                value_scale(v_p, 1 / (lam * u)),
                value_scale_half(value_scale(v_0, 1 - 1 / u), -1, lam),
            )
            assert v_m == rhs
        right = homflypt_specialize(parse_braid("1 1 1"))
        left = homflypt_specialize(parse_braid("-1 -1 -1"))
        assert mirror_value(1, subset, right) == left
        assert mirror_value(1, subset, left) == right


def test_10_adelic_coherence():
    """Connecting diagrams commute on 50 random elements per chain; lift
    transitivity holds exhaustively below 12; the chain invariant is
    Markov-invariant componentwise."""
    with criterion("adelic-coherence"):
        for chain in ((1, 2), (2, 4), (3, 6), (2, 6, 12)):
            rng = random.Random(sum(chain) * 13)
            top = chain[-1]
            for _ in range(50):
                b = random_braid(rng, n_max=3, len_max=6)
                images = [represent_braid(d, b) for d in chain]
                for j in range(len(chain) - 1):
                    assert rho(chain[j], chain[j + 1], images[j + 1]) == images[j]
                a = random_element(rng, top, rng.randint(2, 3))
                traces = [markov_trace(rho(d, top, a)) for d in chain]
                for j in range(len(chain) - 1):
                    assert xi(chain[j], chain[j + 1], traces[j + 1]) == traces[j]
        for d in range(1, 13):
            for dp in range(d, 13, d):
                for dpp in range(dp, 13, dp):
                    for subset in enumerate_subsets(d):
                        assert lift_subset(d, dpp, subset) == lift_subset(
                            dp, dpp, lift_subset(d, dp, subset)
                        )
        chain_obj = DivisorChain((2, 4))
        rng = random.Random(104)
        for _ in range(50):
            b = random_braid(rng, n_max=3, len_max=6)
            base = adelic_delta(chain_obj, {0}, b)
            w = random_conjugator(rng, b.strands, len_max=4)
            assert adelic_delta(chain_obj, {0}, markov_conjugate(b, w)) == base
            assert adelic_delta(chain_obj, {0}, markov_stabilize(b, rng.choice((1, -1)))) == base


def test_11_cli_determinism():
    """Identical command and seed produce byte-identical output."""
    with criterion("cli-determinism"):
        commands = [
            ["invariant", "--d", "3", "--subset", "0,1", "--braid", "1 1 1"],
            ["invariant", "--d", "4", "--subset", "0,2", "--braid", "-1 2 -1", "--format", "json"],
            ["trace", "--d", "3", "--braid", "1 -2 1"],
            ["esystem", "--d", "5", "--enumerate", "--format", "json"],
            ["adelic", "--chain", "2,4", "--subset", "0,1", "--braid", "1 1"],
            ["verify", "--suite", "esystem", "--seed", "11"],
        ]
        for argv in commands:
            runs = []
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                code = cli_main(argv, out=out, err=err)
                runs.append((code, out.getvalue(), err.getvalue()))
            assert runs[0] == runs[1]
            assert runs[0][0] == 0
