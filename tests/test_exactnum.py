"""Exact arithmetic: cyclotomic numbers, polynomials, rational functions."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from yhecke.esystem import solution_from_subset
from yhecke.exactnum import (
    Cyclotomic,
    DenominatorFamilyError,
    IrrationalTraceError,
    LaurentU,
    OrderMismatchError,
    PolyUZ,
    RatFunc,
    TracePolynomial,
    cyclotomic_polynomial,
    euler_phi,
    poly_gcd,
    substitute_x_values,
    trace_poly_substitute,
)

# Standard cyclotomic polynomials, written out by hand as integer coefficient
# tuples (low degree first) -- the oracle for the iterated-division builder.
KNOWN_CYCLOTOMIC = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    11: (1,) * 11,
    12: (1, 0, -1, 0, 1),
}


def totient_oracle(d: int) -> int:
    return sum(1 for a in range(1, d + 1) if math.gcd(a, d) == 1)


@pytest.mark.parametrize("d", sorted(KNOWN_CYCLOTOMIC))
def test_cyclotomic_polynomial_table(d):
    assert cyclotomic_polynomial(d) == tuple(Fraction(c) for c in KNOWN_CYCLOTOMIC[d])


@pytest.mark.parametrize("d", range(1, 13))
def test_euler_phi_matches_gcd_count(d):
    assert euler_phi(d) == totient_oracle(d)


@pytest.mark.parametrize("d", range(1, 13))
def test_roots_have_order_d_and_reconstruct_phi(d):
    one = Cyclotomic.one(d)
    for a in range(d):
        assert Cyclotomic.root(d, a) ** d == one
    # The product over primitive roots of (x - zeta_d^a) reconstructs the
    # d-th cyclotomic polynomial with rational coefficients.
    prod = [Cyclotomic.one(d)]  # coefficients of a poly in x over Q(zeta_d)
    for a in range(d):
        if math.gcd(a, d) != 1 and d > 1:
            continue
        if d == 1 and a != 0:
            continue
        root = Cyclotomic.root(d, a)
        new = [Cyclotomic.zero(d) for _ in range(len(prod) + 1)]
        for i, c in enumerate(prod):
            new[i + 1] = new[i + 1] + c
            new[i] = new[i] - c * root
        prod = new
    expected = cyclotomic_polynomial(d)
    assert len(prod) == len(expected)
    for got, want in zip(prod, expected):
        assert got.is_rational() and got.as_fraction() == want


def test_root_examples():
    assert Cyclotomic.root(1, 0) == Cyclotomic.one(1)
    assert Cyclotomic.root(2, 1) == Cyclotomic.from_rational(2, -1)
    assert Cyclotomic.root(4, 2) == Cyclotomic.from_rational(4, -1)


def test_cyclotomic_arith_examples():
    z3 = Cyclotomic.root(3, 1)
    assert z3 + z3**2 == Cyclotomic.from_rational(3, -1)
    assert Cyclotomic.root(5, 1) * Cyclotomic.root(5, 4) == Cyclotomic.one(5)


def test_cyclotomic_order_mismatch_and_zero_division():
    with pytest.raises(OrderMismatchError):
        Cyclotomic.root(3, 1) + Cyclotomic.root(4, 1)


def test_cyclotomic_integer_form_is_canonical():
    """num over den is brought to lowest terms with den > 0; zero is 0/1."""
    x = Cyclotomic(3, (2, -4), -6)
    assert (x.num, x.den) == ((-1, 2), 3)
    assert x == Cyclotomic.from_rational(3, Fraction(-1, 3)) + Cyclotomic.root(3, 1) * Fraction(2, 3)
    assert x.coeffs == (Fraction(-1, 3), Fraction(2, 3))
    zero = Cyclotomic(4, (0, 0), -5)
    assert (zero.num, zero.den) == ((0, 0), 1) and zero == Cyclotomic.zero(4)
    # zeta_4^6 = zeta_4^2 = -1
    assert Cyclotomic.from_powers(4, (0, 0, 0, 0, 0, 0, 1), 2) == Cyclotomic.from_rational(4, Fraction(-1, 2))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 8, 12])
def test_cyclotomic_field_axioms_random(d):
    rng = random.Random(20 + d)

    def rand_elt():
        return sum(
            (
                Cyclotomic.root(d, i) * Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for i in range(euler_phi(d))
            ),
            Cyclotomic.zero(d),
        )

    for _ in range(25):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


# -- LaurentU -----------------------------------------------------------------

small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)
laurents = st.dictionaries(st.integers(-4, 4), small_fracs, max_size=4).map(
    LaurentU.from_dict
)


@settings(max_examples=60, deadline=None)
@given(laurents, laurents, laurents)
def test_laurent_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == LaurentU.zero()
    assert a * LaurentU.from_scalar(1) == a


def test_laurent_str_and_pow():
    w = LaurentU.from_dict({1: 1, 0: -1})
    assert str(w) == "u - 1"
    assert str(LaurentU.zero()) == "0"
    assert LaurentU.u(-1) ** -2 == LaurentU.u(2)
    assert w**2 == LaurentU.from_dict({2: 1, 1: -2, 0: 1})
    with pytest.raises(ValueError):
        w**-1


# -- TracePolynomial -----------------------------------------------------------

def test_trace_polynomial_basics():
    d = 3
    z = TracePolynomial.z_var(d)
    x1 = TracePolynomial.x_var(d, 1)
    x2 = TracePolynomial.x_var(d, 2)
    assert TracePolynomial.x_var(d, 0) == TracePolynomial.one(d)
    assert TracePolynomial.x_var(d, 3) == TracePolynomial.one(d)
    p = z * x1 + x2
    q = x2 + x1 * z
    assert p == q
    assert str(z * z * x1) == "z^2*x1"
    assert (p - p).is_zero()


def test_trace_polynomial_scale_and_str():
    d = 2
    z = TracePolynomial.z_var(d)
    w = LaurentU.from_dict({1: 1, 0: -1})
    p = z.scale(w) + TracePolynomial.one(d)
    assert str(p) == "(u - 1)*z + 1"
    assert p * TracePolynomial.zero(d) == TracePolynomial.zero(d)


def test_trace_polynomial_order_mismatch():
    with pytest.raises(OrderMismatchError):
        TracePolynomial.z_var(2) + TracePolynomial.z_var(3)


# -- PolyUZ / RatFunc ----------------------------------------------------------

def rand_poly(rng: random.Random, max_terms: int = 4) -> PolyUZ:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = (rng.randint(0, 3), rng.randint(0, 3))
        coeff = Fraction(rng.randint(-3, 3))
        if coeff:
            terms[mono] = coeff
    return PolyUZ.from_dict(terms)


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 2))


def rand_linear_form(rng: random.Random) -> PolyUZ:
    """z + alpha u + beta, or u + beta, other than a bare u or z."""
    one = Fraction(1)
    while True:
        alpha, beta = rand_fraction(rng), rand_fraction(rng)
        if rng.random() < 0.25:
            ell = PolyUZ.from_dict({(1, 0): one, (0, 0): beta})
        else:
            ell = PolyUZ.from_dict({(0, 1): one, (1, 0): alpha, (0, 0): beta})
        if len(ell.terms) > 1:
            return ell


def family_member(ell: PolyUZ, a: int, b: int, c: int) -> PolyUZ:
    """The monic denominator u^a z^b l^c."""
    out = PolyUZ.monomial(a, b)
    for _ in range(c):
        out = out * ell
    return out


def rand_family(rng: random.Random, ell: PolyUZ, max_exp: int = 2) -> PolyUZ:
    return family_member(ell, rng.randint(0, max_exp), rng.randint(0, max_exp), rng.randint(0, max_exp))


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_poly_gcd_divides_products(order):
    rng = random.Random(order * 11)
    for _ in range(15):
        ell = rand_linear_form(rng)
        a, b, g = rand_poly(rng), rand_family(rng, ell), rand_family(rng, ell)
        if a.is_zero():
            continue
        a = a * rand_family(rng, ell)
        ag, bg = a * g, b * g
        got, q1, q2 = poly_gcd(ag, bg)
        # the gcd divides both products exactly ...
        assert q1 * got == ag and q2 * got == bg
        # ... and is itself a multiple of the common factor g.
        _, quot, unit = poly_gcd(got, g)
        assert unit == PolyUZ.one() and quot * g == got


@pytest.mark.parametrize("order", [1, 2, 3])
def test_ratfunc_congruence_cross_multiplication(order):
    """a/b = c/d iff ad = cb: canonical-form equality agrees with the
    cross-multiplication test."""
    rng = random.Random(order * 7)
    checked = 0
    while checked < 30:
        ell = rand_linear_form(rng)
        a, b = rand_poly(rng), rand_family(rng, ell)
        c, dd = rand_poly(rng), rand_family(rng, ell)
        f1 = RatFunc.make(a, b)
        f2 = RatFunc.make(c, dd)
        assert (f1 == f2) == f1.equal_cross(f2)
        # scaling numerator and denominator never changes the value
        s = rand_family(rng, ell)
        assert RatFunc.make(a * s, b * s) == f1
        checked += 1


def family_exponents(den: PolyUZ, ell: PolyUZ) -> tuple[int, int, int]:
    """(a, b, c) such that den should be u^a z^b l^c."""
    var = 1 if any(ze for (_, ze), _ in ell.terms) else 0
    a = min(ue for (ue, _), _ in den.terms)
    b = min(ze for (_, ze), _ in den.terms)
    return a, b, max(m[var] for m, _ in den.terms) - (b if var else a)


def rand_unit(rng: random.Random) -> Fraction:
    c = rand_fraction(rng)
    return c if c else Fraction(1)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_make_cancels_common_family_factor(order):
    """make(a g, b g) == make(a, b) for a common factor g = u^i z^j l^m; the
    reduced denominator is exactly a monic u^a z^b l^c; == agrees with
    equal_cross."""
    rng = random.Random(order * 13)
    for _ in range(20):
        ell = rand_linear_form(rng)
        a = rand_poly(rng) * rand_family(rng, ell)
        b = rand_family(rng, ell).scale(rand_unit(rng))
        g = rand_family(rng, ell)
        f = RatFunc.make(a, b)
        scaled = RatFunc.make(a * g, b * g)
        assert scaled == f and scaled.equal_cross(f)
        assert f.den == family_member(ell, *family_exponents(f.den, ell))
        assert f.num * b == a * f.den
        other = RatFunc.make(rand_poly(rng), rand_family(rng, ell))
        assert (other == f) == other.equal_cross(f)


def test_make_matches_sympy_cancel():
    """Over Q (orders 1 and 2) the reduced fraction is sympy's, up to a
    constant factor."""
    sympy = pytest.importorskip("sympy")
    su, sz = sympy.symbols("u z")

    def expr(p: PolyUZ):
        return sum(
            (sympy.Rational(c.numerator, c.denominator) * su**ue * sz**ze
             for (ue, ze), c in p.terms),
            sympy.Integer(0),
        )

    rng = random.Random(5)
    for order in (1, 2):
        for _ in range(15):
            ell = rand_linear_form(rng)
            num = rand_poly(rng) * rand_family(rng, ell)
            den = rand_family(rng, ell, max_exp=3).scale(rand_unit(rng))
            if num.is_zero():
                continue
            f = RatFunc.make(num, den)
            want_num, want_den = sympy.fraction(sympy.cancel(expr(num) / expr(den)))
            assert sympy.cancel(expr(f.den) / want_den).is_number
            assert sympy.expand(expr(f.num) * want_den - want_num * expr(f.den)) == 0


def out_of_family_denominators() -> list[PolyUZ]:
    u, z, one = PolyUZ.monomial(1, 0), PolyUZ.monomial(0, 1), PolyUZ.one()
    return [
        u * z + one,  # not a power of a linear form
        (u - one) * (z + u - one),  # two different linear forms
        z * z + u,
        (z + one) * (z + PolyUZ.from_scalar(2)),
        u * u + one,
    ]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_out_of_family_denominator_raises(order):
    for den in out_of_family_denominators():
        with pytest.raises(DenominatorFamilyError):
            RatFunc.make(PolyUZ.one(), den)


def test_out_of_family_denominator_raises_under_optimize():
    """The checks are explicit raises, so python -O keeps them."""
    import yhecke

    src = str(Path(yhecke.__file__).resolve().parents[1])
    code = (
        "from yhecke.esystem import solution_from_subset\n"
        "from yhecke.exactnum import (DenominatorFamilyError, IrrationalTraceError, PolyUZ, RatFunc,\n"
        "                             TracePolynomial, trace_poly_substitute)\n"
        "den = PolyUZ.monomial(1, 1) + PolyUZ.one()\n"
        "x1 = TracePolynomial.x_var(3, 1)\n"
        "for make in (lambda: RatFunc.make(PolyUZ.one(), den),\n"
        "             lambda: trace_poly_substitute(x1, solution_from_subset(3, {1}))):\n"
        "    try:\n"
        "        make()\n"
        "    except (DenominatorFamilyError, IrrationalTraceError):\n"
        "        print(__debug__, 'raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "raised"] * 2


def test_ratfunc_field_ops():
    u = RatFunc.u_var()
    z = RatFunc.z_var()
    f = (z - 1) / (u * z)
    assert f * (u * z) == z - 1
    assert (f + 1 - 1) == f
    assert f / f == RatFunc.from_scalar(1)
    assert (1 / u) * u == RatFunc.from_scalar(1)
    assert u**-2 == 1 / (u * u)
    with pytest.raises(ZeroDivisionError):
        f / RatFunc.from_scalar(0)


def test_ratfunc_substitute_involution():
    # the mirror map u -> 1/u, z -> lambda z sends L = z - (1 - u) to z/u,
    # so it keeps denominators in the family u^a z^b L^c
    u = RatFunc.u_var()
    z = RatFunc.z_var()
    lam = (z - (1 - u)) / (u * z)
    f = (z * z - u) / (u * z * (z - 1 + u) ** 2)
    g = f.substitute(1 / u, lam * z)
    assert g.substitute(1 / u, lam * z) == f


def test_substitution_is_ring_homomorphism():
    d = 2
    z = TracePolynomial.z_var(d)
    x1 = TracePolynomial.x_var(d, 1)
    values_a = (Cyclotomic.one(d), Cyclotomic.from_rational(d, Fraction(1, 2)))
    p = z * x1 + x1
    q = x1 * x1 - z
    (sp,) = substitute_x_values(p, values_a)
    (sq,) = substitute_x_values(q, values_a)
    assert substitute_x_values(p * q, values_a) == (sp * sq,)
    assert substitute_x_values(p + q, values_a) == (sp + sq,)


def test_substitution_examples():
    # x1 under the solution with x1 = 1 gives 1; x1 z under x1 = 0 gives 0.
    d = 2
    x1 = TracePolynomial.x_var(d, 1)
    z = TracePolynomial.z_var(d)
    one = (Cyclotomic.one(d), Cyclotomic.one(d))
    zero = (Cyclotomic.one(d), Cyclotomic.zero(d))
    assert substitute_x_values(x1, one) == (RatFunc.from_scalar(1),)
    assert substitute_x_values(z, one) == (RatFunc.z_var(),)
    assert substitute_x_values(x1 * z, zero) == (RatFunc.from_scalar(0),)


def test_substitution_returns_power_basis_coordinates():
    # x_1 = zeta_3 under S = {1}: coordinates (0, 1) on the basis 1, zeta_3
    sol = solution_from_subset(3, {1})
    x1 = TracePolynomial.x_var(3, 1)
    assert substitute_x_values(x1, sol.values) == (RatFunc.from_scalar(0), RatFunc.from_scalar(1))
    # x_1 x_2 = zeta_3^3 = 1 is rational, x_1 is not
    assert trace_poly_substitute(x1 * TracePolynomial.x_var(3, 2), sol) == RatFunc.from_scalar(1)
    with pytest.raises(IrrationalTraceError):
        trace_poly_substitute(x1, sol)


def test_substitution_clears_negative_u_powers():
    d = 1
    p = TracePolynomial.from_scalar(d, LaurentU.from_dict({-2: 1, 1: 3}))
    (f,) = substitute_x_values(p, (Cyclotomic.one(d),))
    # (u^-2 + 3u) = (1 + 3u^3)/u^2
    u = RatFunc.u_var()
    assert f == (1 + 3 * u**3) / u**2


def test_laurent_from_ints_divides_by_the_denominator():
    lu = LaurentU.from_ints({2: 3, 0: 0, -1: -4}, 6)
    assert lu == LaurentU.from_dict({2: Fraction(1, 2), -1: Fraction(-2, 3)})
    assert lu.terms[0] == (-1, Fraction(-2, 3))
    assert LaurentU.from_ints({5: 0}) == LaurentU.zero()


INVALID_EXACT_VALUES = (
    # a negative z-exponent, two x-exponents at order 2, a zero coefficient
    "TracePolynomial(2, (((-1, (0, 0)), LaurentU.zero()),))",
    # one coefficient where phi(4) = 2
    "Cyclotomic(4, (Fraction(1),))",
    # a numerator that is not an int
    "Cyclotomic(3, (Fraction(1, 2), 0))",
    # a zero denominator
    "Cyclotomic(3, (1, 0), 0)",
)


@pytest.mark.parametrize(
    "expr", INVALID_EXACT_VALUES, ids=["trace_polynomial", "cyclotomic", "cyclotomic_fraction", "cyclotomic_zero_den"]
)
def test_invalid_trace_polynomial_and_cyclotomic_rejected(expr):
    with pytest.raises(ValueError):
        eval(expr)


def test_invalid_trace_polynomial_and_cyclotomic_rejected_under_optimize():
    """The checks are explicit raises, so python -O keeps them."""
    import yhecke

    src = str(Path(yhecke.__file__).resolve().parents[1])
    code = (
        "from fractions import Fraction\n"
        "from yhecke.exactnum import Cyclotomic, LaurentU, TracePolynomial\n"
        f"for expr in {INVALID_EXACT_VALUES!r}:\n"
        "    try:\n"
        "        eval(expr)\n"
        "    except ValueError:\n"
        "        print(__debug__, 'raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "raised"] * len(INVALID_EXACT_VALUES)
