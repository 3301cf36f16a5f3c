"""Reference values computed with sympy, apart from the program's code.

The program's JSON is read back into sympy expressions in u, z (and the
trace variables x_1 .. x_{d-1}); a cyclotomic coefficient, given in the power
basis of zeta_d, becomes a polynomial in a symbol w reduced modulo the d-th
cyclotomic polynomial.  The oracles are:

- the closure of sigma_1^k on 2 strands, from the 4-dimensional span of
  1, e, g, eg (e = e_1, g = g_1) in Y_{d,2} with the defining relations
  g^2 = 1 + (u-1) e - (u-1) e g and e^2 = e, e g = g e, and the trace
  values tr(1) = 1, tr(e) = 1/|S|, tr(g) = tr(e g) = z;
- the unknot value 1;
- the map xi on trace polynomials, x_a -> x_(a mod d) with x_0 -> 1;
- gcd(numerator, denominator) of a body with rational coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import sympy as sp

U, Z, W = sp.symbols("u z w")


def x_symbol(a: int) -> sp.Symbol:
    return sp.Symbol(f"x{a}")


def _rational(text: str) -> sp.Rational:
    q = Fraction(text)
    return sp.Rational(q.numerator, q.denominator)


# ---------------------------------------------------------------------------
# Reading the program's JSON.
# ---------------------------------------------------------------------------

def cyclotomic(coords: list[str]) -> sp.Expr:
    return sum((_rational(c) * W**j for j, c in enumerate(coords)), sp.Integer(0))


def poly_uz(terms: list[dict]) -> sp.Expr:
    return sum((cyclotomic(t["coeff"]) * U ** t["u"] * Z ** t["z"] for t in terms), sp.Integer(0))


def body_parts(invariant: dict) -> tuple[int, int, sp.Expr, sp.Expr]:
    """(order, halfLambda, numerator, denominator) of an invariant object."""
    body = invariant["body"]
    return (invariant["order"], invariant["halfLambda"],
            poly_uz(body["numerator"]), poly_uz(body["denominator"]))


def has_rational_coefficients(invariant: dict) -> bool:
    body = invariant["body"]
    return all(
        all(Fraction(c) == 0 for c in t["coeff"][1:])
        for t in body["numerator"] + body["denominator"]
    )


def trace_poly(obj: dict) -> sp.Expr:
    """A generic trace polynomial: sum of coeff(u) z^a x_1^b1 ... x_{d-1}^b{d-1}."""
    total = sp.Integer(0)
    for t in obj["terms"]:
        coeff = sum((_rational(q) * U**e for e, q in t["coeff"]), sp.Integer(0))
        mono = Z ** t["z"]
        for a, e in enumerate(t["x"], start=1):
            mono *= x_symbol(a) ** e
        total += coeff * mono
    return total


def zero_in_cyclotomic_field(expr: sp.Expr, d: int) -> bool:
    """True iff expr (a polynomial in w, u, z) vanishes when w is a primitive
    d-th root of unity."""
    expr = sp.expand(expr)
    if expr == 0:
        return True
    return sp.expand(sp.rem(expr, sp.cyclotomic_poly(d, W), W)) == 0


# ---------------------------------------------------------------------------
# Reference values.
# ---------------------------------------------------------------------------

def lambda_value(zeta: sp.Rational) -> sp.Expr:
    return (Z - (1 - U) * zeta) / (U * Z)


def times_g(x: tuple) -> tuple:
    """Right multiplication by g of a + b e + c g + f eg."""
    a, b, c, f = x
    return (c, c * (U - 1) + f * U, a, b - (c + f) * (U - 1))


def times_e(x: tuple) -> tuple:
    a, b, c, f = x
    return (0, a + b, 0, c + f)


def times_g_inverse(x: tuple) -> tuple:
    """Right multiplication by g^-1 = g - (1/u - 1) e + (1/u - 1) e g."""
    w = 1 / U - 1
    xg, xe = times_g(x), times_e(x)
    xeg = times_g(xe)
    return tuple(sp.expand(p - w * q + w * r) for p, q, r in zip(xg, xe, xeg))


@lru_cache(maxsize=None)
def g_power(k: int) -> tuple:
    """sigma_1^k as coefficients of 1, e, g, eg."""
    x = (sp.Integer(1), sp.Integer(0), sp.Integer(0), sp.Integer(0))
    step = times_g if k > 0 else times_g_inverse
    for _ in range(abs(k)):
        x = tuple(sp.expand(c) for c in step(x))
    return x


def torus_trace(k: int, zeta: sp.Rational) -> sp.Expr:
    a, b, c, f = g_power(k)
    return a + b * zeta + (c + f) * Z


def torus_invariant(k: int, zeta: sp.Rational) -> tuple[int, sp.Expr]:
    """(halfLambda, body) of the closure of sigma_1^k on 2 strands:
    D sqrt(lambda)^k tr(g^k) with D = 1/(sqrt(lambda) z)."""
    half = (k - 1) % 2
    fold = (k - 1 - half) // 2
    return half, sp.cancel(torus_trace(k, zeta) / Z * lambda_value(zeta) ** fold)


def invariant_equals(invariant: dict, half: int, body: sp.Expr) -> bool:
    d, h, num, den = body_parts(invariant)
    if h != half:
        return False
    onum, oden = sp.fraction(sp.cancel(sp.together(body)))
    return zero_in_cyclotomic_field(num * oden - onum * den, d)


def is_unknot(invariant: dict) -> bool:
    return invariant_equals(invariant, 0, sp.Integer(1))


def gcd_is_constant(invariant: dict) -> bool:
    """For a body with rational coefficients: gcd(num, den) has degree 0."""
    _, _, num, den = body_parts(invariant)
    g = sp.gcd(sp.Poly(num, U, Z), sp.Poly(den, U, Z))
    return g.total_degree() == 0


def xi(expr: sp.Expr, d_from: int, d_to: int) -> sp.Expr:
    """x_a -> x_(a mod d_to), x_0 -> 1, on a trace polynomial of order d_from."""
    if d_from % d_to:
        raise ValueError(f"{d_to} does not divide {d_from}")
    return expr.subs(
        {x_symbol(a): (1 if a % d_to == 0 else x_symbol(a % d_to)) for a in range(1, d_from)},
        simultaneous=True,
    )


def same_polynomial(a: sp.Expr, b: sp.Expr) -> bool:
    return sp.expand(a - b) == 0
