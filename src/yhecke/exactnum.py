"""Exact scalar arithmetic tower.

Everything here is exact and immutable:

- rationals are stdlib ``fractions.Fraction``;
- ``Cyclotomic`` is a number in Q(zeta_d), stored as phi(d) integer
  numerators over one positive denominator in lowest terms, in the power
  basis 1, zeta_d, ..., zeta_d^(phi(d)-1).  Products are reduced modulo the
  monic integer cyclotomic polynomial Phi_d by the same integer division
  that builds Phi_d, so equality of values is equality of fields;
- ``LaurentU`` is a Laurent polynomial in the variable u over Q;
- ``TracePolynomial`` is a polynomial in z and x_1..x_{d-1} whose
  coefficients are ``LaurentU`` (x_0 is identified with the constant 1);
- ``PolyUZ`` is an ordinary polynomial in u, z over Q;
- ``RatFunc`` is a quotient of two ``PolyUZ``, kept in canonical form
  (reduced, denominator with leading coefficient 1) so that equality is
  structural.  Its denominator is u^a z^b l^c for a single linear form l,
  the shape every value of the invariant has, so reduction needs only the
  monomial content and synthetic division by l.

Every type derives its operators from one protocol, ``ExactArithmetic``.  A
type supplies ``_coerce`` (its own instance for an operand of its ring, or
None), ``__add__``, ``__neg__``, ``__mul__`` and ``_unit``, and ``_inverse``
when it allows negative powers (``RatFunc``; ``LaurentU`` for monomials).
The protocol derives ``-`` and its reflection, the reflected ``+`` and
``*``, and ``**`` by square-and-multiply; ``yokonuma.AlgebraElement`` uses it
too.  ``Cyclotomic``, ``LaurentU`` and ``PolyUZ`` print their sums through one
term renderer, each with its own monomial names and term order.

Cyclotomic numbers appear only in the E-system values and in their
substitution into a trace polynomial (``substitute_x_values``), which is the
test oracle: ``trace.trace_of_braid`` reads a braid's value at a solution over Q
as the x-free part of its trace in Y_{|S|,n}, and a (d, S) substitution checks
it.  ``trace_poly_substitute`` checks once that all power-basis coordinates but
the first are zero.

Monomial orders, and hence all renderings, are deterministic: total degree
first, then lexicographically with z before u before x_1 before x_2, etc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence, Union

Scalar = Union[int, Fraction]


class OrderMismatchError(ValueError):
    """Raised when combining exact values over different cyclotomic orders."""


# ---------------------------------------------------------------------------
# Cyclotomic polynomials: monic, with integer coefficients, low degree first.
# ---------------------------------------------------------------------------

def _divmod_monic(a: Sequence[int], b: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of the integer polynomial a by the monic b.
    The remainder has exactly deg(b) entries."""
    deg = len(b) - 1
    rem = list(a) + [0] * (deg - len(a))
    quot = [0] * max(len(a) - deg, 0)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            quot[i - deg] = c
            for j in range(deg):
                rem[i - deg + j] -= c * b[j]
    return tuple(quot), tuple(rem[:deg])


@lru_cache(maxsize=256)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """The d-th cyclotomic polynomial Phi_d, low degree first.  It is monic
    with integer coefficients: x^d - 1 divided exactly by Phi_e for every
    proper divisor e of d.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if d < 1:
        raise ValueError(f"order must be positive, got {d}")
    poly = (-1,) + (0,) * (d - 1) + (1,)
    for e in range(1, d):
        if d % e == 0:
            poly, rem = _divmod_monic(poly, cyclotomic_polynomial(e))
            if any(rem):
                raise ArithmeticError(f"Phi_{e} does not divide x^{d} - 1 exactly")
    return poly


@lru_cache(maxsize=256)
def euler_phi(d: int) -> int:
    """Degree of the d-th cyclotomic polynomial, phi(d) = d * prod(1 - 1/p)
    over the primes p dividing d, found by trial division."""
    phi = rest = d
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            phi -= phi // p
            while rest % p == 0:
                rest //= p
        p += 1
    return phi - phi // rest if rest > 1 else phi


# ---------------------------------------------------------------------------
# The arithmetic protocol and the rendering of scalar-coefficient sums.
# ---------------------------------------------------------------------------

class ExactArithmetic:
    """Operators derived from a type's own ``_coerce``, ``__add__``,
    ``__neg__``, ``__mul__``, ``_unit`` and ``_inverse``.

    ``_coerce(other)`` returns ``other`` as an element of the type's ring,
    or None when it is not one, which makes the operators return
    ``NotImplemented``.  Addition and multiplication are taken to be
    commutative; a type that is not overrides ``__rmul__``.
    """

    __slots__ = ()

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        """self^k by square-and-multiply: no product for k = 1, one for
        k = 2.  A negative power is a power of ``_inverse()``."""
        if k < 0:
            return self._inverse() ** -k
        acc, base = None, self
        while k:
            if k & 1:
                acc = base if acc is None else acc * base
            k >>= 1
            if k:
                base = base * base
        return self._unit() if acc is None else acc

    def _inverse(self):
        raise ValueError(f"negative powers of a {type(self).__name__} are not defined")


def _monomial(*factors: tuple[str, int]) -> str:
    """The product of the (symbol, exponent) factors as printed: sym^e,
    sym for e = 1, nothing for e = 0, and '' when every e is 0."""
    return "*".join(sym if e == 1 else f"{sym}^{e}" for sym, e in factors if e)


def _render_terms(terms) -> str:
    """A sum of (monomial, coefficient) pairs in the given order, zero
    coefficients skipped: the constant term (monomial '') prints as |c|, a
    term with |c| = 1 as the bare monomial, any other as |c|*mono."""
    parts = []
    for mono, c in terms:
        if not c:
            continue
        mag = abs(c)
        body = mono if mag == 1 else f"{mag}*{mono}"
        parts.append((c < 0, body if mono else str(mag)))
    return _join_signed(parts)


def _join_signed(parts: list[tuple[bool, str]]) -> str:
    if not parts:
        return "0"
    out = []
    for k, (neg, body) in enumerate(parts):
        if k == 0:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f" - {body}" if neg else f" + {body}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Cyclotomic numbers.
# ---------------------------------------------------------------------------

def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class Cyclotomic(ExactArithmetic):
    """A number (1/den) * sum num[i] zeta_d^i in Q(zeta_d), in the power
    basis reduced mod the d-th cyclotomic polynomial.  ``num`` always has
    exactly phi(d) integer entries, and den > 0 is coprime to them (zero is
    0/1), so equality of values is equality of the dataclass fields.
    ``coeffs`` is the rational view, num[i] / den.
    """

    order: int
    num: tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        if self.order < 1 or len(self.num) != euler_phi(self.order):
            raise ValueError(f"order {self.order} needs phi(order) numerators, got {len(self.num)}")
        if not all(isinstance(c, int) for c in (self.den, *self.num)):
            raise ValueError(f"numerators {self.num!r} and denominator {self.den!r} must be ints")
        if not self.den:
            raise ValueError("zero denominator in a cyclotomic number")
        g = math.gcd(self.den, *self.num)
        if self.den < 0:
            g = -g
        if g != 1:
            object.__setattr__(self, "num", tuple(c // g for c in self.num))
            object.__setattr__(self, "den", self.den // g)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_powers(order: int, raw: Sequence[int], den: int = 1) -> Cyclotomic:
        """(1/den) * sum raw[i] zeta_d^i, for any number of integers raw."""
        return Cyclotomic(order, _divmod_monic(raw, cyclotomic_polynomial(order))[1], den)

    @staticmethod
    def from_rational(order: int, value: Scalar) -> Cyclotomic:
        v = _as_fraction(value)
        return Cyclotomic(order, (v.numerator,) + (0,) * (euler_phi(order) - 1), v.denominator)

    @staticmethod
    def zero(order: int) -> Cyclotomic:
        return Cyclotomic.from_rational(order, 0)

    @staticmethod
    def one(order: int) -> Cyclotomic:
        return Cyclotomic.from_rational(order, 1)

    @staticmethod
    def root(order: int, a: int) -> Cyclotomic:
        """zeta_d^a in canonical form (x^a reduced mod the cyclotomic polynomial)."""
        return Cyclotomic.from_powers(order, (0,) * (a % order) + (1,))

    # -- queries -------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "Cyclotomic | None":
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise OrderMismatchError(
                    f"cyclotomic orders differ: {self.order} vs {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.order, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = math.lcm(self.den, o.den)
        fa, fb = den // self.den, den // o.den
        return Cyclotomic(self.order, tuple(a * fa + b * fb for a, b in zip(self.num, o.num)), den)

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        conv = [0] * (2 * len(self.num) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(o.num):
                    conv[i + j] += a * b
        return Cyclotomic.from_powers(self.order, conv, self.den * o.den)

    def _unit(self) -> Cyclotomic:
        return Cyclotomic.one(self.order)

    # -- output --------------------------------------------------------------

    def __str__(self) -> str:
        sym = f"zeta{self.order}"
        return _render_terms((_monomial((sym, i)), c) for i, c in enumerate(self.coeffs))


# ---------------------------------------------------------------------------
# Laurent polynomials in u over Q.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaurentU(ExactArithmetic):
    """Sparse Laurent polynomial in u with Fraction coefficients.

    ``terms`` is sorted by exponent and stores no zero coefficients, so the
    zero polynomial is the empty tuple and equality/hash are structural.
    """

    terms: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def from_dict(d: Mapping[int, Scalar]) -> LaurentU:
        items = []
        for e, c in d.items():
            f = _as_fraction(c)
            if f:
                items.append((int(e), f))
        items.sort()
        return LaurentU(tuple(items))

    @staticmethod
    def from_ints(coeffs: Mapping[int, int], den: int = 1) -> LaurentU:
        """(1/den) * sum c u^e from integer coefficients, the form the
        integer kernel of ``yokonuma`` and ``trace`` works in."""
        return LaurentU(tuple((e, Fraction(c, den)) for e, c in sorted(coeffs.items()) if c))

    @staticmethod
    def zero() -> LaurentU:
        return LaurentU(())

    @staticmethod
    def from_scalar(c: Scalar) -> LaurentU:
        return LaurentU.from_dict({0: c})

    @staticmethod
    def u(exp: int = 1, coeff: Scalar = 1) -> LaurentU:
        return LaurentU.from_dict({exp: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def min_exponent(self) -> int:
        if not self.terms:
            return 0
        return self.terms[0][0]

    def _coerce(self, other) -> "LaurentU | None":
        if isinstance(other, LaurentU):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentU.from_scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self.terms)
        for e, c in o.terms:
            acc[e] = acc.get(e, Fraction(0)) + c
        return LaurentU.from_dict(acc)

    def __neg__(self):
        return LaurentU(tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc: dict[int, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in o.terms:
                e = e1 + e2
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        return LaurentU.from_dict(acc)

    def _unit(self) -> LaurentU:
        return LaurentU.from_scalar(1)

    def _inverse(self) -> LaurentU:
        if len(self.terms) != 1:
            raise ValueError("only monomials can be raised to negative powers")
        e, c = self.terms[0]
        return LaurentU(((-e, 1 / c),))

    def __str__(self) -> str:
        return _render_terms((_monomial(("u", e)), c) for e, c in reversed(self.terms))

    def str_times(self, mono: str) -> str:
        """This coefficient in front of a printed monomial: mono alone for
        1, and in parentheses unless it is one positive term."""
        cs = str(self)
        if mono and cs == "1":
            return mono
        if len(self.terms) != 1 or cs.startswith("-"):
            cs = f"({cs})"
        return f"{cs}*{mono}" if mono else cs


def laurent_u_minus_one() -> LaurentU:
    """The recurring coefficient u - 1."""
    return LaurentU.from_dict({1: 1, 0: -1})


def laurent_uinv_minus_one() -> LaurentU:
    """The recurring coefficient u^-1 - 1."""
    return LaurentU.from_dict({-1: 1, 0: -1})


# ---------------------------------------------------------------------------
# Trace polynomials: polynomials in z and x_1 .. x_{d-1} over LaurentU.
# ---------------------------------------------------------------------------

_XMono = tuple  # tuple[int, ...], length d-1, exponents of x_1..x_{d-1}
_TMono = tuple  # (z_exponent, _XMono)


@dataclass(frozen=True)
class TracePolynomial(ExactArithmetic):
    """Element of the trace codomain: polynomial in z and x_1..x_{d-1} with
    Laurent-in-u coefficients.  x_0 is the constant 1 and never stored.
    """

    order: int
    terms: tuple[tuple[_TMono, LaurentU], ...]

    def __post_init__(self):
        nx = self.order - 1
        for (ze, xe), c in self.terms:
            if ze < 0 or len(xe) != nx or any(e < 0 for e in xe) or c.is_zero():
                raise ValueError(f"invalid term z^{ze} x^{xe} with coefficient {c} at order {self.order}")

    @staticmethod
    def from_dict(order: int, d: Mapping[_TMono, LaurentU]) -> TracePolynomial:
        items = [(mono, c) for mono, c in d.items() if not c.is_zero()]
        items.sort(key=lambda it: it[0])
        return TracePolynomial(order, tuple(items))

    @staticmethod
    def zero(order: int) -> TracePolynomial:
        return TracePolynomial(order, ())

    @staticmethod
    def one(order: int) -> TracePolynomial:
        return TracePolynomial.from_scalar(order, 1)

    @staticmethod
    def from_scalar(order: int, c: Scalar | LaurentU) -> TracePolynomial:
        lu = c if isinstance(c, LaurentU) else LaurentU.from_scalar(c)
        mono = (0, (0,) * (order - 1))
        return TracePolynomial.from_dict(order, {mono: lu})

    @staticmethod
    def z_var(order: int) -> TracePolynomial:
        mono = (1, (0,) * (order - 1))
        return TracePolynomial.from_dict(order, {mono: LaurentU.from_scalar(1)})

    @staticmethod
    def x_var(order: int, m: int) -> TracePolynomial:
        """The trace parameter x_m; x_0 (and any m = 0 mod d) is 1."""
        m %= order
        if m == 0:
            return TracePolynomial.one(order)
        xe = [0] * (order - 1)
        xe[m - 1] = 1
        return TracePolynomial.from_dict(
            order, {(0, tuple(xe)): LaurentU.from_scalar(1)}
        )

    def is_zero(self) -> bool:
        return not self.terms

    def _coerce(self, other) -> "TracePolynomial | None":
        if not isinstance(other, TracePolynomial):
            return None
        if self.order != other.order:
            raise OrderMismatchError(
                f"trace polynomial orders differ: {self.order} vs {other.order}"
            )
        return other

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self.terms)
        for mono, c in o.terms:
            acc[mono] = acc.get(mono, LaurentU.zero()) + c
        return TracePolynomial.from_dict(self.order, acc)

    def __neg__(self):
        return TracePolynomial(self.order, tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentU)):
            return self.scale(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc: dict[_TMono, LaurentU] = {}
        for (z1, x1), c1 in self.terms:
            for (z2, x2), c2 in o.terms:
                mono = (z1 + z2, tuple(a + b for a, b in zip(x1, x2)))
                prod = c1 * c2
                acc[mono] = acc.get(mono, LaurentU.zero()) + prod
        return TracePolynomial.from_dict(self.order, acc)

    def _unit(self) -> TracePolynomial:
        return TracePolynomial.one(self.order)

    def scale(self, c: Scalar | LaurentU) -> TracePolynomial:
        lu = c if isinstance(c, LaurentU) else LaurentU.from_scalar(c)
        if lu.is_zero():
            return TracePolynomial.zero(self.order)
        return TracePolynomial.from_dict(
            self.order, {mono: coeff * lu for mono, coeff in self.terms}
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"

        def sort_key(item):
            (ze, xe), _ = item
            return (ze + sum(xe), ze, xe)

        parts = []
        for (ze, xe), c in sorted(self.terms, key=sort_key, reverse=True):
            mono = _monomial(("z", ze), *((f"x{i + 1}", e) for i, e in enumerate(xe)))
            if mono and c.terms == ((0, -1),):
                parts.append((True, mono))
            else:
                parts.append((False, c.str_times(mono)))
        return _join_signed(parts)


# ---------------------------------------------------------------------------
# Bivariate polynomials in u, z over Q.
# ---------------------------------------------------------------------------

_UZMono = tuple  # (u_exponent, z_exponent)


@dataclass(frozen=True)
class PolyUZ(ExactArithmetic):
    """Polynomial in u and z with Fraction coefficients: sparse, sorted by
    monomial and without zero coefficients, so equality is structural."""

    terms: tuple[tuple[_UZMono, Fraction], ...]

    def __post_init__(self):
        for (ue, ze), c in self.terms:
            if ue < 0 or ze < 0:
                raise ValueError(f"negative exponent in u^{ue} z^{ze}")
            if not isinstance(c, Fraction) or not c:
                raise ValueError(f"coefficient {c!r} of u^{ue} z^{ze} is not a nonzero Fraction")

    @staticmethod
    def from_dict(d: Mapping[_UZMono, Fraction]) -> PolyUZ:
        return PolyUZ(tuple(sorted((m, c) for m, c in d.items() if c)))

    @staticmethod
    def zero() -> PolyUZ:
        return PolyUZ(())

    @staticmethod
    def from_scalar(c: Scalar) -> PolyUZ:
        return PolyUZ.monomial(0, 0, c)

    @staticmethod
    def one() -> PolyUZ:
        return PolyUZ.from_scalar(1)

    @staticmethod
    def monomial(ue: int, ze: int, c: Scalar = 1) -> PolyUZ:
        return PolyUZ.from_dict({(ue, ze): _as_fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def _coerce(self, other) -> "PolyUZ | None":
        return other if isinstance(other, PolyUZ) else None

    def __add__(self, other):
        if not isinstance(other, PolyUZ):
            return NotImplemented
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, 0) + c
        return PolyUZ.from_dict(acc)

    def __neg__(self):
        return PolyUZ(tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other):
        if not isinstance(other, PolyUZ):
            return NotImplemented
        acc: dict[_UZMono, Fraction] = {}
        for (u1, z1), c1 in self.terms:
            for (u2, z2), c2 in other.terms:
                m = (u1 + u2, z1 + z2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return PolyUZ.from_dict(acc)

    def _unit(self) -> PolyUZ:
        return PolyUZ.one()

    def scale(self, c: Scalar) -> PolyUZ:
        if not c:
            return PolyUZ.zero()
        return PolyUZ(tuple((m, co * c) for m, co in self.terms))

    def leading_monomial(self) -> tuple[_UZMono, Fraction]:
        assert self.terms, "zero polynomial has no leading monomial"
        return max(self.terms, key=lambda it: (it[0][0] + it[0][1], it[0][1], it[0][0]))

    def eval_complex(self, u: complex, z: complex) -> complex:
        return sum((complex(c) * u**ue * z**ze for (ue, ze), c in self.terms), 0j)

    def substitute(self, u_val: "RatFunc", z_val: "RatFunc") -> "RatFunc":
        out = RatFunc.from_scalar(0)
        upow: dict[int, RatFunc] = {0: RatFunc.from_scalar(1)}
        zpow: dict[int, RatFunc] = {0: RatFunc.from_scalar(1)}
        for (ue, ze), c in self.terms:
            if ue not in upow:
                upow[ue] = u_val**ue
            if ze not in zpow:
                zpow[ze] = z_val**ze
            out = out + c * upow[ue] * zpow[ze]
        return out

    def __str__(self) -> str:
        def sort_key(item):
            (ue, ze), _ = item
            return (ue + ze, ze, ue)

        terms = sorted(self.terms, key=sort_key, reverse=True)
        return _render_terms((_monomial(("z", ze), ("u", ue)), q) for (ue, ze), q in terms)


# -- reduction over the denominator family ----------------------------------
# Every denominator the invariant forms is u^a z^b L^c with L = z - (1-u) zeta:
# the trace substitution gives powers of u, lambda = L / (u z) and D bring in
# z and L, and the mirror map u -> 1/u, z -> lambda z sends the family to
# itself.  A common factor with such a denominator is therefore a monomial
# times a power of one linear form, found from the monomial content and by
# synthetic division; no general bivariate gcd is needed.


class DenominatorFamilyError(ArithmeticError):
    """Raised when a denominator is not u^a z^b c l^k for a single linear
    form l = z + alpha u + beta, or l = u + beta when it has no z."""


def _monomial_shift(p: PolyUZ, ue: int, ze: int) -> PolyUZ:
    """p * u^ue z^ze for exponents that keep every term a polynomial."""
    if not (ue or ze):
        return p
    return PolyUZ(tuple(((a + ue, b + ze), c) for (a, b), c in p.terms))


def _linear_factor(r: PolyUZ) -> tuple[Fraction, PolyUZ, int]:
    """Write r, a nonzero polynomial with no monomial content, as c * l^k.

    l is z + alpha u + beta when r has z, else u + beta, and 1 when r is a
    constant.  It is read off the coefficient of its leading variable to the
    power k - 1, which is k c (alpha u + beta); all of r is then checked
    against c l^k.
    """
    coeffs = dict(r.terms)
    var = 1 if any(ze for (_, ze), _ in r.terms) else 0
    k = max(m[var] for m in coeffs)
    lead = (0, k) if var else (k, 0)
    ell = PolyUZ.one()
    c = coeffs.get(lead)
    if c is not None and k:
        scale = 1 / (c * k)
        if var:
            alpha = coeffs.get((1, k - 1), 0) * scale
            beta = coeffs.get((0, k - 1), 0) * scale
            ell = PolyUZ.from_dict({(0, 1): Fraction(1), (1, 0): alpha, (0, 0): beta})
        else:
            beta = coeffs.get((k - 1, 0), 0) * scale
            ell = PolyUZ.from_dict({(1, 0): Fraction(1), (0, 0): beta})
    if c is None or _linear_power(ell, k).scale(c) != r:
        raise DenominatorFamilyError(f"denominator {r} is not c * l^k for a linear form l")
    return c, ell, k


@lru_cache(maxsize=64)
def _linear_power(ell: PolyUZ, k: int) -> PolyUZ:
    """l^k; a run meets few linear forms, each with small exponents."""
    return PolyUZ.one() if k == 0 else _linear_power(ell, k - 1) * ell


def _divide_linear(p: PolyUZ, ell: PolyUZ) -> "PolyUZ | None":
    """p / l by synthetic division in l's leading variable v, or None when l
    does not divide p.  l is v + s with s a polynomial in the other variable."""
    var = 1 if any(ze for (_, ze), _ in ell.terms) else 0
    other = 1 - var
    shift = [(m[other], c) for m, c in ell.terms if m[var] == 0]
    rows: list[dict[int, Fraction]] = [{} for _ in range(max(m[var] for m, _ in p.terms) + 1)]
    for m, c in p.terms:
        rows[m[var]][m[other]] = c
    # p = sum a_i v^i and q = sum q_i v^i: q_{i-1} = a_i - s q_i, remainder a_0 - s q_0.
    quot: dict[_UZMono, Fraction] = {}
    q: dict[int, Fraction] = {}
    for i in range(len(rows) - 1, -1, -1):
        acc = dict(rows[i])
        for we, qc in q.items():
            for se, sc in shift:
                acc[we + se] = acc.get(we + se, 0) - qc * sc
        q = {e: c for e, c in acc.items() if c}
        if i:
            for e, c in q.items():
                quot[(e, i - 1) if var else (i - 1, e)] = c
    return None if q else PolyUZ.from_dict(quot)


def poly_gcd(p: PolyUZ, q: PolyUZ) -> tuple[PolyUZ, PolyUZ, PolyUZ]:
    """Greatest common factor g of p and a denominator q, with the cofactors
    p / g and q / g.

    q must be nonzero and of the form u^a z^b c l^k for one linear form l;
    g = u^i z^j l^m is then monic, with (i, j) the least exponents over the
    terms of both polynomials and m the number of times l divides p exactly.
    Any other q raises ``DenominatorFamilyError``.
    """
    if q.is_zero():
        raise ZeroDivisionError("gcd with the zero denominator")
    terms = p.terms + q.terms
    i = min(ue for (ue, _), _ in terms)
    j = min(ze for (_, ze), _ in terms)
    p = _monomial_shift(p, -i, -j)
    q = _monomial_shift(q, -i, -j)
    a = min(ue for (ue, _), _ in q.terms)
    b = min(ze for (_, ze), _ in q.terms)
    c, ell, k = _linear_factor(_monomial_shift(q, -a, -b))
    m = k if p.is_zero() else 0
    while m < k and (quotient := _divide_linear(p, ell)) is not None:
        p, m = quotient, m + 1
    g = _monomial_shift(_linear_power(ell, m), i, j)
    return g, p, _monomial_shift(_linear_power(ell, k - m).scale(c), a, b)


# ---------------------------------------------------------------------------
# Rational functions in u, z over Q.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatFunc(ExactArithmetic):
    """Quotient of two PolyUZ in canonical form: numerator and denominator
    coprime, denominator's leading coefficient equal to 1, and zero stored
    as 0/1.  Structural equality therefore coincides with equality of
    rational functions.

    Denominators are confined to the family u^a z^b l^c for one linear form
    l (z + alpha u + beta, or u + beta), which holds for every value the
    invariant forms.  ``make`` reduces a fraction by the common monomial,
    then by l as often as l divides the numerator (see ``poly_gcd``); a
    denominator outside the family raises ``DenominatorFamilyError``.
    """

    num: PolyUZ
    den: PolyUZ

    @staticmethod
    def make(num: PolyUZ, den: PolyUZ) -> RatFunc:
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational function")
        if num.is_zero():
            return RatFunc(PolyUZ.zero(), PolyUZ.one())
        _, num, den = poly_gcd(num, den)
        _, lead = den.leading_monomial()
        inv = 1 / lead
        return RatFunc(num.scale(inv), den.scale(inv))

    @staticmethod
    def from_poly(p: PolyUZ) -> RatFunc:
        return RatFunc(p, PolyUZ.one())

    @staticmethod
    def from_scalar(c: Scalar) -> RatFunc:
        return RatFunc.from_poly(PolyUZ.from_scalar(c))

    @staticmethod
    def u_var() -> RatFunc:
        return RatFunc.from_poly(PolyUZ.monomial(1, 0))

    @staticmethod
    def z_var() -> RatFunc:
        return RatFunc.from_poly(PolyUZ.monomial(0, 1))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.from_scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return RatFunc.make(self.num + o.num, self.den)
        return RatFunc.make(self.num * o.den + o.num * self.den, self.den * o.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc.make(self.num * o.num, self.den * o.den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc.make(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def _unit(self) -> RatFunc:
        return RatFunc.from_scalar(1)

    def _inverse(self) -> RatFunc:
        return 1 / self

    def equal_cross(self, other: RatFunc) -> bool:
        """Equality by cross-multiplication, independent of canonical form."""
        return self.num * other.den == other.num * self.den

    def substitute(self, u_val: RatFunc, z_val: RatFunc) -> RatFunc:
        return self.num.substitute(u_val, z_val) / self.den.substitute(u_val, z_val)

    def eval_complex(self, u: complex, z: complex) -> complex:
        return self.num.eval_complex(u, z) / self.den.eval_complex(u, z)

    def __str__(self) -> str:
        if self.den == PolyUZ.one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"


# ---------------------------------------------------------------------------
# Substituting E-system values into trace polynomials.
# ---------------------------------------------------------------------------

class IrrationalTraceError(ArithmeticError):
    """Raised when a substituted trace has a nonzero coordinate on
    zeta_d^i, i >= 1.  The trace of a braid image is rational at every
    E-system solution, so this signals an implementation bug."""


def trace_poly_substitute(p: TracePolynomial, sol) -> RatFunc:
    """Substitute an E-system solution for the x_m variables of a trace
    polynomial whose value there is rational, such as the trace of a braid.

    ``sol`` must expose ``d`` (the order) and ``values`` (a length-d sequence
    of Cyclotomic values with values[0] = 1).  The result is coordinate 0 of
    ``substitute_x_values``, a rational function in u, z over Q with
    denominator a power of u; any other nonzero coordinate raises
    ``IrrationalTraceError``.
    """
    if p.order != sol.d:
        raise OrderMismatchError(
            f"trace polynomial order {p.order} does not match solution order {sol.d}"
        )
    value, *rest = substitute_x_values(p, sol.values)
    if any(not f.is_zero() for f in rest):
        raise IrrationalTraceError(
            f"a trace polynomial of order {p.order} is not rational at the solution"
        )
    return value


def substitute_x_values(p: TracePolynomial, values: Sequence[Cyclotomic]) -> tuple[RatFunc, ...]:
    """p with x_m = values[m], as its coordinates (f_0, ..., f_{phi(d)-1})
    in the power basis: the value is sum_i f_i zeta_d^i, and each f_i is a
    rational function in u, z over Q with denominator a power of u."""
    order = p.order
    if len(values) != order:
        raise ValueError(f"expected {order} values, got {len(values)}")
    min_u = min([0] + [c.min_exponent() for _, c in p.terms])
    coords: list[dict[_UZMono, Fraction]] = [{} for _ in range(euler_phi(order))]
    for (ze, xe), lu in p.terms:
        scalar = Cyclotomic.one(order)
        for idx, e in enumerate(xe):
            if e:
                scalar = scalar * values[idx + 1] ** e
        for ue, q in lu.terms:
            m = (ue - min_u, ze)
            q /= scalar.den
            for acc, s in zip(coords, scalar.num):
                if s:
                    acc[m] = acc.get(m, 0) + s * q
    den = PolyUZ.monomial(-min_u, 0)
    nums = [PolyUZ.from_dict(acc) for acc in coords]
    return tuple(RatFunc.make(num, den) if num.terms else RatFunc.from_poly(num) for num in nums)
