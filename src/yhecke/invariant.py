"""The 2-variable link invariant built from the Markov trace.

At the E-system solution of a subset S of Z/dZ, with zeta = 1/|S mod d|, the
rescaling factor

    lambda = (z - (1-u) zeta) / (u z)

enters through a formal square root: sqrt(lambda) is never given a branch,
only (sqrt(lambda))^2 = lambda is used.  An ``InvariantValue`` is therefore
a parity bit h together with a rational-function body, denoting
body * sqrt(lambda)^h; whole lambda factors are folded into the body, so
equality of invariants is structural equality of (h, body).

On the closure of an n-strand braid with exponent sum eps the invariant is

    D^(n-1) * sqrt(lambda)^eps * (trace of the braid image),

where D = 1 / (sqrt(lambda) z) is the normalization making the value of the
unknot equal to 1.

``delta_invariant`` forms the body with no general gcd: the x-free trace is
an integer polynomial over a power of k = |S mod d| and lambda = M / (k u z)
with M = k z + u - 1, so ``trace.solution_value`` cancels the monomial and
divides by M over Z while it divides; the reduced body over the monic
u^a z^b L^c, L = M / k, is the one ``RatFunc.make`` gives.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .braid import BraidWord, exponent_sum
from .esystem import reduce_subset
from .exactnum import PolyUZ, RatFunc
from .trace import _ell_power, solution_value


@dataclass(frozen=True)
class InvariantValue:
    """body * sqrt(lambda)^half with half in {0, 1}; equality is structural.
    ``order`` is the modulus d of the algebra; the body is over Q."""

    order: int
    half: int
    body: RatFunc

    def __post_init__(self):
        if self.half not in (0, 1):
            raise ValueError(f"half must be 0 or 1, got {self.half}")
        if self.body.is_zero() and self.half == 1:
            raise ValueError("the zero invariant carries no sqrt(lambda)")

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def __str__(self) -> str:
        return f"sqrtLambda^{self.half} * (({self.body.num}) / ({self.body.den}))"


def lambda_param(d: int, subset) -> RatFunc:
    """The rescaling factor L / (u z), L = z - (1-u) zeta with zeta = 1/|S mod d|,
    in lowest terms."""
    return RatFunc(_ell_power(len(reduce_subset(d, subset)), 1), PolyUZ.monomial(1, 1))


def _make_value(d: int, half_power: int, num: PolyUZ, den: PolyUZ, lam: RatFunc) -> InvariantValue:
    """Canonicalize (num / den) * sqrt(lambda)^half_power, folding the whole
    lambdas into the fraction: lambda^k is lam.num^k / lam.den^k, so one
    ``make`` forms the body."""
    h = half_power % 2
    fold = (half_power - h) // 2
    top, bottom = (lam.num, lam.den) if fold >= 0 else (lam.den, lam.num)
    body = RatFunc.make(num * top ** abs(fold), den * bottom ** abs(fold))
    return InvariantValue(d, 0 if body.is_zero() else h, body)


def value_scale(v: InvariantValue, f: RatFunc) -> InvariantValue:
    """Multiply by a rational function (no sqrt-lambda content)."""
    body = v.body * f
    if body.is_zero():
        return InvariantValue(v.order, 0, body)
    return InvariantValue(v.order, v.half, body)


def value_scale_half(v: InvariantValue, k: int, lam: RatFunc) -> InvariantValue:
    """Multiply by sqrt(lambda)^k, re-canonicalizing the parity bit."""
    return _make_value(v.order, v.half + k, v.body.num, v.body.den, lam)


def value_add(a: InvariantValue, b: InvariantValue) -> InvariantValue:
    if a.order != b.order:
        raise ValueError("cannot add invariant values of different orders")
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if a.half != b.half:
        raise ValueError("cannot add invariant values of different sqrt-lambda parity")
    body = a.body + b.body
    if body.is_zero():
        return InvariantValue(a.order, 0, body)
    return InvariantValue(a.order, a.half, body)


def value_sub(a: InvariantValue, b: InvariantValue) -> InvariantValue:
    return value_add(a, value_scale(b, RatFunc.from_scalar(-1)))


def delta_invariant(d: int, subset, b: BraidWord) -> InvariantValue:
    """The invariant at (d, S) of the closure of a braid word; it depends
    on S only through |S mod d|.

    >>> from .braid import parse_braid
    >>> delta_invariant(1, {0}, parse_braid("1:")).half
    0
    """
    half_power = exponent_sum(b) - (b.strands - 1)
    h = half_power % 2
    body = solution_value(len(reduce_subset(d, subset)), b, (half_power - h) // 2, b.strands - 1)
    return InvariantValue(d, 0 if body.is_zero() else h, body)


def skein_check(d: int, subset, b: BraidWord, i: int) -> bool:
    """Verify the cubic skein relation at the i-th letter of b (0-based):

        sqrt(lambda) D(L-) = (1/(lambda u)) D(L++) + (1/sqrt(lambda)) D(L+)
                              - (1/u) D(L0)

    where L++, L+, L0, L- replace the letter with exponents +2, +1, 0, -1.
    """
    if not 0 <= i < len(b.letters):
        raise ValueError(f"letter index {i} out of range 0..{len(b.letters) - 1}")
    gen = abs(b.letters[i])

    def variant(exponent: int) -> BraidWord:
        if exponent >= 0:
            middle = (gen,) * exponent
        else:
            middle = (-gen,) * (-exponent)
        return BraidWord(b.strands, b.letters[:i] + middle + b.letters[i + 1 :])

    lam = lambda_param(d, subset)
    u = RatFunc.u_var()
    v_pp = delta_invariant(d, subset, variant(2))
    v_p = delta_invariant(d, subset, variant(1))
    v_0 = delta_invariant(d, subset, variant(0))
    v_m = delta_invariant(d, subset, variant(-1))
    lhs = value_scale_half(v_m, 1, lam)
    rhs = value_add(
        value_scale(v_pp, 1 / (lam * u)),
        value_sub(
            value_scale_half(v_p, -1, lam),
            value_scale(v_0, 1 / u),
        ),
    )
    return lhs == rhs


def homflypt_specialize(b: BraidWord) -> InvariantValue:
    """The d = 1 specialization: the idempotent collapses to 1, the quadratic
    relation becomes g^2 = u - (u-1)g, and the invariant is the 2-variable
    (HOMFLYPT) polynomial of the closure in the (u, z) normalization."""
    return delta_invariant(1, {0}, b)


def mirror_value(d: int, subset, v: InvariantValue) -> InvariantValue:
    """The involution matching crossing-sign reversal: u -> 1/u, z -> lambda z
    (which sends lambda to 1/lambda and sqrt(lambda)^h to sqrt(lambda)^h
    lambda^-h).  The mirror image of a closed braid has this transformed
    invariant."""
    lam = lambda_param(d, subset)
    u_new = 1 / RatFunc.u_var()
    z_new = lam * RatFunc.z_var()
    body = v.body.substitute(u_new, z_new)
    # parity h with one whole lambda^-h folded in
    return _make_value(d, -v.half, body.num, body.den, lam)


def evaluate_numeric(v: InvariantValue, subset, u: complex, z: complex) -> complex:
    """Approximate complex value at a numeric point, taking the principal
    square root for the formal sqrt(lambda).  Display only: equality
    decisions are always exact."""
    lam = lambda_param(v.order, subset).eval_complex(u, z)
    out = v.body.eval_complex(u, z)
    if v.half:
        out *= cmath.sqrt(lam)
    return out
