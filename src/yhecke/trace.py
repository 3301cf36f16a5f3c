"""The Markov trace on the tower of algebras Y_{d,n}.

The trace is the unique linear map with tr(1) = 1, tr(ab) = tr(ba),
tr(a g_n) = z tr(a) and tr(a t_{n+1}^m) = x_m tr(a) for a in Y_{d,n};
its values live in ``TracePolynomial`` (z and x_1..x_{d-1} over Laurent-u).

Every trace is taken on terms t^c E_A g_w, E_A the product of the e_{j,k}
over the pairs j, k in one block of a set partition A of the strands.  As
g_w t_j = t_{w(j)} g_w and the trace is cyclic, tr(t^c E_A g_w) depends only
on its class key (J, w, s): J is A joined along the cycles of w, and s the
sums of c over the blocks of J mod d.  ``_trace_word`` is the one trace
recursion, cached per (d, key) as integer triples over a power of d.  It
takes off the last strand:

- if w fixes it, multiply by x_{s_B} (x_0 = 1) when its block B is a
  singleton, and else average x_m times the trace with s_B - m over m;
- otherwise split off the factor g_{n-1} g_{n-2} ... g_k of g_w, use
  tr(x g_{n-1} y) = z tr(y x) with x, y one strand down, rewrite y x on terms
  E_A g_v by the ties rules, and average over the framings c with block
  sums s that sit on the least strand of each cycle of w.

A braid needs nothing of the framings beyond the E_A, so ``trace_of_braid``
rewrites it letter by letter on terms E_A g_w of the algebra of braids and
ties (Aicardi-Juyumaya; basis {E_A g_w} by Ryom-Hansen), with integer
Laurent coefficients and rules that do not depend on d
(``yokonuma._tie_expansion``).  ``markov_trace`` of ``represent_braid``
stays the element API; it traces a basis word t^a g_w with A in singletons.
No trace forms a product of framed words.

At an E-system solution (d, S) a braid's trace depends only on k = |S mod d|, so
``trace_of_braid`` takes S and reads the trace over Q as the x-free part in
Y_{k,n}, kept on the integers up to its canonical form (``solution_value``).

Uniqueness of the trace is certified by the property suite (cyclicity and
the two multiplicative rules on random elements) rather than assumed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .braid import BraidWord
# trace_poly_substitute and represent_braid stay bound here, where
# bench/tracing.py wraps them by name; no braid trace calls them.
from .esystem import reduce_subset
from .exactnum import LaurentU, PolyUZ, RatFunc, TracePolynomial, _monomial_shift, trace_poly_substitute
from .yokonuma import (
    AlgebraElement,
    _block_zero_framings,
    _join,
    _tie_expansion,
    canonical_reduced_word,
    represent_braid,
)


def _times_x(mono: tuple, d: int, m: int) -> tuple:
    """A trace monomial (z-exponent, x-exponents) times x_m (x_0 = 1)."""
    m %= d
    if not m:
        return mono
    ze, xe = mono
    return ze, xe[: m - 1] + (xe[m - 1] + 1,) + xe[m:]


# Entries of the trace cache: about three times what a 5-strand knot at |S| = 12 keeps, 50 times any workload.
TRACE_WORD_CACHE = 8192


def _class_key(d: int, blocks: tuple, perm: tuple, fr: tuple) -> tuple:
    """The class key (J, w, s) of t^c E_A g_w for A = blocks, w = perm and
    c = fr: J is A joined along the cycles of w, and s the sums of c over the
    blocks of J mod d."""
    for j, i in enumerate(perm):
        blocks = _join(blocks, j, i)
    sums = [0] * (max(blocks) + 1)
    for b, a in zip(blocks, fr):
        sums[b] += a
    return blocks, perm, tuple(a % d for a in sums)


@lru_cache(maxsize=TRACE_WORD_CACHE)
def _trace_word(d: int, key: tuple) -> tuple[int, tuple[tuple[tuple, int, int], ...]]:
    """tr(t^c E_J g_w) in Y_{d,n} for the class key (J, w, s), as (den,
    triples): the trace is (1/den) * sum c u^e mono over its (mono, e, c)
    triples, den the least power of d that makes them integers."""
    blocks, perm, sums = key
    n = len(perm)
    if not n:
        return 1, (((0, (0,) * (d - 1)), 0, 1),)
    last = n - 1
    if perm[last] == last:
        rest = blocks[:last], perm[:last]
        b = blocks[last]
        if b not in rest[0]:  # tr(a t_last^s) = x_s tr(a)
            den, triples = _trace_word(d, (*rest, sums[:b]))
            return den, tuple((_times_x(mono, d, sums[b]), e, c) for mono, e, c in triples)
        # c on the first strand j of B, and E_J = (1/d) sum_m E_J' t_j^m t_last^-m
        parts = []
        for m in range(d):
            den, triples = _trace_word(d, (*rest, sums[:b] + ((sums[b] - m) % d,) + sums[b + 1 :]))
            parts.append(({0: 1}, (den, [(_times_x(mono, d, m), e, c) for mono, e, c in triples])))
        den, acc = _trace_terms(parts)
        return _lowest_terms(d, den * d, [(mono, e, c) for mono, poly in acc.items() for e, c in poly.items() if c])
    # perm = u c_k, u fixing the last strand and c_k the cycle sending k to
    # it, so g_w = x g_{n-1} y with x = g_u and y = g_{n-2} ... g_k
    k = perm.index(last)
    u = tuple(perm[j if j < k else j + 1] for j in range(last))
    y = tuple(j if j < k else (last - 1 if j == k else j - 1) for j in range(last))
    products = _tie_expansion(d, BraidWord(last, canonical_reduced_word(y) + canonical_reduced_word(u)))
    # tr(t^c E_J g_w) is the mean of tr(t^c x g_{n-1} y) = z tr(y t^c x) over
    # the framings c with block sums s on the least strand of each cycle,
    # which the last strand is not; y t^c = t^c' y moves c_k to strand last - 1
    cycles = _class_key(d, tuple(range(n)), perm, ())[0]
    least = {cycles.index(c) for c in range(max(cycles) + 1)}
    start = {blocks.index(b): s for b, s in enumerate(sums)}
    classes: dict = {}
    for fr in _block_zero_framings(d, tuple(blocks[j] if j in least else n + j for j in range(n))):
        fr = [a + start.get(j, 0) for j, a in enumerate(fr)]
        fr = fr[:k] + fr[k + 1 : last] + fr[k : k + 1]
        for (tied, v), poly in products.items():
            dst = classes.setdefault(_class_key(d, tied, v, fr), {})
            for e, c in poly.items():
                dst[e] = dst.get(e, 0) + c
    den, acc = _trace_terms([(poly, _trace_word(d, class_key)) for class_key, poly in classes.items()])
    den *= d ** (len(least) - len(sums))
    return _lowest_terms(d, den, [((ze + 1, xe), e, c) for (ze, xe), poly in acc.items() for e, c in poly.items() if c])


def _lowest_terms(d: int, den: int, triples: list) -> tuple[int, tuple]:
    """(den, triples) with the powers of d common to den and every coefficient divided out."""
    while den > 1 and all(c % d == 0 for _, _, c in triples):
        den //= d
        triples = [(mono, e, c // d) for mono, e, c in triples]
    return den, tuple(triples)


def _trace_terms(parts: list) -> tuple[int, dict[tuple, dict[int, int]]]:
    """The sum of poly * tr over (poly, tr) parts, poly a u-polynomial
    {u-exponent: int} and tr a trace as (den, triples), as (den, {mono:
    {u-exponent: int}})."""
    den = max((t[0] for _, t in parts), default=1)
    acc: dict[tuple, dict[int, int]] = {}
    for poly, (word_den, triples) in parts:
        scale = den // word_den
        for mono, e2, c2 in triples:
            dst = acc.get(mono)
            if dst is None:
                dst = acc[mono] = {}
            c2 *= scale
            for e, c in poly.items():
                k = e + e2
                dst[k] = dst.get(k, 0) + c * c2
    return den, acc


def markov_trace(a: AlgebraElement) -> TracePolynomial:
    """The trace of an algebra element, extended linearly over basis words;
    a basis word t^a g_w is traced by its class key with A in singletons.

    >>> from .yokonuma import AlgebraElement, generator
    >>> str(markov_trace(AlgebraElement.one(3, 2)))
    '1'
    >>> str(markov_trace(generator(3, 2, 1)))
    'z'
    """
    words = [(poly, _class_key(a.d, tuple(range(a.n)), w, fr)) for (fr, w), poly in a.int_terms.items()]
    trace_den, acc = _trace_terms([(poly, _trace_word(a.d, key)) for poly, key in words])
    return _trace_polynomial(a.d, a.den * trace_den, acc)


def _trace_polynomial(d: int, den: int, acc: dict) -> TracePolynomial:
    """The ``TracePolynomial`` (1/den) * acc of a trace from ``_trace_terms``."""
    return TracePolynomial.from_dict(d, {mono: LaurentU.from_ints(poly, den) for mono, poly in acc.items()})


def _tie_trace(d: int, key: tuple) -> tuple[int, tuple]:
    """tr(E_A g_w) for key (A, w), as ``_trace_word`` gives it."""
    return _trace_word(d, _class_key(d, *key, ()))


def trace_of_braid(d: int, b: BraidWord, subset=None) -> "TracePolynomial | RatFunc":
    """Trace of the image of a braid in Y_{d,n}; given a subset S of Z/dZ, its
    value over Q at the E-system solution S: the x-free part of the trace in
    Y_{k,n}, k = |S mod d|, which is its value at the full subset of Z/kZ
    (x_m = 0 for m != 0).  The braid is traced through ``_tie_expansion`` and
    the class keys of its terms.  The oracle substitutes the solution of S into
    ``markov_trace(represent_braid(d, b))`` with ``trace_poly_substitute``."""
    if subset is not None:
        return solution_value(len(reduce_subset(d, subset)), b)
    return _trace_polynomial(d, *_trace_terms([(poly, _tie_trace(d, key)) for key, poly in _tie_expansion(d, b).items()]))


def solution_value(k: int, b: BraidWord, fold: int = 0, z_power: int = 0) -> RatFunc:
    """T lambda^fold / z^z_power in lowest terms, T the x-free part of the
    trace of b in Y_{k,n} and lambda = M / (k u z) with M = k z + u - 1.

    T is an integer polynomial in u^-1, u, z over a power of k.  M is divided
    out over Z while it divides; the rest of M^c is k^c L^c with
    L = z - (1-u)/k, so the denominator is the monic u^a z^b L^c of
    ``RatFunc.make``'s canonical form.
    """
    den, acc = _trace_terms([(poly, _tie_trace(k, key)) for key, poly in _tie_expansion(k, b).items()])
    num = {(e, ze): c for (ze, xe), poly in acc.items() if not any(xe) for e, c in poly.items() if c}
    if not num:
        return RatFunc(PolyUZ.zero(), PolyUZ.one())
    # with the monomial content u^lu z^lz out, neither M nor a division by it brings one back
    lu, lz = min(e for e, _ in num), min(ze for _, ze in num)
    num = {(e - lu, ze - lz): c for (e, ze), c in num.items()}
    for _ in range(fold):
        num = _times_m(num, k)
    left = max(-fold, 0)
    while left and (quotient := _divide_m(num, k)) is not None:
        num, left = quotient, left - 1
    scale = Fraction(k ** max(-fold, 0), den * k ** (max(fold, 0) + left))
    ue, ze = lu - fold, lz - fold - z_power  # the monomial u^ue z^ze of the value
    body = PolyUZ.from_dict({(e + max(ue, 0), z + max(ze, 0)): scale * c for (e, z), c in num.items()})
    return RatFunc(body, _monomial_shift(_ell_power(k, left), max(-ue, 0), max(-ze, 0)))


def _ell_power(k: int, c: int) -> PolyUZ:
    """L^c for L = z - (1-u)/k = z + u/k - 1/k, by the trinomial theorem."""
    return PolyUZ.from_dict({(b, a): Fraction(math.comb(c, a) * math.comb(c - a, b) * (-1) ** (c - a - b), k ** (c - a))
                             for a in range(c + 1) for b in range(c - a + 1)})


def _times_m(num: dict, k: int) -> dict:
    """num * (u + k z - 1), polynomials as {(u-exponent, z-exponent): int}."""
    out: dict = {}
    for (e, ze), c in num.items():
        for mono, mc in (((e, ze + 1), k * c), ((e + 1, ze), c), ((e, ze), -c)):
            out[mono] = out.get(mono, 0) + mc
    return {mono: c for mono, c in out.items() if c}


def _divide_m(num: dict, k: int) -> "dict | None":
    """num / (u + k z - 1) over Z, or None when it does not divide: synthetic
    division in u, where the divisor is monic, for num with no negative exponent."""
    num, quot = dict(num), {}
    for j in range(max(e for e, _ in num), 0, -1):
        # row j of what is left is row j - 1 of the quotient; taking it times M off clears row j
        for ze, c in [(ze, c) for (e, ze), c in num.items() if e == j and c]:
            quot[(j - 1, ze)] = c
            num[(j - 1, ze + 1)] = num.get((j - 1, ze + 1), 0) - k * c
            num[(j - 1, ze)] = num.get((j - 1, ze), 0) + c
    return None if any(c for (e, _), c in num.items() if not e) else quot
