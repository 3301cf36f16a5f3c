"""The Markov trace on the tower of algebras Y_{d,n}.

The trace is the unique linear map with tr(1) = 1, tr(ab) = tr(ba),
tr(a g_n) = z tr(a) and tr(a t_{n+1}^m) = x_m tr(a) for a in Y_{d,n};
its values live in ``TracePolynomial`` (z and x_1..x_{d-1} over Laurent-u).

Evaluation works basis word by basis word, reducing the strand count:

- if the permutation fixes the last strand, strip it and multiply by x_m
  where m is that strand's framing (x_0 = 1);
- otherwise split off the unique coset factor g_{n-1} g_{n-2} ... g_k of the
  permutation, push the last framing through it (t_n g_{n-1} = g_{n-1}
  t_{n-1}), and use cyclicity: tr(x g_{n-1} y) = z tr(y x) with x, y one
  strand down.

Word traces are cached as integer triples over a power of d, the integer form of
``yokonuma``; ``markov_trace`` builds ``LaurentU`` coefficients only for its result.

A braid needs nothing of the framings beyond the products E_A of the e_i,
so ``trace_of_braid`` does not expand it on the words t^a g_w.  It rewrites the braid
letter by letter on terms E_A g_w of the algebra of braids and ties
(Aicardi-Juyumaya; basis {E_A g_w} by Ryom-Hansen), A a set partition of the
strands, with integer Laurent coefficients and rules that do not depend on d
(``yokonuma._tie_expansion``, which ``yokonuma.represent_braid`` expands on
the words t^a g_w).  Y_{d,n} is entered only in tr(E_A g_w), which is
cached per (d, A, w) and summed from word traces, one per class of framings
with equal sums over the cycles of w (g_w t_j = t_{w(j)} g_w and cyclicity).
``markov_trace`` of ``represent_braid`` stays the element API.

At an E-system solution (d, S) a braid's trace depends only on k = |S mod d|, so
``trace_of_braid`` takes S and reads the trace over Q as the x-free part in
Y_{k,n}, kept on the integers up to its canonical form (``solution_value``).

Uniqueness of the trace is certified by the property suite (cyclicity and
the two multiplicative rules on random elements) rather than assumed.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial

from .braid import BraidWord
# trace_poly_substitute and represent_braid stay bound here, where
# bench/tracing.py wraps them by name; no braid trace calls them.
from .esystem import reduce_subset
from .exactnum import LaurentU, PolyUZ, RatFunc, TracePolynomial, _linear_power, _monomial_shift, trace_poly_substitute
from .yokonuma import (
    AlgebraElement,
    BasisWord,
    _block_zero_framings,
    _tie_expansion,
    _times_word,
    canonical_reduced_word,
    compose,
    represent_braid,
)


def _times_x(mono: tuple, d: int, m: int) -> tuple:
    """A trace monomial (z-exponent, x-exponents) times x_m (x_0 = 1)."""
    m %= d
    if not m:
        return mono
    ze, xe = mono
    return ze, xe[: m - 1] + (xe[m - 1] + 1,) + xe[m:]


# Entries of the word-trace cache: about three times what a 5-strand knot at |S| = 6 keeps, 30 times any workload.
TRACE_WORD_CACHE = 8192


@lru_cache(maxsize=TRACE_WORD_CACHE)
def _trace_word(word: BasisWord) -> tuple[int, tuple[tuple[tuple, int, int], ...]]:
    """tr(word) as (den, triples): tr(word) = (1/den) * sum c u^e mono over
    its (mono, e, c) triples, den the least power of d that makes them
    integers."""
    d, n = word.d, word.n
    fr, perm = word.framings, word.perm
    if n == 1:
        return 1, ((_times_x((0, (0,) * (d - 1)), d, fr[0]), 0, 1),)
    if perm[n - 1] == n - 1:
        sub = BasisWord(d, n - 1, fr[: n - 1], perm[: n - 1])
        den, triples = _trace_word(sub)
        return den, tuple((_times_x(mono, d, fr[n - 1]), e, c) for mono, e, c in triples)
    # perm moves the last strand: perm = u . c_k with u fixing it and
    # c_k the cycle sending k to the last position (0-based k).
    k = perm.index(n - 1)
    c_inv = tuple(
        j if j < k else (k if j == n - 1 else j + 1) for j in range(n)
    )
    u_full = compose(perm, c_inv)
    assert u_full[n - 1] == n - 1
    x_word = BasisWord(d, n - 1, fr[: n - 1], u_full[: n - 1])
    # y = t_{n-1}^{a_n} g_{n-2} ... g_k, entirely one strand down.
    y_perm = tuple(
        j if j < k else (n - 2 if j == k else j - 1) for j in range(n - 1)
    )
    y_fr = [0] * (n - 1)
    y_fr[n - 2] = fr[n - 1]
    y_word = BasisWord(d, n - 1, tuple(y_fr), y_perm)
    # tr(x g_{n-1} y) = z tr(y x)
    den, acc = _trace_terms(_times_word({y_word: {0: 1}}, x_word))
    den *= d ** len(canonical_reduced_word(x_word.perm))
    return _lowest_terms(d, den, [((ze + 1, xe), e, c) for (ze, xe), poly in acc.items() for e, c in poly.items() if c])


def _lowest_terms(d: int, den: int, triples: list) -> tuple[int, tuple]:
    """(den, triples) with the powers of d common to den and every coefficient divided out."""
    while den > 1 and all(c % d == 0 for _, _, c in triples):
        den //= d
        triples = [(mono, e, c // d) for mono, e, c in triples]
    return den, tuple(triples)


def _trace_terms(terms: dict, trace=None) -> tuple[int, dict[tuple, dict[int, int]]]:
    """The trace of integer terms {key: {u-exponent: int}} as (den, {mono:
    {u-exponent: int}}); ``trace`` gives each key's trace as (den, triples)
    and defaults to ``_trace_word`` as bound at the call."""
    trace = trace or _trace_word
    traces = [(poly, trace(w)) for w, poly in terms.items()]
    den = max((t[0] for _, t in traces), default=1)
    acc: dict[tuple, dict[int, int]] = {}
    for poly, (word_den, triples) in traces:
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
    """The trace of an algebra element, extended linearly over basis words.

    >>> from .yokonuma import AlgebraElement, generator
    >>> str(markov_trace(AlgebraElement.one(3, 2)))
    '1'
    >>> str(markov_trace(generator(3, 2, 1)))
    'z'
    """
    trace_den, acc = _trace_terms(a.int_terms)
    return _trace_polynomial(a.d, a.den * trace_den, acc)


def _trace_polynomial(d: int, den: int, acc: dict) -> TracePolynomial:
    """The ``TracePolynomial`` (1/den) * acc of a trace from ``_trace_terms``."""
    return TracePolynomial.from_dict(d, {mono: LaurentU.from_ints(poly, den) for mono, poly in acc.items()})


# Entries of the tr(E_A g_w) cache, one per (d, A, w): bounded so that a long
# corpus keeps memory flat, and large enough that no benchmark workload evicts.
TIE_TRACE_CACHE = 4096


@lru_cache(maxsize=TIE_TRACE_CACHE)
def _tie_trace(d: int, key: tuple) -> tuple[int, tuple]:
    """tr(E_A g_w) for key (A, w), as ``_trace_word`` gives it: E_A is
    d^-(n-|A|) times the sum of t^a over ``_block_zero_framings``.  As
    g_w t_j = t_{w(j)} g_w and the trace is cyclic, tr(t^a g_w) depends on a
    only through its sums over the cycles of w: the framings are counted by
    that vector, and one word per class, the sum of each cycle on its first
    strand, is traced with its count."""
    blocks, perm = key
    n = len(perm)
    first: list[int] = []  # the least strand of each strand's cycle
    for j in range(n):
        i = perm[j]
        while i > j:
            i = perm[i]
        first.append(j if i == j else first[i])
    counts = Counter(_block_zero_framings(d, blocks, first))
    den, acc = _trace_terms({BasisWord(d, n, fr, perm): {0: c} for fr, c in counts.items()})
    return _lowest_terms(d, den * d ** (n - len(set(blocks))), [(mono, e, c) for mono, poly in acc.items() for e, c in poly.items() if c])


def trace_of_braid(d: int, b: BraidWord, subset=None) -> "TracePolynomial | RatFunc":
    """Trace of the image of a braid in Y_{d,n}; given a subset S of Z/dZ, its
    value over Q at the E-system solution S: the x-free part of the trace in
    Y_{k,n}, k = |S mod d|, which is its value at the full subset of Z/kZ
    (x_m = 0 for m != 0).  The braid is traced through ``_tie_expansion`` and
    the cached tr(E_A g_w).  The oracle substitutes the solution of S into
    ``markov_trace(represent_braid(d, b))`` with ``trace_poly_substitute``."""
    if subset is not None:
        return solution_value(len(reduce_subset(d, subset)), b)
    return _trace_polynomial(d, *_trace_terms(_tie_expansion(d, b), partial(_tie_trace, d)))


def solution_value(k: int, b: BraidWord, fold: int = 0, z_power: int = 0) -> RatFunc:
    """T lambda^fold / z^z_power in lowest terms, T the x-free part of the
    trace of b in Y_{k,n} and lambda = M / (k u z) with M = k z + u - 1.

    T is an integer polynomial in u^-1, u, z over a power of k.  M is divided
    out over Z while it divides; the rest of M^c is k^c L^c with
    L = z - (1-u)/k, so the denominator is the monic u^a z^b L^c of
    ``RatFunc.make``'s canonical form.
    """
    den, acc = _trace_terms(_tie_expansion(k, b), partial(_tie_trace, k))
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
    ell = PolyUZ.from_dict({(0, 1): Fraction(1), (1, 0): Fraction(1, k), (0, 0): Fraction(-1, k)})
    return RatFunc(body, _monomial_shift(_linear_power(ell, left), max(-ue, 0), max(-ze, 0)))


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
