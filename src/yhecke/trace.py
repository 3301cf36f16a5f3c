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
(``_tie_expansion``).  Y_{d,n} is entered only in tr(E_A g_w), which is
cached per (d, A, w) and summed from word traces.  ``markov_trace`` of
``yokonuma.represent_braid`` stays the element API and the reference oracle.

Under an E-system solution (d, S) a braid's trace depends only on k = |S|, so
``trace_of_braid`` reads it over Q as the x-free part of the trace in Y_{k,n}.

Uniqueness of the trace is certified by the property suite (cyclicity and
the two multiplicative rules on random elements) rather than assumed.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import product

from .braid import BraidWord
# trace_poly_substitute and represent_braid stay bound here, where
# bench/tracing.py wraps them by name; no braid trace calls them.
from .exactnum import LaurentU, OrderMismatchError, PolyUZ, RatFunc, TracePolynomial, trace_poly_substitute
from .yokonuma import (
    AlgebraElement,
    BasisWord,
    _U_MINUS_ONE,
    _UINV_MINUS_ONE,
    _add_product,
    _swap_positions,
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


@lru_cache(maxsize=None)
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


def _trace_terms(terms: dict, trace=_trace_word) -> tuple[int, dict[tuple, dict[int, int]]]:
    """The trace of integer terms {key: {u-exponent: int}} as (den, {mono:
    {u-exponent: int}}); ``trace`` gives each key's trace as (den, triples)."""
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


def _join(blocks: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """The set partition ``blocks`` with the blocks of strands a and b joined.
    Labels are canonical: blocks are numbered 0, 1, ... by their first strand."""
    lo, hi = sorted((blocks[a], blocks[b]))
    if lo == hi:
        return blocks
    return tuple(lo if x == hi else x - (x > hi) for x in blocks)


@lru_cache(maxsize=TIE_TRACE_CACHE)
def _tie_trace(d: int, key: tuple) -> tuple[int, tuple]:
    """tr(E_A g_w) for key (A, w), as ``_trace_word`` gives it: E_A is
    d^-(n-|A|) times the sum of t^a over the framings a that sum to 0 mod d
    on every block of A."""
    blocks, perm = key
    n = len(perm)
    free = [(j, blocks.index(blocks[j])) for j in range(n) if blocks.index(blocks[j]) < j]
    words = {}
    for values in product(range(d), repeat=len(free)):
        fr = [0] * n
        for (j, first), a in zip(free, values):
            fr[j] += a
            fr[first] -= a
        words[BasisWord(d, n, tuple(a % d for a in fr), perm)] = {0: 1}
    den, acc = _trace_terms(words)
    return _lowest_terms(d, den * d ** len(free), [(mono, e, c) for mono, poly in acc.items() for e, c in poly.items() if c])


def _tie_expansion(d: int, b: BraidWord) -> dict:
    """The image of a braid in Y_{d,n} as {(A, w): {u-exponent: int}}, terms
    E_A g_w with integer coefficients: A a set partition of the strands as
    canonical block labels, and E_A the product of the e_{j,k} over pairs
    j, k in one block.  It is rewritten letter by letter.  With p = i - 1 and
    A+ the partition A with the blocks of strands w[p] and w[p+1] joined,
    E_A g_w g_i is E_A g_{w s_i} when w[p] < w[p+1], and otherwise

        E_A g_{w s_i} + (u - 1) E_{A+} g_{w s_i} - (u - 1) E_{A+} g_w.

    g_i^-1 = g_i - (u^-1 - 1) e_i + (u^-1 - 1) e_i g_i with E_A g_w e_i =
    E_{A+} g_w gives the same rule with u^-1 for u and the two cases swapped.
    Each rule is an identity in Y_{d,n} for every d; at d = 1 every E_A is 1,
    so A stays all singletons.  For d = 2, g_1^2 = 1 + (u-1) e_1 - (u-1) e_1 g_1:

    >>> from .braid import parse_braid
    >>> sorted(_tie_expansion(2, parse_braid("1 1")).items())
    [(((0, 0), (0, 1)), {1: 1, 0: -1}), (((0, 0), (1, 0)), {1: -1, 0: 1}), (((0, 1), (0, 1)), {0: 1})]
    """
    n = b.strands
    terms = {(tuple(range(n)), tuple(range(n))): {0: 1}}
    for letter in b.letters:
        p = abs(letter) - 1
        c = dict(_U_MINUS_ONE if letter > 0 else _UINV_MINUS_ONE)
        out: dict = {}
        for (blocks, w), poly in terms.items():
            ws = _swap_positions(w, p)
            _add_product(out.setdefault((blocks, ws), {}), poly, {0: 1})
            if (w[p] < w[p + 1]) != (letter > 0):
                joined = _join(blocks, w[p], w[p + 1]) if d > 1 else blocks
                _add_product(out.setdefault((joined, ws), {}), poly, c)
                _add_product(out.setdefault((joined, w), {}), poly, c, -1)
        terms = {key: kept for key, poly in out.items() if (kept := {e: v for e, v in poly.items() if v})}
    return terms


def trace_of_braid(d: int, b: BraidWord, sol=None) -> "TracePolynomial | RatFunc":
    """Trace of the image of a braid in Y_{d,n}; given an E-system solution of
    order d, its value there over Q: the x-free part of the trace in Y_{|S|,n},
    which is its value at the full subset of Z/|S|Z (x_m = 0 for m != 0).
    The braid is traced through ``_tie_expansion`` and the cached tr(E_A g_w).
    The oracle: ``trace_poly_substitute(markov_trace(represent_braid(d, b)), sol)``."""
    if sol is not None and sol.d != d:
        raise OrderMismatchError(f"trace polynomial order {d} does not match solution order {sol.d}")
    k = d if sol is None else len(sol.subset)
    p = _trace_polynomial(k, *_trace_terms(_tie_expansion(k, b), partial(_tie_trace, k)))
    if sol is None:
        return p
    low = min([0] + [c.min_exponent() for _, c in p.terms])
    num = PolyUZ.from_dict({(e - low, ze): q for (ze, xe), c in p.terms if not any(xe) for e, q in c.terms})
    return RatFunc.make(num, PolyUZ.monomial(-low, 0))
