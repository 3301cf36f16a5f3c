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

Under an E-system solution (d, S) a braid's trace depends only on k = |S|, so
``trace_of_braid`` computes it in Y_{k,n} at the full subset, where x_m = 0 for m != 0.

Uniqueness of the trace is certified by the property suite (cyclicity and
the two multiplicative rules on random elements) rather than assumed.
"""

from __future__ import annotations

from functools import lru_cache

from .braid import BraidWord
from .esystem import solution_from_subset
from .exactnum import LaurentU, OrderMismatchError, RatFunc, TracePolynomial, trace_poly_substitute
from .yokonuma import (
    AlgebraElement,
    BasisWord,
    _Scaled,
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
    triples = [((ze + 1, xe), e, c) for (ze, xe), poly in acc.items() for e, c in poly.items() if c]
    while den > 1 and all(c % d == 0 for _, _, c in triples):
        den //= d
        triples = [(mono, e, c // d) for mono, e, c in triples]
    return den, tuple(triples)


def _trace_terms(terms: _Scaled) -> tuple[int, dict[tuple, dict[int, int]]]:
    """The trace of integer-kernel terms as (den, {mono: {u-exponent: int}})."""
    traces = [(poly, _trace_word(w)) for w, poly in terms.items()]
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
    den = a.den * trace_den
    return TracePolynomial.from_dict(
        a.d, {mono: LaurentU.from_ints(poly, den) for mono, poly in acc.items()}
    )


def trace_of_braid(d: int, b: BraidWord, sol=None) -> "TracePolynomial | RatFunc":
    """Trace of the image of a braid in Y_{d,n}; given an E-system solution of
    order d, its value there over Q, computed in Y_{|S|,n} at the full subset
    of Z/|S|Z, whose solution comes from the cache of ``solution_from_subset``.
    The oracle: ``trace_poly_substitute(markov_trace(represent_braid(d, b)), sol)``."""
    if sol is None:
        return markov_trace(represent_braid(d, b))
    if sol.d != d:
        raise OrderMismatchError(f"trace polynomial order {d} does not match solution order {sol.d}")
    k = len(sol.subset)
    return trace_poly_substitute(markov_trace(represent_braid(k, b)), solution_from_subset(k, range(k)))
