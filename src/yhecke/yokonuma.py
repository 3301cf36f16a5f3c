"""The algebra engine for Y_{d,n}(u).

Basis and conventions
---------------------
Elements are linear combinations of canonical basis words

    t_1^{a_1} ... t_n^{a_n} g_w

with framing exponents a_j in 0..d-1 (the t-monomial always on the left)
and w a permutation of the strands.  g_w means the product of generators
along the fixed reduced word produced by ``canonical_reduced_word``; the
braid relations make g_w independent of the choice, so a basis word is
exactly a (framings, permutation) pair.

Permutations are 0-based one-line tuples; composition is (p * q)(j) =
p(q(j)), so in a product of generators the rightmost factor acts first.
Generator indices in the public API are 1-based (g_1 .. g_{n-1}),
matching the braid letters.

Multiplication rewrites products of basis words using the defining
relations: t_j g_i = g_i t_{s_i(j)}, the commuting/braid relations, and
the quadratic relation

    g_i^2 = 1 + (u-1) e_i - (u-1) e_i g_i,
    e_i   = (1/d) sum_m t_i^m t_{i+1}^{-m},

applied when a right multiplication by g_i shortens the permutation.

Integer kernel
--------------
The only denominators are the powers of d that e_i brings in.  So
products are formed over the integers: a product in progress is a map
{(framings, perm): {u-exponent: int}} read over a tracked denominator, with
d passed beside it, and the cached table ``_word_times_g`` holds
d * word * g_i as (key, u-exponent, int) triples.  ``AlgebraElement``
stores this form itself, in lowest terms, so ``multiply``,
``represent_braid`` and ``trace.markov_trace`` pass it on without
conversion; ``BasisWord`` and ``LaurentU`` appear only in the public API,
which validates the one and reads coefficients as the other.  A braid is
rewritten on terms E_A g_w of the algebra of braids and ties, keyed
(A, w) the same way, whose rules have integer coefficients and do not
depend on d (``_tie_expansion``); so no division is left, and
``represent_braid`` expands the E_A g_w on t^a g_w.  The traces rewrite on
these terms too, so ``_word_times_g`` serves ``multiply`` alone.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Mapping

from .braid import BraidWord
from .exactnum import (
    ExactArithmetic,
    LaurentU,
    Scalar,
    laurent_u_minus_one,
    laurent_uinv_minus_one,
)

# ---------------------------------------------------------------------------
# Permutations (0-based one-line tuples).
# ---------------------------------------------------------------------------

def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def is_permutation(p: tuple[int, ...]) -> bool:
    return sorted(p) == list(range(len(p)))


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p * q)(j) = p(q(j)): q acts first."""
    return tuple(p[q[j]] for j in range(len(p)))


def perm_length(p: tuple[int, ...]) -> int:
    """Number of inversions."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def transposition_perm(n: int, i: int) -> tuple[int, ...]:
    """The simple transposition s_i (1-based i) as a permutation of n strands."""
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def _swap_positions(p: tuple[int, ...], pos: int) -> tuple[int, ...]:
    q = list(p)
    q[pos], q[pos + 1] = q[pos + 1], q[pos]
    return tuple(q)


# Entries of each of the reduced-word and word-times-g caches:
# bounded so that a long corpus keeps memory flat.  Over 100 times what any
# benchmark workload keeps, and about 4 times what a 6-strand link at
# |S| = 4 keeps.
WORD_CACHE = 16384


@lru_cache(maxsize=WORD_CACHE)
def canonical_reduced_word(perm: tuple[int, ...]) -> tuple[int, ...]:
    """The fixed reduced word for a permutation, as 1-based generator indices.

    Repeatedly applies s_i on the right for the smallest descent i, records
    the indices, and reverses; the length equals the inversion count.

    >>> canonical_reduced_word((0, 1, 2))
    ()
    >>> canonical_reduced_word((1, 0))
    (1,)
    >>> canonical_reduced_word((2, 1, 0))
    (1, 2, 1)
    """
    p = list(perm)
    word = []
    n = len(p)
    i = 0
    while i < n - 1:
        if p[i] > p[i + 1]:
            word.append(i + 1)
            p[i], p[i + 1] = p[i + 1], p[i]
            i = max(i - 1, 0)
        else:
            i += 1
    # Bubble passes with backtracking always pick the smallest descent first.
    # The loop keeps p[:i+1] sorted and ends at i = n-1, so it leaves p sorted:
    # the identity, for the permutation of a basis word, which every caller passes.
    return tuple(reversed(word))


# ---------------------------------------------------------------------------
# Basis words and algebra elements.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisWord:
    """Canonical basis word t^a g_w of Y_{d,n}: framings on the left of g_w.
    The validated public form of a kernel key (framings, perm)."""

    d: int
    n: int
    framings: tuple[int, ...]
    perm: tuple[int, ...]

    def __post_init__(self):
        _check_algebra(self.d, self.n)
        if len(self.framings) != self.n or not all(0 <= a < self.d for a in self.framings):
            raise ValueError(f"framings {self.framings} are not {self.n} residues mod {self.d}")
        if len(self.perm) != self.n or not is_permutation(self.perm):
            raise ValueError(f"{self.perm} is not a permutation of {self.n} strands")

    def __str__(self) -> str:
        factors = []
        for j, a in enumerate(self.framings):
            if a:
                factors.append(f"t{j + 1}" if a == 1 else f"t{j + 1}^{a}")
        factors.extend(f"g{i}" for i in canonical_reduced_word(self.perm))
        return "*".join(factors) if factors else "1"


def _check_algebra(d: int, n: int):
    if d < 1 or n < 1:
        raise ValueError(f"basis word needs d >= 1 and n >= 1, got d={d}, n={n}")


# Integer-kernel terms: {(framings, perm): {u-exponent: int}}, read over a denominator.
_Scaled = dict


def _int_form(lus: Mapping) -> tuple[dict, int]:
    """lus as integer terms {key: {u-exponent: int}} over their least common denominator."""
    den = math.lcm(*(c.denominator for lu in lus.values() for _, c in lu.terms))
    return {k: {e: c.numerator * (den // c.denominator) for e, c in lu.terms} for k, lu in lus.items()}, den


@dataclass(init=False, repr=False)
class AlgebraElement(ExactArithmetic):
    """A finite linear combination of basis words over Q[u, u^-1], stored in
    the integer kernel's form (1/den) * sum c u^e w over ``int_terms``
    {(framings, perm): {u-exponent: int}}.  The form is canonical, so
    equality is structural, field by field: no zero coefficient is stored
    and den > 0 is coprime to the coefficients (zero is {} over 1).
    ``terms`` is the rational view {BasisWord: LaurentU}, built when read.
    No method mutates an element.
    """

    __slots__ = ("d", "n", "int_terms", "den")
    d: int
    n: int
    int_terms: _Scaled
    den: int

    def __init__(self, d: int, n: int, terms: Mapping[BasisWord, LaurentU]):
        for w in terms:
            if (w.d, w.n) != (d, n):
                raise ValueError(f"basis word {w} of Y_({w.d},{w.n}) in an element of Y_({d},{n})")
        self._store(d, n, *_int_form({(w.framings, w.perm): lu for w, lu in terms.items()}))

    def _store(self, d: int, n: int, terms: _Scaled, den: int):
        _check_algebra(d, n)
        g = math.gcd(den, *(c for poly in terms.values() for c in poly.values()))
        terms = {w: kept for w, poly in terms.items() if (kept := {e: c // g for e, c in poly.items() if c})}
        self.d, self.n, self.int_terms, self.den = d, n, terms, den // g

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_ints(d: int, n: int, terms: _Scaled, den: int) -> AlgebraElement:
        """The element (1/den) * sum c u^e w of integer-kernel terms."""
        a = object.__new__(AlgebraElement)
        a._store(d, n, terms, den)
        return a

    @staticmethod
    def zero(d: int, n: int) -> AlgebraElement:
        return AlgebraElement(d, n, {})

    @staticmethod
    def one(d: int, n: int) -> AlgebraElement:
        return AlgebraElement.from_word(BasisWord(d, n, (0,) * n, identity_perm(n)))

    @staticmethod
    def from_word(word: BasisWord, coeff: Scalar | LaurentU = 1) -> AlgebraElement:
        lu = coeff if isinstance(coeff, LaurentU) else LaurentU.from_scalar(coeff)
        return AlgebraElement(word.d, word.n, {word: lu})

    @property
    def terms(self) -> dict[BasisWord, LaurentU]:
        return {BasisWord(self.d, self.n, *k): LaurentU.from_ints(poly, self.den) for k, poly in self.int_terms.items()}

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.int_terms

    def _check_compatible(self, other: AlgebraElement):
        if (self.d, self.n) != (other.d, other.n):
            raise ValueError(
                f"algebra mismatch: Y_({self.d},{self.n}) vs Y_({other.d},{other.n})"
            )

    def _coerce(self, other) -> "AlgebraElement | None":
        if not isinstance(other, AlgebraElement):
            return None
        self._check_compatible(other)
        return other

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = math.lcm(self.den, o.den)
        acc: _Scaled = {}
        for a in (self, o):
            for w, poly in a.int_terms.items():
                _add_product(acc.setdefault(w, {}), poly, {0: den // a.den})
        return AlgebraElement.from_ints(self.d, self.n, acc, den)

    def __neg__(self) -> AlgebraElement:
        neg = {w: {e: -c for e, c in poly.items()} for w, poly in self.int_terms.items()}
        return AlgebraElement.from_ints(self.d, self.n, neg, self.den)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        if isinstance(other, (int, Fraction, LaurentU)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        # Y_{d,n} is not commutative: only a scalar multiplies from the left
        if isinstance(other, (int, Fraction, LaurentU)):
            return self.scale(other)
        return NotImplemented

    def _unit(self) -> AlgebraElement:
        return AlgebraElement.one(self.d, self.n)

    def scale(self, c: Scalar | LaurentU) -> AlgebraElement:
        lu = c if isinstance(c, LaurentU) else LaurentU.from_scalar(c)
        factor, den = _int_form({0: lu})
        out: _Scaled = {}
        for w, poly in self.int_terms.items():
            _add_product(out.setdefault(w, {}), poly, factor[0])
        return AlgebraElement.from_ints(self.d, self.n, out, self.den * den)

    def __str__(self) -> str:
        parts = []
        for key, poly in sorted(self.int_terms.items()):
            w = str(BasisWord(self.d, self.n, *key))
            parts.append(LaurentU.from_ints(poly, self.den).str_times("" if w == "1" else w))
        return " + ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"<Y_({self.d},{self.n}) element: {self}>"


# ---------------------------------------------------------------------------
# The integer kernel: multiplication by rewriting.
# ---------------------------------------------------------------------------

_U_MINUS_ONE = ((1, 1), (0, -1))
_UINV_MINUS_ONE = ((-1, 1), (0, -1))


def _shift_framings(fr: tuple[int, ...], perm: tuple[int, ...],
                    add: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Framings of (t^fr g_perm) * t^add: exponent add_j lands at perm(j)."""
    out = list(fr)
    for j, a in enumerate(add):
        if a:
            k = perm[j]
            out[k] = (out[k] + a) % d
    return tuple(out)


def _framing_shifts(d: int, key: tuple, i: int) -> list[tuple]:
    """The keys of word * t_i^m t_{i+1}^-m for m in 0..d-1, where key is the
    word's (framings, perm); d * word * e_i is their sum."""
    fr, perm = key
    out = []
    for m in range(d):
        add = [0] * len(perm)
        add[i - 1] = m
        add[i] = (-m) % d
        out.append((_shift_framings(fr, perm, tuple(add), d), perm))
    return out


@lru_cache(maxsize=WORD_CACHE)
def _word_times_g(key: tuple, i: int, d: int) -> tuple[tuple[tuple, int, int], ...]:
    """Right multiplication of the basis word keyed (framings, perm) by g_i
    (1-based), rewritten into canonical basis words: d * word * g_i as
    (key, u-exponent, int) triples.  Cached: products recur constantly."""
    fr, v = key
    p = i - 1
    swapped = (fr, _swap_positions(v, p))
    if v[p] < v[p + 1]:
        # length increases: t^a g_v g_i = t^a g_{v s_i}
        return ((swapped, 0, d),)
    # length decreases: v = v' s_i with v' shorter, and
    # g_v g_i = g_{v'} (1 + (u-1) e_i - (u-1) e_i g_i), where each framing
    # shift t^b g_{v'} of g_{v'} e_i gives t^b g_{v'} g_i = t^b g_v
    acc: Counter = Counter()
    acc[swapped, 0] += d
    for shifted in _framing_shifts(d, swapped, i):
        longer = (shifted[0], v)
        for e, c in _U_MINUS_ONE:
            acc[shifted, e] += c
            acc[longer, e] -= c
    return tuple((w, e, c) for (w, e), c in acc.items() if c)


def _right_multiply(terms: dict, table, *args) -> dict:
    """Every key of ``terms`` {key: {u-exponent: int}} times one letter,
    through a cached table ``table(key, *args)`` of (key, u-exponent, int)
    triples; the result carries the table's scale.  Zero coefficients, and
    keys left with none, are dropped."""
    out: dict = {}
    for w, poly in terms.items():
        for w2, e2, c2 in table(w, *args):
            dst = out.get(w2)
            if dst is None:
                dst = out[w2] = {}
            for e, c in poly.items():
                k = e + e2
                dst[k] = dst.get(k, 0) + c * c2
    for w2 in [w for w, poly in out.items() if not all(poly.values())]:
        if kept := {e: c for e, c in out[w2].items() if c}:
            out[w2] = kept
        else:
            del out[w2]
    return out


def _add_product(dst: dict[int, int], p: dict[int, int], q: dict[int, int], scale: int = 1):
    """dst += scale * p * q for u-polynomials {u-exponent: int}."""
    for e, c in p.items():
        for e2, c2 in q.items():
            k = e + e2
            dst[k] = dst.get(k, 0) + c * c2 * scale


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """The product in Y_{d,n}, collected in canonical basis words: a times
    each word t^add g_perm of b, scaled by d^l for l the length of perm,
    absorbs the t-monomial, then the g-word letter by letter."""
    a._check_compatible(b)
    d, n = a.d, a.n
    right = b.int_terms
    top = max((len(canonical_reduced_word(perm)) for _, perm in right), default=0)
    out: _Scaled = {}
    for (add, perm), poly2 in right.items():
        cur = {(_shift_framings(fr, w, add, d), w): poly for (fr, w), poly in a.int_terms.items()}
        for i in canonical_reduced_word(perm):
            cur = _right_multiply(cur, _word_times_g, i, d)
        scale = d ** (top - len(canonical_reduced_word(perm)))
        for w, poly in cur.items():
            _add_product(out.setdefault(w, {}), poly, poly2, scale)
    return AlgebraElement.from_ints(d, n, out, a.den * b.den * d**top)


# ---------------------------------------------------------------------------
# Distinguished elements.
# ---------------------------------------------------------------------------

def _check_gen_index(n: int, i: int):
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range 1..{n - 1}")


def generator(d: int, n: int, i: int) -> AlgebraElement:
    """The generator g_i of Y_{d,n} (1-based index)."""
    _check_gen_index(n, i)
    return AlgebraElement.from_word(
        BasisWord(d, n, (0,) * n, transposition_perm(n, i))
    )


def framing_generator(d: int, n: int, j: int, m: int = 1) -> AlgebraElement:
    """The framing element t_j^m (1-based strand j)."""
    if not 1 <= j <= n:
        raise ValueError(f"strand index {j} out of range 1..{n}")
    fr = [0] * n
    fr[j - 1] = m % d
    return AlgebraElement.from_word(BasisWord(d, n, tuple(fr), identity_perm(n)))


def idempotent_e(d: int, n: int, i: int) -> AlgebraElement:
    """The idempotent e_i = (1/d) sum_{m} t_i^m t_{i+1}^{-m}."""
    _check_gen_index(n, i)
    one = BasisWord(d, n, (0,) * n, identity_perm(n))
    return AlgebraElement.from_ints(d, n, {w: {0: 1} for w in _framing_shifts(d, (one.framings, one.perm), i)}, d)


def generator_inverse(d: int, n: int, i: int) -> AlgebraElement:
    """g_i^-1 = g_i - (u^-1 - 1) e_i + (u^-1 - 1) e_i g_i."""
    _check_gen_index(n, i)
    return _letter_image(d, n, -i)


def power_formula(d: int, n: int, i: int, m: int) -> AlgebraElement:
    """Closed form for g_i^m: an even power is 1 + c*e_i - c*e_i*g_i and an
    odd power is g_i - c*e_i + c*e_i*g_i, where c is a geometric sum in u
    (in u^-1 for negative m)."""
    _check_gen_index(n, i)
    one = AlgebraElement.one(d, n)
    g = generator(d, n, i)
    e = idempotent_e(d, n, i)
    eg = multiply(e, g)
    if m == 0:
        return one
    if m > 0:
        k, odd = divmod(m, 2)
        geom = LaurentU.from_dict({2 * l: 1 for l in range(k)})
        if odd:
            beta = LaurentU.u(1) * laurent_u_minus_one() * geom
            return g - e.scale(beta) + eg.scale(beta)
        alpha = laurent_u_minus_one() * geom
        return one + e.scale(alpha) - eg.scale(alpha)
    # m < 0: m = -2k even, or m = -2k+1 odd with k = (1-m)/2
    if m % 2 == 0:
        k = -m // 2
        geom = LaurentU.from_dict({-2 * l: 1 for l in range(k)})
        alpha = LaurentU.u(-1) * laurent_uinv_minus_one() * geom
        return one + e.scale(alpha) - eg.scale(alpha)
    k = (1 - m) // 2
    geom = LaurentU.from_dict({-2 * l: 1 for l in range(k)})
    beta = laurent_uinv_minus_one() * geom
    return g - e.scale(beta) + eg.scale(beta)


@lru_cache(maxsize=256)
def _letter_image(d: int, n: int, letter: int) -> AlgebraElement:
    """The image of one braid letter: g_i, or g_i^-1 from its rewriting."""
    return represent_braid(d, BraidWord(n, (letter,)))


# ---------------------------------------------------------------------------
# Braids on terms E_A g_w of the algebra of braids and ties.
# ---------------------------------------------------------------------------

# Entries of the ties letter table: over five times what any benchmark workload keeps.
TIE_LETTER_CACHE = 4096


def _join(blocks: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """The set partition ``blocks`` with the blocks of strands a and b joined.
    Labels are canonical: blocks are numbered 0, 1, ... by their first strand."""
    if blocks[a] == blocks[b]:
        return blocks
    lo, hi = sorted((blocks[a], blocks[b]))
    return tuple(lo if x == hi else x - (x > hi) for x in blocks)


def _block_zero_framings(d: int, blocks: tuple[int, ...]):
    """The framings a, as residues mod d, whose sum over every block of
    ``blocks`` is 0 mod d: E_A is d^-(n-|A|) times the sum of t^a over them.
    Every strand but the first of its block is free, and the first takes
    minus their sum."""
    n = len(blocks)
    free = [(j, blocks.index(blocks[j])) for j in range(n) if blocks.index(blocks[j]) < j]
    for values in product(range(d), repeat=len(free)):
        fr = [0] * n
        for (j, f), a in zip(free, values):
            fr[j] += a
            fr[f] -= a
        yield tuple(a % d for a in fr)


@lru_cache(maxsize=TIE_LETTER_CACHE)
def _word_times_letter(key: tuple, letter: int, join: bool) -> tuple[tuple[tuple, int, int], ...]:
    """E_A g_w times g_i for a letter i > 0, and times g_i^-1 for -i, as
    ((A', w'), u-exponent, int) triples, where key is (A, w).  With p = i - 1
    and A+ the partition A with the blocks of strands w[p] and w[p+1]
    joined, E_A g_w g_i is E_A g_{w s_i} when w[p] < w[p+1], and otherwise

        E_A g_{w s_i} + (u - 1) E_{A+} g_{w s_i} - (u - 1) E_{A+} g_w.

    g_i^-1 = g_i - (u^-1 - 1) e_i + (u^-1 - 1) e_i g_i with E_A g_w e_i =
    E_{A+} g_w gives the same rule with u^-1 for u and the two cases
    swapped.  Each rule is an identity in Y_{d,n} for every d; at d = 1
    every E_A is 1, and without ``join`` A stays as it is."""
    blocks, w = key
    p = abs(letter) - 1
    swapped = (blocks, _swap_positions(w, p))
    if (w[p] < w[p + 1]) == (letter > 0):
        return ((swapped, 0, 1),)
    joined = _join(blocks, w[p], w[p + 1]) if join else blocks
    tied_swapped, tied = (joined, swapped[1]), (joined, w)
    acc: Counter = Counter({(swapped, 0): 1})
    for e, c in _U_MINUS_ONE if letter > 0 else _UINV_MINUS_ONE:
        acc[tied_swapped, e] += c
        acc[tied, e] -= c
    return tuple((k, e, c) for (k, e), c in acc.items() if c)


def _tie_expansion(d: int, b: BraidWord) -> dict:
    """The image of a braid in Y_{d,n} as {(A, w): {u-exponent: int}}, terms
    E_A g_w with integer coefficients: A a set partition of the strands as
    canonical block labels, and E_A the product of the e_{j,k} over pairs
    j, k in one block.  It is rewritten letter by letter through
    ``_word_times_letter``.  For d = 2, g_1^2 = 1 + (u-1) e_1 - (u-1) e_1 g_1:

    >>> from .braid import parse_braid
    >>> sorted(_tie_expansion(2, parse_braid("1 1")).items())
    [(((0, 0), (0, 1)), {1: 1, 0: -1}), (((0, 0), (1, 0)), {1: -1, 0: 1}), (((0, 1), (0, 1)), {0: 1})]
    """
    n = b.strands
    terms = {(tuple(range(n)), tuple(range(n))): {0: 1}}
    for letter in b.letters:
        terms = _right_multiply(terms, _word_times_letter, letter, d > 1)
    return terms


def represent_braid(d: int, b: BraidWord) -> AlgebraElement:
    """Image of a braid word in Y_{d,n}: each positive letter maps to g_i and
    each negative letter to g_i^-1.  The braid is rewritten on terms E_A g_w
    (``_tie_expansion``), and each E_A g_w is d^-(n-|A|) times the sum of
    t^a g_w over the framings a of ``_block_zero_framings``.  For d = 2,
    g1^-1 on E_A g_w with A = {1}{2} and w = 1 as ((A', w'), u-exponent,
    coefficient) triples, and its image on the basis t^a g_w:

    >>> from .braid import parse_braid
    >>> sorted(_word_times_letter(((0, 1), (0, 1)), -1, True))
    ... # doctest: +NORMALIZE_WHITESPACE
    [(((0, 0), (0, 1)), -1, -1), (((0, 0), (0, 1)), 0, 1), (((0, 0), (1, 0)), -1, 1),
     (((0, 0), (1, 0)), 0, -1), (((0, 1), (1, 0)), 0, 1)]
    >>> print(represent_braid(2, parse_braid("-1")))
    (1/2 - 1/2*u^-1) + (1/2 + 1/2*u^-1)*g1 + (1/2 - 1/2*u^-1)*t1*t2 + (-1/2 + 1/2*u^-1)*t1*t2*g1
    >>> represent_braid(2, parse_braid("1 -1")) == AlgebraElement.one(2, 2)
    True
    """
    n = b.strands
    terms = _tie_expansion(d, b)
    top = max((n - len(set(blocks)) for blocks, _ in terms), default=0)
    out: _Scaled = {}
    for (blocks, w), poly in terms.items():
        scale = {0: d ** (top - n + len(set(blocks)))}
        for fr in _block_zero_framings(d, blocks):
            _add_product(out.setdefault((fr, w), {}), poly, scale)
    return AlgebraElement.from_ints(d, n, out, d**top)


def embed(a: AlgebraElement, n_new: int) -> AlgebraElement:
    """The natural inclusion Y_{d,n} into Y_{d,n_new} on trivial extra strands."""
    if n_new < a.n:
        raise ValueError(f"cannot embed Y_(d,{a.n}) into the smaller Y_(d,{n_new})")
    pad = n_new - a.n
    terms = {(fr + (0,) * pad, perm + tuple(range(a.n, n_new))): poly for (fr, perm), poly in a.int_terms.items()}
    return AlgebraElement.from_ints(a.d, n_new, terms, a.den)
