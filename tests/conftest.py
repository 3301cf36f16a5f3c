"""Shared helpers: seeded random generators for braids and algebra elements,
plus naive oracles kept deliberately independent of the library internals."""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from yhecke.braid import BraidWord
from yhecke.exactnum import LaurentU, TracePolynomial
from yhecke.yokonuma import AlgebraElement, BasisWord, generator, multiply


def random_braid(rng: random.Random, n: int | None = None, n_max: int = 4,
                 len_max: int = 8, min_len: int = 1) -> BraidWord:
    if n is None:
        n = rng.randint(2, n_max)
    gens = [k for k in range(-(n - 1), n) if k != 0]
    letters = tuple(rng.choice(gens) for _ in range(rng.randint(min_len, len_max)))
    return BraidWord(n, letters)


def random_conjugator(rng: random.Random, n: int, len_max: int = 8) -> BraidWord:
    gens = [k for k in range(-(n - 1), n) if k != 0]
    letters = tuple(rng.choice(gens) for _ in range(rng.randint(0, len_max)))
    return BraidWord(n, letters)


def random_laurent(rng: random.Random, span: int = 2) -> LaurentU:
    terms = {}
    for _ in range(rng.randint(1, 2)):
        terms[rng.randint(-span, span)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    lu = LaurentU.from_dict(terms)
    return lu if not lu.is_zero() else LaurentU.from_scalar(1)


def random_basis_word(rng: random.Random, d: int, n: int) -> BasisWord:
    fr = tuple(rng.randrange(d) for _ in range(n))
    perm = list(range(n))
    rng.shuffle(perm)
    return BasisWord(d, n, fr, tuple(perm))


def random_element(rng: random.Random, d: int, n: int, max_terms: int = 3) -> AlgebraElement:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[random_basis_word(rng, d, n)] = random_laurent(rng)
    return AlgebraElement(d, n, terms)


# -- independent oracles -----------------------------------------------------

def oracle_cycle_count(perm: tuple[int, ...]) -> int:
    """Cycle count via repeated set removal (independent of the library)."""
    remaining = set(range(len(perm)))
    count = 0
    while remaining:
        count += 1
        start = min(remaining)
        j = start
        while j in remaining:
            remaining.discard(j)
            j = perm[j]
    return count


def oracle_braid_permutation(b: BraidWord) -> tuple[int, ...]:
    """Strand permutation computed by tracking each strand individually."""
    out = []
    for start in range(b.strands):
        pos = start
        for k in b.letters:
            i = abs(k) - 1
            if pos == i:
                pos = i + 1
            elif pos == i + 1:
                pos = i
        out.append(pos)
    # out[s] is where strand starting at position s ends; invert to one-line.
    inv = [0] * b.strands
    for s, e in enumerate(out):
        inv[e] = s
    return tuple(inv)


def oracle_smallest_descent_word(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Literal restatement of the straightening rule: repeatedly take the
    globally smallest descent, record, then reverse."""
    p = list(perm)
    rec = []
    while True:
        descents = [i for i in range(len(p) - 1) if p[i] > p[i + 1]]
        if not descents:
            break
        i = min(descents)
        rec.append(i + 1)
        p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(reversed(rec))


def tie_element(d: int, blocks: tuple[int, ...], perm: tuple[int, ...]) -> AlgebraElement:
    """E_A g_w in Y_{d,n} from its definition: the average of t^a g_w over all
    framings a whose sum on every block of A is 0 mod d."""
    n = len(perm)
    kept = [
        a for a in itertools.product(range(d), repeat=n)
        if all(sum(a[j] for j in range(n) if blocks[j] == k) % d == 0 for k in set(blocks))
    ]
    one = LaurentU.from_scalar(Fraction(1, len(kept)))
    return AlgebraElement(d, n, {BasisWord(d, n, a, perm): one for a in kept})


def tie_keys(n: int) -> list[tuple]:
    """Every key (A, w) on n strands: A as canonical block labels, w a permutation."""
    labels = [()]
    for _ in range(n):
        labels = [a + (b,) for a in labels for b in range(max(a, default=-1) + 2)]
    return [(a, w) for a in labels for w in itertools.permutations(range(n))]


def letter_image_oracle(d: int, n: int, letter: int) -> AlgebraElement:
    """g_i for a letter i > 0; for -i, g_i^-1 = u^-1 g_i^2 + g_i - u^-1 from
    the cubic relation, with g_i^2 a ``multiply`` product."""
    g = generator(d, n, abs(letter))
    if letter > 0:
        return g
    uinv = LaurentU.u(-1)
    return multiply(g, g).scale(uinv) + g - AlgebraElement.one(d, n).scale(uinv)


def braid_image_oracle(d: int, b: BraidWord) -> AlgebraElement:
    """The image of a braid in Y_{d,n} as the ``multiply`` product of its
    letters' images, left to right; no braid rewriting is involved."""
    acc = AlgebraElement.one(d, b.strands)
    for letter in b.letters:
        acc = multiply(acc, letter_image_oracle(d, b.strands, letter))
    return acc


@functools.lru_cache(maxsize=None)
def framed_trace_oracle(d: int, fr: tuple[int, ...], perm: tuple[int, ...]) -> TracePolynomial:
    """tr(t^fr g_perm) in Y_{d,n} by the framed word recursion, with every
    product a ``multiply``.  A last strand that perm fixes is stripped with
    x_m for its framing m.  Otherwise g_perm = x g_{n-1} y with x = t^a g_u,
    u fixing the last strand, and y = t_{n-1}^m g_{n-2} ... g_k one strand
    down, where m is the last strand's framing; then tr(x g_{n-1} y) =
    z tr(y x)."""
    n = len(perm)
    if not n:
        return TracePolynomial.one(d)
    last = n - 1
    if perm[last] == last:
        return TracePolynomial.x_var(d, fr[last]) * framed_trace_oracle(d, fr[:last], perm[:last])
    k = perm.index(last)
    # perm = u . c_k for the cycle c_k sending k to the last strand
    u = tuple(perm[j if j < k else j + 1] for j in range(last))
    y_perm = tuple(j if j < k else (last - 1 if j == k else j - 1) for j in range(last))
    x = AlgebraElement.from_word(BasisWord(d, last, fr[:last], u))
    y = AlgebraElement.from_word(BasisWord(d, last, (0,) * (last - 1) + (fr[last],), y_perm))
    total = TracePolynomial.zero(d)
    for w, coeff in multiply(y, x).terms.items():
        total += framed_trace_oracle(d, w.framings, w.perm).scale(coeff)
    return TracePolynomial.z_var(d) * total
