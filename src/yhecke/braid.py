"""Classical braid words: parsing, printing, Markov moves, closure data.

A braid on n strands is a word in the elementary crossings. The letter k
with |k| = i stands for the positive crossing of strands i, i+1 when k > 0
and for its inverse when k < 0.  The text format is ``[n:] k1 k2 ...`` with
an optional strand-count header; without a header the strand count is
1 + max|k| (and 1 for the empty word).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator


class BraidParseError(ValueError):
    """Malformed braid text; ``position`` is the 1-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at character {position})")
        self.position = position


@dataclass(frozen=True)
class BraidWord:
    """An n-strand braid as a signed generator sequence.

    The empty letter sequence is the identity braid; every letter k must
    satisfy 1 <= |k| <= strands - 1.
    """

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError(f"strand count must be positive, got {self.strands}")
        for k in self.letters:
            if k == 0:
                raise ValueError("braid letters must be nonzero")
            if abs(k) > self.strands - 1:
                raise ValueError(
                    f"letter {k} needs at least {abs(k) + 1} strands, braid has {self.strands}"
                )

    def __str__(self) -> str:
        return format_braid(self)


_TOKEN = re.compile(r"\S+")
_HEADER = re.compile(r"^(\d+):$")
_INT = re.compile(r"^[+-]?\d+$")


def parse_braid(text: str) -> BraidWord:
    """Parse ``[n:] k1 k2 ...`` into a BraidWord.

    >>> parse_braid("1 1 1")
    BraidWord(strands=2, letters=(1, 1, 1))
    >>> parse_braid("3:")
    BraidWord(strands=3, letters=())
    >>> parse_braid("2 -1 2 -1").strands
    3
    """
    tokens = list(_TOKEN.finditer(text))
    strands: int | None = None
    start = 0
    if tokens:
        m = _HEADER.match(tokens[0].group())
        if m:
            strands = int(m.group(1))
            if strands < 1:
                raise BraidParseError(
                    f"strand count header must be positive, got {strands}",
                    tokens[0].start() + 1,
                )
            start = 1
    letters = []
    for tok in tokens[start:]:
        pos = tok.start() + 1
        word = tok.group()
        if not _INT.match(word):
            raise BraidParseError(f"malformed token {word!r}", pos)
        k = int(word)
        if k == 0:
            raise BraidParseError("letter 0 is not a braid generator", pos)
        if strands is not None and abs(k) > strands - 1:
            raise BraidParseError(
                f"letter {k} exceeds the {strands - 1} generators of a "
                f"{strands}-strand braid",
                pos,
            )
        letters.append(k)
    if strands is None:
        strands = 1 + max((abs(k) for k in letters), default=0)
    return BraidWord(strands, tuple(letters))


def format_braid(b: BraidWord) -> str:
    """Inverse of parse_braid: always emits the strand-count header."""
    if not b.letters:
        return f"{b.strands}:"
    return f"{b.strands}: " + " ".join(str(k) for k in b.letters)


def exponent_sum(b: BraidWord) -> int:
    """Algebraic sum of the letter exponents.

    >>> exponent_sum(parse_braid("1 1 1"))
    3
    >>> exponent_sum(parse_braid("1:"))
    0
    >>> exponent_sum(parse_braid("-1 -1 -1"))
    -3
    """
    return sum(1 if k > 0 else -1 for k in b.letters)


def inverse_word(b: BraidWord) -> BraidWord:
    """The group inverse: letters reversed and negated."""
    return BraidWord(b.strands, tuple(-k for k in reversed(b.letters)))


def markov_conjugate(b: BraidWord, w: BraidWord) -> BraidWord:
    """The conjugate w * b * w^-1 as a concatenated word."""
    if b.strands != w.strands:
        raise ValueError(
            f"strand mismatch: braid has {b.strands}, conjugator has {w.strands}"
        )
    return BraidWord(b.strands, w.letters + b.letters + inverse_word(w).letters)


def markov_stabilize(b: BraidWord, sign: int) -> BraidWord:
    """Append a crossing on a fresh strand: b in B_n goes to b*s_n^sign in B_{n+1}."""
    if sign not in (1, -1):
        raise ValueError(f"stabilization sign must be +1 or -1, got {sign}")
    return BraidWord(b.strands + 1, b.letters + (sign * b.strands,))


def cyclic_reduce(b: BraidWord) -> BraidWord:
    """Cancel adjacent inverse letters, also across the ends of the word:
    a conjugate of b on the same strands.

    >>> cyclic_reduce(parse_braid("-2 1 2 -2 1 1 2"))
    BraidWord(strands=3, letters=(1, 1, 1))
    """
    out: list[int] = []
    for k in b.letters:
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    i, j = 0, len(out)
    while j - i > 1 and out[i] == -out[j - 1]:
        i, j = i + 1, j - 1
    return BraidWord(b.strands, tuple(out[i:j]))


def markov_reduce(b: BraidWord) -> BraidWord:
    """A braid with the same closure, reduced by Markov moves until none
    applies: ``cyclic_reduce``, then, when the letter +-(n-1) occurs once,
    rotate it to the end and drop it with strand n; else the same at strand 1,
    with the other letters shifted down.

    >>> markov_reduce(parse_braid("1 2 2 2 -1 1"))
    BraidWord(strands=2, letters=(1, 1, 1))
    >>> markov_reduce(parse_braid("1 -2"))
    BraidWord(strands=1, letters=())
    """
    while True:
        b = cyclic_reduce(b)
        n, letters = b.strands, b.letters
        for top, shift in ((n - 1, 0), (1, 1)):
            at = [i for i, k in enumerate(letters) if abs(k) == top]
            if len(at) == 1:
                rest = letters[at[0] + 1:] + letters[:at[0]]
                b = BraidWord(n - 1, tuple(k - shift if k > 0 else k + shift for k in rest))
                break
        else:
            return b


def underlying_permutation(b: BraidWord) -> tuple[int, ...]:
    """One-line notation (0-based) of the permutation induced on the strands."""
    p = list(range(b.strands))
    for k in b.letters:
        i = abs(k) - 1
        p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def closure_component_count(b: BraidWord) -> int:
    """Number of link components of the closed braid: cycles of the
    underlying permutation.

    >>> closure_component_count(parse_braid("1 1 1"))
    1
    >>> closure_component_count(parse_braid("1 1"))
    2
    >>> closure_component_count(parse_braid("3:"))
    3
    """
    perm = underlying_permutation(b)
    seen = [False] * len(perm)
    count = 0
    for i in range(len(perm)):
        if seen[i]:
            continue
        count += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return count


# ---------------------------------------------------------------------------
# Corpus files: one record per line, "name;braidword", UTF-8, '#' comments.
# ---------------------------------------------------------------------------

class CorpusRecordError(ValueError):
    """A single bad corpus record; carries the line number."""

    def __init__(self, message: str, lineno: int):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_corpus_line(line: str, lineno: int = 0) -> tuple[str, BraidWord] | None:
    """Parse one corpus record; returns None for blank lines and comments."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    if ";" not in stripped:
        raise CorpusRecordError("missing ';' between name and braid word", lineno)
    name, word = stripped.split(";", 1)
    name = name.strip()
    if not name:
        raise CorpusRecordError("empty record name", lineno)
    try:
        return name, parse_braid(word)
    except BraidParseError as exc:
        raise CorpusRecordError(f"bad braid word for {name!r}: {exc}", lineno) from exc


def iter_corpus(lines: Iterable[str]) -> Iterator[tuple[int, str, "BraidWord | CorpusRecordError"]]:
    """Yield (lineno, name, braid-or-error) for each record, skipping comments.

    Bad records are yielded as CorpusRecordError values (name '?') rather
    than raised, so one bad record does not abort a batch.
    """
    for lineno, line in enumerate(lines, start=1):
        try:
            rec = parse_corpus_line(line, lineno)
        except CorpusRecordError as exc:
            yield lineno, "?", exc
            continue
        if rec is not None:
            yield lineno, rec[0], rec[1]
