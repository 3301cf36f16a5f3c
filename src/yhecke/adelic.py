"""Finite divisor-chain truncations of the inverse-limit (adelic) layer.

An inverse system indexed by divisibility connects the algebras and trace
codomains at different moduli:

- theta reduces residues mod d' to residues mod d;
- rho maps Y_{d',n} onto Y_{d,n} by reducing framings (g-parts untouched);
- xi renames trace variables x_a to x_{a mod d} (x_0 becomes 1).

A coherent element (or trace) over a divisor chain d_1 | d_2 | ... | d_k is
a tuple of per-level values compatible under rho (or xi).  Constructors
verify coherence and reject violations: the commuting of the connecting
diagrams is an enforced invariant, not a user obligation.  Completed
profinite objects are never materialized; only these finite shadows are.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord
from .esystem import lift_subset
from .exactnum import LaurentU, TracePolynomial
from .invariant import InvariantValue, delta_invariant
from .trace import markov_trace
from .yokonuma import AlgebraElement, represent_braid


class DivisibilityError(ValueError):
    """A connecting map was requested along non-dividing moduli."""


class CoherenceError(RuntimeError):
    """A coherence invariant failed; this signals an implementation bug."""


@dataclass(frozen=True)
class DivisorChain:
    """An increasing chain d_1 | d_2 | ... | d_k of positive integers."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("divisor chain must be non-empty")
        for d in self.entries:
            if d < 1:
                raise ValueError(f"chain entries must be positive, got {d}")
        for a, b in zip(self.entries, self.entries[1:]):
            if b % a != 0 or b <= a:
                raise ValueError(
                    f"chain entries must strictly increase by divisibility; got {a} before {b}"
                )

    @staticmethod
    def parse(text: str) -> DivisorChain:
        """Parse the CLI syntax '2,4,8'.

        >>> DivisorChain.parse("2,4,8").entries
        (2, 4, 8)
        >>> DivisorChain.parse("2,3")
        Traceback (most recent call last):
        ...
        ValueError: chain entries must strictly increase by divisibility; got 2 before 3
        """
        try:
            entries = tuple(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise ValueError(f"malformed divisor chain {text!r}") from exc
        return DivisorChain(entries)

    def __str__(self) -> str:
        return ",".join(str(d) for d in self.entries)


def _check_divides(d: int, d_prime: int):
    if d_prime % d != 0:
        raise DivisibilityError(f"{d} does not divide {d_prime}")


def theta(d: int, d_prime: int, m: int) -> int:
    """Residue reduction Z/d'Z -> Z/dZ along d | d'.

    >>> theta(4, 12, 7)
    3
    >>> theta(4, 6, 1)
    Traceback (most recent call last):
    ...
    yhecke.adelic.DivisibilityError: 4 does not divide 6
    """
    _check_divides(d, d_prime)
    return m % d


def rho(d: int, d_prime: int, a: AlgebraElement) -> AlgebraElement:
    """The connecting ring map Y_{d',n} -> Y_{d,n}: framings reduce mod d,
    permutation parts and coefficients are untouched, like terms collect.

    t_1^3 g_1 in Y_{4,2} reduces to t_1 g_1 in Y_{2,2}, and the two framings
    of t_1^2 + t_2^2 both reduce to 0:

    >>> from yhecke.yokonuma import framing_generator, generator
    >>> str(rho(2, 4, framing_generator(4, 2, 1, 3) * generator(4, 2, 1)))
    't1*g1'
    >>> str(rho(2, 4, framing_generator(4, 2, 1, 2) + framing_generator(4, 2, 2, 2)))
    '2'
    """
    _check_divides(d, d_prime)
    if a.d != d_prime:
        raise ValueError(f"element lives in Y_({a.d},{a.n}), expected modulus {d_prime}")
    out: dict[tuple, dict[int, int]] = {}
    for (fr, perm), poly in a.int_terms.items():
        dst = out.setdefault((tuple(f % d for f in fr), perm), {})
        for e, c in poly.items():
            dst[e] = dst.get(e, 0) + c
    return AlgebraElement.from_ints(d, a.n, out, a.den)


def xi(d: int, d_prime: int, p: TracePolynomial) -> TracePolynomial:
    """The connecting map on trace codomains: x_a -> x_{a mod d} (x_0 -> 1),
    z and u untouched, like terms collected."""
    _check_divides(d, d_prime)
    if p.order != d_prime:
        raise ValueError(f"trace polynomial has order {p.order}, expected {d_prime}")
    acc: dict[tuple[int, tuple[int, ...]], LaurentU] = {}
    for (ze, xe), c in p.terms:
        new_xe = [0] * (d - 1)
        for idx, e in enumerate(xe):
            if e:
                target = (idx + 1) % d
                if target:
                    new_xe[target - 1] += e
        mono = (ze, tuple(new_xe))
        prev = acc.get(mono)
        acc[mono] = c if prev is None else prev + c
    return TracePolynomial.from_dict(d, acc)


def _check_coherent(chain: DivisorChain, parts: tuple, kind: str, mismatch, connect):
    """Check one part per chain entry, each at its entry's modulus
    (``mismatch(d, part)`` is the complaint about a part that is not, or
    empty), and the connecting map ``connect`` between neighbouring parts."""
    entries = chain.entries
    if len(parts) != len(entries):
        raise ValueError(f"one {kind} is required per chain entry")
    for d, part in zip(entries, parts):
        if complaint := mismatch(d, part):
            raise ValueError(complaint)
    for j in range(len(entries) - 1):
        if connect(entries[j], entries[j + 1], parts[j + 1]) != parts[j]:
            raise CoherenceError(
                f"parts at moduli {entries[j]} | {entries[j + 1]} are not {connect.__name__}-coherent"
            )


@dataclass(frozen=True)
class CoherentElement:
    """A tuple of algebra elements along a chain, coherent under rho."""

    chain: DivisorChain
    parts: tuple[AlgebraElement, ...]

    def __post_init__(self):
        def mismatch(d: int, part: AlgebraElement) -> str:
            n = self.parts[0].n
            if part.d != d or part.n != n:
                return f"part in Y_({part.d},{part.n}) does not match chain entry {d} on {n} strands"
            return ""

        _check_coherent(self.chain, self.parts, "algebra element", mismatch, rho)


@dataclass(frozen=True)
class CoherentTrace:
    """A tuple of trace polynomials along a chain, coherent under xi."""

    chain: DivisorChain
    parts: tuple[TracePolynomial, ...]

    def __post_init__(self):
        def mismatch(d: int, part: TracePolynomial) -> str:
            if part.order != d:
                return f"trace polynomial of order {part.order} does not match chain entry {d}"
            return ""

        _check_coherent(self.chain, self.parts, "trace polynomial", mismatch, xi)


def coherent_represent(chain: DivisorChain, b: BraidWord) -> CoherentElement:
    """Represent a braid at every level of the chain; the construction
    checks that reduction of framings commutes with representation."""
    parts = tuple(represent_braid(d, b) for d in chain.entries)
    return CoherentElement(chain, parts)


def adelic_trace(ce: CoherentElement) -> CoherentTrace:
    """Trace a coherent element levelwise; output coherence (the trace
    diagram commuting) is verified on construction."""
    parts = tuple(markov_trace(part) for part in ce.parts)
    return CoherentTrace(ce.chain, parts)


def adelic_delta(
    chain: DivisorChain, subset, b: BraidWord
) -> tuple[InvariantValue, ...]:
    """The truncated adelic invariant: the tuple of per-level invariants for
    the liftings of a base subset S of Z/d_1 Z along the chain.

    Lift transitivity makes the liftings mutually coherent; level j reads
    only |S_j| = |S| d_j/d_1, and no solution in Q(zeta_{d_j}) is built.
    """
    d1 = chain.entries[0]
    return tuple(delta_invariant(d, lift_subset(d1, d, subset), b) for d in chain.entries)
