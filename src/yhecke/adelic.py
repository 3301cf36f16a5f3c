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
from .esystem import lift_subset, solution_from_subset
from .exactnum import LaurentU, TracePolynomial
from .invariant import InvariantValue, delta_invariant
from .trace import markov_trace
from .yokonuma import AlgebraElement, BasisWord, represent_braid


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
        """Parse the CLI syntax '2,4,8'."""
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
    """Residue reduction Z/d'Z -> Z/dZ along d | d'."""
    _check_divides(d, d_prime)
    return m % d


def rho(d: int, d_prime: int, a: AlgebraElement) -> AlgebraElement:
    """The connecting ring map Y_{d',n} -> Y_{d,n}: framings reduce mod d,
    permutation parts and coefficients are untouched, like terms collect."""
    _check_divides(d, d_prime)
    if a.d != d_prime:
        raise ValueError(f"element lives in Y_({a.d},{a.n}), expected modulus {d_prime}")
    out: dict[BasisWord, dict[int, int]] = {}
    for w, poly in a.int_terms.items():
        dst = out.setdefault(BasisWord(d, a.n, tuple(f % d for f in w.framings), w.perm), {})
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


@dataclass(frozen=True)
class CoherentElement:
    """A tuple of algebra elements along a chain, coherent under rho."""

    chain: DivisorChain
    parts: tuple[AlgebraElement, ...]

    def __post_init__(self):
        entries = self.chain.entries
        if len(self.parts) != len(entries):
            raise ValueError("one algebra element is required per chain entry")
        n = self.parts[0].n
        for d, part in zip(entries, self.parts):
            if part.d != d or part.n != n:
                raise ValueError(
                    f"part in Y_({part.d},{part.n}) does not match chain entry {d} on {n} strands"
                )
        for j in range(len(entries) - 1):
            if rho(entries[j], entries[j + 1], self.parts[j + 1]) != self.parts[j]:
                raise CoherenceError(
                    f"parts at moduli {entries[j]} | {entries[j + 1]} are not rho-coherent"
                )


@dataclass(frozen=True)
class CoherentTrace:
    """A tuple of trace polynomials along a chain, coherent under xi."""

    chain: DivisorChain
    parts: tuple[TracePolynomial, ...]

    def __post_init__(self):
        entries = self.chain.entries
        if len(self.parts) != len(entries):
            raise ValueError("one trace polynomial is required per chain entry")
        for d, part in zip(entries, self.parts):
            if part.order != d:
                raise ValueError(
                    f"trace polynomial of order {part.order} does not match chain entry {d}"
                )
        for j in range(len(entries) - 1):
            if xi(entries[j], entries[j + 1], self.parts[j + 1]) != self.parts[j]:
                raise CoherenceError(
                    f"parts at moduli {entries[j]} | {entries[j + 1]} are not xi-coherent"
                )


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

    Lift transitivity makes the liftings mutually coherent; each level uses
    its own zeta = 1/|S_j| = d_1/(|S| d_j).
    """
    d1 = chain.entries[0]
    base = frozenset(subset)
    out = []
    for d in chain.entries:
        lifted = lift_subset(d1, d, base)
        sol = solution_from_subset(d, lifted)
        out.append(delta_invariant(d, sol, b))
    return tuple(out)
