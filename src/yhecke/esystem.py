"""The E-system and its subset-parametrized solutions.

The trace parameters x_1 .. x_{d-1} admit a link invariant only when they
satisfy the d-1 equations E^(m) = x_m E^(0), where

    E^(m) = sum_{s=0}^{d-1} x_{m+s} x_{d-s}      (indices mod d, x_0 = x_d = 1).

Every non-empty subset S of Z/dZ yields a solution by character averages,

    x_k = (1/|S|) sum_{s in S} zeta_d^{s k},

and these exhaust the solutions.  Solutions are stored with their subset:
the trace of the idempotent is then 1/|S|, and liftings along divisors are
subset-level operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .exactnum import Cyclotomic


def e_polynomial(d: int, m: int, values: Sequence[Cyclotomic]) -> Cyclotomic:
    """Exact value of E^(m) = sum_s x_{m+s} x_{d-s} at the given values.

    ``values`` lists x_0 .. x_{d-1} with values[0] = 1; indices are read
    modulo d with x_d = x_0.
    """
    if len(values) != d:
        raise ValueError(f"expected {d} values, got {len(values)}")
    terms = (values[(m + s) % d] * values[(d - s) % d] for s in range(d))
    return sum(terms, Cyclotomic.zero(values[0].order))


def verify_solution(d: int, values: Sequence[Cyclotomic]) -> bool:
    """True iff E^(m) = x_m E^(0) exactly for all 1 <= m <= d-1."""
    if not values[0].is_rational() or values[0].as_fraction() != 1:
        raise ValueError("values[0] must be the constant 1")
    e0 = e_polynomial(d, 0, values)
    return all(
        e_polynomial(d, m, values) == values[m] * e0 for m in range(1, d)
    )


class ESystemError(ValueError):
    """Values built as a solution fail the E-system check; since solutions
    are computed from subsets, this signals an implementation bug."""


@dataclass(frozen=True)
class ESolution:
    """A solution of the E-system: the parametrizing subset of Z/dZ together
    with the exact character-average values x_0 .. x_{d-1}.

    The defining invariant (verify_solution) is re-checked on construction.
    """

    d: int
    subset: frozenset[int]
    values: tuple[Cyclotomic, ...]

    def __post_init__(self):
        if not self.subset:
            raise ValueError("the parametrizing subset must be non-empty")
        if not all(0 <= s < self.d for s in self.subset):
            raise ValueError(f"subset entries must be residues mod {self.d}")
        if len(self.values) != self.d:
            raise ValueError(f"expected {self.d} values, got {len(self.values)}")
        if not verify_solution(self.d, self.values):
            raise ESystemError("values do not satisfy the E-system")

    def __str__(self) -> str:
        return render_subset(self.d, self.subset)


def solution_from_subset(d: int, subset: Iterable[int]) -> ESolution:
    """The solution with x_k = (1/|S|) sum_{s in S} zeta_d^{sk}.

    Each x_k is one character sum: the counts of s k mod d over s in S,
    as a polynomial in zeta_d over |S|, reduced once mod Phi_d.

    >>> solution_from_subset(2, {0, 1}).values[1].is_zero()
    True
    """
    s = frozenset(x % d for x in subset)
    if not s:
        raise ValueError("the parametrizing subset must be non-empty")
    values = []
    for k in range(d):
        counts = [0] * d
        for a in s:
            counts[a * k % d] += 1
        values.append(Cyclotomic.from_powers(d, counts, len(s)))
    return ESolution(d, s, tuple(values))


def zeta_value(sol: ESolution) -> Fraction:
    """The trace of the idempotent under this solution: 1/|S|."""
    return Fraction(1, len(sol.subset))


def lift_subset(d: int, d_prime: int, subset: Iterable[int]) -> frozenset[int]:
    """Lift a subset of Z/dZ to Z/d'Z along d | d'.

    Uses the canonical-representative section {0..d-1}: the lift is
    {a + b : a in S, b a multiple of d below d'}, of size |S| d'/d.

    >>> sorted(lift_subset(2, 4, {0}))
    [0, 2]
    >>> sorted(lift_subset(2, 6, {1}))
    [1, 3, 5]
    """
    if d_prime % d != 0:
        raise ValueError(f"{d} does not divide {d_prime}; cannot lift")
    s = frozenset(x % d for x in subset)
    if not s:
        raise ValueError("the parametrizing subset must be non-empty")
    return frozenset(
        (a + b) % d_prime for a in s for b in range(0, d_prime, d)
    )


def enumerate_subsets(d: int) -> Iterator[frozenset[int]]:
    """All 2^d - 1 non-empty subsets of Z/dZ, in a deterministic order."""
    residues = range(d)
    for size in range(1, d + 1):
        for combo in combinations(residues, size):
            yield frozenset(combo)


def render_subset(d: int, subset: Iterable[int]) -> str:
    """Subsets print as sorted residue lists, e.g. '{0,2} mod 4'."""
    inner = ",".join(str(s) for s in sorted(subset))
    return f"{{{inner}}} mod {d}"
