"""Seeded workload generator for the record benchmark.

A workload is a list of records.  A record is one call of the command line
(``yhecke.cli.main``) on one braid word, with ``--format json``; the
benchmark gives the program nothing but these argument vectors.

Records come in *classes*: presentations of one link (a base braid, its
conjugates and its stabilizations), so the checks can demand identical
outputs within a class without consulting any stored output.  Each workload
is built from whole *rounds*.  The shape of a round (strand counts, lengths,
exponent sums, moduli, class sizes) is fixed, and so are the links, since
the cost of a record follows its link far more than its letters.  The seed
chooses the presentations (rotations, conjugators) in ``writhe_knots`` and
the order of the records in the other workloads.  So runs with different
seeds do nearly the same amount of work, and the number of rounds follows
from the requested run length.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Record:
    """One CLI call.  ``group`` names the Markov class (records of a group
    must give identical results); ``role`` says how the braid was derived;
    ``torus`` is k when the braid is exactly sigma_1^k on 2 strands."""

    argv: tuple[str, ...]
    group: str
    role: str
    torus: int | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    def option(self, name: str) -> str | None:
        if name in self.argv:
            return self.argv[self.argv.index(name) + 1]
        return None


def braid_text(strands: int, letters: tuple[int, ...]) -> str:
    return f"{strands}: " + " ".join(str(k) for k in letters) if letters else f"{strands}:"


def random_word(rng: random.Random, strands: int, length: int, writhe: int) -> tuple[int, ...]:
    """A word of exactly ``length`` letters on ``strands`` strands with
    exponent sum ``writhe`` and no letter next to its own inverse."""
    if (length + writhe) % 2 or abs(writhe) > length:
        raise ValueError(f"no word of length {length} has exponent sum {writhe}")
    positives = (length + writhe) // 2
    signs = [1] * positives + [-1] * (length - positives)
    rng.shuffle(signs)
    word: list[int] = []
    for s in signs:
        choices = [s * i for i in range(1, strands) if not word or word[-1] != -s * i]
        word.append(rng.choice(choices))
    return tuple(word)


def fixed_word(tag: str, strands: int, length: int, writhe: int) -> tuple[int, ...]:
    """A word that depends on ``tag`` only, not on the run's seed: the cost
    of normalizing an invariant depends on the link, and a link drawn per
    seed made the median record cost depend on the seed."""
    return random_word(random.Random(tag), strands, length, writhe)


def rotate(rng: random.Random, b: tuple[int, ...]) -> tuple[int, ...]:
    """A seeded cyclic rotation of a word: a conjugate of the same braid."""
    s = rng.randrange(len(b))
    return b[s:] + b[:s]


def conjugate(w: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return w + b + tuple(-k for k in reversed(w))


def stabilize(strands: int, b: tuple[int, ...], sign: int) -> tuple[int, ...]:
    return b + (sign * strands,)


# ---------------------------------------------------------------------------
# writhe_knots: invariant at small d, where normalization dominates.
# ---------------------------------------------------------------------------

WRITHE_SETTINGS = ((1, "0"), (2, "0"), (2, "0,1"))
# One torus power and one 3-strand exponent sum per (round, setting) slot,
# taken in order; cost rises steeply with |exponent sum|.
TORUS_POWERS = (3, -4, 5, -6, 7, -8, 9, 10, -5, 4, -7, 6)
WRITHE_SUMS = (-3, 4, -2, 5, -1, 3, 0, -4, 2, 1, -3, 4)
# 3-strand unknots sigma_1^a sigma_2^b; the signs set the cost of normalizing
UNKNOTS = ((1, 2), (-1, 2), (1, -2), (-1, -2))


def _writhe_round(rng: random.Random, r: int) -> list[Record]:
    out: list[Record] = []
    for j, (d, subset) in enumerate(WRITHE_SETTINGS):
        slot = (3 * r + j) % len(TORUS_POWERS)
        head = ("invariant", "--d", str(d), "--subset", subset)

        def add(group: str, role: str, n: int, letters: tuple[int, ...], torus=None):
            argv = head + ("--braid", braid_text(n, letters), "--format", "json")
            out.append(Record(argv, f"r{r}.{j}.{group}", role, torus))

        # unknot: a stabilized trivial braid, conjugated and stabilized again
        unknot = UNKNOTS[slot % len(UNKNOTS)]
        add("unknot", "base", 3, unknot)
        add("unknot", "conj", 3, conjugate(random_word(rng, 3, 2, 0), unknot))
        add("unknot", "stab+", 4, stabilize(3, unknot, 1))
        add("unknot", "stab-", 4, stabilize(3, unknot, -1))

        # torus family sigma_1^k
        k = TORUS_POWERS[slot]
        torus = (1 if k > 0 else -1,) * abs(k)
        add("torus", "base", 2, torus, torus=k)
        stab = stabilize(2, torus, 1)
        add("torus", "stab+", 3, stab)
        add("torus", "conj", 3, conjugate(random_word(rng, 3, 1, rng.choice((1, -1))), stab))

        # a 3-strand closure of fixed exponent sum
        eps = WRITHE_SUMS[slot]
        base = rotate(rng, fixed_word(f"writhe:{slot}", 3, 8 if eps % 2 == 0 else 7, eps))
        add("knot3", "base", 3, base)
        for _ in range(2):
            add("knot3", "conj", 3, conjugate(random_word(rng, 3, 2, 0), base))
        add("knot3", "stab+", 4, stabilize(3, base, 1))
        add("knot3", "stab-", 4, stabilize(3, base, -1))
    return out


# ---------------------------------------------------------------------------
# generic_trace_d4: generic traces in Y_{4,4}, where the algebra dominates.
# ---------------------------------------------------------------------------

def words(strands: int, length: int, writhe: int) -> list[tuple[int, ...]]:
    """Every word of the given shape with no letter next to its own inverse."""
    letters = [s * i for i in range(1, strands) for s in (1, -1)]
    return [
        w for w in itertools.product(letters, repeat=length)
        if sum(1 if k > 0 else -1 for k in w) == writhe
        and all(w[i] != -w[i + 1] for i in range(length - 1))
    ]


def _generic_round(rng: random.Random, r: int) -> list[Record]:
    # Every 3-strand word of length 5 and exponent sum -1, each with one fixed
    # rotation of its stabilization, in seeded order.  The cost of a record
    # varies several-fold with its letters, and the words a run reaches set
    # how much the caches must compute; a sample of words, or a seeded choice
    # of rotations, made the work of a run depend on the seed by about 12 %.
    # The order still changes which records find the caches cold.
    classes = [(b0, 1 + j % 5) for j, b0 in enumerate(words(3, 5, -1))]
    rng.shuffle(classes)
    out: list[Record] = []
    for j, (b0, shift) in enumerate(classes):
        group = f"r{r}.{j}"

        def add(d: int, role: str, n: int, letters: tuple[int, ...]):
            argv = ("trace", "--d", str(d), "--braid", braid_text(n, letters), "--format", "json")
            out.append(Record(argv, group, role))

        b = stabilize(3, b0, 1)
        add(4, "base3", 3, b0)
        add(4, "base", 4, b)
        add(4, "conj", 4, b[shift:] + b[:shift])
        add(2, "d2", 4, b)
    return out


# ---------------------------------------------------------------------------
# adelic_chains: invariants along divisor chains.
# ---------------------------------------------------------------------------

ADELIC_TORUS = ((3, -2, 2, -3), (-2, 2, 3, -3))  # per torus slot, by round


def _adelic_round(rng: random.Random, r: int) -> list[Record]:
    # The records of a round are fixed by the round number and run in seeded
    # order.  Seeded presentations made the median record cost depend on the
    # seed by about 14 %: at d up to 8 the cost of a presentation depends on
    # its letters, not only on its link.
    fixed = random.Random(f"adelic:{r}")
    out: list[Record] = []

    def add(group: str, chain: str, subset: str, role: str, n: int,
            letters: tuple[int, ...], torus=None):
        argv = ("adelic", "--chain", chain, "--subset", subset,
                "--braid", braid_text(n, letters), "--format", "json")
        out.append(Record(argv, f"r{r}.{group}", role, torus))

    # torus closures sigma_1^k along two chains, with both stabilizations
    for j, (chain, subset) in enumerate((("2,4,8", "0"), ("3,6", "1"))):
        k = ADELIC_TORUS[j][r % len(ADELIC_TORUS[j])]
        torus = (1 if k > 0 else -1,) * abs(k)
        stab = stabilize(2, torus, 1)
        add(f"torus{j}", chain, subset, "base", 2, torus, torus=k)
        add(f"torus{j}", chain, subset, "stab+", 3, stab)
        add(f"torus{j}", chain, subset, "stab-", 3, stabilize(2, torus, -1))
        add(f"torus{j}", chain, subset, "conj", 3, stab[-1:] + stab[:-1])

    # an unknot presentation and a conjugate
    unknot = UNKNOTS[r % len(UNKNOTS)]
    add("unknot", "2,4", "0", "base", 3, unknot)
    add("unknot", "2,4", "0", "conj", 3, conjugate(random_word(fixed, 3, 1, fixed.choice((1, -1))), unknot))

    # 3-strand knots and links: rotations, and one stabilization on the short chain
    b = random_word(fixed, 3, 4, 0)
    add("knot3a", "3,6", "0,1", "base", 3, rotate(fixed, b))
    add("knot3a", "3,6", "0,1", "conj", 3, rotate(fixed, b))
    b = rotate(fixed, random_word(fixed, 3, 4, 2))
    add("knot3b", "2,4", "1", "base", 3, b)
    add("knot3b", "2,4", "1", "conj", 3, rotate(fixed, b))
    add("knot3b", "2,4", "1", "stab+", 4, stabilize(3, b, 1))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------

# workload -> (round builder, CPU seconds one round took when the rounds were sized)
WORKLOADS = {
    "writhe_knots": (_writhe_round, 7.0),
    "generic_trace_d4": (_generic_round, 20.0),
    "adelic_chains": (_adelic_round, 2.9),
}


def rounds_for(workload: str, seconds: float) -> int:
    """Whole rounds that fill about ``seconds`` of CPU time at the speed the
    benchmark was calibrated on.  The count depends on the requested length
    only, never on the measured speed, so every commit does the same work."""
    return max(1, math.floor(seconds / WORKLOADS[workload][1] + 0.5))


def generate(workload: str, seed: int, seconds: float) -> list[Record]:
    """The records of one run: the same seed and length give the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    records: list[Record] = []
    for r in range(rounds_for(workload, seconds)):
        records.extend(WORKLOADS[workload][0](rng, r))
    return records
