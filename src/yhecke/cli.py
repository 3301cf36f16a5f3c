"""Command-line front end.

Subcommands
-----------
- ``invariant``: the 2-variable invariant of a braid closure at (d, S), which
  reads only |S mod d|;
- ``trace``: the Markov trace of a braid image, generic or at (d, S);
- ``esystem``: enumerate or verify E-system solutions for a modulus, the one
  command that builds their values in Q(zeta_d);
- ``adelic``: per-level invariants along a divisor chain with lifted subsets;
- ``verify``: seeded property suites (relations, markov, skein, esystem,
  adelic-coherence).

``invariant``, ``trace`` and ``adelic`` check their parameters, then share
one record loop (``_run_records``) over an inline braid or a corpus: it
reports bad corpus records, prefixes corpus text lines with the record name
and writes the JSON document.

Results go to stdout, diagnostics (argparse's usage messages included) to
stderr.  Exit codes: 0 success, 1 parse/validation error or a stdout closed
early (silently), 2 mathematical precondition violation, 3 internal
coherence failure.  Output for a fixed input and seed is byte-identical
across runs; numeric evaluation (--eval-u/--eval-z) is double precision and
labeled approximate, and tells a pole (an exact denominator vanishes at the
binary values of u and z) from a value double precision cannot represent.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .adelic import (
    CoherenceError,
    DivisorChain,
    adelic_delta,
    rho,
    xi,
)
from .braid import (
    BraidParseError,
    BraidWord,
    CorpusRecordError,
    closure_component_count,
    exponent_sum,
    format_braid,
    iter_corpus,
    markov_conjugate,
    markov_stabilize,
    parse_braid,
)
from .esystem import (
    ESystemError,
    enumerate_subsets,
    lift_subset,
    reduce_subset,
    render_subset,
    solution_from_subset,
    zeta_value,
)
from .exactnum import (
    Cyclotomic,
    DenominatorFamilyError,
    LaurentU,
    PolyUZ,
    RatFunc,
    TracePolynomial,
    euler_phi,
)
from .invariant import (
    InvariantValue,
    delta_invariant,
    evaluate_numeric,
    lambda_param,
    skein_check,
)
from .trace import markov_trace, trace_of_braid
from .yokonuma import (
    AlgebraElement,
    BasisWord,
    generator,
    idempotent_e,
    multiply,
    represent_braid,
)

SEED_ENV = "YHECKE_SEED"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_COHERENCE = 3


class UsageError(ValueError):
    """Bad syntax in an argument value (exit code 1)."""


class PreconditionError(ValueError):
    """Well-formed input that violates a mathematical precondition (exit 2)."""


# The largest modulus d where the output or the work grows with d itself: a
# JSON body pads each coefficient to phi(d) entries, the generic trace carries
# x_1..x_{d-1}, esystem builds Q(zeta_d), and adelic level d_j lifts S to
# |S| d_j / d_1 residues.  Text-mode invariant and trace --subset read only
# |S mod d| and take any d.
MAX_MODULUS = 10_000


def _check_modulus(d: int):
    """Exit 2, before any work, for a modulus above ``MAX_MODULUS``."""
    if d > MAX_MODULUS:
        raise PreconditionError(f"modulus d = {d} is above the limit {MAX_MODULUS} for this output")


# ---------------------------------------------------------------------------
# JSON encoding of exact values: rationals as "p/q" strings, cyclotomic
# coefficients as arrays in the power basis of zeta_d.  The rational
# coefficients of invariant bodies keep that array shape: [q, "0", ...],
# phi(d) entries long.
# ---------------------------------------------------------------------------

def _json_fraction(q: Fraction) -> str:
    return str(q)


def _json_cyclotomic(c: Cyclotomic) -> list[str]:
    return [_json_fraction(x) for x in c.coeffs]


def _json_laurent(c: LaurentU) -> list[list]:
    return [[e, _json_fraction(q)] for e, q in c.terms]


def _json_trace_poly(p: TracePolynomial) -> dict:
    return {
        "order": p.order,
        "terms": [
            {"z": ze, "x": list(xe), "coeff": _json_laurent(c)}
            for (ze, xe), c in p.terms
        ],
    }


def _json_poly_uz(p: PolyUZ, d: int) -> list[dict]:
    zeros = ["0"] * (euler_phi(d) - 1)
    return [
        {"u": ue, "z": ze, "coeff": [_json_fraction(c), *zeros]} for (ue, ze), c in p.terms
    ]


def _json_ratfunc(f: RatFunc, d: int) -> dict:
    return {
        "order": d,
        "numerator": _json_poly_uz(f.num, d),
        "denominator": _json_poly_uz(f.den, d),
    }


def _json_invariant(v: InvariantValue) -> dict:
    return {
        "order": v.order,
        "halfLambda": v.half,
        "body": _json_ratfunc(v.body, v.order),
    }


def _json_complex(x: complex) -> dict:
    return {"re": x.real, "im": x.imag, "note": "approximate"}


# ---------------------------------------------------------------------------
# Argument helpers.
# ---------------------------------------------------------------------------

def _parse_subset(text: str, d: int) -> frozenset[int]:
    try:
        parts = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"malformed subset {text!r}: expected comma-separated integers") from exc
    return reduce_subset(d, parts)


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise UsageError(f"malformed complex number {text!r}") from exc
    if not cmath.isfinite(value):
        raise UsageError(f"complex number {text!r} is not finite")
    return value


def _load_braids(args) -> list[tuple[str, "BraidWord | CorpusRecordError"]]:
    """Braid source: inline word or corpus file; corpus errors are kept as
    records so the batch continues."""
    if args.braid is not None:
        try:
            return [("braid", parse_braid(args.braid))]
        except BraidParseError as exc:
            raise UsageError(f"bad braid word: {exc}") from exc
    if args.corpus is None:
        raise UsageError("a braid source is required: --braid or --corpus")
    try:
        with open(args.corpus, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read corpus file {args.corpus!r}: {exc}") from exc
    return [(name, rec) for _, name, rec in iter_corpus(lines)]


def _numeric_point(args) -> "tuple[complex, complex] | None":
    if (args.eval_u is None) != (args.eval_z is None):
        raise UsageError("--eval-u and --eval-z must be given together")
    if args.eval_u is None:
        return None
    return _parse_complex(args.eval_u), _parse_complex(args.eval_z)


def _vanishes_at(p: PolyUZ, u: complex, z: complex) -> bool:
    """Whether p is exactly zero at the binary values of u and z, computed
    in Q(i) = Q(zeta_4)."""
    i = Cyclotomic.root(4, 1)
    u, z = (Fraction(x.real) + i * Fraction(x.imag) for x in (u, z))
    return sum((u**ue * z**ze * c for (ue, ze), c in p.terms), Cyclotomic.zero(4)).is_zero()


def _approx(point: tuple[complex, complex], dens: Sequence[PolyUZ], evaluate, *args) -> dict:
    """The labeled approximate value ``evaluate(*args, u, z)``, whose exact
    denominators are ``dens``.  A pole there, or a value that double
    precision cannot represent, is a precondition violation."""
    at = f"u={point[0]}, z={point[1]}"
    try:
        value = evaluate(*args, *point)
    except ZeroDivisionError as exc:
        if any(_vanishes_at(den, *point) for den in dens):
            raise PreconditionError(f"{at} is a pole ({exc})") from exc
        raise PreconditionError(f"the value at {at} is not representable in double precision ({exc})") from exc
    except OverflowError as exc:
        raise PreconditionError(f"the value at {at} overflows double precision ({exc})") from exc
    if not cmath.isfinite(value):
        raise PreconditionError(f"the value at {at} is not finite in double precision")
    return _json_complex(value)


def _approx_lines(point: "tuple[complex, complex] | None", fields: dict) -> list[str]:
    """The text line of ``fields["approx"]``, when a point was given."""
    if point is None:
        return []
    approx = fields["approx"]
    return [f"approx at u={point[0]}, z={point[1]}: {approx['re']:.12g}{approx['im']:+.12g}j (approximate)"]


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _run_records(args, out, err, record, document: "str | None" = None) -> int:
    """The record loop of the braid subcommands.

    ``record(braid)`` computes the record and returns two functions: one
    giving its JSON fields, called only in JSON mode, and one giving its text
    lines, called only in text mode.  Bad corpus records are reported on
    ``err`` and kept in the JSON as errors; corpus text lines carry a
    ``name: `` prefix.  The JSON document is the list of entries for
    a corpus, else the single entry, or its field ``document`` when given.
    """
    text = args.format == "text"
    results = []
    for name, rec in _load_braids(args):
        if isinstance(rec, CorpusRecordError):
            print(f"skipped: {rec}", file=err)
            results.append({"name": name, "error": str(rec)})
            continue
        try:
            fields, lines = record(rec)
        except RecursionError as exc:
            # the trace recurses once per strand
            raise PreconditionError(f"a braid on {rec.strands} strands is too deep to trace") from exc
        if text:
            prefix = f"{name}: " if args.corpus else ""
            for line in lines():
                print(prefix + line, file=out)
        else:
            results.append({"name": name, "braid": format_braid(rec), **fields()})
    if not text:
        payload = results if args.corpus else results[0]
        if document is not None and not args.corpus:
            payload = payload[document]
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    return EXIT_OK


def _cmd_invariant(args, out, err) -> int:
    d = args.d
    if args.format == "json":
        _check_modulus(d)
    subset = _parse_subset(args.subset, d)
    point = _numeric_point(args)

    def record(braid):
        value = delta_invariant(d, subset, braid)
        approx = {}
        if point is not None:
            dens = (value.body.den, lambda_param(d, subset).den)
            approx["approx"] = _approx(point, dens, evaluate_numeric, value, subset)

        def fields():
            return {
                "d": d,
                "subset": sorted(subset),
                "components": closure_component_count(braid),
                "exponentSum": exponent_sum(braid),
                "invariant": _json_invariant(value),
                **approx,
            }

        return fields, lambda: [
            f"Delta[{render_subset(d, subset)}]({format_braid(braid)}) = {value}", *_approx_lines(point, approx)
        ]

    return _run_records(args, out, err, record)


def _cmd_trace(args, out, err) -> int:
    d = args.d
    if args.subset is None or args.format == "json":
        _check_modulus(d)
    subset = None if args.subset is None else _parse_subset(args.subset, d)
    point = _numeric_point(args)
    if point is not None and subset is None:
        raise PreconditionError("numeric evaluation of a trace requires --subset")

    def record(braid):
        value = trace_of_braid(d, braid, subset)
        approx = {}
        if point is not None:
            approx["approx"] = _approx(point, (value.den,), value.eval_complex)

        def fields():
            if subset is None:
                return {"d": d, "trace": _json_trace_poly(value)}
            return {"d": d, "subset": sorted(subset), "trace": _json_ratfunc(value, d), **approx}

        return fields, lambda: [f"tr_{d}({format_braid(braid)}) = {value}", *_approx_lines(point, approx)]

    return _run_records(args, out, err, record)


def _cmd_esystem(args, out, err) -> int:
    d = args.d
    _check_modulus(d)
    if args.enumerate:
        subsets = list(enumerate_subsets(d))
    elif args.subset is not None:
        subsets = [_parse_subset(args.subset, d)]
    else:
        raise UsageError("esystem requires --enumerate or --subset")
    results = []
    for subset in subsets:
        # the constructor checks the E-system and raises ESystemError (exit 3)
        sol = solution_from_subset(d, subset)
        entry = {
            "d": d,
            "subset": sorted(subset),
            "zeta": _json_fraction(zeta_value(sol)),
            "values": [_json_cyclotomic(v) for v in sol.values],
            "verified": True,
        }
        results.append(entry)
        if args.format == "text":
            vals = ", ".join(str(v) for v in sol.values)
            print(
                f"{render_subset(d, subset)}: x = [{vals}], zeta = {zeta_value(sol)} [ok]",
                file=out,
            )
    if args.format == "json":
        print(json.dumps(results, indent=2, sort_keys=True), file=out)
    return EXIT_OK


def _cmd_adelic(args, out, err) -> int:
    chain = _parse_chain(args.chain)
    _check_modulus(chain.entries[-1])  # the chain increases
    d1 = chain.entries[0]
    subset = _parse_subset(args.subset, d1)
    lifts = [(d, lift_subset(d1, d, subset)) for d in chain.entries]

    def record(braid):
        levels = list(zip(lifts, adelic_delta(chain, subset, braid)))

        def fields():
            return {"chain": list(chain.entries), "levels": [
                {"d": d, "subset": sorted(lifted), "invariant": _json_invariant(value)} for (d, lifted), value in levels
            ]}

        return fields, lambda: [
            f"Delta[{render_subset(d, lifted)}]({format_braid(braid)}) = {value}" for (d, lifted), value in levels
        ]

    # a single braid renders as the bare array of per-level invariants
    return _run_records(args, out, err, record, document="levels")


def _parse_chain(text: str) -> DivisorChain:
    try:
        return DivisorChain.parse(text)
    except ValueError as exc:
        if "malformed" in str(exc):
            raise UsageError(str(exc)) from exc
        raise PreconditionError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Verification suites (seeded, deterministic).
# ---------------------------------------------------------------------------

def _random_braid(rng: random.Random, n_max: int = 4, len_max: int = 6) -> BraidWord:
    n = rng.randint(2, n_max)
    gens = [k for k in range(-(n - 1), n) if k != 0]
    letters = tuple(rng.choice(gens) for _ in range(rng.randint(1, len_max)))
    return BraidWord(n, letters)


def _random_element(rng: random.Random, d: int, n: int, max_terms: int = 3) -> AlgebraElement:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        fr = tuple(rng.randrange(d) for _ in range(n))
        perm = list(range(n))
        rng.shuffle(perm)
        coeff = LaurentU.from_dict(
            {rng.randint(-2, 2): Fraction(rng.randint(-3, 3))}
        )
        if coeff.is_zero():
            coeff = LaurentU.from_scalar(1)
        terms[BasisWord(d, n, fr, tuple(perm))] = coeff
    return AlgebraElement(d, n, terms)


def _suite_relations(rng, report) -> bool:
    from .exactnum import laurent_u_minus_one

    ok = True
    for d in (1, 2, 3):
        for n in (2, 3):
            one = AlgebraElement.one(d, n)
            for i in range(1, n):
                g = generator(d, n, i)
                e = idempotent_e(d, n, i)
                w = laurent_u_minus_one()
                quad = multiply(g, g) == one + e.scale(w) - multiply(e, g).scale(w)
                ok &= report(f"quadratic relation d={d} n={n} i={i}", quad)
            for i in range(1, n - 1):
                g1, g2 = generator(d, n, i), generator(d, n, i + 1)
                braid_rel = multiply(multiply(g1, g2), g1) == multiply(multiply(g2, g1), g2)
                ok &= report(f"braid relation d={d} n={n} i={i}", braid_rel)
    return ok


def _suite_markov(rng, report) -> bool:
    ok = True
    for d, subset in ((1, {0}), (2, {0, 1}), (3, {0, 1})):
        for trial in range(5):
            b = _random_braid(rng, n_max=3, len_max=5)
            w = BraidWord(b.strands, _random_braid(rng, n_max=2, len_max=4).letters if b.strands >= 2 else ())
            w = BraidWord(b.strands, tuple(k for k in w.letters if abs(k) <= b.strands - 1))
            base = delta_invariant(d, subset, b)
            conj = delta_invariant(d, subset, markov_conjugate(b, w))
            stab = delta_invariant(d, subset, markov_stabilize(b, rng.choice((1, -1))))
            ok &= report(
                f"markov invariance d={d} S={sorted(subset)} trial={trial}",
                base == conj == stab,
            )
    return ok


def _suite_skein(rng, report) -> bool:
    ok = True
    for d, subset in ((1, {0}), (2, {0}), (3, {0, 1})):
        for trial in range(5):
            b = _random_braid(rng, n_max=3, len_max=5)
            i = rng.randrange(len(b.letters))
            ok &= report(
                f"skein relation d={d} S={sorted(subset)} trial={trial}",
                skein_check(d, subset, b, i),
            )
    return ok


def _suite_esystem(rng, report) -> bool:
    ok = True
    for d in range(1, 7):
        # building a solution verifies it; a failed check raises ESystemError (exit 3)
        ok &= report(f"esystem solutions exhaustive d={d}", all(solution_from_subset(d, S) for S in enumerate_subsets(d)))
    return ok


def _suite_adelic(rng, report) -> bool:
    ok = True
    for d, dp in ((1, 2), (2, 4), (3, 6)):
        for trial in range(5):
            b = _random_braid(rng, n_max=3, len_max=5)
            upper = represent_braid(dp, b)
            lower = represent_braid(d, b)
            ok &= report(
                f"representation diagram {d}|{dp} trial={trial}",
                rho(d, dp, upper) == lower,
            )
            a = _random_element(rng, dp, rng.randint(2, 3))
            ok &= report(
                f"trace diagram {d}|{dp} trial={trial}",
                xi(d, dp, markov_trace(a)) == markov_trace(rho(d, dp, a)),
            )
    return ok


_SUITES = {
    "relations": _suite_relations,
    "markov": _suite_markov,
    "skein": _suite_skein,
    "esystem": _suite_esystem,
    "adelic-coherence": _suite_adelic,
}


def _cmd_verify(args, out, err) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    seed = args.seed
    if seed is None:
        text = os.environ.get(SEED_ENV, "0")
        try:
            seed = int(text)
        except ValueError as exc:
            raise UsageError(f"malformed ${SEED_ENV} {text!r}: expected an integer") from exc
    rng = random.Random(seed)
    all_ok = True

    def report(label: str, passed: bool) -> bool:
        print(f"{'ok  ' if passed else 'FAIL'} {label}", file=out)
        return passed

    for name in names:
        ok = _SUITES[name](rng, report)
        print(f"suite {name}: {'PASS' if ok else 'FAIL'} (seed={seed})", file=out)
        all_ok &= ok
    return EXIT_OK if all_ok else EXIT_COHERENCE


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and reused:
    parsing leaves it unchanged, and environment defaults are read by the
    subcommands, not frozen into it."""
    parser = argparse.ArgumentParser(
        prog="yhecke",
        description="Exact link invariants from Markov traces on Y_{d,n}(u).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_braid_source(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--braid", help="inline braid word, e.g. '1 1 1' or '3: 1 -2'")
        group.add_argument("--corpus", help="corpus file: one 'name;braidword' per line")

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_inv = sub.add_parser("invariant", help="invariant of a braid closure")
    p_inv.add_argument("--d", type=int, required=True, help="modulus d of the algebra")
    p_inv.add_argument("--subset", required=True, help="subset of Z/dZ, e.g. '0,1'")
    add_braid_source(p_inv)
    add_common(p_inv)
    p_inv.add_argument("--eval-u", help="numeric u for an approximate evaluation")
    p_inv.add_argument("--eval-z", help="numeric z for an approximate evaluation")
    p_inv.set_defaults(func=_cmd_invariant)

    p_tr = sub.add_parser("trace", help="Markov trace of a braid image")
    p_tr.add_argument("--d", type=int, required=True)
    p_tr.add_argument("--subset", help="optional subset for substituted values")
    add_braid_source(p_tr)
    add_common(p_tr)
    p_tr.add_argument("--eval-u", help="numeric u (requires --subset)")
    p_tr.add_argument("--eval-z", help="numeric z (requires --subset)")
    p_tr.set_defaults(func=_cmd_trace)

    p_es = sub.add_parser("esystem", help="E-system solutions for a modulus")
    p_es.add_argument("--d", type=int, required=True)
    p_es.add_argument("--enumerate", action="store_true", help="all non-empty subsets")
    p_es.add_argument("--subset", help="a single subset to solve and verify")
    add_common(p_es)
    p_es.set_defaults(func=_cmd_esystem)

    p_ad = sub.add_parser("adelic", help="invariants along a divisor chain")
    p_ad.add_argument("--chain", required=True, help="divisor chain, e.g. '2,4,8'")
    p_ad.add_argument("--subset", required=True, help="subset of Z/d1Z")
    add_braid_source(p_ad)
    add_common(p_ad)
    p_ad.set_defaults(func=_cmd_adelic)

    p_vf = sub.add_parser("verify", help="run a named property suite")
    p_vf.add_argument(
        "--suite",
        choices=("all",) + tuple(_SUITES),
        default="all",
    )
    p_vf.add_argument(
        "--seed",
        type=int,
        help=f"random seed (default from ${SEED_ENV}, else 0)",
    )
    p_vf.set_defaults(func=_cmd_verify)

    return parser


def main(argv: "Sequence[str] | None" = None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        # argparse writes usage errors to sys.stderr and --help to sys.stdout
        with redirect_stderr(err), redirect_stdout(out):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize to the documented code 1.
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        if getattr(args, "d", None) is not None and args.d < 1:
            raise PreconditionError(f"modulus d must be positive, got {args.d}")
        code = args.func(args, out, err)
        out.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; the flush at shutdown goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except CoherenceError as exc:
        print(f"internal coherence failure: {exc}", file=err)
        return EXIT_COHERENCE
    except (DenominatorFamilyError, ESystemError) as exc:
        print(f"internal failure: {exc}", file=err)
        return EXIT_COHERENCE
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
