"""Correctness checks on the outputs of a run, made after the timed section.

Every check is attributed to one record, so that a record fails when its
call exits non-zero, its output is not the expected JSON, or a check on it
fails.  Nothing here compares against a stored copy of earlier output:

- the records of one Markov class must give identical JSON (the invariant,
  every level of an adelic tuple, or the generic trace of a conjugate);
- an unknot presentation gives exactly 1 at every level;
- sigma_1^k on 2 strands gives the sympy value of ``oracles.torus_invariant``;
- a body with rational coefficients has gcd(numerator, denominator) = 1;
- a positive stabilization multiplies a generic trace by z;
- xi carries the d = 4 generic trace to the d = 2 one.
"""

from __future__ import annotations

import json
from functools import lru_cache

import sympy as sp

import oracles
from workloads import Record


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


@lru_cache(maxsize=None)
def _body_ok(text: str) -> bool:
    invariant = json.loads(text)
    return not oracles.has_rational_coefficients(invariant) or oracles.gcd_is_constant(invariant)


@lru_cache(maxsize=None)
def _unknot(text: str) -> bool:
    return oracles.is_unknot(json.loads(text))


@lru_cache(maxsize=None)
def _torus(text: str, k: int, subset_size: int) -> bool:
    half, body = oracles.torus_invariant(k, sp.Rational(1, subset_size))
    return oracles.invariant_equals(json.loads(text), half, body)


def _levels(record: Record, payload) -> list[tuple[int, dict]]:
    """(|S_j|, invariant) per level; |S_j| = |S| d_j / d_1 is computed here."""
    if record.command == "invariant":
        size = len(set(int(s) % int(record.option("--d")) for s in record.option("--subset").split(",")))
        return [(size, payload["invariant"])]
    chain = [int(d) for d in record.option("--chain").split(",")]
    if [level["d"] for level in payload] != chain:
        raise ValueError(f"levels {[level['d'] for level in payload]} do not follow the chain {chain}")
    base = len(set(int(s) % chain[0] for s in record.option("--subset").split(",")))
    return [(base * d // chain[0], level["invariant"]) for d, level in zip(chain, payload)]


def _value(record: Record, payload):
    """The part of the output a Markov class must agree on."""
    if record.command == "trace":
        return payload["trace"]
    if record.command == "invariant":
        return payload["invariant"]
    return payload


def _invariant_checks(record: Record, payload) -> str | None:
    for size, invariant in _levels(record, payload):
        text = _canonical(invariant)
        if not _body_ok(text):
            return f"body not in lowest terms at |S| = {size}"
        if "unknot" in record.group and not _unknot(text):
            return f"unknot presentation does not give 1 at |S| = {size}"
        if record.torus is not None and not _torus(text, record.torus, size):
            return f"sigma_1^{record.torus} differs from the reference value at |S| = {size}"
    return None


def _trace_checks(record: Record, payload, members: dict[str, dict]) -> str | None:
    """``members`` maps each role of the record's class to its output."""
    if record.role == "base3" and "base" in members:
        base = oracles.trace_poly(members["base"]["trace"])
        if not oracles.same_polynomial(base, oracles.Z * oracles.trace_poly(payload["trace"])):
            return "positive stabilization does not multiply the trace by z"
    if record.role == "d2" and "base" in members:
        upper = members["base"]["trace"]
        lower = oracles.xi(oracles.trace_poly(upper), upper["order"], payload["trace"]["order"])
        if not oracles.same_polynomial(lower, oracles.trace_poly(payload["trace"])):
            return "xi of the d = 4 trace differs from the d = 2 trace"
    return None


def check_run(records: list[Record], codes: list[int], outputs: list[str]) -> tuple[list[str | None], int]:
    """Per record: None if it passed, else why it failed.  Also returns how
    many records failed a check after a zero exit code (wrong answers, as
    opposed to errors)."""
    reasons: list[str | None] = [None] * len(records)
    payloads: list = [None] * len(records)
    for i, (code, text) in enumerate(zip(codes, outputs)):
        if code != 0:
            reasons[i] = f"exit code {code}"
            continue
        try:
            payloads[i] = json.loads(text)
        except json.JSONDecodeError as exc:
            reasons[i] = f"output is not JSON: {exc}"
    wrong = sum(r is not None and r.startswith("output") for r in reasons)

    # Markov classes: same value as the first good record of the class.
    # Generic-trace classes mix strand counts and moduli; only the
    # 4-strand, d = 4 presentations share one value.
    reference: dict[tuple[str, str], str] = {}
    members: dict[str, dict[str, dict]] = {}
    for i, record in enumerate(records):
        if payloads[i] is None:
            continue
        members.setdefault(record.group, {}).setdefault(record.role, payloads[i])
        kind = record.role if record.role in ("base3", "d2") else "class"
        text = _canonical(_value(record, payloads[i]))
        if reference.setdefault((record.group, kind), text) != text:
            reasons[i] = "differs from another presentation of the same link"
            wrong += 1

    for i, record in enumerate(records):
        if payloads[i] is None or reasons[i] is not None:
            continue
        try:
            if record.command == "trace":
                reason = _trace_checks(record, payloads[i], members[record.group])
            else:
                reason = _invariant_checks(record, payloads[i])
        except (KeyError, TypeError, ValueError, sp.PolynomialError) as exc:
            reason = f"malformed output: {exc!r}"
        if reason is not None:
            reasons[i] = reason
            wrong += 1
    return reasons, wrong
