"""Tests of the benchmark's oracles and checks:

    python3 -m pytest bench/test_oracles.py
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest
import sympy as sp

import oracles
from checks import check_run
from oracles import U, Z
from workloads import Record, generate, words

SRC = Path(__file__).resolve().parent.parent / "src"


def _invariant_json(order: int, half: int, body: sp.Expr) -> dict:
    """An invariant object in the program's JSON format, built from sympy."""
    num, den = sp.fraction(sp.cancel(body))

    def terms(p):
        poly = sp.Poly(p, U, Z)
        return [{"u": a, "z": b, "coeff": [str(c)] + ["0"] * (sp.totient(order) - 1)}
                for (a, b), c in poly.terms()]

    return {"order": order, "halfLambda": half,
            "body": {"order": order, "numerator": terms(num), "denominator": terms(den)}}


def _trace_json(order: int, expr: sp.Expr) -> dict:
    xs = [oracles.x_symbol(a) for a in range(1, order)]
    poly = sp.Poly(sp.expand(expr * U**4), Z, *xs, U)
    terms: dict = {}
    for (ze, *rest), c in poly.terms():
        *xe, ue = rest
        terms.setdefault((ze, tuple(xe)), []).append([ue - 4, str(c)])
    return {"order": order, "terms": [{"z": ze, "x": list(xe), "coeff": sorted(cs)}
                                      for (ze, xe), cs in sorted(terms.items())]}


ONE = (sp.Integer(1), sp.Integer(0), sp.Integer(0), sp.Integer(0))


def test_relations_of_the_span():
    g = oracles.times_g(ONE)
    g2 = oracles.times_g(g)
    assert g2 == (1, U - 1, 0, -(U - 1))
    assert tuple(sp.simplify(c) for c in oracles.times_g_inverse(g)) == ONE
    assert tuple(sp.simplify(c) for c in oracles.times_g(oracles.times_g_inverse(ONE))) == ONE
    e = oracles.times_e(ONE)
    assert oracles.times_e(e) == e


@pytest.mark.parametrize("zeta", [sp.Integer(1), sp.Rational(1, 2), sp.Rational(1, 3)])
def test_recurrence_gives_one_for_the_unknot(zeta):
    assert oracles.torus_invariant(1, zeta) == (0, 1)
    assert oracles.torus_invariant(-1, zeta) == (0, 1)


@pytest.mark.parametrize("zeta", [sp.Integer(1), sp.Rational(1, 2), sp.Rational(1, 3)])
def test_recurrence_gives_the_hopf_value(zeta):
    half, body = oracles.torus_invariant(2, zeta)
    assert half == 1
    assert sp.simplify(body - (1 + (U - 1) * (zeta - Z)) / Z) == 0


def test_invariant_check_rejects_perturbed_values():
    half, body = oracles.torus_invariant(3, sp.Rational(1, 2))
    good = _invariant_json(2, half, body)
    assert oracles.invariant_equals(good, half, body)
    perturbed = json.loads(json.dumps(good))
    perturbed["body"]["numerator"][0]["coeff"][0] = str(sp.Rational(perturbed["body"]["numerator"][0]["coeff"][0]) + 1)
    assert not oracles.invariant_equals(perturbed, half, body)
    assert not oracles.invariant_equals(dict(good, halfLambda=1 - half), half, body)


def test_cyclotomic_coefficients_reduce_modulo_phi():
    # coefficient [0, 1] is zeta_4, which is not rational; zeta_4^2 = -1
    value = {"order": 4, "halfLambda": 0, "body": {
        "numerator": [{"u": 1, "z": 0, "coeff": ["0", "1"]}],
        "denominator": [{"u": 0, "z": 0, "coeff": ["1", "0"]}]}}
    assert not oracles.has_rational_coefficients(value)
    assert not oracles.invariant_equals(value, 0, U)
    assert oracles.zero_in_cyclotomic_field((1 + oracles.W**2) * U, 4)
    assert not oracles.zero_in_cyclotomic_field((1 + oracles.W) * U, 4)


def test_unknot_check_rejects_other_values():
    assert oracles.is_unknot(_invariant_json(1, 0, sp.Integer(1)))
    assert not oracles.is_unknot(_invariant_json(1, 0, sp.Integer(2)))
    assert not oracles.is_unknot(_invariant_json(1, 1, sp.Integer(1)))


def test_gcd_check_rejects_a_common_factor():
    reduced = {"order": 1, "halfLambda": 0, "body": {
        "numerator": [{"u": 1, "z": 0, "coeff": ["1"]}, {"u": 0, "z": 0, "coeff": ["1"]}],
        "denominator": [{"u": 0, "z": 1, "coeff": ["1"]}]}}
    assert oracles.gcd_is_constant(reduced)
    unreduced = {"order": 1, "halfLambda": 0, "body": {
        "numerator": [{"u": 1, "z": 1, "coeff": ["1"]}, {"u": 0, "z": 1, "coeff": ["1"]}],
        "denominator": [{"u": 0, "z": 2, "coeff": ["1"]}]}}
    assert not oracles.gcd_is_constant(unreduced)


def test_xi_renames_trace_variables():
    x1, x2, x3 = (oracles.x_symbol(a) for a in (1, 2, 3))
    assert oracles.same_polynomial(oracles.xi(x1 * x2 + x3 * Z, 4, 2), x1 + x1 * Z)
    assert not oracles.same_polynomial(oracles.xi(x1 * x2 + x3 * Z, 4, 2), x1 * x1 + x1 * Z)
    with pytest.raises(ValueError):
        oracles.xi(x1, 4, 3)


def _generic_class(base3: sp.Expr, d2: sp.Expr, conj_extra=sp.Integer(0)):
    group = "r0.0"
    records = [
        Record(("trace",), group, "base3"),
        Record(("trace",), group, "base"),
        Record(("trace",), group, "conj"),
        Record(("trace",), group, "d2"),
    ]
    values = [_trace_json(4, base3), _trace_json(4, Z * base3), _trace_json(4, Z * base3 + conj_extra),
              _trace_json(2, d2)]
    outputs = [json.dumps({"trace": v}) for v in values]
    return check_run(records, [0] * 4, outputs)


def test_generic_checks_accept_consistent_traces_and_reject_perturbed_ones():
    x1, x2, x3 = (oracles.x_symbol(a) for a in (1, 2, 3))
    base3 = Z * x1 * x3 + (U - 1) / 4 * x2 + 1 / U
    d2 = Z * oracles.xi(base3, 4, 2)
    reasons, wrong = _generic_class(base3, d2)
    assert reasons == [None] * 4 and wrong == 0
    reasons, wrong = _generic_class(base3, d2 + Z)
    assert reasons[3] and "xi" in reasons[3] and wrong == 1
    reasons, wrong = _generic_class(base3, d2, conj_extra=Z**2)
    assert reasons[2] and "presentation" in reasons[2] and wrong == 1


def test_stabilization_check_rejects_a_missing_factor_z():
    x1 = oracles.x_symbol(1)
    group = "r0.0"
    records = [Record(("trace",), group, "base3"), Record(("trace",), group, "base")]
    outputs = [json.dumps({"trace": _trace_json(4, x1 + Z)}), json.dumps({"trace": _trace_json(4, x1 + Z)})]
    reasons, wrong = check_run(records, [0, 0], outputs)
    assert "stabilization" in reasons[0] and wrong == 1


def test_invariant_records_fail_on_exit_code_and_wrong_torus_value():
    argv = ("invariant", "--d", "2", "--subset", "0,1", "--braid", "2: 1 1", "--format", "json")
    hopf = _invariant_json(2, *oracles.torus_invariant(2, sp.Rational(1, 2)))
    trefoil = _invariant_json(2, *oracles.torus_invariant(3, sp.Rational(1, 2)))
    records = [Record(argv, "r0.0.torus", "base", torus=2),
               Record(argv, "r0.1.torus", "base", torus=2),
               Record(argv, "r0.2.torus", "base", torus=2)]
    outputs = [json.dumps({"invariant": v}) for v in (hopf, trefoil, hopf)]
    reasons, wrong = check_run(records, [0, 0, 2], outputs)
    assert reasons[0] is None
    assert "sigma_1^2" in reasons[1]
    assert reasons[2] == "exit code 2"
    assert wrong == 1


def test_words_have_the_requested_shape():
    ws = words(3, 5, -1)
    assert len(ws) == len(set(ws)) == 74
    assert all(sum(1 if k > 0 else -1 for k in w) == -1 for w in ws)


def test_generator_is_seeded():
    assert generate("adelic_chains", 3, 20) == generate("adelic_chains", 3, 20)
    assert generate("adelic_chains", 3, 20) != generate("adelic_chains", 4, 20)


@pytest.mark.skipif(not (SRC / "yhecke").is_dir(), reason="the program's sources are not present")
@pytest.mark.parametrize("d,subset", [(1, "0"), (2, "0"), (2, "0,1"), (3, "0,1")])
def test_torus_oracle_agrees_with_the_program(d, subset):
    sys.path.insert(0, str(SRC))
    from yhecke.cli import main

    zeta = sp.Rational(1, len(subset.split(",")))
    for k in range(-5, 8):
        letters = " ".join(["1" if k > 0 else "-1"] * abs(k))
        out = io.StringIO()
        assert main(["invariant", "--d", str(d), "--subset", subset, "--braid", f"2: {letters}".strip(),
                     "--format", "json"], out, io.StringIO()) == 0
        invariant = json.loads(out.getvalue())["invariant"]
        assert oracles.invariant_equals(invariant, *oracles.torus_invariant(k, zeta)), k
        assert oracles.gcd_is_constant(invariant)
