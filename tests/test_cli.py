"""Command-line front end: golden outputs, byte-level determinism, corpus
robustness, exit codes."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import yhecke.cli
import yhecke.esystem
import yhecke.exactnum
from yhecke.braid import BraidWord
from yhecke.cli import EXIT_COHERENCE, EXIT_OK, EXIT_PRECONDITION, EXIT_USAGE, _json_text, main
from yhecke.exactnum import PolyUZ, RatFunc

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


GOLDEN_CASES = [
    (
        ("invariant", "--d", "2", "--subset", "0,1", "--braid", "1 1 1"),
        "invariant_trefoil_d2.txt",
    ),
    (
        ("invariant", "--d", "3", "--subset", "0,1", "--braid", "1 1 1", "--format", "json"),
        "invariant_trefoil_d3.json",
    ),
    (("trace", "--d", "2", "--braid", "1 1"), "trace_hopf_d2.txt"),
    (("esystem", "--d", "4", "--enumerate"), "esystem_d4.txt"),
    (
        ("adelic", "--chain", "2,4", "--subset", "0", "--braid", "1 1 1"),
        "adelic_trefoil.txt",
    ),
    (("verify", "--suite", "relations", "--seed", "7"), "verify_relations_seed7.txt"),
    (
        ("trace", "--d", "3", "--subset", "0,1", "--braid", "1 -2 1 -2", "--format", "json"),
        "trace_subset_d3.json",
    ),
    (
        ("adelic", "--chain", "2,4,8", "--subset", "1", "--braid", "1 1 1", "--format", "json"),
        "adelic_chain_2_4_8.json",
    ),
    (
        ("esystem", "--d", "12", "--subset", "1,4,6", "--format", "json"),
        "esystem_d12_subset.json",
    ),
    (("esystem", "--d", "9", "--subset", "0,3,4"), "esystem_d9_subset.txt"),
    (
        ("invariant", "--d", "4", "--subset", "0,1", "--braid", "1 2 -3 4 -1 2 3 -4 -2 1 3 4", "--format", "json"),
        "invariant_5strand_d4.json",
    ),
    (
        ("adelic", "--chain", "2,4,8", "--subset", "0", "--braid", "1 -2 3 2 -1 -3 2 1 -2 3", "--format", "json"),
        "adelic_4strand_2_4_8.json",
    ),
]


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES)
def test_golden_outputs(argv, golden):
    code, out, _ = run_cli(*argv)
    assert code == EXIT_OK
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES[:3])
def test_byte_identical_across_runs(argv, golden):
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first == second


def test_subprocess_determinism():
    cmd = [
        sys.executable,
        "-m",
        "yhecke.cli",
        "invariant",
        "--d",
        "4",
        "--subset",
        "0,2",
        "--braid",
        "-1 -1 -1",
        "--format",
        "json",
    ]
    a = subprocess.run(cmd, capture_output=True, check=True)
    b = subprocess.run(cmd, capture_output=True, check=True)
    assert a.stdout == b.stdout
    assert a.returncode == 0


def test_corpus_batch_reports_and_skips_bad_records():
    code, out, err = run_cli(
        "invariant", "--d", "2", "--subset", "0,1", "--corpus", str(GOLDEN / "corpus.txt")
    )
    assert code == EXIT_OK
    assert out == (GOLDEN / "corpus_invariants.txt").read_text(encoding="utf-8")
    assert "line 5" in err  # the bad record is reported on stderr
    # output preserves input order
    names = [line.split(":")[0] for line in out.splitlines()]
    assert names == ["unknot", "trefoil", "hopf", "unlink2", "figure8"]


def test_corpus_json_includes_errors():
    code, out, _ = run_cli(
        "invariant",
        "--d",
        "2",
        "--subset",
        "0",
        "--corpus",
        str(GOLDEN / "corpus.txt"),
        "--format",
        "json",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert len(data) == 6
    assert "error" in data[3] and data[3]["name"] == "?"


def test_exit_code_usage_errors():
    code, _, err = run_cli("invariant", "--d", "2", "--subset", "0", "--braid", "1 x")
    assert code == EXIT_USAGE and "bad braid word" in err
    code, _, _ = run_cli("invariant", "--d", "2", "--subset", "0")  # no braid source
    assert code == EXIT_USAGE
    code, _, _ = run_cli("esystem", "--d", "3")  # neither --enumerate nor --subset
    assert code == EXIT_USAGE
    code, _, err = run_cli(
        "invariant", "--d", "2", "--subset", "0", "--braid", "1", "--eval-u", "0.5"
    )
    assert code == EXIT_USAGE and "together" in err


def test_exit_code_precondition_errors():
    code, _, err = run_cli("invariant", "--d", "0", "--subset", "0", "--braid", "1")
    assert code == EXIT_PRECONDITION
    code, _, err = run_cli("adelic", "--chain", "2,3", "--subset", "0", "--braid", "1")
    assert code == EXIT_PRECONDITION and "divisibility" in err
    code, _, err = run_cli("invariant", "--d", "2", "--subset", "", "--braid", "1")
    assert code == EXIT_PRECONDITION
    code, _, err = run_cli(
        "trace", "--d", "2", "--braid", "1", "--eval-u", "1.5", "--eval-z", "2.0"
    )
    assert code == EXIT_PRECONDITION and "--subset" in err


def test_exit_code_pole_at_evaluation_point():
    code, out, err = run_cli(
        "invariant", "--d", "2", "--subset", "0", "--braid", "1 1", "--eval-u", "1", "--eval-z", "0"
    )
    assert code == EXIT_PRECONDITION and out == ""
    assert err.startswith("error: ") and "pole" in err and err.count("\n") == 1


def test_underflow_at_evaluation_point_is_not_a_pole():
    # u z^2 vanishes exactly at u = 1, z = 0; at u = 1e100, z = 1e-300 it is
    # nonzero, and only its double precision value underflows to 0
    base = ("invariant", "--d", "2", "--subset", "0", "--braid")
    code, out, err = run_cli(*base, "1 1 1", "--eval-u", "1e100", "--eval-z", "1e-300")
    assert code == EXIT_PRECONDITION and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not representable in double precision" in err and "pole" not in err
    code, _, err = run_cli(*base, "1 1", "--eval-u", "1", "--eval-z", "0")
    assert code == EXIT_PRECONDITION
    assert "is a pole" in err and "double precision" not in err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_silently(unbuffered):
    """A reader that closes the pipe early gets exit 1 and an empty stderr:
    no traceback, and no 'Exception ignored' line at shutdown.  Buffered,
    the write fails only when stdout is flushed."""
    src = str(Path(yhecke.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "yhecke.cli", "esystem", "--d", "4", "--enumerate", "--format", "json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_USAGE, b"")


def test_exit_code_denominator_outside_family_is_internal(monkeypatch):
    def out_of_family(d, subset, braid):
        RatFunc.make(PolyUZ.one(), PolyUZ.monomial(1, 1) + PolyUZ.one())

    monkeypatch.setattr(yhecke.cli, "delta_invariant", out_of_family)
    code, _, err = run_cli("invariant", "--d", "2", "--subset", "0", "--braid", "1")
    assert code == EXIT_COHERENCE and "internal failure" in err


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("--d", "3", "--subset", "1", "--braid", "1 1 1"), EXIT_OK),
        (("--d", "3", "--subset", "", "--braid", "1"), EXIT_PRECONDITION),
        (("--d", "0", "--subset", "0", "--braid", "1"), EXIT_PRECONDITION),
        (("--d", "2", "--subset", "0", "--braid", "1 x"), EXIT_USAGE),
        (("--d", "2", "--subset", "0", "--braid", "-1", "--eval-u", "0", "--eval-z", "1"), EXIT_PRECONDITION),
    ],
)
def test_trace_subset_exit_codes(argv, expected):
    code, out, err = run_cli("trace", *argv)
    assert code == expected
    assert (out == "") == (code != EXIT_OK) and (err == "") == (code == EXIT_OK)


def test_bench_tracer_installs_on_the_current_entry_points():
    """The traced benchmark wraps entry points by name; a renamed one fails here."""
    code = "import sys; sys.path.insert(0, 'bench'); from tracing import Tracer; Tracer().install()"
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_bench_tracer_reports_every_declared_layer_metric():
    """With the tracer installed, one invariant, one trace and one adelic
    record through ``cli.main`` give a report that holds every per-layer
    metric of BENCHMARK.json; the ties letter table is on the braid path."""
    code = (
        "import io, json, sys; sys.path.insert(0, 'bench')\n"
        "from tracing import Tracer\n"
        "import yhecke.cli as cli\n"
        "tracer = Tracer(); tracer.install()\n"
        "records = [\n"
        "    ['invariant', '--d', '2', '--subset', '0', '--braid', '1 -2 1 -2', '--format', 'json'],\n"
        "    ['trace', '--d', '3', '--braid', '1 -2 1', '--format', 'json'],\n"
        "    ['adelic', '--chain', '2,4', '--subset', '0', '--braid', '1 1 1', '--format', 'json'],\n"
        "]\n"
        "codes = [cli.main(argv, io.StringIO(), io.StringIO()) for argv in records]\n"
        "print(json.dumps({'codes': codes, 'report': tracer.report(0)}))\n"
    )
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [EXIT_OK] * 3
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    missing = [name for name in declared if not isinstance(result["report"].get(name), (int, float))]
    assert not missing, missing
    assert result["report"]["yokonuma.word_times_letter.misses"] > 0


HUGE_MODULI = ["9999999999", "99999999999999999999", "1000000000000000003"]


def run_cli_process(*argv: str) -> subprocess.CompletedProcess:
    """The command line in a fresh process with 1 GiB of address space,
    killed after 60 s: a huge modulus must neither allocate for d nor hang."""

    def limit_memory():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, "-m", "yhecke.cli", *argv], cwd=ROOT, capture_output=True, text=True, env=env,
        timeout=60, preexec_fn=limit_memory,
    )


@pytest.mark.parametrize("d", HUGE_MODULI)
def test_huge_modulus_text_invariant_reads_only_the_subset_size(d):
    proc = run_cli_process("invariant", "--d", d, "--subset", "0", "--braid", "1")
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    code, small, _ = run_cli("invariant", "--d", "2", "--subset", "0", "--braid", "1")
    assert code == EXIT_OK and proc.stdout == small.replace("mod 2", f"mod {d}")


@pytest.mark.parametrize("d", HUGE_MODULI)
def test_huge_modulus_json_invariant_is_a_precondition_violation(d):
    proc = run_cli_process("invariant", "--d", d, "--subset", "0", "--braid", "1", "--format", "json")
    assert (proc.returncode, proc.stdout) == (EXIT_PRECONDITION, "")
    assert proc.stderr == f"error: modulus d = {d} is above the limit {yhecke.cli.MAX_MODULUS} for this output\n"


ABOVE = str(yhecke.cli.MAX_MODULUS + 1)
ENUMERATE_ABOVE = str(yhecke.cli.MAX_ENUMERATE + 1)


@pytest.mark.parametrize(
    "argv",
    [
        ("trace", "--d", ABOVE, "--braid", "1"),
        ("trace", "--d", ABOVE, "--braid", "1", "--format", "json"),
        ("trace", "--d", ABOVE, "--subset", "0", "--braid", "1", "--format", "json"),
        ("esystem", "--d", ABOVE, "--subset", "0"),
        ("esystem", "--d", ABOVE, "--enumerate"),
        ("adelic", "--chain", f"1,{ABOVE}", "--subset", "0", "--braid", "1"),
        ("adelic", "--chain", f"1,{ABOVE}", "--subset", "0", "--braid", "1", "--format", "json"),
        ("esystem", "--d", ENUMERATE_ABOVE, "--enumerate"),
    ],
)
def test_modulus_above_the_limit_is_refused_before_any_work(argv, monkeypatch):
    def no_work(*args):
        raise AssertionError("work started above the limit")

    for name in ("enumerate_subsets", "solution_from_subset", "trace_of_braid", "adelic_delta"):
        monkeypatch.setattr(yhecke.cli, name, no_work)
    code, out, err = run_cli(*argv)
    assert (code, out) == (EXIT_PRECONDITION, "")
    d = ABOVE if ABOVE in " ".join(argv) else ENUMERATE_ABOVE
    assert err.startswith(f"error: modulus d = {d} is above the limit")


def test_modulus_at_the_limit_is_computed():
    d = str(yhecke.cli.MAX_MODULUS)
    code, out, err = run_cli("trace", "--d", d, "--subset", "0,1", "--braid", "1 1 1", "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    numerator = json.loads(out)["trace"]["numerator"]
    assert all(len(term["coeff"]) == yhecke.exactnum.euler_phi(yhecke.cli.MAX_MODULUS) for term in numerator)
    code, out, err = run_cli("trace", "--d", ABOVE, "--subset", "0,1", "--braid", "1 1 1")
    assert (code, err) == (EXIT_OK, "") and out.startswith(f"tr_{ABOVE}(")


@pytest.mark.parametrize("value", ["inf", "nan", "1+infj"])
def test_non_finite_evaluation_point_is_a_usage_error(value):
    code, out, err = run_cli(
        "invariant", "--d", "2", "--subset", "0", "--braid", "1 1 1",
        "--eval-u", value, "--eval-z", "1", "--format", "json",
    )
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "not finite" in err and err.count("\n") == 1


def test_evaluation_overflow_is_a_precondition_violation():
    code, out, err = run_cli(
        "trace", "--d", "2", "--subset", "0", "--braid", "1 1 1", "--eval-u", "1e200", "--eval-z", "1e200"
    )
    assert code == EXIT_PRECONDITION and out == ""
    assert err.startswith("error: ") and "overflows" in err and err.count("\n") == 1


def test_non_finite_evaluation_result_is_a_precondition_violation():
    # u z overflows to infinity without raising, and inf - inf is nan
    code, out, err = run_cli(
        "trace", "--d", "1", "--subset", "0", "--braid", "1 1", "--eval-u", "1e200", "--eval-z", "1e200",
        "--format", "json",
    )
    assert code == EXIT_PRECONDITION and out == ""
    assert err.startswith("error: ") and "not finite" in err and err.count("\n") == 1


@pytest.mark.parametrize("source", ["--braid", "--corpus"])
@pytest.mark.parametrize(
    "argv,braid",
    [(("trace", "--d", "2"), "99999999999999999999: 1"), (("invariant", "--d", "2", "--subset", "0"), "50000: 1")],
)
def test_braid_above_the_strand_limit_is_refused_before_any_work(argv, braid, source, tmp_path):
    """Without the limit, the first ended in an OverflowError traceback and
    the second took 15 s of CPU before it was found too deep to trace."""
    value = braid
    if source == "--corpus":
        value = str(tmp_path / "corpus.txt")
        Path(value).write_text(f"big;{braid}\n", encoding="utf-8")
    start = time.process_time()
    code, out, err = run_cli(*argv, source, value)
    assert time.process_time() - start < 0.5
    assert (code, out) == (EXIT_PRECONDITION, "")
    strands = braid.split(":")[0]
    assert err == f"error: a braid on {strands} strands is above the limit {yhecke.cli.MAX_STRANDS} of the trace\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("trace", "--d", "2", "--braid", "480:"),
        ("invariant", "--d", "2", "--subset", "0,1", "--braid", "480:"),
        ("trace", "--d", "2", "--braid", "240: " + " ".join(str(i) for i in range(1, 240))),
    ],
)
def test_deep_braids_trace_with_cold_caches(argv):
    """Hundreds of strands stay within the recursion limit in a fresh
    process: the trace recursion takes one strand off per step in a few
    frames."""
    proc = run_cli_process(*argv)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout.startswith("tr_2(" if argv[0] == "trace" else "Delta[")


def test_braid_too_deep_to_trace_is_a_precondition_violation():
    code, out, err = run_cli("invariant", "--d", "1", "--subset", "0", "--braid", "600:")
    assert code == EXIT_PRECONDITION and out == ""
    assert err.startswith("error: ") and "600 strands" in err and err.count("\n") == 1


def test_failed_esystem_check_on_computed_solution_is_internal(monkeypatch):
    """Only the commands that build solutions reach the E-system check."""
    monkeypatch.setattr(yhecke.esystem, "verify_solution", lambda d, values: False)
    for argv in (
        ("esystem", "--d", "2", "--subset", "0"),
        ("verify", "--suite", "esystem"),
    ):
        code, out, err = run_cli(*argv)
        assert code == EXIT_COHERENCE and out == ""
        assert err.startswith("internal failure: ") and "E-system" in err


def test_invariant_trace_and_adelic_build_no_solution(monkeypatch, tmp_path):
    """The invariants read only |S|: with every solution build failing,
    ``invariant``, ``trace --subset`` and an ``adelic`` corpus print the same bytes."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a;2: 1 1 1\nb;3: 1 -2 1 2\nc;2: 1 -1 1\n", encoding="utf-8")
    cases = [
        ("invariant", "--d", "200", "--subset", "0,7", "--braid", "1 -2 1 2", "--eval-u", "2", "--eval-z", "3"),
        ("trace", "--d", "6", "--subset", "0,2,4", "--braid", "1 -2 1 2", "--format", "json"),
        ("adelic", "--chain", "2,4,8", "--subset", "0", "--corpus", str(corpus), "--format", "json"),
        ("adelic", "--chain", "3,6", "--subset", "1,2", "--corpus", str(corpus)),
    ]
    expected = [run_cli(*argv) for argv in cases]

    def forbidden(*args):
        raise AssertionError("an E-system solution was built")

    monkeypatch.setattr(yhecke.esystem, "ESolution", forbidden)
    for argv, before in zip(cases, expected):
        assert run_cli(*argv) == before and before[0] == EXIT_OK, argv


def test_invariant_trace_and_adelic_form_no_general_canonical_form(monkeypatch, tmp_path):
    """Values and bodies are built over Z on their known denominators: after
    a warm-up, with ``RatFunc.make`` and ``poly_gcd`` failing, ``invariant``,
    ``trace --subset`` and ``adelic`` records print the same bytes."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a;2: 1 1 1\nb;3: 1 -2 1 2\nc;2: -1 -1 -1\nd;4: -1 -2 -3 2\n", encoding="utf-8")
    cases = [
        ("invariant", "--d", "6", "--subset", "0,3", "--corpus", str(corpus), "--eval-u", "2", "--eval-z", "3"),
        ("invariant", "--d", "3", "--subset", "0,1,2", "--corpus", str(corpus), "--format", "json"),
        ("trace", "--d", "6", "--subset", "0,2,4", "--corpus", str(corpus), "--format", "json"),
        ("adelic", "--chain", "2,4,8", "--subset", "0", "--corpus", str(corpus), "--format", "json"),
    ]
    expected = [run_cli(*argv) for argv in cases]

    def forbidden(*args):
        raise AssertionError("a general canonical form was formed")

    monkeypatch.setattr(RatFunc, "make", staticmethod(forbidden))
    monkeypatch.setattr(yhecke.exactnum, "poly_gcd", forbidden)
    for argv, before in zip(cases, expected):
        assert run_cli(*argv) == before and before[0] == EXIT_OK, argv


def test_undecodable_corpus_is_a_usage_error(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(b"\xff\xfe2: 1 1\n")
    code, out, err = run_cli("invariant", "--d", "2", "--subset", "0", "--corpus", str(corpus))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"error: cannot read corpus file {str(corpus)!r}: ") and "0xff" in err
    assert err.count("\n") == 1


def test_verify_esystem_checks_each_solution_once(monkeypatch):
    """Building a solution verifies it; the suite adds no second check."""
    checked = []
    verify = yhecke.esystem.verify_solution

    def counted(d, values):
        checked.append(d)
        return verify(d, values)

    monkeypatch.setattr(yhecke.esystem, "verify_solution", counted)
    monkeypatch.setattr(yhecke.cli, "verify_solution", counted, raising=False)
    code, out, _ = run_cli("verify", "--suite", "esystem")
    assert code == EXIT_OK and out.count("ok   esystem") == 6
    assert len(checked) == sum(2**d - 1 for d in range(1, 7))


@pytest.mark.parametrize(
    "argv,message",
    [
        (("trace", "--d", "3", "--subset", ",", "--braid", "1"), "subset must be non-empty"),
        (("adelic", "--chain", "2,3", "--subset", "0", "--braid", "1"),
         "chain entries must strictly increase by divisibility; got 2 before 3"),
        (("invariant", "--d", "0", "--subset", "0", "--braid", "1"), "modulus d must be positive, got 0"),
    ],
    ids=["empty-subset", "non-dividing-chain", "zero-modulus"],
)
def test_precondition_violations_exit_2_with_one_error_line(argv, message):
    assert run_cli(*argv) == (EXIT_PRECONDITION, "", f"error: {message}\n")


@pytest.mark.parametrize("d,subset,k", [(200, "0,7", 2), (12, "0,5,7", 3)])
def test_invariant_text_depends_only_on_subset_size(d, subset, k):
    """Delta at (d, S) is Delta at (|S|, Z/|S|Z): the text after the label agrees."""
    bodies = []
    for argv in (("--d", str(d), "--subset", subset), ("--d", str(k), "--subset", ",".join(map(str, range(k))))):
        code, out, _ = run_cli("invariant", *argv, "--braid", "1 1 1")
        assert code == EXIT_OK
        bodies.append(out.split(" = ", 1)[1])
    assert bodies[0] == bodies[1]


def test_argparse_usage_error_goes_to_given_err(capsys):
    code, out, err = run_cli("invariant", "--d", "2")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("usage: yhecke invariant") and "required" in err
    assert capsys.readouterr() == ("", "")


def test_argparse_help_goes_to_given_out(capsys):
    code, out, err = run_cli("trace", "--help")
    assert code == EXIT_OK and err == ""
    assert out.startswith("usage: yhecke trace") and "--eval-u" in out
    assert capsys.readouterr() == ("", "")


def test_json_output_identical_across_hash_seeds():
    cases = [
        # negative writhe: the body's denominator has a power of L = z - (1-u) zeta
        ("invariant", "--d", "2", "--subset", "0", "--braid", "-1 -1 2 -1 -2", "--format", "json"),
        ("adelic", "--chain", "2,4", "--subset", "0", "--braid", "1 -2 1", "--format", "json"),
    ]
    for argv in cases:
        outputs = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "yhecke.cli", *argv], capture_output=True, check=True, env=env
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1


def test_verify_all_suites_pass():
    code, out, _ = run_cli("verify", "--seed", "3")
    assert code == EXIT_OK
    for name in ("relations", "markov", "skein", "esystem", "adelic-coherence"):
        assert f"suite {name}: PASS" in out
    # determinism of the seeded suites
    assert run_cli("verify", "--seed", "3") == (code, out, "")


def test_verify_seed_from_environment(monkeypatch):
    monkeypatch.setenv("YHECKE_SEED", "7")
    code, out, _ = run_cli("verify", "--suite", "relations")
    assert code == EXIT_OK
    assert "(seed=7)" in out


def test_verify_malformed_seed_environment(monkeypatch):
    monkeypatch.setenv("YHECKE_SEED", "seven")
    code, out, err = run_cli("verify", "--suite", "relations")
    assert code == EXIT_USAGE and out == "" and "YHECKE_SEED" in err


def test_numeric_evaluation_is_labeled_approximate():
    code, out, _ = run_cli(
        "invariant",
        "--d",
        "1",
        "--subset",
        "0",
        "--braid",
        "1 1 1",
        "--eval-u",
        "2",
        "--eval-z",
        "3",
    )
    assert code == EXIT_OK
    assert "approximate" in out
    # frozen by hand: lambda = 2/3, Delta(trefoil) = (lambda/z)(3z - 2) = 14/9
    assert "1.55555555556" in out


def test_json_adelic_is_array_of_levels():
    code, out, _ = run_cli(
        "adelic", "--chain", "2,4", "--subset", "0", "--braid", "1 1 1", "--format", "json"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert isinstance(data, list) and [lvl["d"] for lvl in data] == [2, 4]
    assert data[1]["subset"] == [0, 2]
    assert data[0]["invariant"]["halfLambda"] == 0


def test_json_trace_generic_shape():
    code, out, _ = run_cli("trace", "--d", "2", "--braid", "1 1", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["trace"]["order"] == 2
    monos = {(t["z"], tuple(t["x"])) for t in data["trace"]["terms"]}
    assert monos == {(0, (0,)), (1, (0,)), (0, (2,))}


# -- the shared record loop of invariant, trace and adelic --------------------

CORPUS = str(GOLDEN / "corpus.txt")
GOOD_RECORDS = [
    ("unknot", "1:"),
    ("trefoil", "1 1 1"),
    ("hopf", "2: 1 1"),
    ("unlink2", "2: -1 1 -1 1"),
    ("figure8", "3: 1 -2 1 -2"),
]
RECORD_COMMANDS = [
    ("invariant", "--d", "2", "--subset", "0,1"),
    ("trace", "--d", "2"),
    ("trace", "--d", "2", "--subset", "1"),
    ("adelic", "--chain", "2,4", "--subset", "0"),
]


@pytest.mark.parametrize("command", RECORD_COMMANDS)
def test_corpus_text_lines_are_prefixed_single_braid_outputs(command):
    code, out, err = run_cli(*command, "--corpus", CORPUS)
    assert code == EXIT_OK
    assert err.count("\n") == 1 and err.startswith("skipped: ") and "line 5" in err
    expected = []
    for name, braid in GOOD_RECORDS:
        single_code, single_out, single_err = run_cli(*command, "--braid", braid)
        assert single_code == EXIT_OK and single_err == ""
        expected.extend(f"{name}: {line}\n" for line in single_out.splitlines())
    assert out == "".join(expected)


@pytest.mark.parametrize("command", RECORD_COMMANDS)
def test_corpus_json_keeps_errors_and_single_braid_entries(command):
    code, out, err = run_cli(*command, "--corpus", CORPUS, "--format", "json")
    assert code == EXIT_OK
    assert err.startswith("skipped: ") and "line 5" in err
    data = json.loads(out)
    assert [entry["name"] for entry in data] == ["unknot", "trefoil", "hopf", "?", "unlink2", "figure8"]
    assert set(data[3]) == {"name", "error"} and "line 5" in data[3]["error"]
    good = data[:3] + data[4:]
    for entry, (name, braid) in zip(good, GOOD_RECORDS):
        _, single_out, _ = run_cli(*command, "--braid", braid, "--format", "json")
        single = json.loads(single_out)
        if command[0] == "adelic":
            assert entry["levels"] == single
            assert entry["chain"] == [2, 4] and entry["braid"] == braid_text(braid)
        else:
            assert single["name"] == "braid"
            assert entry == dict(single, name=name)


def braid_text(braid: str) -> str:
    _, out, _ = run_cli("trace", "--d", "1", "--braid", braid, "--format", "json")
    return json.loads(out)["braid"]


def test_trace_numeric_evaluation_text():
    code, out, err = run_cli(
        "trace", "--d", "1", "--subset", "0", "--braid", "1 1 1", "--eval-u", "2", "--eval-z", "3"
    )
    assert code == EXIT_OK and err == ""
    # frozen by hand: tr(g1^3) at u = 2, z = 3 is 12 - 6 - 4 + 3 + 2 = 7
    assert out == (
        "tr_1(2: 1 1 1) = z*u^2 - z*u - u^2 + z + u\n"
        "approx at u=(2+0j), z=(3+0j): 7+0j (approximate)\n"
    )


# -- the JSON writer and the reduced closures --------------------------------

json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\u2028", "\U0001f600", "\u00e9", "1/2"])
)
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_documents)
def test_json_writer_equals_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def assert_written_as_json_dumps(out: str):
    """A JSON document on stdout has the bytes json.dumps gives its value."""
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", [
    ("esystem", "--d", "6", "--enumerate"),
    ("invariant", "--d", "3", "--subset", "0,1", "--braid", "1 1 -2 1 2", "--eval-u", "0.5+1j", "--eval-z", "2"),
    ("trace", "--d", "3", "--subset", "0", "--braid", "1 -2 1", "--eval-u", "-0.25", "--eval-z", "1e-3"),
    ("trace", "--d", "3", "--braid", "1 -2 1 -2"),
    ("trace", "--d", "1", "--braid", "3: 1 -2"),
    ("invariant", "--d", "7", "--subset", "0,3", "--braid", "1 -2 1 2"),
    ("adelic", "--chain", "2,6", "--subset", "1", "--braid", "1 1 1"),
])
def test_json_documents_are_written_as_json_dumps(argv):
    code, out, _ = run_cli(*argv, "--format", "json")
    assert code == EXIT_OK
    assert_written_as_json_dumps(out)


@pytest.mark.parametrize("command", RECORD_COMMANDS)
def test_corpus_json_with_errors_and_non_ascii_names_is_written_as_json_dumps(command, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text('n\u00e4\u00efve \u00e7af\u00e9;1 1 1\nno separator\n"q\\uoted";3: 1 -2\nbad;1 x\n', encoding="utf-8")
    code, out, err = run_cli(*command, "--corpus", str(corpus), "--format", "json")
    assert code == EXIT_OK and err.count("\n") == 2
    assert [entry["name"] for entry in json.loads(out)] == ["n\u00e4\u00efve \u00e7af\u00e9", "?", '"q\\uoted"', "?"]
    assert_written_as_json_dumps(out)


def test_invariant_record_of_a_stabilized_braid_echoes_the_input():
    """The record traces the reduced closure, 2: 1 1 1, but echoes the word given."""
    code, out, _ = run_cli("invariant", "--d", "2", "--subset", "0,1", "--braid", "4: 1 2 -2 1 3 1 2", "--format", "json")
    assert code == EXIT_OK
    record = json.loads(out)
    assert (record["braid"], record["components"], record["exponentSum"]) == ("4: 1 2 -2 1 3 1 2", 1, 5)
    _, reduced, _ = run_cli("invariant", "--d", "2", "--subset", "0,1", "--braid", "1 1 1", "--format", "json")
    assert record["invariant"] == json.loads(reduced)["invariant"]


@pytest.mark.parametrize("command,name,traced", [
    (("invariant", "--d", "2", "--subset", "0"), "delta_invariant", "3: 1 1 1"),
    (("adelic", "--chain", "2,4", "--subset", "0"), "adelic_delta", "3: 1 1 1"),
    (("trace", "--d", "2"), "trace_of_braid", "4: 1 1 1 3"),
    (("trace", "--d", "2", "--subset", "0"), "trace_of_braid", "4: 1 1 1 3"),
])
def test_records_trace_the_reduced_closure(monkeypatch, command, name, traced):
    """Invariant records trace the Markov-reduced closure and trace records
    the cyclically reduced word; the text line shows the braid as given."""
    seen = []
    real = getattr(yhecke.cli, name)

    def spy(*args):
        seen.append(next(str(a) for a in args if isinstance(a, BraidWord)))
        return real(*args)

    monkeypatch.setattr(yhecke.cli, name, spy)
    code, out, _ = run_cli(*command, "--braid", "4: 2 1 1 1 3 -2")
    assert code == EXIT_OK and seen == [traced]
    assert "(4: 2 1 1 1 3 -2)" in out


def test_verify_markov_traces_the_unreduced_words(monkeypatch):
    """The suite compares a braid with its conjugate and stabilization as
    written; reducing them first would make it test nothing."""
    seen: list[BraidWord] = []

    def recording(d, subset, b):
        seen.append(b)
        return real(d, subset, b)

    real = yhecke.cli.delta_invariant
    monkeypatch.setattr(yhecke.cli, "delta_invariant", recording)
    code, out, _ = run_cli("verify", "--suite", "markov", "--seed", "3")
    assert code == EXIT_OK and "suite markov: PASS" in out
    assert len(seen) == 45
    for base, conj, stab in zip(seen[::3], seen[1::3], seen[2::3]):
        assert stab.strands == base.strands + 1 and stab.letters[:-1] == base.letters
        assert abs(stab.letters[-1]) == base.strands
        w = len(conj.letters) - len(base.letters)
        assert conj.strands == base.strands and w % 2 == 0
        assert conj.letters[w // 2:w // 2 + len(base.letters)] == base.letters


def test_program_has_no_assert_statements():
    """python -O strips assert, so no check in the program may be one."""
    import ast

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "yhecke").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_workload_records_replay_byte_identically():
    """The seed-1 records of the three benchmark workloads, frozen under
    ``tests/golden/`` with one sha256 per workload of every record's exit
    code, stdout and stderr, replayed in turn through ``main``."""
    frozen = json.loads((GOLDEN / "workload_records_seed1.json").read_text(encoding="utf-8"))
    assert sorted(frozen) == ["adelic_chains", "generic_trace_d4", "writhe_knots"]
    for workload, entry in frozen.items():
        digest = hashlib.sha256()
        for argv in entry["records"]:
            code, out, err = run_cli(*argv)
            digest.update(json.dumps([code, out, err]).encode())
        assert digest.hexdigest() == entry["sha256"], workload
