"""Record benchmark of the yhecke command line.

    python3 bench/run.py --workload writhe_knots --seed 1 --seconds 20 --trace 0

Runs the records of one workload (see ``workloads.py``) in one fresh,
single-threaded Python process that imports ``yhecke`` from ``src/`` and
calls ``yhecke.cli.main`` once per record.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it runs the same records with spans
installed and prints the per-layer metrics.  The outputs are checked after
the timed section.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the same object, and
for a traced run every span, is also written under ``bench/results/``.

``--seconds`` sets how many whole rounds of records the run holds (about
that many CPU seconds at the speed the rounds were sized on); the count
does not depend on measured speed, so every commit does the same work.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 9  # fresh processes timed for set-up, besides the worker itself
RUN_LIMIT_S = 170  # the whole run must end within 180 s

from workloads import WORKLOADS, generate  # noqa: E402


def _worker(args: list[str], deadline: float, stdin: str | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        input=stdin, capture_output=True, text=True, env=env,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    records = generate(workload, seed, seconds)
    setups = []
    if not trace:
        _worker(["--setup-only"], deadline)  # the first start in a checkout compiles the sources
        setups = [_worker(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    job = json.dumps({"records": [list(r.argv) for r in records], "trace": trace})
    result = _worker([], deadline, job)
    from checks import check_run  # sympy is loaded only after the timed process

    reasons, wrong = check_run(records, result["codes"], result["outputs"])
    failed = sum(r is not None for r in reasons)
    for record, reason, error in zip(records, reasons, result["errors"]):
        if reason is not None:
            print(f"FAILED {' '.join(record.argv)}: {reason}\n{error}", file=sys.stderr)
    if trace:
        metrics = {
            name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
            for name, value in result["layers"].items()
        }
    else:
        cpu = result["record_cpu_s"]
        metrics = {
            "cpu_s": {"value": result["cpu_s"], "unit": "s"},
            "record_cpu_p50_ms": {"value": 1000 * statistics.median(cpu), "unit": "ms"},
            "record_cpu_p90_ms": {"value": 1000 * statistics.quantiles(cpu, n=100)[89], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups + [result["setup_s"]]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    summary = {"correct": wrong == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}" + ("-trace" if trace else "")
    detail = dict(summary, cpu_s=result["cpu_s"], records=[
        {"argv": list(r.argv), "group": r.group, "role": r.role, "cpu_s": t, "failure": reason}
        for r, t, reason in zip(records, result["record_cpu_s"], reasons)
    ])
    if trace:
        detail["spans"] = result["spans"]
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail))
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "yhecke" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
