"""One benchmark process: import the program, then run every record in turn.

Usage (``run.py`` starts it with ``PYTHONPATH`` pointing at the program's
sources):

    python3 worker.py --setup-only     # report set-up time and exit
    python3 worker.py < job.json       # run the records of a job

Set-up time is the process CPU time from start to the end of
``import yhecke.cli``; it is taken before the job is read.  Each record is
one call of ``yhecke.cli.main(argv, out, err)``, timed in process CPU time
from argument parsing to the JSON having been written to ``out``.  The
module-level caches of the program live as long as the process, as they do
in a ``--corpus`` run.  The result is one JSON object on stdout.
"""

import time

import yhecke.cli as cli

SETUP_S = time.process_time()

import io  # noqa: E402  (after the set-up measurement)
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def peak_rss_mb() -> float:
    """The high-water mark of this process's resident set (VmHWM).  Unlike
    ru_maxrss it does not inherit the parent's peak across fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_job(job: dict) -> dict:
    tracer = None
    main = cli.main
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        main = tracer.span("cli", cli.main)
    codes, outputs, errors, record_cpu = [], [], [], []
    output_bytes = 0
    start = time.process_time()
    for index, argv in enumerate(job["records"]):
        if tracer is not None:
            tracer.record = index
        out, err = io.StringIO(), io.StringIO()
        t0 = time.process_time()
        try:
            code = main(argv, out, err)
        except Exception:  # a crash is a failed record; the run goes on
            code = -1
            err.write(traceback.format_exc())
        record_cpu.append(time.process_time() - t0)
        text = out.getvalue()
        output_bytes += len(text.encode())
        codes.append(code)
        outputs.append(text)
        errors.append(err.getvalue() if code else "")
    result = {
        "setup_s": SETUP_S,
        "cpu_s": time.process_time() - start,
        "record_cpu_s": record_cpu,
        "peak_rss_mb": peak_rss_mb(),
        "codes": codes,
        "outputs": outputs,
        "errors": errors,
    }
    if tracer is not None:
        result["layers"] = tracer.report(output_bytes)
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    if sys.argv[1:] == ["--setup-only"]:
        json.dump({"setup_s": SETUP_S}, sys.stdout)
    else:
        json.dump(run_job(json.load(sys.stdin)), sys.stdout)
