"""One benchmark sample, run in a fresh interpreter by run.py.

    python3 child.py SRC SPAWNED SPEC_JSON

SRC is the directory holding the `quadrec` package, SPAWNED the parent's
`time.monotonic()` just before it started this process (the clock is
system-wide), and SPEC_JSON `{"calls": [argv, ...], "trace": 0|1, "spans":
PATH}`.  The
sample imports quadrec, then calls `quadrec.cli.main(argv)` for each argv in
turn with stdout captured, timing each call from outside.  It prints one
JSON object: set-up time, peak RSS, and per call the exit code, the time and,
per check, the record count, the non-pass count and a digest of the record
lines.  With trace 1 the tracer is installed after the import, the
spans are written to PATH after the last call, and the object also carries
the per-layer metrics.  An empty call list only
measures set-up.

Exit codes: 0 sample ran (calls may still have failed), 2 quadrec could not
be imported from SRC.
"""

import csv
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout


def _check_streams(text: str) -> dict:
    """Per check: record count, non-pass count and sha256 of the record
    lines in order.  Comment lines (the timestamp and the summary) and the
    header row are not records."""
    out: dict[str, dict] = {}
    hashes: dict[str, object] = {}
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    for line, row in zip(lines[1:], csv.reader(lines[1:])):
        check, verdict = row[0], row[-1]
        cell = out.setdefault(check, {"records": 0, "nonpass": 0})
        cell["records"] += 1
        cell["nonpass"] += verdict != "pass"
        hashes.setdefault(check, hashlib.sha256()).update(line.encode() + b"\n")
    for check, h in hashes.items():
        out[check]["sha256"] = h.hexdigest()
    return out


def _cpu_s() -> float:
    """CPU seconds of this process and of its ended children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _run_call(cli, argv: list[str]) -> dict:
    buf = io.StringIO()
    c0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash inside one call is that call's failure
        traceback.print_exc()
        rc = -1
    elapsed = time.perf_counter() - t0
    return {"argv": argv, "rc": rc, "s": elapsed, "cpu_s": _cpu_s() - c0,
            "checks": _check_streams(buf.getvalue())}


def main() -> int:
    # set-up: interpreter start, the standard modules above, and quadrec
    sys.path.insert(0, sys.argv[1])
    try:
        from quadrec import cli
    except ImportError as exc:
        print(f"cannot import quadrec from {sys.argv[1]}: {exc}", file=sys.stderr)
        return 2
    setup_s = time.monotonic() - float(sys.argv[2])
    src = os.path.realpath(sys.argv[1])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"quadrec was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    spec = json.loads(sys.argv[3])
    tracer = None
    if spec["trace"]:
        import tracer as tracing
        from quadrec import arith
        is_prime = getattr(arith, "is_prime", None)
        quartic = getattr(arith, "quartic", None)
        tracer = tracing.Tracer()
        tracer.install()
    calls = [_run_call(cli, argv) for argv in spec["calls"]]
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verify_s": sum(c["s"] for c in calls),
        "cpu_s": sum(c["cpu_s"] for c in calls),
        "calls": calls,
    }
    if tracer is not None:
        tracer.write_spans(spec["spans"])
        agg = tracer.aggregate()
        result["layers"] = tracing.layer_metrics(agg, is_prime, quartic)
        result["trace"] = agg
    print(json.dumps(result), file=sys.__stdout__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
