"""Benchmark of `quadrec verify`: end-to-end gates and a traced per-layer run.

    python3 perfbench/run.py --workload squares --seed 0 --seconds 30 --trace 0

Each sample is a fresh interpreter (child.py) that imports quadrec and calls
`quadrec.cli.main(["verify", ...])` for each call of the workload, one after
another (a closed loop with one caller).  A fresh process pays the
per-process caches a user pays on every run: the in-memory unit cache, the
lru_caches on `is_prime`, `quartic` and `_factorize`, and the V-prime sieve.
Samples run one after another until the next one would overrun --seconds.

--trace 0 reports the end-to-end metrics, as medians over the samples:
  verify_s     wall time of the workload's verify calls in one process
  setup_s      time from starting a child to `quadrec.cli` being imported,
               over every sample and import-only children run between
               samples and in what the samples leave of the budget
  peak_rss_mb  the sample process's peak resident memory
  pass_share   1 - failed records / reference records
--trace 1 alternates untraced and traced samples and reports the per-layer
metrics of tracer.py from the median traced sample, plus trace.overhead_s,
the traced minus the untraced median verify_s.

Every sample's record stream is checked against reference/<workload>.json,
made at seed 0: per check the record count and the sha256 of its CSV record
lines.  Every record must be `pass`; the counts must match at any seed; the
digests must match at seed 0, and at any seed for the checks whose records
do not depend on the seed (all but duality).  All samples of one run must
produce the same stream.  A check whose call aborted, or whose count or
pinned digest differs, counts all its reference records as failed.  Any
failure prints `"correct": false` and exits 1.

The last stdout line is one JSON object: correct, attempted (reference
records times samples), failed and metrics.  A results file with an
environment header goes to perfbench/out/.

Other modes:
  --smoke             small bounds; the first sample stands in for the
                      reference, once its calls all exited 0 with records
  --scaling           each check at 1x, 2x and 4x its default bound under a
                      time cap: seconds, `exit N` or `timeout` (not gated)
  --write-reference   rewrite reference/<workload>.json from one seed-0 sample

Exit codes: 0 measured and correct, 1 an output was wrong, 2 quadrec could
not be run (for example, no src/quadrec next to perfbench/).

Self-tests: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import datetime
import glob
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
REFERENCE_DIR = os.path.join(HERE, "reference")

# A run must end within 180 s; children get what is left of this.
HARD_LIMIT_S = 170.0
# import-only children: after each sample, then the fewest and most per run
PROBES_PER_SAMPLE = 2
SETUP_PROBES = (6, 40)
SCALING_FACTORS = (1, 2, 4)
SCALING_CAP_S = 30.0
SEED_DEPENDENT = {"duality"}

# The verify defaults when the benchmark was written; the scaling report
# keeps them fixed so that its curves compare across commits.
DEFAULT_BOUNDS = {
    "scholz": 300, "scholz2": 100, "duality": 10, "triangles": 10,
    "thm-sq": 100, "pos-norm": 500, "lemma-e": 1000, "candm": 60,
    "candp": 600, "norm-sign": 5000, "kuroda": 60,
}


def _per_check(*pairs) -> list[list[str]]:
    return [["verify", "--check", c, "--bound", str(b)] for c, b in pairs]


# Why each workload: square detection (mquad.is_square) dominates `squares`;
# Pollard rho under lemma-e, unit symbols and continued fractions dominate
# `units`; triangle decomposition, its V-prime sieve and v_symbol dominate
# `graphs`; `suite-jobs2` is the user's literal command and the only one on
# the process-pool path.  Each stays below the known cliffs (lemma-e >= 1500
# hangs; pos-norm >= 1155 exits 2, since 3*5*7*11 with sqrt(2) needs five
# generators; triangles 20 blows up); --scaling reports those.
WORKLOADS = {
    "squares": _per_check(("thm-sq", 200), ("pos-norm", 1000), ("kuroda", 120),
                          ("candp", 1200), ("candm", 120)),
    "units": _per_check(("lemma-e", 1000), ("norm-sign", 50000),
                        ("scholz", 3000)),
    "graphs": _per_check(("triangles", 11), ("duality", 16), ("scholz2", 200)),
    "suite-jobs2": [["verify", "--jobs", "2"]],
}

SMOKE_WORKLOADS = {
    "squares": _per_check(("thm-sq", 60), ("pos-norm", 150), ("kuroda", 40),
                          ("candp", 200), ("candm", 60)),
    "units": _per_check(("lemma-e", 150), ("norm-sign", 2000), ("scholz", 200)),
    "graphs": _per_check(("triangles", 7), ("duality", 8), ("scholz2", 60)),
    "suite-jobs2": [["verify", "--jobs", "2", "--bound", "8"]],
}

END_TO_END_UNITS = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "pass_share": "share"}


def _calls(base: list[list[str]], seed: int) -> list[list[str]]:
    return [argv + ["--format", "csv", "--seed", str(seed)] for argv in base]


# --- child processes -------------------------------------------------------

def _run_child(calls, trace: bool, timeout: float, spans: str | None = None) -> dict | None:
    """One fresh sample process; None if it failed to report.  A traced
    sample writes its spans to `spans`."""
    spawned = time.monotonic()
    spec = json.dumps({"calls": calls, "trace": int(trace), "spans": spans})
    # -S: site-packages hooks of the host are not quadrec's set-up
    proc = subprocess.Popen(
        [sys.executable, "-S", os.path.join(HERE, "child.py"), SRC, repr(spawned), spec],
        stdout=subprocess.PIPE, cwd=ROOT, start_new_session=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    try:
        out, _ = proc.communicate(timeout=max(timeout, 0.1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pool workers too
        proc.communicate()
        print(f"sample timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode == 2:
        raise SystemExit(2)
    if proc.returncode != 0 or not out.strip():
        print(f"sample exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.decode().strip().splitlines()[-1])


# --- correctness ------------------------------------------------------------

def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="ascii") as fh:
        ref = json.load(fh)
    if [c["argv"] for c in ref["calls"]] != WORKLOADS[workload]:
        raise SystemExit(f"reference/{workload}.json was made for other calls; "
                         f"rerun with --write-reference")
    return ref


def sample_failures(sample, reference, seed: int, first) -> tuple[int, list[str]]:
    """Failed reference records of one sample, and why."""
    failed, notes = 0, []
    calls = sample["calls"] if sample else [None] * len(reference["calls"])
    for i, ref_call in enumerate(reference["calls"]):
        call = calls[i]
        aborted = call is None or call["rc"] not in (0, 3, 4)
        got_checks = {} if aborted else call["checks"]
        if aborted:
            notes.append(f"{' '.join(ref_call['argv'])}: aborted "
                         f"(rc {call['rc'] if call else 'none'})")
        for extra in sorted(set(got_checks) - set(ref_call["checks"])):
            notes.append(f"{extra}: records not in the reference")
            failed += 1
        for check, ref in ref_call["checks"].items():
            got = got_checks.get(check)
            pinned = seed == 0 or check not in SEED_DEPENDENT
            if got is None or got["records"] != ref["records"]:
                if not aborted:
                    notes.append(f"{check}: {got['records'] if got else 0} records, "
                                 f"reference {ref['records']}")
                failed += ref["records"]
            elif pinned and got["sha256"] != ref["sha256"]:
                notes.append(f"{check}: records differ from the reference")
                failed += ref["records"]
            elif got["sha256"] != first[i]["checks"].get(check, {}).get("sha256"):
                notes.append(f"{check}: records differ between samples")
                failed += ref["records"]
            else:
                if got["nonpass"]:
                    notes.append(f"{check}: {got['nonpass']} records not pass")
                failed += got["nonpass"]
    return failed, notes


def reference_from(sample, base) -> dict:
    """The per-check counts and digests of one sample, as a reference."""
    return {"calls": [
        {"argv": argv, "checks": {name: {"records": c["records"], "sha256": c["sha256"]}
                                  for name, c in call["checks"].items()}}
        for argv, call in zip(base, sample["calls"])]}


# --- environment ------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "quadrec", "*.py"))):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment(seed: int, samples: int, calls: dict) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "samples": samples,
        "calls": calls,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def _write_results(name: str, payload: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return path


# --- the gated run ------------------------------------------------------------

def _check_samples(samples, reference, seed: int):
    """(failed, attempted, notes) over all samples of one run."""
    failed = attempted = 0
    notes: list[str] = []
    first = next((s["calls"] for s in samples if s is not None), None)
    per_sample = sum(c["records"] for call in reference["calls"]
                     for c in call["checks"].values())
    for sample in samples:
        f, n = sample_failures(sample, reference, seed, first)
        failed, attempted = failed + f, attempted + per_sample
        notes += n
    return failed, attempted, sorted(set(notes))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> int:
    start = time.monotonic()
    hard_end, budget_end = start + HARD_LIMIT_S, start + seconds
    base = (SMOKE_WORKLOADS if smoke else WORKLOADS)[workload]
    reference = None if smoke else load_reference(workload)
    calls = _calls(base, seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"{workload}{'-smoke' if smoke else ''}-spans.csv.gz")

    setup: list[float] = []

    def probe() -> None:
        got = _run_child([], False, hard_end - time.monotonic())
        if got is None:
            raise SystemExit(2)
        setup.append(got["setup_s"])

    plain, traced = [], []
    while True:
        want_trace = trace and len(traced) < len(plain)
        t0 = time.monotonic()
        sample = _run_child(calls, want_trace, hard_end - time.monotonic(), spans)
        (traced if want_trace else plain).append(sample)
        took = time.monotonic() - t0
        if sample is None:
            break
        if not trace:
            for _ in range(PROBES_PER_SAMPLE):
                probe()
        if trace and not traced:
            continue
        if time.monotonic() + took > budget_end:
            break
    # import-only children fill what the samples left of the budget
    while not trace and (len(setup) < SETUP_PROBES[0] or (
            len(setup) < SETUP_PROBES[1] and time.monotonic() < budget_end)):
        probe()

    samples = plain + traced
    failed, notes = 0, []
    if smoke:
        # no committed reference: the first sample is one, once every call
        # in it exited 0 with records
        first = samples[0] or {"calls": []}
        for argv, call in zip(base, first["calls"]):
            if call["rc"] != 0 or not call["checks"]:
                failed += 1
                notes.append(f"{' '.join(argv)}: rc {call['rc']}, "
                             f"{len(call['checks'])} checks")
        reference = reference_from(first, base)
    f, attempted, n = _check_samples(samples, reference, seed)
    failed, notes = failed + f, notes + n
    correct = failed == 0 and all(s is not None for s in samples)
    ok_plain = [s for s in plain if s is not None]
    ok_traced = [s for s in traced if s is not None]

    metrics: dict[str, dict] = {}
    extra: dict = {}
    if ok_plain and (ok_traced or not trace):
        verify_s = statistics.median(s["verify_s"] for s in ok_plain)
        if trace:
            chosen = sorted(ok_traced, key=lambda s: s["verify_s"])[(len(ok_traced) - 1) // 2]
            values = dict(chosen["layers"])
            values["trace.overhead_s"] = (
                statistics.median(s["verify_s"] for s in ok_traced) - verify_s)
            for decl in tracer.declared_metrics():
                metrics[decl["name"]] = {"value": values[decl["name"]],
                                         "unit": decl["unit"]}
            extra["trace"] = chosen["trace"]
            extra["spans_file"] = os.path.relpath(spans, ROOT)
            if workload == "suite-jobs2":
                notes.append("pool workers are forked: only spans of the parent "
                             "process (cli, sweeps and enumeration) are seen")
        else:
            setup += [s["setup_s"] for s in ok_plain]
            values = {
                "verify_s": verify_s,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in ok_plain),
                "pass_share": 1 - failed / attempted,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in values.items()}
            for key, vals in (("verify_s", [s["verify_s"] for s in ok_plain]),
                              ("setup_s", setup)):
                extra.setdefault("spread", {})[key] = {
                    "n": len(vals), "min": min(vals), "max": max(vals)}

    env = environment(seed, len(ok_plain), {workload: calls})
    results = {
        "env": env, "workload": workload, "trace": int(trace), "smoke": smoke,
        "seconds": seconds, "correct": correct, "attempted": attempted,
        "failed": failed, "notes": notes, "metrics": metrics,
        "setup_times_s": setup,
        "samples": [None if s is None else {
            "traced": i >= len(plain), "verify_s": s["verify_s"], "cpu_s": s["cpu_s"],
            "setup_s": s["setup_s"], "peak_rss_mb": s["peak_rss_mb"],
            "calls": [{"argv": c["argv"], "rc": c["rc"], "s": c["s"], "cpu_s": c["cpu_s"]}
                      for c in s["calls"]]} for i, s in enumerate(samples)],
        **extra,
    }
    path = _write_results(
        f"{workload}{'-smoke' if smoke else ''}-seed{seed}-trace{int(trace)}.json",
        results)

    print(f"# {workload}: python {env['python']}, nproc {env['nproc']}, "
          f"{env['cpu_model']}, commit {env['git_commit']}, seed {seed}")
    print(f"# {len(ok_plain)} untraced, {len(ok_traced)} traced samples, "
          f"{len(setup)} set-up times; results in {os.path.relpath(path, ROOT)}")
    for note in notes:
        print(f"# note: {note}")
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and metrics else 1


# --- reference and scaling ------------------------------------------------------

def write_reference() -> int:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload, base in WORKLOADS.items():
        sample = _run_child(_calls(base, 0), False, 600)
        if sample is None or any(c["rc"] != 0 for c in sample["calls"]):
            print(f"{workload}: reference sample failed", file=sys.stderr)
            return 1
        ref = {"workload": workload, "seed": 0, **reference_from(sample, base)}
        with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), "w",
                  encoding="ascii") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
        records = sum(c["records"] for call in ref["calls"]
                      for c in call["checks"].values())
        print(f"{workload}: {records} records in {sample['verify_s']:.2f} s")
    return 0


def scaling(seed: int) -> int:
    rows = []
    for check, default in DEFAULT_BOUNDS.items():
        for factor in SCALING_FACTORS:
            bound = default * factor
            argv = ["verify", "--check", check, "--bound", str(bound),
                    "--format", "csv", "--seed", str(seed)]
            sample = _run_child([argv], False, SCALING_CAP_S)
            if sample is None:
                outcome = "timeout"
            elif sample["calls"][0]["rc"] != 0:
                outcome = f"exit {sample['calls'][0]['rc']}"
            else:
                outcome = f"{sample['verify_s']:.3f} s"
            records = 0 if sample is None else sum(
                c["records"] for c in sample["calls"][0]["checks"].values())
            rows.append({"check": check, "factor": factor, "bound": bound,
                         "outcome": outcome, "records": records,
                         "verify_s": sample["verify_s"] if sample else None})
            print(f"{check:<10} {factor}x bound {bound:<6} {outcome:>12}  "
                  f"{records} records", flush=True)
    env = environment(seed, 1, {"scaling": [
        f"{r['check']} --bound {r['bound']}" for r in rows]})
    path = _write_results(f"scaling-seed{seed}.json",
                          {"env": env, "cap_s": SCALING_CAP_S, "rows": rows})
    print(f"# results in {os.path.relpath(path, ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small bounds, checked against the run's first sample")
    parser.add_argument("--scaling", action="store_true",
                        help="time each check against 1x, 2x and 4x its default bound")
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite the seed-0 references")
    args = parser.parse_args(argv)
    # a terminated run still kills its children (see _run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "quadrec")):
        print(f"no quadrec package under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    if args.scaling:
        return scaling(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args.workload, args.seed, args.seconds, bool(args.trace),
                   args.smoke)


if __name__ == "__main__":
    sys.exit(main())
