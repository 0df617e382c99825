"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import csv
import gzip
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import child
import run
import tracer

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _run(*args, cwd=run.ROOT, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture(scope="module")
def declared():
    with open(BENCHMARK_JSON, encoding="ascii") as fh:
        return json.load(fh)


def test_benchmark_json_declares_what_the_code_reports(declared):
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert declared["per_layer"] == tracer.declared_metrics()
    assert len(declared["per_layer"]) <= 128


def test_benchmark_json_names_and_units_are_well_formed(declared):
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit_re = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in declared[key]]
    assert len(names) == len(set(names))
    assert all(name_re.fullmatch(n) for n in names)
    assert all(unit_re.fullmatch(m["unit"]) for key in ("end_to_end", "per_layer")
               for m in declared[key])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in declared["workloads"])
    assert os.path.getsize(BENCHMARK_JSON) <= 64 * 1024


def test_references_match_the_workloads():
    for workload in run.WORKLOADS:
        ref = run.load_reference(workload)
        assert all(c["records"] > 0 for call in ref["calls"]
                   for c in call["checks"].values())


@pytest.mark.parametrize("workload", sorted(run.SMOKE_WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload, declared):
    out = _run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", "0", "--smoke", timeout=60)
    assert out.returncode == 0, out.stderr
    last = _last_json(out.stdout)
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert list(last["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_smoke_traced_run_reports_every_per_layer_metric(declared):
    out = _run("--workload", "graphs", "--seed", "0", "--seconds", "1",
               "--trace", "1", "--smoke", timeout=60)
    assert out.returncode == 0, out.stderr
    last = _last_json(out.stdout)
    assert last["correct"]
    assert list(last["metrics"]) == [m["name"] for m in declared["per_layer"]]
    assert {k: m["unit"] for k, m in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert last["metrics"]["f2graph.triangle_decompose.calls"]["value"] > 0


@pytest.mark.parametrize("workload", sorted(run.SMOKE_WORKLOADS))
def test_traced_stream_equals_untraced(workload, tmp_path):
    calls = run._calls(run.SMOKE_WORKLOADS[workload], 1)
    plain = run._run_child(calls, False, 60)
    traced = run._run_child(calls, True, 60, str(tmp_path / "spans.csv.gz"))
    assert [c["rc"] for c in traced["calls"]] == [c["rc"] for c in plain["calls"]]
    assert [c["checks"] for c in traced["calls"]] == [c["checks"] for c in plain["calls"]]
    assert "layers" in traced and "layers" not in plain
    assert not traced["trace"]["missing"]


def test_tracer_wraps_every_namespace_that_binds_a_name(tmp_path):
    calls = run._calls(run.SMOKE_WORKLOADS["squares"][:1], 0)
    spans = tmp_path / "spans.csv.gz"
    traced = run._run_child(calls, True, 60, str(spans))
    with gzip.open(spans, "rt", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == traced["trace"]["spans"]
    assert rows[0]["function"] == "cli.main" and rows[0]["parent"] == "-1"
    installed = set(traced["trace"]["installed"])
    # defined in mquad, imported into apps by name
    assert {"quadrec.mquad.is_square", "quadrec.apps.is_square"} <= installed
    # defined in pell, imported into sweeps and apps
    assert {"quadrec.pell.fundamental_unit", "quadrec.sweeps.fundamental_unit",
            "quadrec.apps.fundamental_unit"} <= installed
    layers = traced["layers"]
    assert layers["apps.theorem_sq_check.calls"] > 0
    assert layers["mquad.is_square.calls"] == sum(
        layers[f"mquad.is_square.calls.t{t}"] for t in tracer.SQUARE_GENERATORS)
    assert layers["mquad.is_square.calls"] == (
        layers["mquad.is_square.square"] + layers["mquad.is_square.nonsquare"]
        + layers["mquad.is_square.undecided"])
    assert layers["sweeps.check_s.thm-sq"] == layers["sweeps.run_check.s"]
    assert 0 < layers["arith.is_prime.hit_ratio"] < 1


def test_check_streams_counts_and_digests():
    text = ("# quadrec verify 2020-01-01T00:00:00Z\n"
            "check,instance,predicted,oracle,verdict\n"
            'candp,"m=5,n=13",even,"d=1,|{}|=0",pass\n'
            "lemma-e,eps_5,congruent,x-even,fail\n"
            "lemma-e,eps_13,congruent,congruent,pass\n"
            "# summary pass=2 fail=1 undecided=0\n")
    streams = child._check_streams(text)
    assert streams["candp"]["records"] == 1 and streams["candp"]["nonpass"] == 0
    assert streams["lemma-e"]["records"] == 2 and streams["lemma-e"]["nonpass"] == 1
    assert child._check_streams(text.replace("2020", "2021")) == streams


def _sample(checks, rc=0):
    return {"calls": [{"argv": [], "rc": rc, "checks": checks}]}


def _reference():
    return {"calls": [{"argv": ["verify"], "checks": {
        "scholz": {"records": 4, "sha256": "a"},
        "duality": {"records": 3, "sha256": "b"}}}]}


def _got(records, sha, nonpass=0):
    return {"records": records, "sha256": sha, "nonpass": nonpass}


@pytest.mark.parametrize("seed, checks, rc, failed", [
    (0, {"scholz": _got(4, "a"), "duality": _got(3, "b")}, 0, 0),
    # only duality's records depend on the seed
    (5, {"scholz": _got(4, "a"), "duality": _got(3, "z")}, 0, 0),
    (0, {"scholz": _got(4, "a"), "duality": _got(3, "z")}, 0, 3),
    (5, {"scholz": _got(4, "z"), "duality": _got(3, "b")}, 0, 4),
    # a non-pass record, a missing record, an aborted call
    (0, {"scholz": _got(4, "a", nonpass=1), "duality": _got(3, "b")}, 3, 1),
    (0, {"scholz": _got(3, "a"), "duality": _got(3, "b")}, 0, 4),
    (0, {}, 2, 7),
])
def test_sample_failures(seed, checks, rc, failed):
    sample = _sample(checks, rc)
    got, notes = run.sample_failures(sample, _reference(), seed, sample["calls"])
    assert got == failed
    assert bool(notes) == bool(failed)


def test_samples_of_one_run_must_agree():
    first = _sample({"scholz": _got(4, "a"), "duality": _got(3, "x")})
    other = _sample({"scholz": _got(4, "a"), "duality": _got(3, "y")})
    failed, _ = run.sample_failures(other, _reference(), 5, first["calls"])
    assert failed == 3


def test_without_the_package_it_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run("--workload", "graphs", "--seed", "0", "--seconds", "1",
               "--trace", "0", cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
