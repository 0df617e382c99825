"""The record stream of `verify --format csv` pinned by digest.

Each check runs in-process at a small bound, and three of them also with two
worker processes.  The sha256 covers every line after the timestamp line:
the header, each record with its predicted and oracle strings (the d= of
candp, the Q= of kuroda, ...) and verdict, and the summary.  A refactor of
the arithmetic underneath must leave these digests unchanged; a deliberate
change of the records has to update them here.
"""

import hashlib

import pytest

from quadrec.cli import main

PINNED = {
    ("thm-sq", 100): (106, "b628195d8c0129eaacb761019962501f0bdf86b4117b004ee021b79d93e3c5e4"),
    ("pos-norm", 1200): (557, "e52406c66dfa57e96bd666cac4748e9f4d6c014fdb93b73f3c110f49fd13d2a9"),
    ("kuroda", 60): (93, "27fc908acd88094e7417d53d21a6ffd56d46257d8745b930ab8d835d02b3fd41"),
    ("candp", 600): (431, "d3d1132b51cd656e41d16f04bfd369e7312d2746e061c3507c7c5a70079598fe"),
    ("candm", 60): (12, "6ed6311ea4b129130b87a3496365aaa1f3e3ff4ae77be81c87e14913340aac65"),
    ("lemma-e", 1000): (104, "dd6c2a6e008ef894c5577ed3a32e13a789fc2dd93bc6f24114774ae6c5c94d2c"),
    ("triangles", 8): (141, "96b4ac4b1e31a3e06da125e261a21df2effeb2569395d13d1ff60a0d02fa41f7"),
}


def assert_pinned(capsys, check, bound, *options):
    assert main(["verify", "--check", check, "--bound", str(bound),
                 "--format", "csv", *options]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert lines[0].startswith("# quadrec verify ")
    count, digest = PINNED[check, bound]
    assert len(lines) == count
    assert hashlib.sha256("".join(lines[1:]).encode()).hexdigest() == digest


@pytest.mark.parametrize("check,bound", sorted(PINNED))
def test_verify_records_match_pinned_digest(check, bound, capsys):
    assert_pinned(capsys, check, bound)


@pytest.mark.parametrize("check,bound", [("thm-sq", 100), ("kuroda", 60),
                                         ("lemma-e", 1000)])
def test_verify_records_under_jobs_match_pinned_digest(check, bound, capsys):
    assert_pinned(capsys, check, bound, "--jobs", "2")
