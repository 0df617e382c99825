"""The record stream of `verify --format csv` pinned by digest.

Every check runs in-process at a fixed bound, and six of them also with
two worker processes.  The sha256 covers the lines between the timestamp
line and the summary line: the header and each record with its predicted
and oracle strings (the d= of candp, the Q= of kuroda, ...) and verdict.
The summary line is asserted exactly.  The units one run computes are
pinned the same way.  A refactor of the arithmetic
underneath must leave these digests unchanged; a deliberate change of the
records has to update them here.
"""

import hashlib

import pytest

from quadrec.cli import main
from quadrec.sweeps import SweepConfig, run_check, summarize

PINNED = {
    ("thm-sq", 100): (106, "e17a657edcaded7c4c02f570d27966dda72088ccf016d7ddf73f5347e59eae9c"),
    ("thm-sq", 200): (373, "6d5fb7b0b33cc67c6b6539fe19fc7eedaeeb765553d58790cdc1583ae3db6d9d"),
    ("pos-norm", 1200): (557, "b0d6113b14f27cae3be5b949a5296a702373ac429766fbbfa739314fa942e7df"),
    # five generators, a 32-entry radicand table
    ("pos-norm", 4000): (1902, "e7b3da9e70c6abc6db2890e80618e7fb014f7b02fd455f1ed1ae5a0cc550666d"),
    ("kuroda", 60): (93, "0b298429aa82f559eaa9f3db0056f59dc21665479636f6c8172d6273023fad76"),
    ("kuroda", 120): (707, "c486d521ac40183f04ad6766a89f541c338431aa23b4c108482ef921bbbe4c6b"),
    ("kuroda", 240): (3105, "822aefd5b301faba4931ddc10e9ed9a43d6ef6b9f2854eb8e9cf7d7808cf0471"),
    ("candp", 600): (431, "abe02ae87daa11b552453718d9a2e298cacf431ccf6de377c14b9ebbc4a6fa2b"),
    ("candp", 1200): (889, "33221acb264dec00c070d4044c2d57168a09ae79765c44f207c2f6c5722b1907"),
    ("candm", 60): (12, "1d01e46a5838ed20139622c746da8fb50d3f947d6e7724649ba7d97c5f331d1c"),
    ("candm", 120): (74, "48bdff69d080a447e92451a9cc1cdbb663af596d9c077767c6352559aedb688b"),
    ("candm", 480): (1899, "c55e8ac0e79901e26c694f1460ad08aa109c158b5e5216583037d5a6b0bd51f6"),
    ("lemma-e", 1000): (104, "2e3a3d67b73040d320338f82191aa3af4d03ea62fb65ecf9d6d2e9a2bc0398b3"),
    ("triangles", 8): (141, "c3576b55b519ffd151194b3e4bb0365ba122394259e2ab6f8cff81096692f27a"),
    ("triangles", 11): (1223, "5ee1fb0cece5591bafc8095d57345eac5a9a9de72e744d74eebfbed6adc648ee"),
    ("triangles", 12): (2255, "57fd0d18a1a212ca4c510216222ac9a666eeafa2b869e162cf8639eeacc1b29f"),
    ("triangles", 14): (6484, "7f0fd1af3db97a4e256357b2a6dd8d45ca041d78b9d314b445cf4ac3e158b7bc"),
    ("scholz", 300): (413, "a24d109d77989a8ddba268da050ecb628b7f7c2bd2159982cc5fea6cb134f587"),
    ("scholz", 3000): (21981, "9a5488d1f84682386cf1307365f040ab879c3e844ad89fca253074584211e9bd"),
    ("scholz2", 100): (108, "0bce50b97c45d2643c099c8a3454f6b136818a8dab756e95f43f47fe7ba13d18"),
    ("scholz2", 200): (678, "0fece47907d24d22e7c69bc057615080baf9ed932bde27a94c5acbe79592b21d"),
    ("norm-sign", 5000): (110, "95f1d025f39893c61fbb75373df13cd864b3d68d1a38fc7f62adb3b9adbb9541"),
    ("norm-sign", 50000): (1122, "509bd4bfede8808e683d8c024de2318e3276e40f8e752e5934f2ce34a0215fb5"),
    ("duality", 10): (203, "f34a98328df4ec073eb699e65ad35ec17306182b809fe2fb87f39f6b20ffb3d5"),
    ("duality", 16): (203, "bda0bbac4ecc77452f059f48ed980fbe9eb3711990e3e104570e71a1c25d03be"),
    ("duality", 60): (203, "4d226de783c7618787be95c7745e5c0be82cb5f3ed846b1f8cdffb67945f86d5"),
}


def assert_pinned(capsys, check, bound, *options):
    assert main(["verify", "--check", check, "--bound", str(bound),
                 "--format", "csv", *options]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert lines[0].startswith("# quadrec verify ")
    count, digest = PINNED[check, bound]
    assert len(lines) == count
    assert lines[-1] == f"# summary pass={count - 3} fail=0\n"
    got = hashlib.sha256("".join(lines[1:-1]).encode()).hexdigest()
    assert got == digest, f"{check} at bound {bound}: records digest {got}"


@pytest.mark.parametrize("check,bound", sorted(PINNED))
def test_verify_records_match_pinned_digest(check, bound, capsys):
    assert_pinned(capsys, check, bound)


@pytest.mark.parametrize("check,bound", [("thm-sq", 100), ("kuroda", 60),
                                         ("lemma-e", 1000), ("triangles", 8),
                                         ("duality", 16), ("scholz", 3000)])
def test_verify_records_under_jobs_match_pinned_digest(check, bound, capsys):
    assert_pinned(capsys, check, bound, "--jobs", "2")


UNIT_CACHE_SHA256 = "eab0e9948e83754f8839e0462719fcd316cb5b4d2a1749c2e46f7498566495aa"


def test_unit_cache_file_matches_pinned_digest(computed_units):
    # one `m x y den norm` line per distinct unit computed, sorted by m, pins
    # every unit these two checks read, digits and all
    for check in ("norm-sign", "lemma-e"):
        assert summarize(run_check(check, SweepConfig(bound=50000)))["fail"] == 0
    data = "".join(f"{u.m} {u.x} {u.y} {u.den} {u.norm}\n"
                   for _, u in sorted(computed_units.items())).encode()
    assert len(computed_units) == data.count(b"\n") == 20825
    assert hashlib.sha256(data).hexdigest() == UNIT_CACHE_SHA256
