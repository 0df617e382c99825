"""Sweep driver behavior and the command line surface."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from contextlib import closing
from itertools import combinations, islice, permutations
from math import prod

import pytest

from quadrec import apps, arith, f2graph, pell, sweeps
from quadrec.arith import DomainError, prime_divisors, primes_in_v, v_symbol
from quadrec.cli import main
from quadrec.f2graph import first_v_primes, nonresidue_cycles
from quadrec.invariants import odd_nonresidue_vertices
from quadrec.pell import QuadUnit
from quadrec.sweeps import CHECKS, SweepConfig, SweepRecord, run_check, summarize


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "quadrec.cli", *args],
                          capture_output=True, text=True, timeout=300)


def test_config_validation():
    SweepConfig(bound=2)
    with pytest.raises(DomainError):
        SweepConfig(bound=1)
    with pytest.raises(DomainError):
        SweepConfig(jobs=0)


def test_jobs_above_the_available_cpus_is_refused_before_any_pool(forks, capsys):
    # one more than the CPUs, so a mistake here starts one process at most
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    SweepConfig(jobs=cpus)
    with pytest.raises(DomainError, match=f"at most {cpus}"):
        SweepConfig(jobs=cpus + 1)
    assert main(["verify", "--check", "scholz", "--jobs", str(cpus + 1)]) == 2
    assert f"at most {cpus}" in capsys.readouterr().err
    assert forks == []


def test_default_bounds_cover_all_checks():
    assert set(CHECKS) == {
        "scholz", "scholz2", "duality", "triangles", "thm-sq", "pos-norm",
        "lemma-e", "candm", "candp", "norm-sign", "kuroda"}


def test_scholz_sweep_counts():
    cfg = SweepConfig(bound=100)
    records = run_check("scholz", cfg)
    assert len(records) == 56
    assert summarize(records) == {"pass": 56, "fail": 0}
    with pytest.raises(AssertionError):
        SweepRecord("scholz", "eps_2|17", "+1", "+1", verdict="undecided")
    assert records[0].instance.startswith("eps_")
    # both orientations of the first defined pair appear
    names = [r.instance for r in records]
    assert "eps_2|17" in names and "eps_17|2" in names


def test_scholz_oracles_reject_a_negated_prediction(monkeypatch):
    for check, bound, name, count in (("scholz", 100, "scholz_predict", 56),
                                      ("scholz2", 60, "scholz2_predict", 27)):
        right = getattr(sweeps, name)
        monkeypatch.setattr(sweeps, name, lambda *args, right=right: -right(*args))
        records = run_check(check, SweepConfig(bound=bound))
        assert summarize(records) == {"pass": 0, "fail": count}


def test_v_primes_met_at_2_make_a_unit_modulus_of_1_mod_8():
    # scholz asks for (eps_p/2) only when (p/2) = +1, and scholz2 for
    # (eps_ab/2) only when (a/2) = (b/2) = -1; unit_symbol at 2 needs the
    # modulus = 1 (mod 8), which these facts give without a skip
    odd = primes_in_v(10_000)[1:]
    residues = [p for p in odd if v_symbol(p, 2) == 1]
    nonresidues = [p for p in odd if v_symbol(p, 2) == -1]
    assert {p % 8 for p in residues} == {1}
    assert {p % 8 for p in nonresidues} == {5}
    assert {a * b % 8 for a, b in combinations(nonresidues, 2)} == {1}


def test_lemma_e_oracle_rejects_a_shifted_y(monkeypatch):
    right = QuadUnit.cubed_coordinates

    def shifted(unit):
        x3, y3 = right(unit)
        return x3, y3 + 2

    monkeypatch.setattr(QuadUnit, "cubed_coordinates", shifted)
    records = run_check("lemma-e", SweepConfig(bound=300))
    assert records
    assert {(r.oracle, r.verdict) for r in records} == {("y-mod4", "fail")}


def test_lemma_e_oracle_names_every_broken_claim_in_claim_order(monkeypatch):
    right = QuadUnit.cubed_coordinates

    def shifted(unit):
        x3, y3 = right(unit)
        return x3 + 1, y3 + 2

    # an odd x breaks x-even everywhere and x-mod4 exactly when m = 1 (mod 8)
    monkeypatch.setattr(QuadUnit, "cubed_coordinates", shifted)
    records = run_check("lemma-e", SweepConfig(bound=300))
    for r in records:
        m = int(r.instance.removeprefix("eps_"))
        broken = "x-even,x-mod4,y-mod4" if m % 8 == 1 else "x-even,y-mod4"
        assert (r.oracle, r.verdict) == (broken, "fail"), r
    assert len({r.oracle for r in records}) == 2


def brute_force_triangles(bound):
    """Every non-residue cycle of length 3 to 6 on the first `bound` primes
    of V: each vertex subset, each order of its vertices after the least,
    one direction per cycle."""
    vs = first_v_primes(bound)
    out = []
    for k in range(3, 7):
        for subset in combinations(vs, k):
            for perm in permutations(subset[1:]):
                if perm[0] > perm[-1]:
                    continue
                order = (subset[0],) + perm
                if all(v_symbol(order[i], order[(i + 1) % k]) == -1
                       for i in range(k)):
                    out.append(order)
    return out


@pytest.mark.parametrize("bound", range(5, 13))
def test_triangles_enumeration_matches_brute_force(bound):
    expected = brute_force_triangles(bound)
    assert list(sweeps._enum_triangles(SweepConfig(bound=bound))) == expected


def test_triangles_oracle_rejects_a_flipped_invariant(monkeypatch):
    right = sweeps.general_invariant

    def flipped(cycle):
        report = right(cycle)
        return report._replace(value=1 - report.value)

    monkeypatch.setattr(sweeps, "general_invariant", flipped)
    records = run_check("triangles", SweepConfig(bound=8))
    assert summarize(records) == {"pass": 0, "fail": 138}


def test_triangles_oracle_rejects_a_flipped_triangle_of_a_3_cycle(monkeypatch):
    """A triangle invariant flipped on every triple holding a prime beyond
    the cycle vertices reaches the oracle of each 3-cycle too: a 3-cycle
    decomposes into three such triangles through its auxiliary prime."""
    right = sweeps.triangle_invariant
    inside = set(first_v_primes(8))

    def flipped(*tri):
        return right(*tri) ^ (not inside.issuperset(tri))

    monkeypatch.setattr(sweeps, "triangle_invariant", flipped)
    records = run_check("triangles", SweepConfig(bound=8))
    three = [r for r in records if r.instance.count("-") == 2]
    assert len(three) == 9
    assert {r.verdict for r in three} == {"fail"}


def test_triangles_oracle_rejects_a_residue_auxiliary_prime(monkeypatch):
    right = sweeps.auxiliary_primes

    def with_a_residue(vertices):
        yield next(q for q in primes_in_v(10_000) if q not in vertices
                   and v_symbol(min(vertices), q) == 1)
        yield from right(vertices)

    monkeypatch.setattr(sweeps, "auxiliary_primes", with_a_residue)
    with pytest.raises(DomainError, match="pairwise non-residue"):
        run_check("triangles", SweepConfig(bound=8))


def test_triangles_oracle_rejects_an_auxiliary_prime_outside_v(monkeypatch):
    right = sweeps.auxiliary_primes

    def with_three(vertices):
        yield 3
        yield from right(vertices)

    monkeypatch.setattr(sweeps, "auxiliary_primes", with_three)
    with pytest.raises(DomainError, match="3 is not a prime with p % 4 != 3"):
        run_check("triangles", SweepConfig(bound=8))


def test_triangles_sweep_rejects_a_residue_cycle(monkeypatch):
    # every edge residue: the general formula takes the cycle (no odd
    # non-residue degree), and the triangle check is what refuses it
    cycle = (2, 17, 89)
    assert odd_nonresidue_vertices(zip(cycle, cycle[1:] + cycle[:1])) == []
    default, enum, evaluate = sweeps.CHECKS["triangles"]

    def with_a_residue_cycle(config):
        yield from islice(enum(config), 3)
        yield cycle

    monkeypatch.setitem(sweeps.CHECKS, "triangles",
                        (default, with_a_residue_cycle, evaluate))
    with pytest.raises(DomainError, match=r"= \+1; triangle clause needs a "
                       "pairwise non-residue"):
        run_check("triangles", SweepConfig(bound=8))


def test_duality_sweep_is_seed_deterministic():
    cfg1 = SweepConfig(seed=9)
    cfg2 = SweepConfig(seed=9)
    assert run_check("duality", cfg1) == run_check("duality", cfg2)


def duality_ranks(record):
    """(boundary rank, cycle rank, edge count) from a duality oracle string."""
    ranks, edges = record.oracle.split(",")[0].removeprefix("ranks ").split(" of ")
    b, c = ranks.split("+")
    return int(b), int(c), int(edges)


def patch_cycle_space(monkeypatch, mutate):
    """The sweep builds each graph's cycle space once, through its own
    binding of cycle_space, and pairs it with the boundary space itself.
    `mutate` rewrites the list of basis masks; the edge list stays."""
    right = f2graph.cycle_space

    def mutant(vertices, edges):
        es, masks = right(vertices, edges)
        return es, mutate(masks)

    monkeypatch.setattr(sweeps, "cycle_space", mutant)


def graphs_with_cycles():
    return {r.instance for r in run_check("duality", SweepConfig())
            if duality_ranks(r)[1] > 0}


def test_duality_oracle_rejects_a_dropped_cycle(monkeypatch):
    expected = graphs_with_cycles()
    assert len(expected) == 127
    patch_cycle_space(monkeypatch, lambda masks: masks[:-1])
    records = run_check("duality", SweepConfig())
    assert summarize(records) == {"pass": 73, "fail": 127}
    failed = [r for r in records if r.verdict == "fail"]
    assert {r.instance for r in failed} == expected
    # every pairing is still orthogonal: the rank sum alone catches it
    for r in failed:
        b, c, edges = duality_ranks(r)
        assert b + c == edges - 1 and "not orthogonal" not in r.oracle, r


def test_duality_oracle_rejects_a_cycle_missing_an_edge(monkeypatch):
    def broken_first(masks):
        # the lowest set bit is the least edge of the first cycle
        return [masks[0] & (masks[0] - 1)] + masks[1:] if masks else masks

    expected = graphs_with_cycles()
    patch_cycle_space(monkeypatch, broken_first)
    records = run_check("duality", SweepConfig())
    assert summarize(records) == {"pass": 73, "fail": 127}
    failed = [r for r in records if r.verdict == "fail"]
    assert {r.instance for r in failed} == expected
    # the ranks still add up: orthogonality alone catches it
    for r in failed:
        b, c, edges = duality_ranks(r)
        assert b + c == edges and r.oracle.endswith(", not orthogonal"), r


def test_kuroda_oracle_rejects_a_flipped_index(monkeypatch):
    right = sweeps.kuroda_predict
    monkeypatch.setattr(sweeps, "kuroda_predict", lambda p, q, r: 3 - right(p, q, r))
    records = run_check("kuroda", SweepConfig())
    assert summarize(records) == {"pass": 0, "fail": 90}


def test_candm_oracle_rejects_a_flipped_invariant(monkeypatch):
    right = sweeps.general_invariant

    def flipped(pairs):
        report = right(pairs)
        return report._replace(value=1 - report.value)

    expected = {r.instance: r.predicted for r in run_check("candm", SweepConfig())}
    monkeypatch.setattr(sweeps, "general_invariant", flipped)
    records = run_check("candm", SweepConfig())
    assert summarize(records) == {"pass": 0, "fail": 9}
    swapped = {"square": "nonsquare", "nonsquare": "square"}
    assert {r.instance: r.predicted for r in records} == {
        i: swapped[p] for i, p in expected.items()}


def test_candm_prediction_rejects_a_d_with_one_prime_of_p_toggled(monkeypatch):
    right = sweeps.candm_check

    def toggled(pairs):
        d, P = right(pairs)
        p = P[0]
        return (d // p if d % p == 0 else d * p), P

    expected = {r.instance: r.predicted for r in run_check("candm", SweepConfig())}
    monkeypatch.setattr(sweeps, "candm_check", toggled)
    records = run_check("candm", SweepConfig())
    assert summarize(records) == {"pass": 0, "fail": 9}
    assert {r.instance: r.predicted for r in records} == expected


def test_norm_sign_oracle_rejects_a_prediction_made_everywhere(monkeypatch):
    predicted = {r.instance for r in run_check("norm-sign", SweepConfig())}
    monkeypatch.setattr(sweeps, "norm_sign_predict", lambda m, n: 1)
    records = run_check("norm-sign", SweepConfig())
    failed = [r for r in records if r.verdict == "fail"]
    assert failed and all(r.oracle == "-1" for r in failed)
    assert predicted <= {r.instance for r in records if r.verdict == "pass"}


def times_a_prime_outside_the_field(monkeypatch):
    """Multiply every unit product by an odd prime dividing none of its
    moduli: its square root lies in no field the d-search runs over and no
    allowed d absorbs it, so no product is a square."""
    right = apps.unit_product

    def mutant(moduli, field):
        q = next(p for p in primes_in_v(100) if all(2 * m % p for m in moduli))
        return right(moduli, field) * q

    monkeypatch.setattr(apps, "unit_product", mutant)


def test_thm_sq_oracle_rejects_a_unit_product_times_an_outside_prime(monkeypatch):
    times_a_prime_outside_the_field(monkeypatch)
    records = run_check("thm-sq", SweepConfig())
    assert summarize(records) == {"pass": 0, "fail": 103}
    assert {r.oracle for r in records} == {"not-square"}


def test_thm_sq_skips_the_product_unit_when_a_small_norm_is_plus_one(computed_units):
    records = run_check("thm-sq", SweepConfig())
    assert summarize(records) == {"pass": 103, "fail": 0}
    bound = CHECKS["thm-sq"][0]
    computed = set(computed_units)
    pairs = list(sweeps._enum_thm_sq(SweepConfig(bound=bound)))
    both_minus = {m1 * m2 for m1, m2 in pairs
                  if computed_units[m1].norm == computed_units[m2].norm == -1}
    # a product above the bound is no modulus of its own: only pairs ask for it
    unasked = {m1 * m2 for m1, m2 in pairs if m1 * m2 > bound} - both_minus
    assert unasked and computed.isdisjoint(unasked)


def test_pos_norm_oracle_rejects_a_unit_times_an_outside_prime(monkeypatch):
    times_a_prime_outside_the_field(monkeypatch)
    records = run_check("pos-norm", SweepConfig())
    assert summarize(records) == {"pass": 0, "fail": 228}
    assert {r.oracle for r in records} == {"not-square"}


def test_candp_oracle_rejects_an_intersection_one_too_large(monkeypatch):
    right = sweeps.candp_check

    def one_more(m, n):
        # a prime of neither d nor P: the primes of d in P grow by one
        d, P = right(m, n)
        q = next(p for p in primes_in_v(100) if 2 * m * n % p)
        return d * q, P + (q,)

    monkeypatch.setattr(sweeps, "candp_check", one_more)
    records = run_check("candp", SweepConfig())
    assert summarize(records) == {"pass": 0, "fail": 428}


def test_candm_and_candp_fail_a_unit_product_that_no_d_makes_square(monkeypatch, capsys):
    # 601 exceeds every default bound, so no allowed prime set can absorb it;
    # thm-sq and pos-norm ask the same d-search
    checks = (("thm-sq", 103, "not-square"), ("pos-norm", 228, "not-square"),
              ("candm", 9, "no-d"), ("candp", 428, "no-d"))
    expected = {name: [(r.instance, r.predicted) for r in run_check(name, SweepConfig())]
                for name, _, _ in checks}
    right = apps.unit_product
    monkeypatch.setattr(apps, "unit_product",
                        lambda moduli, field: right(moduli, field) * 601)
    for name, fails, no_square in checks:
        assert main(["verify", "--check", name, "--format", "csv"]) == 3
        rows = list(csv.reader(capsys.readouterr().out.splitlines()[2:-1]))
        assert len(rows) == fails
        assert [(instance, predicted) for _, instance, predicted, _, _ in rows] == expected[name]
        assert {(oracle, verdict) for *_, oracle, verdict in rows} == {(no_square, "fail")}


def test_each_oracle_factorises_only_its_moduli(monkeypatch):
    # candm takes the primes of d from the primes of its pairs, not from
    # the square product of its moduli; candp adds 2 to the primes of m*n
    # rather than factorise 2*m*n
    factorised, candp_calls = [], []
    right_divisors, right_candp = apps.prime_divisors, sweeps.candp_check

    def recorded(n):
        factorised.append(n)
        return right_divisors(n)

    def candp(m, n):
        start = len(factorised)
        try:
            return right_candp(m, n)
        finally:
            candp_calls.append((m, n, factorised[start:]))

    monkeypatch.setattr(apps, "prime_divisors", recorded)
    monkeypatch.setattr(sweeps, "candp_check", candp)
    for name in ("thm-sq", "candm", "candp", "pos-norm"):
        start = len(factorised)
        assert summarize(run_check(name, SweepConfig()))["fail"] == 0
        assert len(factorised) > start, name
    assert [n for n in factorised if n > 1 and arith.is_perfect_square(n)] == []
    assert candp_calls
    assert [(m, n) for m, n, args in candp_calls if 2 * m * n in args] == []


def squarefrees_by_trial_division(lo, hi):
    """The enumeration _squarefrees replaced: factorise every integer."""
    for s in range(lo, hi + 1):
        ps = prime_divisors(s)
        if prod(ps) == s:
            yield s, ps


@pytest.mark.parametrize("lo,hi", [(2, 2), (3, 3), (3, 2), (1, 12), (2, 3),
                                   (49_990, 50_010), (2, 20_000)])
def test_squarefree_sieve_matches_trial_division(lo, hi):
    expected = list(squarefrees_by_trial_division(lo, hi))
    assert list(sweeps._squarefrees(lo, hi)) == expected
    # with the multiples of the primes = 3 (mod 4) struck as well
    assert list(sweeps._squarefrees(lo, hi, v_only=True)) == [
        (s, ps) for s, ps in expected if all(p % 4 != 3 for p in ps)]


def v_squarefrees(bound):
    """The squarefree s in [2, bound] with no prime = 3 (mod 4), by trial
    division."""
    return ((s, ps) for s, ps in squarefrees_by_trial_division(2, bound)
            if all(p % 4 != 3 for p in ps))


def norm_sign_splits_by_filtering(bound):
    """The enumeration the Redei kernel replaced: every split m < n of each
    squarefree s in V, kept when no cross Legendre symbol is -1."""
    for s, ps in v_squarefrees(bound):
        for bits in range(1, (1 << len(ps)) - 1):
            m = prod(p for i, p in enumerate(ps) if bits >> i & 1)
            n = s // m
            if m < n and not apps._cross_nonresidues(m, n)[0]:
                yield m, n


@pytest.mark.parametrize("bound,count", [(2, 0), (65, 1), (130, 2), (1000, 36),
                                         (5000, 186), (50000, 2135)])
def test_norm_sign_kernel_equals_the_filtered_splits(bound, count):
    kernel = list(sweeps._enum_norm_sign(SweepConfig(bound=bound)))
    assert kernel == list(norm_sign_splits_by_filtering(bound))
    assert len(kernel) == count


def test_norm_sign_kernel_is_the_cuts_in_the_invariant_group():
    # a cut {pq : p | m, q | n} has even non-residue degree at p exactly
    # when (n/p) = +1: a route through the graph layer, with no GF(2)
    cuts = set()
    for s, ps in v_squarefrees(5000):
        for size in range(1, len(ps)):
            for mps in combinations(ps, size):
                m = prod(mps)
                n = s // m
                cut = [(p, q) for p in mps for q in ps if q not in mps]
                if m < n and not odd_nonresidue_vertices(cut):
                    cuts.add((m, n))
    kernel = list(sweeps._enum_norm_sign(SweepConfig(bound=5000)))
    assert set(kernel) == cuts and len(kernel) == len(cuts) == 186


def gf2_rank(rows):
    """Rank over GF(2) by pivoting on the lowest set bit, apart from the
    elimination of `arith`."""
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        pivot = rows.pop()
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
        rank += 1
    return rank


def test_norm_sign_yields_half_of_each_kernel_but_its_trivial_pair():
    per_s = Counter(m * n for m, n in sweeps._enum_norm_sign(SweepConfig(bound=5000)))
    dimensions = Counter()
    for s, ps in v_squarefrees(5000):
        t = len(ps)
        adjacent = [[p != q and v_symbol(p, q) == -1 for q in ps] for p in ps]
        # L = A + diag(deg) over GF(2)
        rows = [sum(1 << j for j in range(t) if adjacent[i][j]) | sum(adjacent[i]) % 2 << i
                for i in range(t)]
        rank = gf2_rank(rows)
        dimensions[t - rank] += 1
        # 2^(t - rank L) kernel vectors: 0 and all-ones, then complementary pairs
        assert 2 ** (t - rank) == 2 + 2 * per_s.pop(s, 0), s
    assert not per_s
    assert dimensions[1] and dimensions[2] and dimensions[3]


def test_norm_sign_enumeration_does_not_factorize():
    arith._factorize.cache_clear()
    instances = list(sweeps._enum_norm_sign(SweepConfig(bound=50000)))
    assert len(instances) > 1000
    assert arith._factorize.cache_info().misses == 0


@pytest.mark.parametrize("bound", [2, 13, 100, 400])
def test_nonresidue_triples_match_the_combinations_filter(bound):
    brute = [(p, q, r) for p, q, r in combinations(primes_in_v(bound), 3)
             if v_symbol(p, q) == v_symbol(q, r) == v_symbol(r, p) == -1]
    assert list(nonresidue_cycles(primes_in_v(bound), (3,))) == brute


def test_candm_sweep_has_both_outcomes():
    cfg = SweepConfig(bound=60)
    records = run_check("candm", cfg)
    outcomes = {r.predicted for r in records}
    assert outcomes == {"square", "nonsquare"}
    assert all(r.verdict == "pass" for r in records)


def test_parallel_matches_sequential():
    seq = run_check("scholz", SweepConfig(bound=120))
    par = run_check("scholz", SweepConfig(bound=120, jobs=2))
    assert seq == par


def stamp_pid(monkeypatch, name):
    """Make the records of check `name` carry, as their prediction, the id
    of the process that evaluated them.  The workers are forked, so they
    inherit the patch."""
    default, enum, evaluate = sweeps.CHECKS[name]

    def stamped(args):
        outcome = evaluate(args)
        return outcome and (outcome[0], str(os.getpid()), *outcome[2:])

    monkeypatch.setitem(sweeps.CHECKS, name, (default, enum, stamped))


def test_workers_leave_an_empty_parent_memo_empty(computed_units):
    config = SweepConfig(bound=300)
    records = run_check("pos-norm", SweepConfig(bound=300, jobs=2))
    # every unit was computed in a worker, and none came back
    assert computed_units == {} and pell.fundamental_unit.cache_info().currsize == 0
    assert len(records) > 100 and records == run_check("pos-norm", config)


def test_one_pool_serves_check_after_check(monkeypatch):
    stamp_pid(monkeypatch, "scholz")
    stamp_pid(monkeypatch, "lemma-e")
    config = SweepConfig(bound=200, jobs=2)
    pids = {r.predicted for r in sweeps.run_checks(["scholz", "lemma-e", "scholz"], config)}
    # the same two workers evaluate every instance of all three checks
    assert 1 <= len(pids) <= 2
    assert str(os.getpid()) not in pids


@pytest.fixture
def forks(monkeypatch):
    """Log the id of each child that os.fork makes, as the parent sees it."""
    fork, pids = os.fork, []

    def logged():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", logged)
    return pids


def assert_no_child_left():
    """No child of this process is running or waiting to be reaped:
    os.waitpid finds none, where a live child would give (0, 0)."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_under_jobs_builds_one_pool_per_run(forks, capsys):
    checks = ["--check", "scholz", "--check", "candm", "--check", "lemma-e"]
    assert main(["verify", "--jobs", "2", *checks]) == 0
    assert len(forks) == 2
    assert_no_child_left()
    forks.clear()
    assert main(["verify", "--jobs", "1", *checks]) == 0
    assert forks == []


def test_domain_error_under_the_shared_pool_stops_the_run(monkeypatch, forks, capsys):
    assert main(["verify", "--check", "candm"]) == 0
    candm_records = capsys.readouterr().out.splitlines()[1:-1]
    assert len(candm_records) == 9
    default, enum, _ = sweeps.CHECKS["candp"]
    first = list(enum(SweepConfig(bound=default)))[0]

    def broken(args):
        if args == first:
            raise DomainError(f"no instance {args}")
        time.sleep(0.005)  # the other worker is still evaluating when it raises

    later = []
    duality_default, duality_enum, duality_eval = sweeps.CHECKS["duality"]
    monkeypatch.setitem(sweeps.CHECKS, "candp", (default, enum, broken))
    monkeypatch.setitem(sweeps.CHECKS, "duality",
                        (duality_default,
                         lambda config: later.append(config) or duality_enum(config),
                         duality_eval))
    # chunks of 4 items: candm's 9 fill chunks 0 and 1 and open chunk 2,
    # whose second item is candp's first
    monkeypatch.setattr(sweeps, "_CHUNK_SIZE", 4)
    errors, enumerated, records = {}, {}, {}
    for jobs in ("1", "2"):
        argv = ["verify", "--jobs", jobs, "--check", "candm", "--check", "candp",
                "--check", "duality"]
        assert main(argv) == 2
        out = capsys.readouterr()
        lines = out.out.splitlines()
        assert lines[0].startswith("# quadrec verify ")
        records[jobs] = lines[1:]
        errors[jobs] = out.err
        enumerated[jobs] = len(later)
        later.clear()
    assert errors["2"] == errors["1"] == f"error: no instance {first}\n"
    # the records before the failing instance are out, and no summary line:
    # --jobs 1 writes every candm record, --jobs 2 those of the chunks before
    # the failing one
    assert records["1"] == candm_records
    assert records["2"] == candm_records[:8]
    # --jobs 1 stops before it reaches duality; under --jobs 2 only the
    # workers walk the stream, so this process enumerates nothing
    assert enumerated == {"1": 0, "2": 0}
    assert len(forks) == 2
    assert_no_child_left()


def test_an_enumerator_error_under_jobs2_exits_2_as_under_jobs1(monkeypatch, forks, capsys):
    default, enum, evaluate = sweeps.CHECKS["candp"]

    def broken(config):
        # past the first 256-item chunk, so that chunk's records are written
        yield from islice(enum(config), 300)
        raise DomainError("candp enumeration broke")

    monkeypatch.setitem(sweeps.CHECKS, "candp", (default, broken, evaluate))
    outs = {}
    for jobs in ("1", "2"):
        argv = ["verify", "--jobs", jobs, "--check", "candp", "--check", "lemma-e",
                "--format", "csv"]
        assert main(argv) == 2
        outs[jobs] = capsys.readouterr()
    assert outs["2"].err == outs["1"].err == "error: candp enumeration broke\n"
    lines = {jobs: out.out.splitlines()[1:] for jobs, out in outs.items()}
    # the header and the records of the first chunk, a part of --jobs 1's
    # records of the 300 instances, and no summary line after them
    assert 1 < len(lines["2"]) < len(lines["1"])
    assert lines["2"] == lines["1"][:len(lines["2"])]
    assert not any(line.startswith("# summary") for line in lines["1"] + lines["2"])
    assert len(forks) == 2
    assert_no_child_left()


def test_a_worker_that_dies_fails_the_stream_and_is_reaped(monkeypatch, forks):
    parent = os.getpid()
    default, enum, evaluate = sweeps.CHECKS["candm"]

    def dying(args):
        if os.getpid() != parent:
            os._exit(1)
        return evaluate(args)

    monkeypatch.setitem(sweeps.CHECKS, "candm", (default, enum, dying))
    records = sweeps.run_checks(["scholz", "candm"], SweepConfig(jobs=2))
    with pytest.raises(RuntimeError, match="died before the end of its stream"):
        list(records)
    assert len(forks) == 2
    assert_no_child_left()


def test_jobs_above_1_is_refused_where_fork_is_missing(monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    SweepConfig(jobs=1)
    with pytest.raises(DomainError, match="os.fork"):
        SweepConfig(jobs=2)
    assert main(["verify", "--check", "candm", "--jobs", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "os.fork" in out.err


def test_closing_the_record_stream_early_joins_its_workers(forks):
    records = sweeps.run_checks(["scholz"], SweepConfig(bound=3000, jobs=2))
    with closing(records):
        assert next(records).check == "scholz"
    # both workers, still walking the stream, are killed and reaped before
    # close() returns
    assert len(forks) == 2
    assert_no_child_left()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_into_a_closed_pipe_exits_141_quietly(jobs):
    # the run exits 99 instead if a child of main is running or unreaped
    code = ("import os, sys\n"
            "from quadrec.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    sys.exit(rc)\n"
            "sys.exit(99)\n")
    argv = ["verify", "--check", "scholz", "--bound", "3000", "--jobs", jobs]
    proc = subprocess.Popen([sys.executable, "-c", code, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    lines = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    assert lines[0].startswith("# quadrec verify ") and lines[2].startswith("scholz ")
    assert (proc.returncode, err) == (141, "")


def test_verify_writes_each_record_before_the_last_instance_is_evaluated(monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    default, enum, evaluate = sweeps.CHECKS["candm"]
    last = list(enum(SweepConfig(bound=default)))[-1]
    written = []

    def watched(args):
        if args == last:
            written.append(out.getvalue())
        return evaluate(args)

    monkeypatch.setitem(sweeps.CHECKS, "candm", (default, enum, watched))
    assert main(["verify", "--check", "candm", "--format", "csv"]) == 0
    lines = out.getvalue().splitlines(keepends=True)
    assert len(lines) == 12
    # the timestamp line, the header and the first eight of the nine records
    (before,) = written
    assert before == "".join(lines[:10])


def traced_peak_mb(*argv) -> float:
    """The tracemalloc peak, in MB, of `verify --format csv *argv` in a fresh
    process, its records written to devnull."""
    code = (
        "import contextlib, os, sys, tracemalloc\n"
        "from quadrec.cli import main\n"
        "tracemalloc.start()\n"
        "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
        "    assert main(['verify', '--format', 'csv', *sys.argv[1:]]) == 0\n"
        "print(tracemalloc.get_traced_memory()[1])\n")
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return int(out.stdout) / 2**20


# on CPython 3.11 scholz 3000 peaks at 0.8 MB and scholz2 800 at 2.4 MB; a
# driver that held every record peaked at 11.9 MB on scholz 3000, and a
# 65,536-entry quartic memo at 4.8 and 5.6 MB
@pytest.mark.parametrize("check,bound,ceiling_mb", [("scholz", 3000, 8), ("scholz2", 800, 4)])
def test_scholz_3000_holds_a_bounded_number_of_records(check, bound, ceiling_mb):
    peak_mb = traced_peak_mb("--check", check, "--bound", str(bound))
    assert peak_mb < ceiling_mb, peak_mb


def test_verify_jobs2_parent_holds_a_bounded_number_of_records():
    # the workers are at most a pipe's capacity ahead of the reader, so the
    # parent holds about one chunk of records: 0.5 MB on CPython 3.11, where
    # reading all 86 chunks of scholz 3000 ahead would hold 11.9 MB
    peak_mb = traced_peak_mb("--check", "scholz", "--bound", "3000", "--jobs", "2")
    assert peak_mb < 2, peak_mb


def test_importing_the_cli_loads_no_pool_or_thread_module():
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import quadrec.cli\n"
            "print(*sorted(set(sys.modules) - before))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    loaded = out.stdout.split()
    assert "quadrec.sweeps" in loaded
    assert [m for m in loaded
            if m.split(".")[0] in ("concurrent", "multiprocessing", "threading")] == []


def test_run_checks_chunks_span_checks_and_keep_their_order():
    names = ["candm", "scholz2", "lemma-e", "duality"]
    default, enum, _ = sweeps.CHECKS["candm"]
    assert len(list(enum(SweepConfig(bound=default)))) == 9
    expected = [r for name in names for r in run_check(name, SweepConfig())]
    assert list(sweeps.run_checks(names, SweepConfig(jobs=2))) == expected
    assert list(sweeps.run_checks(["kuroda"], SweepConfig(bound=2, jobs=2))) == []


def test_run_checks_rejects_an_unknown_name_before_opening_a_pool(forks):
    with pytest.raises(DomainError, match="made-up"):
        sweeps.run_checks(["candm", "made-up"], SweepConfig(jobs=2))
    assert forks == []


def test_verify_jobs2_records_equal_jobs1_over_all_checks():
    streams = {}
    for jobs in ("1", "2"):
        out = run_cli("verify", "--jobs", jobs, "--format", "csv")
        assert out.returncode == 0
        assert out.stdout.startswith("# quadrec verify ")
        streams[jobs] = out.stdout.splitlines()[1:]
    assert len(streams["1"]) > 2000
    assert streams["2"] == streams["1"]


def test_unknown_check_rejected():
    cfg = SweepConfig()
    with pytest.raises(DomainError):
        run_check("made-up", cfg)


# --- command line ------------------------------------------------------------

def test_cli_symbol():
    out = run_cli("symbol", "legendre", "5", "29")
    assert out.returncode == 0
    assert out.stdout.strip() == "(5|29) = +1"
    out = run_cli("symbol", "quartic", "5", "29")
    assert "(5|29)_4 = -1" in out.stdout
    out = run_cli("symbol", "unit", "13", "17")
    assert "(eps_13|17) = -1" in out.stdout


def test_cli_symbol_domain_error_is_exit_2():
    out = run_cli("symbol", "quartic", "3", "7")
    assert out.returncode == 2
    assert "error:" in out.stderr


def test_cli_usage_errors_are_exit_1():
    assert run_cli("bogus").returncode == 1
    assert run_cli("symbol", "legendre", "5").returncode == 1
    assert run_cli("verify", "--check", "nonsense").returncode == 1
    assert run_cli("verify", "--format", "xml").returncode == 1
    assert run_cli("verify", "--precision", "64").returncode == 1
    assert run_cli("verify", "--bound", "0").returncode == 1
    assert run_cli("verify", "--bound", "1").returncode == 1
    assert run_cli("invariant").returncode == 1
    assert run_cli("invariant", "five-29").returncode == 1


def test_verify_rejects_the_removed_cache_option(capsys):
    # units live only in memory; a unit file option must not be ignored
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--cache", "units.txt", "--check", "scholz"])
    assert exit_info.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments: --cache units.txt" in out.err


def test_cli_invariant():
    out = run_cli("invariant", "2-5", "5-13", "13-2")
    assert out.returncode == 0
    assert "value 0" in out.stdout and "triangle" in out.stdout
    out = run_cli("invariant", "2-5")
    assert out.returncode == 2
    assert "odd" in out.stderr
    out = run_cli("invariant", "2-5", "5-13", "13-2", "--show-graph")
    assert out.stdout == (
        "value 0 (triangle clause) query [2-5 2-13 5-13] P [2, 5, 13] k 3\n"
        "2 5 N\n2 13 N\n5 13 N\n")
    out = run_cli("invariant", "2-5", "5-13", "13-2", "5-29", "--show-graph")
    assert out.returncode == 0
    assert out.stdout == (
        "value 0 (general clause) query [2-5 2-13 5-13 5-29] P [2, 5, 13, 29] k 3\n"
        "2 5 N\n2 13 N\n2 29 N\n5 13 N\n5 29 R\n13 29 R\n")



def test_cli_verify_csv_shape():
    out = run_cli("verify", "--check", "candm", "--format", "csv")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0].startswith("# quadrec verify ")
    body = [ln for ln in lines if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    assert rows[0] == ["check", "instance", "predicted", "oracle", "verdict"]
    assert all(len(r) == 5 for r in rows[1:])
    assert lines[-1].startswith("# summary pass=")


def test_cli_verify_json_lines_round_trip():
    out = run_cli("verify", "--check", "candm", "--format", "json-lines")
    assert out.returncode == 0
    payloads = [json.loads(ln) for ln in out.stdout.splitlines()
                if not ln.startswith("#")]
    records = [p for p in payloads if "check" in p]
    summaries = [p for p in payloads if "summary" in p]
    assert len(records) == 9
    assert len(summaries) == 1
    assert set(summaries[0]["summary"]) == {"pass", "fail"}
    assert summaries[0]["summary"]["fail"] == 0
    assert {r["verdict"] for r in records} == {"pass"}
    assert all(set(r) == {"check", "instance", "predicted", "oracle", "verdict"}
               for r in records)


def test_cli_verify_pos_norm_past_four_primes():
    # from m = 1155 = 3*5*7*11 = 3 (mod 4) on, some d-searches run over
    # five primes, 2 among them
    out = run_cli("verify", "--check", "pos-norm", "--bound", "2000",
                  "--format", "csv")
    assert out.returncode == 0
    body = [ln for ln in out.stdout.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(body))))[1:]
    assert any(r[1] == "eps_1155" for r in rows)
    assert rows and all(r[4] == "pass" for r in rows)


def test_cli_verify_human_summary_line():
    out = run_cli("verify", "--check", "duality")
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1] == "200 instances: 200 pass, 0 fail"
    out = run_cli("verify", "--check", "duality", "--samples", "10")
    assert out.returncode == 1
    assert "unrecognized arguments: --samples 10" in out.stderr


def test_cli_verify_jobs_smoke():
    out = run_cli("verify", "--check", "scholz", "--bound", "80", "--jobs", "2")
    assert out.returncode == 0
