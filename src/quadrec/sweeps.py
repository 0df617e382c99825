"""Hypothesis-filtered verification sweeps.

Each named check enumerates its instances up to a bound, evaluates the
prediction and the independent oracle for every instance, and emits one
record per instance.  A check is declared once, as a row of CHECKS: its
name, default bound, enumerator and evaluator.  The functions an
evaluator calls each compute one side, a prediction or an oracle value;
the evaluator alone sets them against each other and decides the verdict.
It returns (instance, predicted, oracle, ok), and _records alone builds
the record from it.  Every enumerator is a generator, deterministic for a
config, and run_checks yields each record as it is produced, so a run
never holds all its instances or records.  Under jobs > 1 the record
stream forks its own workers before it reads an item; each walks the
whole instance stream in fixed-size chunks and evaluates every jobs-th
chunk, and this process reads the chunks back in order, one pipe after
another.  Only records cross the pipes, and a worker runs ahead of the
reader by what its pipe holds.  A DomainError stops the stream where it
is raised: the records before it are already out.  An instance whose
hypotheses fail is skipped (its evaluator returns None), never silently
weakened.  SweepConfig and SweepRecord are named tuples that check their
fields in __new__, so a record pickled back from a worker is checked
again as the parent loads it.
"""

from __future__ import annotations

import os
import pickle
import random
from array import array
from collections import namedtuple
from collections.abc import Iterator
from itertools import combinations, compress, cycle, islice, permutations
from math import gcd, isqrt, prod
from operator import not_

from .arith import (
    DomainError,
    gf2_kernel,
    prime_divisors,
    primes_in_v,
    primes_up_to,
    v_symbol,
)
from .apps import (
    candm_check,
    candp_check,
    kuroda_predict,
    kuroda_q,
    norm_sign_predict,
    theorem_sq_check,
)
from .f2graph import (
    auxiliary_primes,
    boundary_space,
    cycle_space,
    first_v_primes,
    nonresidue_cycles,
    triangle_decompose,
)
from .invariants import general_invariant, scholz2_predict, scholz_predict, triangle_invariant
from .pell import check_unit_congruences, fundamental_unit, unit_symbol


class SweepConfig(namedtuple("SweepConfig", "bound jobs seed")):
    """Settings for one verification run."""

    __slots__ = ()

    def __new__(cls, bound: int | None = None, jobs: int = 1, seed: int = 0):
        if bound is not None and bound < 2:
            raise DomainError("bound must be at least 2")
        if jobs < 1:
            raise DomainError("jobs must be positive")
        # jobs > 1 forks every worker before the first record, so refuse it
        # here, where fork is missing or the usable CPUs are fewer than jobs
        if jobs > 1 and not hasattr(os, "fork"):
            raise DomainError("jobs above 1 need os.fork, which this platform lacks")
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        if jobs > cpus:
            raise DomainError(f"jobs must be at most {cpus}, the CPUs this process may use")
        return tuple.__new__(cls, (bound, jobs, seed))


class SweepRecord(namedtuple("SweepRecord", "check instance predicted oracle verdict")):
    """One instance outcome: what was predicted, what the oracle said."""

    __slots__ = ()

    def __new__(cls, check: str, instance: str, predicted: str, oracle: str,
                verdict: str):
        assert verdict in ("pass", "fail")
        return tuple.__new__(cls, (check, instance, predicted, oracle, verdict))


def _squarefrees(lo: int, hi: int, v_only: bool = False):
    """Yield (s, its ascending prime divisors) for each squarefree s in
    [lo, hi], 1 <= lo; with v_only, only the s whose primes all lie in V,
    that is, none is 3 (mod 4).

    One smallest-prime-factor sieve up to hi, an array of 4 bytes per
    integer (200 KB at hi = 50000): spf[n] is the least prime dividing a
    composite n and 0 for a prime.  Beside it a byte per integer strikes
    the multiples of every p^2 and, with v_only, of every prime = 3 (mod 4),
    all by slice assignment, so the Python walk visits only the survivors
    and reads each one's primes by following spf.  No trial division, so
    the enumerations leave the up-to-32768-entry _factorize LRU untouched.
    """
    spf = array("I", [0]) * (hi + 1)
    keep = bytearray([1]) * (hi + 1)
    # largest prime first, so the least prime of each multiple is written last
    for p in reversed(primes_up_to(isqrt(hi))):
        spf[p * p :: p] = array("I", [p]) * (hi // p - p + 1)
        keep[p * p :: p * p] = bytes(hi // (p * p))
    if v_only:
        # the primes among 3, 7, 11, ... are where spf reads 0
        for p in compress(range(3, hi + 1, 4), map(not_, spf[3::4])):
            keep[p::p] = bytes(hi // p)
    for s in compress(range(lo, hi + 1), keep[lo:]):
        ps = []
        n = s
        while n > 1:
            p = spf[n] or n
            ps.append(p)
            n //= p
        yield s, tuple(ps)


# --- scholz -----------------------------------------------------------------

def _enum_scholz(config: SweepConfig) -> Iterator[tuple]:
    for p, q in combinations(primes_in_v(config.bound), 2):
        if v_symbol(p, q) == 1:
            yield p, q
            yield q, p


def _eval_scholz(args: tuple) -> tuple | None:
    """Prediction: Scholz's law for a residue pair of V-primes, the product
    of the quartic symbols (p/q)_4 (q/p)_4, (-1) to its edge invariant
    (`scholz_predict`).  Oracle: the residue symbol of the fundamental unit
    of p at q (`pell.unit_symbol`), from the continued-fraction unit
    reduced at a square root of p mod q.  The two share only the pair,
    whose hypothesis `_enum_scholz` tested, and `arith`'s primality test
    and Legendre symbol; no quartic symbol enters the oracle and no unit
    the prediction.  A V-prime residue against 2 is 1 (mod 8), so the
    symbol at q = 2 is always defined."""
    p, q = args
    predicted = scholz_predict(p, q)
    symbol = unit_symbol(p, q)
    return f"eps_{p}|{q}", f"{predicted:+d}", f"{symbol:+d}", symbol == predicted


# --- scholz2 ----------------------------------------------------------------

def _enum_scholz2(config: SweepConfig) -> Iterator[tuple]:
    for p, q, r in nonresidue_cycles(primes_in_v(config.bound), (3,)):
        yield from ((p, q, r), (p, r, q), (q, r, p))


def _eval_scholz2(args: tuple) -> tuple | None:
    """Prediction: minus the triple quartic product of the pairwise
    non-residue triple, (-1) to its triangle invariant (`scholz2_predict`).
    Oracle: the residue symbol of the fundamental unit of a*b at c
    (`pell.unit_symbol`), from the continued-fraction unit reduced at a
    square root of a*b mod c.  The two share only the triple, whose
    hypothesis `nonresidue_cycles` tested, and `arith`'s primality test
    and Legendre symbol; no quartic symbol enters the oracle and no unit
    the prediction.  V-primes that are non-residues against 2 are 5
    (mod 8), so at c = 2 the modulus a*b is 1 (mod 8), as the symbol
    needs."""
    a, b, c = args
    m = a * b
    predicted = scholz2_predict(a, b, c)
    symbol = unit_symbol(m, c)
    return f"eps_{m}|{c}", f"{predicted:+d}", f"{symbol:+d}", symbol == predicted


# --- duality ----------------------------------------------------------------

# random graphs per duality run
_DUALITY_GRAPHS = 200


def _enum_duality(config: SweepConfig) -> Iterator[tuple]:
    for i in range(_DUALITY_GRAPHS):
        yield config.seed, i, config.bound


def _eval_duality(args: tuple) -> tuple | None:
    """Prediction: the boundary space and the cycle space of a random graph
    annihilate each other under the GF(2) pairing and their ranks sum to
    the number of edges.  Oracle: every pair of basis vectors meets in an
    even number of edges, and the two basis lengths are counted.  The
    bases share `f2graph._edges` and `arith.gf2_kernel`: the boundary
    basis keeps the vertex stars independent of the ones before them, the
    cycle basis reduces each edge against the spanning forest.  Neither
    basis reads the other: each space returns its own sorted edge list and
    its masks over that list, and the pairing, one AND per pair of masks,
    is computed here once the two lists agree."""
    seed, i, bound = args
    rng = random.Random(f"duality:{seed}:{i}")
    nv = rng.randint(1, bound)
    vertices = list(range(1, nv + 1))
    edges = [e for e in combinations(vertices, 2) if rng.getrandbits(1)]
    bnd_edges, bnd = boundary_space(vertices, edges)
    cyc_edges, cyc = cycle_space(vertices, edges)
    orthogonal = bnd_edges == cyc_edges and all(
        (b & c).bit_count() % 2 == 0 for b in bnd for c in cyc)
    oracle = (f"ranks {len(bnd)}+{len(cyc)} of {len(edges)}"
              + ("" if orthogonal else ", not orthogonal"))
    ok = orthogonal and len(bnd) + len(cyc) == len(edges)
    return f"graph_{i:03d}", "annihilators", oracle, ok


# --- triangles --------------------------------------------------------------

def _enum_triangles(config: SweepConfig) -> Iterator[tuple]:
    yield from nonresidue_cycles(first_v_primes(config.bound), range(3, 7))


def _eval_triangles(order: tuple) -> tuple | None:
    """Prediction: the invariant of the non-residue cycle from the general
    formula over its support (`general_invariant`).  Oracle: the XOR of
    the triangle invariants of its decomposition through each of the two
    least auxiliary primes (`triangle_decompose`, `triangle_invariant`),
    one triangle per cycle edge, a 3-cycle included.  Both sides read
    `quartic` and `v_symbol`, on different arguments: the general formula
    one symbol per support vertex, of the product of its partners; each
    triangle three symbols of pair products, with the auxiliary prime
    among its vertices.  They agree only through the product formula.

    Which function checks which hypothesis: `general_invariant` that the
    cycle's non-residue degrees are even, `auxiliary_primes` that the
    vertices are V-primes, `triangle_decompose` only the shape (at least
    three distinct vertices, an integer auxiliary prime that is none of
    them), and `triangle_invariant` that each triangle is a pairwise
    non-residue triple of V-primes.  Every cycle edge and every vertex with
    the auxiliary prime is an edge of one triangle, so the last is the
    residue check of the whole decomposition."""
    instance = "-".join(map(str, order))
    base = general_invariant(zip(order, order[1:] + order[:1])).value

    def decomposition_sum(aux):
        return sum(triangle_invariant(*tri) for tri in triangle_decompose(order, aux)) % 2

    s1, s2 = map(decomposition_sum, islice(auxiliary_primes(order), 2))
    return instance, f"{base}", f"{s1}|{s2}", base == s1 == s2


# --- thm-sq -----------------------------------------------------------------

def _enum_thm_sq(config: SweepConfig) -> Iterator[tuple]:
    ms = [m for m, _ in _squarefrees(2, config.bound, v_only=True)]
    for i, m1 in enumerate(ms):
        yield from ((m1, m2) for m2 in ms[i + 1:] if gcd(m1, m2) == 1)


def _eval_thm_sq(args: tuple) -> tuple | None:
    """Prediction: the constant claim "square": when the units of m1, m2
    and m1*m2 all have norm -1, their product is a square in the field of
    the roots of the primes of m1*m2.  Oracle: the least d over those
    primes that makes the product of continued-fraction units times d a
    square in Q(sqrt(m1), sqrt(m2)), or None: `theorem_sq_check`, which
    is `candm_check` at the pairs (m1, 1), (m2, 1) and (m1*m2, 1).  By
    Kummer theory such a d exists exactly when the product is a square in
    the field of the primes.  The two share the units, whose norms select
    the instance."""
    m1, m2 = args
    moduli = (m1, m2, m1 * m2)
    # the small units first: only then does the pair pay for the unit of m1*m2
    if any(fundamental_unit(m).norm != -1 for m in moduli):
        return None
    ok = theorem_sq_check(moduli) is not None
    return f"{m1},{m2}", "square", "square" if ok else "not-square", ok


# --- pos-norm ---------------------------------------------------------------

def _enum_pos_norm(config: SweepConfig) -> Iterator[tuple]:
    for m, _ in _squarefrees(3, config.bound):
        yield (m,)


def _eval_pos_norm(args: tuple) -> tuple | None:
    """Prediction: the constant claim "square": a unit of norm +1 is a
    square in the field of the roots of the primes of m, with sqrt(2) when
    m = 3 (mod 4).  Oracle: candp's d at the split (1, m), the least d over
    exactly those primes that makes d*eps_m a square in Q(sqrt(m)), or None
    (`candp_check`); by Kummer theory such a d exists exactly when eps_m is
    a square in the field of the primes.  The two share the unit, whose
    norm selects the instance."""
    (m,) = args
    if fundamental_unit(m).norm != 1:
        return None
    ok = candp_check(1, m)[0] is not None
    return f"eps_{m}", "square", "square" if ok else "not-square", ok


# --- lemma-e ----------------------------------------------------------------

def _enum_lemma_e(config: SweepConfig) -> Iterator[tuple]:
    for m, _ in _squarefrees(3, config.bound):
        if m % 2 == 1:
            yield (m,)


def _eval_lemma_e(args: tuple) -> tuple | None:
    """Prediction: the constant claim "congruent": for a unit of norm -1,
    eps_m^3 = x + y*sqrt(m) has x even, 4 | x exactly when m = 1 (mod 8),
    and y = 1 (mod 4).  Oracle: the cube of the continued-fraction unit,
    with the names of the claims it breaks read off it
    (`check_unit_congruences`); it passes when there are none.  The
    prediction computes nothing, so the two share only m."""
    (m,) = args
    if fundamental_unit(m).norm != -1:
        return None
    broken = check_unit_congruences(m)
    return f"eps_{m}", "congruent", ",".join(broken) or "congruent", not broken


# --- candm ------------------------------------------------------------------

def _enum_candm(config: SweepConfig) -> Iterator[tuple]:
    yield from nonresidue_cycles(primes_in_v(config.bound), (3,))


def _primes_in(d: int, P) -> tuple[int, ...]:
    """The primes of d that lie in P, ascending."""
    return tuple(p for p in prime_divisors(d) if p in P)


def _eval_candm(args: tuple) -> tuple | None:
    """Prediction: the general invariant of the non-residue triangle
    p-q-r, "square" when it is 0 (`general_invariant` of its three pairs).
    Oracle: the least squarefree d over p, q, r that makes
    d*eps_pq*eps_qr*eps_rp a square in the field of sqrt(pq), sqrt(qr),
    sqrt(rp), by exact square tests, and P, the primes that are cross
    non-residues in their pairs: {p, q, r} on a non-residue triangle
    (`candm_check`); "square" when d = 1.  A record passes when the primes
    of d meet P evenly exactly when the invariant is 0, and fails with
    oracle "no-d" when no d exists.  The two share only the triple, whose
    hypothesis `nonresidue_cycles` tested, and `arith`'s Legendre symbol;
    no quartic symbol enters the oracle and no unit the prediction."""
    p, q, r = args
    pairs = ((p, q), (q, r), (r, p))
    value = general_invariant(pairs).value
    d, P = candm_check(pairs)
    instance = f"{p},{q},{r}"
    predicted = "square" if value == 0 else "nonsquare"
    if d is None:
        return instance, predicted, "no-d", False
    oracle = "square" if d == 1 else f"nonsquare(d={d})"
    even = len(_primes_in(d, P)) % 2 == 0
    return instance, predicted, oracle, even == (value == 0)


# --- candp ------------------------------------------------------------------

def _enum_candp(config: SweepConfig) -> Iterator[tuple]:
    for s, ps in _squarefrees(2, config.bound):
        mprimes = [p for p in ps if p % 4 == 1]
        for bits in range(1 << len(mprimes)):
            m = prod(p for i, p in enumerate(mprimes) if bits >> i & 1)
            yield m, s // m


def _eval_candp(args: tuple) -> tuple | None:
    """Prediction: the constant claim "even": for a unit of norm +1, the
    primes of d meet P evenly.  Oracle: d, found by exact square tests of
    d*eps_{m*n}, and P, from Legendre symbols (`candp_check`); the primes
    of d in P are counted here, and a record fails with oracle "no-d" when
    no d exists.  The two share the continued-fraction unit, whose norm
    selects the instance."""
    m, n = args
    if fundamental_unit(m * n).norm != 1:
        return None
    d, P = candp_check(m, n)
    if d is None:
        return f"m={m},n={n}", "even", "no-d", False
    inter = _primes_in(d, P)
    oracle = f"d={d},|{{{','.join(map(str, inter))}}}|={len(inter)}"
    return f"m={m},n={n}", "even", oracle, len(inter) % 2 == 0


# --- norm-sign --------------------------------------------------------------

def _enum_norm_sign(config: SweepConfig) -> Iterator[tuple]:
    """The splits s = m*n, 1 < m < n, of each squarefree s whose primes all
    lie in V, with every cross Legendre symbol +1: (n/p) = +1 for each
    prime p of m and (m/q) = +1 for each prime q of n.  They come in
    ascending order of m's bit vector over the ascending primes of s.

    Those splits are the kernel of the Redei matrix L = A + diag(deg) over
    GF(2), where A is the non-residue adjacency on the primes of s and x
    the indicator of m.  For p in m, (n/p) = -1 exactly when p has an odd
    number of non-residue partners outside m, that is, deg(p) plus its
    partners in m: row p of L x.  For q outside m, (m/q) = -1 exactly when
    q has an odd number of partners in m: row q of L x, as x_q = 0.  Each
    non-residue pair adds e_i + e_j to rows i and j, so L is the Laplacian
    of the non-residue graph mod 2: symmetric, its kernel the relations
    among its rows (`gf2_kernel`), all-ones always in it.  The kernel
    vectors 0 (m = 1) and all-ones (n = 1) are no splits; m < n keeps one
    of each complementary pair and drops all-ones.  The kernel is read off
    the symbols alone, with no factorisation; `norm_sign_predict` re-checks
    every hypothesis of each split it is given.
    """
    for s, ps in _squarefrees(2, config.bound, v_only=True):
        rows = [0] * len(ps)
        for i, j in combinations(range(len(ps)), 2):
            # Euler's criterion modulo the larger prime, which is odd; the
            # sieve proved both prime, so no `legendre` primality test
            if pow(ps[i], ps[j] >> 1, ps[j]) != 1:
                pair = 1 << i | 1 << j
                rows[i] ^= pair
                rows[j] ^= pair
        span = [0]
        for x in gf2_kernel(rows):
            span += [v ^ x for v in span]
        for bits in sorted(span)[1:]:
            m = prod(p for i, p in enumerate(ps) if bits >> i & 1)
            n = s // m
            if m < n:
                yield m, n


def _eval_norm_sign(args: tuple) -> tuple | None:
    """Prediction: norm +1 when every cross Legendre symbol is +1 and the
    paired quartic product is -1 (`norm_sign_predict`); otherwise none,
    and the split is skipped.  Oracle: the norm of the continued-fraction
    unit of m*n.  The two share only the split and `arith`'s factorisation:
    no unit enters the prediction and no residue symbol the oracle."""
    m, n = args
    if norm_sign_predict(m, n) is None:
        return None
    norm = fundamental_unit(m * n).norm
    return f"m={m},n={n}", "+1", f"{norm:+d}", norm == 1


# --- kuroda -----------------------------------------------------------------

def _enum_kuroda(config: SweepConfig) -> Iterator[tuple]:
    for p, q, r in permutations(primes_in_v(config.bound), 3):
        if v_symbol(p, q) == 1 and v_symbol(q, r) == -1:
            yield p, q, r


def _eval_kuroda(args: tuple) -> tuple | None:
    """Prediction: the unit index Q of Q(sqrt(p), sqrt(qr)) for a residue
    pair p, q and a non-residue pair q, r is 1 exactly when the unit of pqr
    has norm -1 and (p/q)_4 (q/p)_4 = -1, else 2 (`kuroda_predict`).
    Oracle: Q counted by exact square tests (`mquad.is_square`) of the
    seven products of the units of p, qr and pqr in that field
    (`kuroda_q`).  The two share the continued-fraction unit of pqr: the
    prediction reads its norm, the oracle its coordinates; no quartic
    symbol enters the oracle."""
    p, q, r = args
    predicted = kuroda_predict(p, q, r)
    computed = kuroda_q(p, q * r).value
    return f"{p},{q},{r}", f"Q={predicted}", f"Q={computed}", predicted == computed


# name: (default bound, enumerator, evaluator), the one place a check is named
CHECKS = {
    "scholz": (300, _enum_scholz, _eval_scholz),
    "scholz2": (100, _enum_scholz2, _eval_scholz2),
    "duality": (10, _enum_duality, _eval_duality),
    "triangles": (10, _enum_triangles, _eval_triangles),
    "thm-sq": (100, _enum_thm_sq, _eval_thm_sq),
    "pos-norm": (500, _enum_pos_norm, _eval_pos_norm),
    "lemma-e": (1000, _enum_lemma_e, _eval_lemma_e),
    "candm": (60, _enum_candm, _eval_candm),
    "candp": (600, _enum_candp, _eval_candp),
    "norm-sign": (5000, _enum_norm_sign, _eval_norm_sign),
    "kuroda": (60, _enum_kuroda, _eval_kuroda),
}


# instances per chunk under jobs > 1
_CHUNK_SIZE = 256


def _records(items) -> Iterator[SweepRecord]:
    """The records of (check name, instance) items, in order, skipped
    instances left out: the one place a record is built, with the check's
    name and a verdict from the `ok` its evaluator returned."""
    for name, args in items:
        outcome = CHECKS[name][2](args)
        if outcome is not None:
            instance, predicted, oracle, ok = outcome
            yield SweepRecord(name, instance, predicted, oracle, "pass" if ok else "fail")


def _work(items: Iterator[tuple], k: int, jobs: int, fd: int, inherited) -> None:
    """Worker k of `jobs`, in a forked child: close the `inherited` read ends
    of the pipes, walk `items` in chunks of _CHUNK_SIZE, and write to the
    pipe `fd`, pickled, the record list of each chunk i with i % jobs == k,
    then None, the end marker.  An exception from the walk or from an
    evaluator is written in place of the chunk, and ends the stream.  Each
    message is pickled whole before any of it is written.  The child never
    returns: it leaves through os._exit, so it never runs its parent's
    cleanup or flushes the stdout buffer it inherited."""
    code = 1
    try:
        for pipe in inherited:
            pipe.close()
        with open(fd, "wb") as out:
            def send(message):
                out.write(pickle.dumps(message))
                out.flush()

            try:
                i = 0
                while chunk := list(islice(items, _CHUNK_SIZE)):
                    if i % jobs == k:
                        send(list(_records(chunk)))
                    i += 1
                send(None)
                code = 0
            except Exception as exc:
                send(exc)
    finally:
        os._exit(code)


def _receive(pipe, k: int) -> list[SweepRecord] | None:
    """The next message of worker k: a record list, or None at the end of its
    stream.  A pickled exception is raised here; a stream cut off before its
    end marker means a dead worker."""
    try:
        message = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise RuntimeError(f"sweep worker {k} died before the end of its stream") from None
    if isinstance(message, BaseException):
        raise message
    return message


def _pooled(items: Iterator[tuple], jobs: int) -> Iterator[SweepRecord]:
    """The records of the iterator `items` from `jobs` forked workers that this
    stream owns, in order.  All workers are forked before any item is read,
    and each walks the whole of `items` and evaluates its own chunks
    (`_work`); this process reads the chunks back round-robin over the
    pipes and only unpickles records.  A worker runs ahead of the reader by
    what its pipe holds.  However the stream stops, the pipes are closed
    and every worker is reaped; one that is still running is killed."""
    pids, pipes = [], []
    complete = False
    try:
        for k in range(jobs):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(items, k, jobs, w, pipes)
            finally:
                os.close(w)
            pids.append(pid)
        for k in cycle(range(jobs)):
            chunk = _receive(pipes[k], k)
            if chunk is None:
                break
            yield from chunk
        # the stream's last chunk is out: every other worker ends its stream too
        for j in range(jobs):
            if j != k and _receive(pipes[j], j) is not None:
                raise RuntimeError(f"sweep worker {j} walked past the end of the stream")
        complete = True
    finally:
        for pipe in pipes:
            pipe.close()
        if not complete:
            from signal import SIGKILL
            for pid in pids:
                os.kill(pid, SIGKILL)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(codes):
        raise RuntimeError(f"sweep workers exited with {codes}")


def run_checks(names, config: SweepConfig) -> Iterator[SweepRecord]:
    """An iterator of the records for the checks `names`, in order, each
    check in deterministic instance order, each record yielded as soon as
    it and those before it are done.

    An unknown name raises DomainError here, before anything is enumerated or
    a worker is forked.  Every check is enumerated lazily, when the stream
    reaches it, by its CHECKS enumerator, with the check's default bound in
    place of a bound of None.  Under jobs == 1 each instance is evaluated in
    this process.  Under jobs > 1 the iterator forks its own workers
    (_pooled) at its first next(); each inherits this process's unit memo as
    it stands then, walks the whole stream and evaluates its share of the
    chunks, and this process only reads records.  A chunk may span two
    checks, and no check waits for the one before it.  A DomainError from an
    instance ends the stream: the records before it have been yielded, later
    ones are never produced.  Closing the iterator early kills and reaps the
    workers.
    """
    for name in names:
        if name not in CHECKS:
            raise DomainError(f"unknown check {name!r}")
    items = ((name, args) for name in names
             for default, enum, _ in [CHECKS[name]]
             for args in enum(config._replace(bound=config.bound or default)))
    if config.jobs == 1:
        return _records(items)
    return _pooled(items, config.jobs)


def run_check(name: str, config: SweepConfig) -> list[SweepRecord]:
    """All records for one check: run_checks for that check alone."""
    return list(run_checks([name], config))


def summarize(records) -> dict[str, int]:
    counts = {"pass": 0, "fail": 0}
    for r in records:
        counts[r.verdict] += 1
    return counts
