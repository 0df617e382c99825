"""Hypothesis-filtered verification sweeps.

Each named check enumerates its instances up to a bound, evaluates the
prediction and the independent oracle for every instance, and emits one
record per instance.  Evaluation functions are module-level and take only
the instance, a plain tuple, so sweeps can run in a process pool; instance
order is deterministic either way.  Every enumerator is a generator and
run_checks yields each record as it is produced, so a run never holds all
its instances or records.  Under jobs > 1 the record stream owns its pool
and sends it every check as one ordered stream of fixed-size chunks, a
fixed window in flight.  A DomainError stops the stream where it is raised:
the records before it are already out.  An instance whose hypotheses fail
is skipped (record None), never silently weakened.
"""

from __future__ import annotations

import os
import random
from array import array
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations, islice, permutations
from math import gcd, isqrt, prod

from .arith import (
    DomainError,
    primes_in_v,
    primes_up_to,
    v_symbol,
)
from .apps import (
    candm_check,
    candp_check,
    kuroda_example_check,
    norm_sign_predict,
    positive_norm_square_check,
    theorem_sq_check,
    unit_family,
)
from .f2graph import (
    auxiliary_primes,
    boundary_space,
    cycle_space,
    first_v_primes,
    triangle_decompose,
)
from .invariants import general_invariant, scholz2_predict, scholz_predict, triangle_invariant
from .pell import check_unit_congruences, fundamental_unit, unit_symbol

CHECK_DEFAULT_BOUNDS = {
    "scholz": 300,
    "scholz2": 100,
    "duality": 10,
    "triangles": 10,
    "thm-sq": 100,
    "pos-norm": 500,
    "lemma-e": 1000,
    "candm": 60,
    "candp": 600,
    "norm-sign": 5000,
    "kuroda": 60,
}


@dataclass(frozen=True)
class SweepConfig:
    """Settings for one verification run."""

    bound: int | None = None
    samples: int = 200
    jobs: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.bound is not None and self.bound < 2:
            raise DomainError("bound must be at least 2")
        if self.samples < 1:
            raise DomainError("samples must be positive")
        if self.jobs < 1:
            raise DomainError("jobs must be positive")
        # a fork pool starts every worker at its first submit, so refuse
        # more workers than usable CPUs before a pool exists
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        if self.jobs > cpus:
            raise DomainError(f"jobs must be at most {cpus}, the CPUs this process may use")

    def bound_for(self, check: str) -> int:
        return self.bound if self.bound is not None else CHECK_DEFAULT_BOUNDS[check]


@dataclass(frozen=True)
class SweepRecord:
    """One instance outcome: what was predicted, what the oracle said."""

    check: str
    instance: str
    predicted: str
    oracle: str
    verdict: str

    def __post_init__(self):
        assert self.verdict in ("pass", "fail")


def _squarefrees(lo: int, hi: int):
    """Yield (s, its ascending prime divisors) for each squarefree s in
    [lo, hi], 1 <= lo.

    One smallest-prime-factor sieve up to hi, an array of 4 bytes per
    integer (200 KB at hi = 50000): spf[n] is the least prime dividing a
    composite n and 0 for a prime.  Each s is read off by following spf,
    and dropped at its first repeated prime.  No trial division, so the
    enumerations leave the up-to-32768-entry _factorize LRU untouched.
    """
    spf = array("I", [0]) * (hi + 1)
    # largest prime first, so the least prime of each multiple is written last
    for p in reversed(primes_up_to(isqrt(hi))):
        spf[p * p :: p] = array("I", [p]) * len(range(p * p, hi + 1, p))
    for s in range(lo, hi + 1):
        ps = []
        n = s
        while n > 1:
            p = spf[n] or n
            if ps and ps[-1] == p:
                break
            ps.append(p)
            n //= p
        else:
            yield s, tuple(ps)


# --- scholz -----------------------------------------------------------------

def _enum_scholz(config: SweepConfig) -> Iterator[tuple]:
    for p, q in combinations(primes_in_v(config.bound_for("scholz")), 2):
        if v_symbol(p, q) == 1:
            yield p, q
            yield q, p


def _eval_scholz(args: tuple) -> SweepRecord | None:
    """Prediction: Scholz's law for a residue pair of V-primes, the product
    of the quartic symbols (p/q)_4 (q/p)_4, (-1) to its edge invariant
    (`scholz_predict`).  Oracle: the residue symbol of the fundamental unit
    of p at q (`pell.unit_symbol`), from the continued-fraction unit
    reduced at a square root of p mod q.  The two share only the pair,
    whose hypothesis `_enum_scholz` tested, and `arith`'s primality test
    and Legendre symbol; no quartic symbol enters the oracle and no unit
    the prediction."""
    p, q = args
    if q == 2 and p % 8 != 1:
        return None  # the unit symbol at 2 needs m = 1 mod 8
    predicted = scholz_predict(p, q)
    symbol = unit_symbol(p, q)
    return SweepRecord("scholz", f"eps_{p}|{q}", f"{predicted:+d}", f"{symbol:+d}",
                       "pass" if symbol == predicted else "fail")


# --- scholz2 ----------------------------------------------------------------

def _nonresidue_triples(bound: int) -> Iterator[tuple[int, int, int]]:
    """Yield the pairwise non-residue triples p < q < r of V-primes up to
    bound, in `combinations` order.  Each pair's symbol is read once, to
    list the non-residue partners above each prime."""
    ps = primes_in_v(bound)
    above = {p: [] for p in ps}
    for p, q in combinations(ps, 2):
        if v_symbol(p, q) == -1:
            above[p].append(q)
    above_set = {p: set(qs) for p, qs in above.items()}
    for p in ps:
        partners = above[p]
        for j, q in enumerate(partners):
            yield from ((p, q, r) for r in partners[j + 1:] if r in above_set[q])


def _enum_scholz2(config: SweepConfig) -> Iterator[tuple]:
    for p, q, r in _nonresidue_triples(config.bound_for("scholz2")):
        yield from ((p, q, r), (p, r, q), (q, r, p))


def _eval_scholz2(args: tuple) -> SweepRecord | None:
    """Prediction: minus the triple quartic product of the pairwise
    non-residue triple, (-1) to its triangle invariant (`scholz2_predict`).
    Oracle: the residue symbol of the fundamental unit of a*b at c
    (`pell.unit_symbol`), from the continued-fraction unit reduced at a
    square root of a*b mod c.  The two share only the triple, whose
    hypothesis `_nonresidue_triples` tested, and `arith`'s primality test
    and Legendre symbol; no quartic symbol enters the oracle and no unit
    the prediction."""
    a, b, c = args
    m = a * b
    if c == 2 and m % 8 != 1:
        return None
    predicted = scholz2_predict(a, b, c)
    symbol = unit_symbol(m, c)
    return SweepRecord("scholz2", f"eps_{m}|{c}", f"{predicted:+d}", f"{symbol:+d}",
                       "pass" if symbol == predicted else "fail")


# --- duality ----------------------------------------------------------------

def _enum_duality(config: SweepConfig) -> Iterator[tuple]:
    bound = config.bound_for("duality")
    for i in range(config.samples):
        yield config.seed, i, bound


def _eval_duality(args: tuple) -> SweepRecord | None:
    """Prediction: the boundary space and the cycle space of a random graph
    annihilate each other under the GF(2) pairing and their ranks sum to
    the number of edges.  Oracle: every pair of basis vectors meets in an
    even number of edges, and the two basis lengths are counted.  The
    bases share `f2graph._edges` and `arith`'s GF(2) elimination: the
    boundary basis echelons the vertex stars, the cycle basis reduces each
    edge against the spanning forest.  Neither basis reads the other: each
    space returns its own sorted edge list and its masks over that list,
    and the pairing, one AND per pair of masks, is computed here once the
    two lists agree."""
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
    return SweepRecord("duality", f"graph_{i:03d}", "annihilators", oracle,
                       "pass" if ok else "fail")


# --- triangles --------------------------------------------------------------

def _enum_triangles(config: SweepConfig) -> Iterator[tuple]:
    vs = first_v_primes(config.bound_for("triangles"))
    nbrs = {v: [w for w in vs if w != v and v_symbol(v, w) == -1] for v in vs}

    def walk(path, k, out):
        last = path[-1]
        if len(path) == k:
            if path[1] < last and path[0] in nbrs[last]:
                out.append(tuple(path))
            return
        for w in nbrs[last]:
            if w > path[0] and w not in path:
                walk(path + [w], k, out)

    # each cycle once: from its least vertex, second vertex < last vertex.
    # By length, then least vertex; within that group vertex subsets in
    # combinations order, then each subset's cycles in permutations order
    # of the vertices after the least.  Only one group is held at a time.
    for k in range(3, 7):
        for s in vs:
            group = []
            walk([s], k, group)
            group.sort(key=lambda c: (sorted(c), c))
            yield from group


def _eval_triangles(order: tuple) -> SweepRecord | None:
    """Prediction: the invariant of the non-residue cycle from the general
    formula over its support (`general_invariant`).  Oracle: the XOR of
    the triangle invariants of its decomposition through each of the two
    least auxiliary primes (`triangle_decompose`, `triangle_invariant`),
    one triangle per cycle edge, a 3-cycle included.  Both sides read
    `quartic` and `v_symbol`, on different arguments: the general formula
    one symbol per support vertex, of the product of its partners; each
    triangle three symbols of pair products, with the auxiliary prime
    among its vertices.  They agree only through the product formula."""
    instance = "-".join(map(str, order))
    base = general_invariant(zip(order, order[1:] + order[:1])).value

    def decomposition_sum(aux):
        return sum(triangle_invariant(*tri) for tri in triangle_decompose(order, aux)) % 2

    s1, s2 = map(decomposition_sum, islice(auxiliary_primes(order), 2))
    verdict = "pass" if base == s1 == s2 else "fail"
    return SweepRecord("triangles", instance, f"{base}", f"{s1}|{s2}", verdict)


# --- thm-sq -----------------------------------------------------------------

def _enum_thm_sq(config: SweepConfig) -> Iterator[tuple]:
    bound = config.bound_for("thm-sq")
    ms = [m for m, ps in _squarefrees(2, bound) if all(p % 4 != 3 for p in ps)]
    for i, m1 in enumerate(ms):
        yield from ((m1, m2) for m2 in ms[i + 1:] if gcd(m1, m2) == 1)


def _eval_thm_sq(args: tuple) -> SweepRecord | None:
    """Prediction: the constant claim "square": when the units of m1, m2
    and m1*m2 all have norm -1, their product is a square in the field of
    the roots of the primes of m1*m2 (`theorem_sq_check`).  Oracle:
    `mquad.is_square` of that product of continued-fraction units.  The
    two share the units, whose norms select the instance."""
    m1, m2 = args
    # the small units first: only then does the pair pay for the unit of m1*m2
    if fundamental_unit(m1).norm != -1 or fundamental_unit(m2).norm != -1:
        return None
    family = unit_family((m1, m2, m1 * m2))
    if any(n != -1 for n in family.norms):
        return None
    res = theorem_sq_check(family)
    return SweepRecord("thm-sq", f"{m1},{m2}", "square",
                       "square" if res.ok else "not-square",
                       "pass" if res.ok else "fail")


# --- pos-norm ---------------------------------------------------------------

def _enum_pos_norm(config: SweepConfig) -> Iterator[tuple]:
    for m, _ in _squarefrees(3, config.bound_for("pos-norm")):
        yield (m,)


def _eval_pos_norm(args: tuple) -> SweepRecord | None:
    """Prediction: the constant claim "square": a unit of norm +1 is a
    square in the field of the roots of the primes of m, with sqrt(2) when
    m = 3 (mod 4) (`positive_norm_square_check`).  Oracle:
    `mquad.is_square` of the continued-fraction unit in that field.  The
    two share the unit, whose norm selects the instance."""
    (m,) = args
    if fundamental_unit(m).norm != 1:
        return None
    res = positive_norm_square_check(m)
    return SweepRecord("pos-norm", f"eps_{m}", "square",
                       "square" if res.ok else "not-square",
                       "pass" if res.ok else "fail")


# --- lemma-e ----------------------------------------------------------------

def _enum_lemma_e(config: SweepConfig) -> Iterator[tuple]:
    for m, _ in _squarefrees(3, config.bound_for("lemma-e")):
        if m % 2 == 1:
            yield (m,)


def _eval_lemma_e(args: tuple) -> SweepRecord | None:
    """Prediction: the constant claim "congruent": for a unit of norm -1,
    eps_m^3 = x + y*sqrt(m) has x even, 4 | x exactly when m = 1 (mod 8),
    and y = 1 (mod 4).  Oracle: the cube of the continued-fraction unit,
    with the congruences read off it (`check_unit_congruences`).  The
    prediction computes nothing, so the two share only m."""
    (m,) = args
    if fundamental_unit(m).norm != -1:
        return None
    report = check_unit_congruences(m)
    if report.all_ok:
        return SweepRecord("lemma-e", f"eps_{m}", "congruent", "congruent", "pass")
    return SweepRecord("lemma-e", f"eps_{m}", "congruent",
                       ",".join(report.failed_claims()), "fail")


# --- candm ------------------------------------------------------------------

def _enum_candm(config: SweepConfig) -> Iterator[tuple]:
    yield from _nonresidue_triples(config.bound_for("candm"))


def _eval_candm(args: tuple) -> SweepRecord | None:
    """Prediction: the general invariant of the non-residue triangle
    p-q-r, "square" when it is 0 (`general_invariant`).  Oracle: the least
    squarefree d over p, q, r that makes d*eps_pq*eps_qr*eps_rp a square in
    the field of sqrt(pq), sqrt(qr), sqrt(rp), by exact square tests
    (`mquad.find_d`); "square" when d = 1.  A record passes when d has an
    even number of primes exactly when the invariant is 0 (`candm_check`,
    with P = {p, q, r}).  The two share only the triple, whose hypothesis
    `_nonresidue_triples` tested, and `arith`'s Legendre symbol; no quartic
    symbol enters the oracle and no unit the prediction."""
    p, q, r = args
    res = candm_check(((p, q), (q, r), (r, p)), {p, q, r})
    predicted = "square" if res.invariant.value == 0 else "nonsquare"
    oracle = "square" if res.d == 1 else f"nonsquare(d={res.d})"
    return SweepRecord("candm", f"{p},{q},{r}", predicted, oracle,
                       "pass" if res.consistent else "fail")


# --- candp ------------------------------------------------------------------

def _enum_candp(config: SweepConfig) -> Iterator[tuple]:
    for s, ps in _squarefrees(2, config.bound_for("candp")):
        mprimes = [p for p in ps if p % 4 == 1]
        for bits in range(1 << len(mprimes)):
            m = prod(p for i, p in enumerate(mprimes) if bits >> i & 1)
            yield m, s // m


def _eval_candp(args: tuple) -> SweepRecord | None:
    """Prediction: the constant claim "even": for a unit of norm +1, the
    primes of d meet P evenly.  Oracle: `candp_check`, which finds d by
    exact square tests of d*eps_{m*n} (`mquad.find_d`) and P from Legendre
    symbols, and counts the primes of d in P.  The two share the
    continued-fraction unit, whose norm selects the instance."""
    m, n = args
    if fundamental_unit(m * n).norm != 1:
        return None
    res = candp_check(m, n)
    oracle = f"|{{{','.join(map(str, res.intersection))}}}|={len(res.intersection)}"
    return SweepRecord("candp", f"m={m},n={n}", "even", f"d={res.d},{oracle}",
                       "pass" if res.parity_even else "fail")


# --- norm-sign --------------------------------------------------------------

def _enum_norm_sign(config: SweepConfig) -> Iterator[tuple]:
    for s, ps in _squarefrees(2, config.bound_for("norm-sign")):
        if any(p % 4 == 3 for p in ps):
            continue
        for bits in range(1, (1 << len(ps)) - 1):
            m = prod(p for i, p in enumerate(ps) if bits >> i & 1)
            n = s // m
            if m < n:
                yield m, n


def _eval_norm_sign(args: tuple) -> SweepRecord | None:
    """Prediction: norm +1 when every cross Legendre symbol is +1 and the
    paired quartic product is -1 (`norm_sign_predict`); otherwise none,
    and the split is skipped.  Oracle: the norm of the continued-fraction
    unit of m*n.  The two share only the split and `arith`'s factorisation:
    no unit enters the prediction and no residue symbol the oracle."""
    m, n = args
    if norm_sign_predict(m, n) is None:
        return None
    norm = fundamental_unit(m * n).norm
    return SweepRecord("norm-sign", f"m={m},n={n}", "+1", f"{norm:+d}",
                       "pass" if norm == 1 else "fail")


# --- kuroda -----------------------------------------------------------------

def _enum_kuroda(config: SweepConfig) -> Iterator[tuple]:
    for p, q, r in permutations(primes_in_v(config.bound_for("kuroda")), 3):
        if v_symbol(p, q) == 1 and v_symbol(q, r) == -1:
            yield p, q, r


def _eval_kuroda(args: tuple) -> SweepRecord | None:
    """Prediction: the unit index Q of Q(sqrt(p), sqrt(qr)) for a residue
    pair p, q and a non-residue pair q, r is 1 exactly when the unit of pqr
    has norm -1 and (p/q)_4 (q/p)_4 = -1, else 2 (`kuroda_example_check`).
    Oracle: Q counted by exact square tests (`mquad.is_square`) of the
    seven products of the units of p, qr and pqr in that field
    (`kuroda_q`).  The two share the continued-fraction unit of pqr: the
    prediction reads its norm, the oracle its coordinates; no quartic
    symbol enters the oracle."""
    p, q, r = args
    res = kuroda_example_check(p, q, r)
    return SweepRecord("kuroda", f"{p},{q},{r}", f"Q={res.formula_value}",
                       f"Q={res.computed.value}",
                       "pass" if res.consistent else "fail")


CHECKS = {
    "scholz": (_enum_scholz, _eval_scholz),
    "scholz2": (_enum_scholz2, _eval_scholz2),
    "duality": (_enum_duality, _eval_duality),
    "triangles": (_enum_triangles, _eval_triangles),
    "thm-sq": (_enum_thm_sq, _eval_thm_sq),
    "pos-norm": (_enum_pos_norm, _eval_pos_norm),
    "lemma-e": (_enum_lemma_e, _eval_lemma_e),
    "candm": (_enum_candm, _eval_candm),
    "candp": (_enum_candp, _eval_candp),
    "norm-sign": (_enum_norm_sign, _eval_norm_sign),
    "kuroda": (_enum_kuroda, _eval_kuroda),
}


# instances per chunk under jobs > 1, and chunks in flight per worker
_CHUNK_SIZE = 256
_CHUNKS_PER_WORKER = 8


def _records(items) -> Iterator[SweepRecord]:
    """The records of (check name, instance) items, in order, skipped
    instances left out."""
    for name, args in items:
        record = CHECKS[name][1](args)
        if record is not None:
            yield record


def _evaluate_chunk(items: list[tuple]) -> list[SweepRecord]:
    """The records of one chunk of items, in a pool worker."""
    return list(_records(items))


def _pooled(items: Iterator[tuple], jobs: int) -> Iterator[SweepRecord]:
    """The records of the iterator `items` from a pool of `jobs` workers that
    this stream owns, in order: chunks of _CHUNK_SIZE items, at most
    _CHUNKS_PER_WORKER per worker unfinished, read back in submission order.
    However the stream stops, queued chunks are cancelled and workers joined."""
    window = jobs * _CHUNKS_PER_WORKER
    pending = deque()
    with ProcessPoolExecutor(max_workers=jobs) as workers:
        try:
            while chunk := list(islice(items, _CHUNK_SIZE)):
                done = pending.popleft().result() if len(pending) == window else ()
                pending.append(workers.submit(_evaluate_chunk, chunk))
                yield from done
            while pending:
                yield from pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def run_checks(names, config: SweepConfig) -> Iterator[SweepRecord]:
    """An iterator of the records for the checks `names`, in order, each
    check in deterministic instance order, each record yielded as soon as
    it and those before it are done.

    An unknown name raises DomainError here, before anything is enumerated or
    a pool is opened.  Every check is enumerated lazily, when the stream
    reaches it.  Under jobs == 1 each instance is evaluated in this process;
    under jobs > 1 the iterator owns its pool (_pooled), whose forked workers
    inherit this process's unit memo.  A chunk may span two checks, and no
    check waits for the one before it.  A DomainError from an instance ends
    the stream: the records before it have been yielded, later ones are never
    produced.  Closing the iterator early joins the workers.
    """
    for name in names:
        if name not in CHECKS:
            raise DomainError(f"unknown check {name!r}")
    items = ((name, args) for name in names for args in CHECKS[name][0](config))
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
