"""Call tracing of quadrec's layers, installed from outside the package.

The tracer replaces each public function named in WRAPPED by a wrapper that
records one span per call: the function, its start and end, the span that
was open when it was called, an optional tag (the generator count of an
`is_square` argument, the check name of a `run_check` call) and whether it
returned a value, returned None or raised.  Spans live in flat arrays in
memory; nothing is written while the workload runs, and write_spans()
dumps them afterwards.

Several modules bind these names with `from .x import y`, so the wrapper is
installed in every quadrec module namespace that holds the original object,
not only in the module that defines it.  Wrapped functions are not
recursive, so a span's duration counts once in its function's total.

Spans recorded inside forked pool workers (``verify --jobs N``) stay in the
workers and are lost; only the parent's spans are aggregated.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter

WRAPPED = {
    "arith": ("prime_divisors", "is_squarefree", "v_symbol", "quartic",
              "primes_in_v", "sqrt_mod"),
    "pell": ("fundamental_unit", "compute_fundamental_unit", "unit_symbol",
             "check_unit_congruences"),
    "mquad": ("is_square", "find_d", "field_containing"),
    "f2graph": ("triangle_decompose", "build_graph", "cycle_space",
                "boundary_space", "verify_duality"),
    "invariants": ("general_invariant", "triangle_invariant"),
    "apps": ("theorem_sq_check", "positive_norm_square_check", "candp_check",
             "candm_check", "kuroda_q", "unit_family"),
    "sweeps": ("run_check",),
    "cli": ("main",),
}

# the slowest single call is the scaling-cliff indicator of these functions
MAX_MS = ("arith.prime_divisors", "pell.check_unit_congruences",
          "mquad.is_square", "f2graph.triangle_decompose",
          "apps.theorem_sq_check", "apps.positive_norm_square_check",
          "apps.candp_check", "apps.candm_check", "apps.kuroda_q")

CHECK_NAMES = ("candm", "candp", "duality", "kuroda", "lemma-e", "norm-sign",
               "pos-norm", "scholz", "scholz2", "thm-sq", "triangles")

SQUARE_GENERATORS = (1, 2, 3, 4)

# span outcomes
RETURNED, RETURNED_NONE, RAISED = 0, 1, 2
OUTCOMES = ("value", "none", "raised")

NO_TAG = -1

# called with the wrapped function's own arguments
TAGGERS = {
    "mquad.is_square": lambda x, *_, **__: len(x.field.gens),
    "sweeps.run_check": lambda name, *_, **__: name,
}


def _declare(name, unit, better):
    return {"name": name, "unit": unit, "better": better}


def declared_metrics() -> list[dict]:
    """Every per-layer metric a traced run reports, in report order."""
    out = []
    for module, functions in WRAPPED.items():
        for fn in functions:
            qual = f"{module}.{fn}"
            out += [_declare(f"{qual}.calls", "count", "lower"),
                    _declare(f"{qual}.s", "s", "lower"),
                    _declare(f"{qual}.self_s", "s", "lower")]
    out += [_declare(f"{qual}.max_ms", "ms", "lower") for qual in MAX_MS]
    out += [_declare(f"mquad.is_square.calls.t{t}", "count", "lower")
            for t in SQUARE_GENERATORS]
    out += [_declare(f"mquad.is_square.s.t{t}", "s", "lower")
            for t in SQUARE_GENERATORS]
    out += [_declare("mquad.is_square.square", "count", "lower"),
            _declare("mquad.is_square.nonsquare", "count", "lower"),
            _declare("mquad.is_square.undecided", "count", "lower"),
            _declare("mquad.find_d.tests_per_call", "tests/call", "lower"),
            _declare("pell.unit_hit_ratio", "ratio", "higher"),
            _declare("arith.is_prime.hit_ratio", "ratio", "higher"),
            _declare("arith.quartic.hit_ratio", "ratio", "higher")]
    out += [_declare(f"sweeps.check_s.{c}", "s", "lower") for c in CHECK_NAMES]
    out.append(_declare("trace.overhead_s", "s", "lower"))
    return out


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.functions: list[str] = []  # span name id -> "module.fn"
        self.tag_labels: list = []      # tag id -> label
        self._tag_ids: dict = {}
        self.names = array("H")
        self.tags = array("h")
        self.parents = array("i")
        self.outcomes = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.installed: list[str] = []
        self.missing: list[str] = []

    def _tag_id(self, label) -> int:
        tid = self._tag_ids.get(label)
        if tid is None:
            tid = self._tag_ids[label] = len(self.tag_labels)
            self.tag_labels.append(label)
        return tid

    def _wrap(self, qual: str, fn):
        nid = len(self.functions)
        self.functions.append(qual)
        tagger = TAGGERS.get(qual)
        names, tags, parents = self.names, self.tags, self.parents
        outcomes, starts, ends = self.outcomes, self.starts, self.ends
        stack, tag_id = self._stack, self._tag_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tag_id(tagger(*args, **kwargs)) if tagger else NO_TAG
            i = len(names)
            names.append(nid)
            tags.append(tag)
            parents.append(stack[-1])
            outcomes.append(RAISED)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                outcomes[i] = RETURNED_NONE if result is None else RETURNED
                return result
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return traced

    def install(self, package: str = "quadrec") -> None:
        """Wrap every function of WRAPPED in every loaded module of the
        package that binds it.  A function the package no longer has is
        listed in `missing` and reports zeros."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        for module, functions in WRAPPED.items():
            home = sys.modules.get(f"{package}.{module}")
            for fn in functions:
                qual = f"{module}.{fn}"
                original = getattr(home, fn, None)
                if original is None:
                    self.missing.append(qual)
                    continue
                wrapper = self._wrap(qual, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self.installed.append(f"{mod.__name__}.{attr}")

    def write_spans(self, path: str) -> None:
        """All spans as gzipped CSV, one row per call in start order; times
        are perf_counter seconds, parent -1 is the workload itself."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("span,function,tag,parent,outcome,start_s,end_s\n")
            for i in range(len(self.names)):
                tag = self.tags[i]
                fh.write(f"{i},{self.functions[self.names[i]]},"
                         f"{'' if tag == NO_TAG else self.tag_labels[tag]},"
                         f"{self.parents[i]},{OUTCOMES[self.outcomes[i]]},"
                         f"{self.starts[i]:.9f},{self.ends[i]:.9f}\n")

    def aggregate(self) -> dict:
        """Per-function totals, per-tag totals and caller->callee edges."""
        n = len(self.names)
        names, tags, parents, outcomes = (self.names, self.tags, self.parents,
                                          self.outcomes)
        starts, ends = self.starts, self.ends
        dur = [ends[i] - starts[i] for i in range(n)]
        child_s = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_s[p] += dur[i]
        nf = len(self.functions)
        calls, total, self_s, peak = [0] * nf, [0.0] * nf, [0.0] * nf, [0.0] * nf
        by_outcome = [[0, 0, 0] for _ in range(nf)]
        by_tag: list[dict] = [{} for _ in range(nf)]
        edges: dict[tuple[str, int], list] = {}
        for i in range(n):
            f, d = names[i], dur[i]
            calls[f] += 1
            total[f] += d
            self_s[f] += d - child_s[i]
            if d > peak[f]:
                peak[f] = d
            by_outcome[f][outcomes[i]] += 1
            if tags[i] != NO_TAG:
                cell = by_tag[f].setdefault(str(self.tag_labels[tags[i]]),
                                            {"calls": 0, "s": 0.0})
                cell["calls"] += 1
                cell["s"] += d
            p = parents[i]
            caller = self.functions[names[p]] if p >= 0 else "<workload>"
            cell = edges.setdefault((caller, f), [0, 0.0])
            cell[0] += 1
            cell[1] += d
        functions = {}
        for f, qual in enumerate(self.functions):
            functions[qual] = {
                "calls": calls[f], "s": total[f], "self_s": self_s[f],
                "max_ms": peak[f] * 1e3,
                "returned": by_outcome[f][RETURNED],
                "returned_none": by_outcome[f][RETURNED_NONE],
                "raised": by_outcome[f][RAISED],
                "by_tag": by_tag[f],
            }
        return {
            "spans": n,
            "functions": functions,
            "edges": [{"caller": caller, "callee": self.functions[f],
                       "calls": c, "s": s}
                      for (caller, f), (c, s) in sorted(
                          edges.items(), key=lambda kv: -kv[1][1])],
            "installed": self.installed,
            "missing": self.missing,
        }


def _hit_ratio(fn) -> float:
    if not hasattr(fn, "cache_info"):
        return 0.0
    info = fn.cache_info()
    total = info.hits + info.misses
    return info.hits / total if total else 0.0


def layer_metrics(agg: dict, is_prime, quartic) -> dict[str, float]:
    """The per-layer metric values of one traced sample, except
    trace.overhead_s, which needs an untraced sample as well.  `is_prime`
    and `quartic` are the package's own lru_cache objects."""
    fns = agg["functions"]
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "max_ms": 0.0,
             "returned": 0, "returned_none": 0, "raised": 0, "by_tag": {}}

    def get(qual):
        return fns.get(qual, empty)

    out: dict[str, float] = {}
    for module, functions in WRAPPED.items():
        for fn in functions:
            f = get(f"{module}.{fn}")
            out[f"{module}.{fn}.calls"] = f["calls"]
            out[f"{module}.{fn}.s"] = f["s"]
            out[f"{module}.{fn}.self_s"] = f["self_s"]
    for qual in MAX_MS:
        out[f"{qual}.max_ms"] = get(qual)["max_ms"]
    square = get("mquad.is_square")
    for t in SQUARE_GENERATORS:
        cell = square["by_tag"].get(str(t), {"calls": 0, "s": 0.0})
        out[f"mquad.is_square.calls.t{t}"] = cell["calls"]
        out[f"mquad.is_square.s.t{t}"] = cell["s"]
    out["mquad.is_square.square"] = square["returned"]
    out["mquad.is_square.nonsquare"] = square["returned_none"]
    out["mquad.is_square.undecided"] = square["raised"]
    find_d_calls = get("mquad.find_d")["calls"]
    tests = sum(e["calls"] for e in agg["edges"]
                if e["caller"] == "mquad.find_d" and e["callee"] == "mquad.is_square")
    out["mquad.find_d.tests_per_call"] = tests / find_d_calls if find_d_calls else 0.0
    lookups = get("pell.fundamental_unit")["calls"]
    computed = get("pell.compute_fundamental_unit")["calls"]
    out["pell.unit_hit_ratio"] = 1 - computed / lookups if lookups else 0.0
    out["arith.is_prime.hit_ratio"] = _hit_ratio(is_prime)
    out["arith.quartic.hit_ratio"] = _hit_ratio(quartic)
    checks = get("sweeps.run_check")["by_tag"]
    for c in CHECK_NAMES:
        out[f"sweeps.check_s.{c}"] = checks.get(c, {"s": 0.0})["s"]
    return out
