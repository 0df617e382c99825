"""Command line front end.

Three subcommands: ``symbol`` evaluates a single residue or unit symbol,
``verify`` runs the prediction-vs-oracle sweeps, ``invariant`` evaluates the
quartic invariant of an edge set.  Exit codes: 0 clean, 1 usage, 2 domain
error, 3 at least one sweep failure, 141 stdout closed by its reader
(128 + SIGPIPE, as shells report it; nothing goes to stderr).

``verify`` writes each record as the sweeps produce it, after a timestamp
line, and ends with a summary line counted while writing, so it never holds
a run's records.  A domain error in an instance stops the run with exit 2:
the records before it are already written, and no summary line follows
them.  ``--jobs N`` forks N workers before the first record; each walks the
whole instance stream and evaluates every N-th chunk of it, with the unit
memo this process held at the fork, and ``verify`` writes the records it
reads back from their pipes in order.  A full pipe holds its worker back,
so the run stays in bounded memory.  However a run stops, no worker
outlives ``main``.  Each record is a named tuple: csv writes it as a row,
json-lines by field name, and json is imported only for that format.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from contextlib import closing
from itertools import combinations

from .arith import DomainError, jacobi, legendre, quartic, v_symbol
from .invariants import general_invariant
from .pell import unit_symbol
from .sweeps import CHECKS, SweepConfig, run_checks


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this tool reserves 2 for domain errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """The argparse type of an integer option whose least value is low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    return parse


def _edge_arg(text: str) -> tuple[int, int]:
    left, sep, right = text.partition("-")
    if sep and left.strip().isdigit() and right.strip().isdigit():
        return int(left), int(right)
    raise argparse.ArgumentTypeError(f"expected an edge like 5-29, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quadrec",
                     description="residue symbols, Pell units, and "
                                 "quartic-invariant verification sweeps")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser, required=True)

    p_sym = sub.add_parser("symbol", help="evaluate one symbol")
    p_sym.add_argument("kind", choices=["legendre", "jacobi", "quartic", "unit"])
    p_sym.add_argument("m", type=int, help="numerator (or unit modulus)")
    p_sym.add_argument("p", type=int, help="prime (odd modulus for jacobi)")
    p_sym.set_defaults(func=cmd_symbol)

    p_ver = sub.add_parser("verify", help="run prediction-vs-oracle sweeps")
    p_ver.add_argument("--check", action="append", metavar="NAME",
                       choices=sorted(CHECKS),
                       help="sweep to run (repeatable; default all)")
    p_ver.add_argument("--bound", type=_int_at_least(2), default=None,
                       help="override the per-check instance bound")
    p_ver.add_argument("--jobs", type=_int_at_least(1), default=1,
                       help="forked worker processes, shared by every check of the "
                            "run, each walking the whole instance stream and "
                            "evaluating every JOBS-th chunk; at most the CPUs this "
                            "process may use")
    p_ver.add_argument("--format", choices=["human", "json-lines", "csv"],
                       default="human")
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed for the randomized checks")
    p_ver.set_defaults(func=cmd_verify)

    p_inv = sub.add_parser("invariant", help="evaluate the invariant of an edge set")
    p_inv.add_argument("edges", nargs="+", type=_edge_arg, metavar="P-Q",
                       help="edge of the prime graph, e.g. 5-29")
    p_inv.add_argument("--show-graph", action="store_true",
                       help="also print the full graph on the involved primes")
    p_inv.set_defaults(func=cmd_invariant)
    return parser


def cmd_symbol(args) -> int:
    m, p = args.m, args.p
    if args.kind == "legendre":
        label, value = f"({m}|{p})", legendre(m, p)
    elif args.kind == "jacobi":
        label, value = f"({m}|{p})", jacobi(m, p)
    elif args.kind == "quartic":
        label, value = f"({m}|{p})_4", quartic(m, p)
    else:
        label, value = f"(eps_{m}|{p})", unit_symbol(m, p)
    print(f"{label} = {value:+d}")
    return 0


def _write_report(out, fmt: str, records) -> dict[str, int]:
    """Print the timestamp line, each record as it arrives, then the summary
    line; return the verdict counts.  An error raised by `records` leaves
    the lines before it and no summary line."""
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    print(f"# quadrec verify {stamp}", file=out)
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["check", "instance", "predicted", "oracle", "verdict"])
        write = writer.writerow
    elif fmt == "json-lines":
        import json

        def write(r):
            print(json.dumps(r._asdict(), sort_keys=True), file=out)
    else:
        def write(r):
            print(f"{r.check:<9} {r.instance:<22} {r.predicted:>10} vs "
                  f"{r.oracle:<22} {r.verdict}", file=out)
    counts = {"pass": 0, "fail": 0}
    for r in records:
        counts[r.verdict] += 1
        write(r)
    if fmt == "csv":
        print(f"# summary pass={counts['pass']} fail={counts['fail']}", file=out)
    elif fmt == "json-lines":
        print(json.dumps({"summary": counts}, sort_keys=True), file=out)
    else:
        total = sum(counts.values())
        print(f"{total} instances: {counts['pass']} pass, {counts['fail']} fail",
              file=out)
    return counts


def cmd_verify(args) -> int:
    checks = args.check or sorted(CHECKS)
    config = SweepConfig(bound=args.bound, jobs=args.jobs, seed=args.seed)
    with closing(run_checks(checks, config)) as records:
        counts = _write_report(sys.stdout, args.format, records)
    return 3 if counts["fail"] else 0


def cmd_invariant(args) -> int:
    report = general_invariant(args.edges)
    print(report)
    if args.show_graph:
        # general_invariant has validated every vertex of the query
        for p, q in combinations(report.P, 2):
            print(p, q, "R" if v_symbol(p, q) == 1 else "N")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone after the last write shows up here
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
