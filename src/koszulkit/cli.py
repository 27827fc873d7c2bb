"""Command-line interface.

Rings are named by a built-in corpus entry, a definition file path, or
``-`` for stdin.  Exit codes are scriptable: 0 for success or a true
verdict, 1 for a condition that is false, 2 for unmet hypotheses, 3
for bad input, 4 for a computation that exceeded a work budget, 5 for
an internal error (a failed consistency check).
Condition subcommands take ``--json`` for a structured report; its
shape is pinned by report_schema.json next to this module.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from . import corpus
from .conditions import (CycleSet, StretchedSpec, build_stretched_ring,
                         check_nonlinear_generated_by, check_P_graded,
                         check_P_local, check_trivial_products, check_Z_graded)
from .errors import (BudgetError, InputError, NotACycleError, NotArtinianError,
                     PreconditionError)
from .koszul import homology_algebra, homology_h_polynomial
from .poly import MonomialOrder
from .quotient import QuotientRing, truncated_ring
from .resolutions import betti_numbers_k, betti_table_R_over_Q
from .ringdef import (definition_of_ring, format_field, format_koszul_element,
                      format_polynomial, format_ring_definition,
                      parse_koszul_element, parse_ring_definition)
from .series import (RationalFunctionZ, expand, golod_formula_series,
                     stretched_series)
from .tables import emit_betti_table

_LABEL_RE = re.compile(r"^g\d+$")


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 3 on usage errors, per the CLI contract."""

    def error(self, message):
        self.exit(3, "%s: error: %s\n" % (self.prog, message))


# -- input plumbing ---------------------------------------------------


def _load_ring(arg: str, order: Optional[str] = None) -> QuotientRing:
    mo = None if order is None else MonomialOrder(order)
    if arg == "-":
        defn = parse_ring_definition(sys.stdin.read(), label="stdin")
    elif corpus.has(arg):
        if mo is None:
            return corpus.get_ring(arg)
        defn = corpus.get_definition(arg)
    elif os.path.exists(arg):
        with open(arg, encoding="utf-8") as fh:
            text = fh.read()
        label = os.path.splitext(os.path.basename(arg))[0]
        defn = parse_ring_definition(text, label=label)
    else:
        raise InputError("unknown ring %r: expected a corpus name, a "
                         "definition file, or '-' for stdin" % arg)
    return defn.build(order=mo)


def _parse_classes(ring: QuotientRing, specs: Sequence[str]) -> list:
    """Cycle expressions, or g<N> labels from the computed generator list."""
    gens = None
    out = []
    for spec in specs:
        if _LABEL_RE.match(spec):
            if gens is None:
                gens = {label: el for label, _bd, el
                        in homology_algebra(ring).generators()}
            if spec not in gens:
                raise InputError("no algebra generator %r; 'homology' lists them"
                                 % spec)
            out.append(gens[spec])
        else:
            out.append(parse_koszul_element(spec, ring))
    return out


def _parse_matrix(text: str) -> tuple:
    try:
        return tuple(tuple(Fraction(entry) for entry in row.split(","))
                     for row in text.split(";"))
    except (ValueError, ZeroDivisionError):
        raise InputError("bad matrix %r: rows are ';'-separated, entries "
                         "','-separated rationals" % text) from None


def _parse_series_formula(text: str) -> RationalFunctionZ:
    """num[/den] with integer coefficients; implicit '*' before z and '('."""
    depth = 0
    split = None
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            if split is not None:
                raise InputError("more than one top-level '/' in %r" % text)
            split = pos
    num_text = text if split is None else text[:split]
    den_text = "1" if split is None else text[split + 1:]

    def side(src: str) -> tuple:
        src = re.sub(r"(?<=[0-9z)])\s*(?=[z(])", "*", src.strip())
        from .ringdef import parse_polynomial
        p = parse_polynomial(src, ("z",))
        coeffs = [0] * (p.max_term_degree() + 1 if p.terms else 1)
        for mono, coeff in p.terms:
            if coeff.denominator != 1:
                raise InputError("series coefficients must be integers")
            coeffs[mono.exponents[0]] = int(coeff)
        return tuple(coeffs)

    return RationalFunctionZ.make(side(num_text), side(den_text))


# -- report emission --------------------------------------------------


def _key_str(key) -> str:
    if isinstance(key, tuple):
        return "(%s)" % ",".join(str(k) for k in key)
    return str(key)


def _report_document(args, ring: QuotientRing, report, elapsed=None) -> dict:
    doc = {
        "command": "koszulkit " + " ".join(args.argv),
        "configuration": {
            "ring": args.ring,
            "field": format_field(ring.field),
            "order": ring.order.value,
        },
        "name": report.name,
        "verdict": report.verdict,
        "hypotheses_met": report.hypotheses_met,
        "hypotheses": [{"key": key, "passed": ok}
                       for key, ok in report.hypothesis_checks],
        "pieces": [{
            "key": _key_str(p.key),
            "passed": p.passed,
            "source_dim": p.source_dim,
            "target_rank": p.target_rank,
            "witness": None if p.witness is None
                       else format_koszul_element(p.witness),
        } for p in report.pieces],
        "witnesses": [format_koszul_element(p.witness)
                      for p in report.failing_pieces() if p.witness is not None],
    }
    if elapsed is not None:
        doc["timing"] = {"seconds": round(elapsed, 3)}
    return doc


def _emit_report(args, ring: QuotientRing, report, elapsed=None) -> int:
    if args.json:
        print(json.dumps(_report_document(args, ring, report, elapsed), indent=2))
    else:
        print("condition: %s" % report.name)
        print("hypotheses:")
        if not report.hypothesis_checks:
            print("  (none)")
        for key, ok in report.hypothesis_checks:
            print("  [%s] %s" % ("ok" if ok else "fail", key))
        print("pieces:")
        if not report.pieces:
            print("  (none)")
        for p in report.pieces:
            extent = ""
            if p.source_dim or p.target_rank:
                extent = " (source %d, span %d)" % (p.source_dim, p.target_rank)
            print("  [%s] %s%s" % ("ok" if p.passed else "fail",
                                   _key_str(p.key), extent))
            if not p.passed and p.witness is not None:
                print("    witness: %s" % format_koszul_element(p.witness))
        if not report.hypotheses_met:
            print("verdict: hypotheses not met")
        else:
            print("verdict: %s" % ("true" if report.verdict else "false"))
        if elapsed is not None:
            print("time: %.3fs" % elapsed)
    if not report.hypotheses_met:
        return 2
    return 0 if report.verdict else 1


def _run_check(args, builder) -> int:
    ring = _load_ring(args.ring)
    start = time.perf_counter()
    report = builder(ring)
    elapsed = time.perf_counter() - start if args.timing else None
    return _emit_report(args, ring, report, elapsed)


# -- subcommands ------------------------------------------------------


def cmd_gb(args) -> int:
    ring = _load_ring(args.ring, args.order)
    for g in ring.groebner_basis:
        print(format_polynomial(g, ring.var_names))
    return 0


def cmd_betti(args) -> int:
    ring = _load_ring(args.ring)
    if args.of_k:
        res = betti_numbers_k(ring, args.limit)
        if res.graded:
            sys.stdout.write(emit_betti_table(res.table(label=ring.label or "")))
        else:
            print("%s %s" % ("total:".rjust(11),
                             " ".join(str(b) for b in res.betti_numbers())))
    else:
        sys.stdout.write(emit_betti_table(betti_table_R_over_Q(ring, via=args.via)))
    return 0


def cmd_homology(args) -> int:
    ring = _load_ring(args.ring)
    algebra = homology_algebra(ring)
    print("bigraded dimensions:")
    for key in sorted(algebra.pieces):
        dim = algebra.pieces[key].dim
        if dim:
            print("  (%d,%d): %d" % (key[0], key[1], dim))
    print("h-polynomial: %s"
          % " ".join(str(c) for c in homology_h_polynomial(ring)))
    print("generators:")
    for label, (i, j), el in algebra.generators():
        print("  %s (%d,%d): %s" % (label, i, j, format_koszul_element(el)))
    return 0


def cmd_socle(args) -> int:
    ring = _load_ring(args.ring)
    for p in ring.socle():
        print(format_polynomial(p, ring.var_names))
    return 0


def cmd_check_nonlinear(args) -> int:
    return _run_check(args, lambda ring: check_nonlinear_generated_by(
        ring, _parse_classes(ring, args.classes)))


def cmd_check_trivial(args) -> int:
    return _run_check(args, lambda ring: check_trivial_products(
        CycleSet.of(ring, _parse_classes(ring, args.cycles))))


def cmd_check_p(args) -> int:
    def build(ring):
        l = parse_koszul_element(args.cycle, ring)
        if args.local:
            return check_P_local(ring, args.t, args.r, l)
        return check_P_graded(ring, args.t, args.r, l)
    return _run_check(args, build)


def cmd_check_z(args) -> int:
    return _run_check(args, lambda ring: check_Z_graded(
        ring, args.t, args.b, args.s,
        CycleSet.of(ring, _parse_classes(ring, args.cycles))))


def cmd_series_golod(args) -> int:
    ring = _load_ring(args.ring)
    ring.require_artinian("the Golod series formula")
    s = args.s
    if s < 2:
        raise InputError("need s >= 2, got %d" % s)
    top = ring.power_ideal_subspace(s).dim
    if top < 1 or ring.power_ideal_subspace(s + 1).dim:
        raise PreconditionError(
            "the formula needs m^s != 0 = m^(s+1); this ring has top power %d"
            % ring.top_degree)
    h = homology_h_polynomial(truncated_ring(ring, s))
    print(golod_formula_series(ring.n, top, h))
    return 0


def cmd_series_stretched(args) -> int:
    print(stretched_series(args.v, args.r))
    return 0


def cmd_series_compare(args) -> int:
    ring = _load_ring(args.ring)
    want = expand(_parse_series_formula(args.formula), args.limit)
    got = betti_numbers_k(ring, args.limit).betti_numbers()
    print("formula: %s" % " ".join(str(c) for c in want))
    print("betti:   %s" % " ".join(str(b) for b in got))
    match = want == got
    print("match: %s" % ("yes" if match else "no"))
    return 0 if match else 1


def cmd_stretched_build(args) -> int:
    a = None if args.a is None else _parse_matrix(args.a)
    spec = StretchedSpec(args.v, args.r, args.h, a=a)
    ring = build_stretched_ring(spec)
    sys.stdout.write(format_ring_definition(definition_of_ring(ring)))
    return 0


def cmd_corpus_list(args) -> int:
    for name in corpus.names():
        print(name)
    return 0


def cmd_corpus_get(args) -> int:
    text = corpus.get_text(args.name)
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


# -- parser assembly --------------------------------------------------


def _add_check_flags(p) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit a structured report instead of text")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock time (non-deterministic output)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="koszulkit", allow_abbrev=False,
                     description="Koszul homology, structure conditions, "
                                 "resolutions and Poincare series.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gb", help="reduced Groebner basis of the defining ideal")
    p.add_argument("ring")
    p.add_argument("--order", choices=["lex", "grevlex"])
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("betti", help="Betti tables")
    p.add_argument("ring")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--over-poly", action="store_true",
                       help="resolution of R over the polynomial ring (default)")
    group.add_argument("--of-k", action="store_true",
                       help="resolution of the residue field over R")
    p.add_argument("--via", choices=["homology", "resolution"],
                   default="homology",
                   help="route for --over-poly; both agree")
    p.add_argument("--limit", type=int, default=6,
                   help="homological degree cutoff for --of-k")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("homology",
                       help="bigraded Koszul homology and algebra generators")
    p.add_argument("ring")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("socle", help="basis of the socle (0 : m)")
    p.add_argument("ring")
    p.set_defaults(func=cmd_socle)

    check = sub.add_parser("check", help="multiplicative-structure conditions")
    csub = check.add_subparsers(dest="check_command", required=True)

    p = csub.add_parser("nonlinear-gen",
                        help="do the given classes generate every nonlinear strand?")
    p.add_argument("ring")
    p.add_argument("--classes", nargs="+", required=True,
                   metavar="CYCLE_OR_LABEL")
    _add_check_flags(p)
    p.set_defaults(func=cmd_check_nonlinear)

    p = csub.add_parser("trivial-products",
                        help="do all pairwise products of the cycles vanish?")
    p.add_argument("ring")
    p.add_argument("--cycles", nargs="+", required=True, metavar="CYCLE")
    _add_check_flags(p)
    p.set_defaults(func=cmd_check_trivial)

    p = csub.add_parser("p-cond",
                        help="deep cycles are multiples of one class")
    p.add_argument("ring")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--cycle", required=True)
    p.add_argument("--local", action="store_true",
                   help="filtration form instead of the graded form")
    _add_check_flags(p)
    p.set_defaults(func=cmd_check_p)

    p = csub.add_parser("z-cond",
                        help="deepest cycles split over a trivial-product set")
    p.add_argument("ring")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--cycles", nargs="+", required=True, metavar="CYCLE")
    _add_check_flags(p)
    p.set_defaults(func=cmd_check_z)

    series = sub.add_parser("series", help="rational Poincare series")
    ssub = series.add_subparsers(dest="series_command", required=True)

    p = ssub.add_parser("golod",
                        help="series of k over R from the homology of R/m^s")
    p.add_argument("ring")
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=cmd_series_golod)

    p = ssub.add_parser("stretched", help="series of k over a stretched ring")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_series_stretched)

    p = ssub.add_parser("compare",
                        help="expand a formula and compare with direct Betti numbers")
    p.add_argument("ring")
    p.add_argument("--formula", required=True)
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=cmd_series_compare)

    stretched = sub.add_parser("stretched", help="stretched artinian rings")
    stsub = stretched.add_subparsers(dest="stretched_command", required=True)

    p = stsub.add_parser("build", help="emit the ring definition for a spec")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--a", help="symmetric invertible matrix, e.g. '1,0;0,1'")
    p.set_defaults(func=cmd_stretched_build)

    corp = sub.add_parser("corpus", help="built-in ring definitions")
    cosub = corp.add_subparsers(dest="corpus_command", required=True)
    p = cosub.add_parser("list")
    p.set_defaults(func=cmd_corpus_list)
    p = cosub.add_parser("get")
    p.add_argument("name")
    p.set_defaults(func=cmd_corpus_get)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return status
    except BrokenPipeError:
        # the reader of stdout has gone: point stdout at devnull, so that
        # the flush at exit cannot raise, and end as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InputError, NotArtinianError, NotACycleError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BudgetError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except AssertionError as exc:
        # an internal invariant failed: not a verdict, so not exit 1
        print("internal error: %s" % exc, file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
