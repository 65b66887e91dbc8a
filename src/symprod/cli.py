"""Command-line surface.

Subcommands (each accepts --format text|json):

  validate SPEC              check a ring-spec file against the ring axioms
  sym-basis SPEC --n N       basis of the invariant subring of the n-th power
  sym-table SPEC --n N       integer multiplication table up to a degree bound
  betti --g G --n N          ranks of the surface symmetric power by degree
  relations --g G --n N      generating sets of the relation ideal (alias: mac)
  nf --g G --n N POLY        normal form of a polynomial modulo the ideal
  verify --g G --n N         minimality certificate for the relation ideal
  bridge --g G --n N         degreewise change of basis between the two models

Exit codes: 0 success, 2 malformed input, 3 violated theorem claim
(non-integer structure constant, torsion, failed certificate) or internal
inconsistency, 4 resource bound reached (partial bridge report).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bridge as bridge_mod
from . import quotient
from .fixtures import resolve_spec_path
from .rings import RingSpecError, load_ring
from .sympower import (
    InternalInconsistencyError,
    TheoremViolationError,
    enumerate_basis,
    index_to_dict,
    structure_constants,
    table_to_dict,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_THEOREM = 3
EXIT_RESOURCE = 4


def _emit(args, text_fn, doc):
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        text_fn(doc)


def cmd_validate(args) -> int:
    ring = load_ring(resolve_spec_path(args.spec))
    report = ring.validate()
    doc = {
        "ring": ring.name or args.spec,
        "ok": report.ok,
        "violations": [{"invariant": v.invariant,
                        "witness": list(v.witness),
                        "detail": v.detail} for v in report.violations],
    }

    def text(doc):
        if doc["ok"]:
            print(f"{doc['ring']}: ok")
        else:
            print(f"{doc['ring']}: FAILED")
            for v in doc["violations"]:
                print(f"  {v['invariant']} at {tuple(v['witness'])}: {v['detail']}")

    _emit(args, text, doc)
    return EXIT_OK


def cmd_sym_basis(args) -> int:
    ring = load_ring(resolve_spec_path(args.spec))
    basis = enumerate_basis(ring, args.n, degree=args.degree)
    doc = {
        "ring": ring.name or args.spec,
        "n": args.n,
        "degree": args.degree,
        "basis": [dict(index_to_dict(ring, idx),
                       name=idx.label(ring), degree=idx.degree(ring))
                  for idx in basis],
    }

    def text(doc):
        for item in doc["basis"]:
            print(f"{item['name']}  degree={item['degree']}")

    _emit(args, text, doc)
    return EXIT_OK


def cmd_sym_table(args) -> int:
    ring = load_ring(resolve_spec_path(args.spec))
    table = structure_constants(ring, args.n, args.max_degree)
    doc = table_to_dict(table)

    def text(doc):
        labels = {}
        for item in doc["generators"]:
            labels[item["name"]] = item["degree"]
            print(f"basis {item['name']}  degree={item['degree']}")
        for entry in doc["products"]:
            rhs = " ".join(f"{t['coeff']:+d}*{t['gen']}" for t in entry["result"]) or "0"
            print(f"{entry['left']} * {entry['right']} = {rhs}")

    _emit(args, text, doc)
    return EXIT_OK


def cmd_betti(args) -> int:
    values = [quotient.betti(args.g, args.n, k) for k in range(2 * args.n + 1)]
    doc = {"g": args.g, "n": args.n, "betti": values}
    _emit(args, lambda d: print(" ".join(map(str, d["betti"]))), doc)
    return EXIT_OK


def cmd_relations(args) -> int:
    gens = quotient.ideal_generators(args.g, args.n, args.mode)
    doc = {
        "g": args.g,
        "n": args.n,
        "mode": gens.mode,
        "count": len(gens.polys),
        "generators": [{"monomial": m.word(), "poly": quotient.format_poly(p)}
                       for m, p in zip(gens.monomials, gens.polys)],
    }

    def text(doc):
        print(f"{doc['count']} generators ({doc['mode']})")
        for item in doc["generators"]:
            print(f"{item['poly']}    [from {item['monomial']}]")

    _emit(args, text, doc)
    return EXIT_OK


def cmd_nf(args) -> int:
    poly = quotient.parse_poly(args.poly, g=args.g)
    result = quotient.normal_form(poly, args.g, args.n)
    doc = {"g": args.g, "n": args.n, "input": args.poly,
           "normal_form": quotient.format_poly(result)}
    _emit(args, lambda d: print(d["normal_form"]), doc)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = quotient.verify_minimality(args.g, args.n)
    doc = {
        "g": report.g,
        "n": report.n,
        "case": report.case,
        "ok": report.ok,
        "rank_q0": report.rank_q0,
        "expected_rank": report.expected_rank,
        "extra_relation_outside": report.extra_relation_outside,
        "degrees_equal": report.degrees_equal,
    }

    def text(doc):
        print(f"case: {doc['case']}")
        if doc["rank_q0"] is not None:
            print(f"rank of degree-(n+1) relations: {doc['rank_q0']} "
                  f"(expected {doc['expected_rank']})")
        if doc["extra_relation_outside"] is not None:
            print(f"extra relation outside the q=0 ideal: {doc['extra_relation_outside']}")
        bad = [s for s, flag in doc["degrees_equal"] if not flag]
        print("ideals equal in every degree" if not bad
              else f"ideals differ in degrees {bad}")
        print("ok" if doc["ok"] else "FAILED")

    _emit(args, text, doc)
    return EXIT_OK if report.ok else EXIT_THEOREM


def cmd_bridge(args) -> int:
    report = bridge_mod.check_isomorphism(args.g, args.n, mode=args.mode,
                                          max_degree=args.max_degree,
                                          jobs=args.jobs)
    spot = bridge_mod.multiplicativity_spot_check(args.g, args.n, seed=args.seed)
    doc = bridge_mod.report_to_dict(report)
    doc["multiplicative_spot_check"] = spot

    def text(doc):
        print(f"g={doc['g']} n={doc['n']} verdict={doc['verdict']}")
        print(f"relation images vanish: {doc['relations_vanish']}")
        print(f"multiplicative spot check (seed {args.seed}): {spot}")
        print("degree  rank(quotient)  rank(tensor)  unimodular  smith")
        for d in doc["degrees"]:
            smith_str = ",".join(map(str, d["smith"])) or "-"
            print(f"{d['degree']:>6}  {d['quotient_rank']:>14}  "
                  f"{d['tensor_rank']:>12}  {str(d['unimodular']):>10}  {smith_str}")

    _emit(args, text, doc)
    if report.verdict == "mismatch" or not spot:
        return EXIT_THEOREM
    if report.partial:
        return EXIT_RESOURCE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symprod",
        description="Exact cohomology of symmetric products: tensor-power "
                    "tables, surface presentations, lattice certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("validate", help="check a ring-spec file")
    p.add_argument("spec")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sym-basis", help="basis of the invariant subring")
    p.add_argument("spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_sym_basis)

    p = sub.add_parser("sym-table", help="integer multiplication table")
    p.add_argument("spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_sym_table)

    p = sub.add_parser("betti", help="ranks of the surface symmetric power")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("relations", aliases=["mac"],
                       help="generating sets of the relation ideal")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", default="full",
                   choices=("full", "stable", "minimal_odd", "minimal_even"))
    common(p)
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("nf", help="normal form modulo the relation ideal")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("poly")
    common(p)
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("verify", help="minimality certificate")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bridge", help="compare the two models degree by degree")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", default="full",
                   choices=("full", "stable", "minimal_odd", "minimal_even"))
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=20240501)
    common(p)
    p.set_defaults(func=cmd_bridge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RingSpecError, quotient.PolyParseError, FileNotFoundError,
            quotient.NonHomogeneousError, quotient.InvalidModeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except TheoremViolationError as e:
        print(f"theorem violation: {e}", file=sys.stderr)
        return EXIT_THEOREM
    except (InternalInconsistencyError, quotient.QuotientInvariantError) as e:
        print(f"internal inconsistency: {e}", file=sys.stderr)
        return EXIT_THEOREM
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
