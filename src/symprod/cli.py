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

Exit codes: 0 success, 1 standard output closed early (a broken pipe, as
in ``symprod relations ... | head``), 2 malformed input, 3 violated theorem
claim (non-integer structure constant, torsion, failed certificate) or
internal inconsistency, 4 resource bound reached (partial bridge report).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import bridge as bridge_mod
from . import quotient
from .fixtures import resolve_spec_path
from .rings import load_ring
from .sympower import (
    InternalInconsistencyError,
    TheoremViolationError,
    enumerate_basis,
    index_to_dict,
    structure_constants,
    table_layout,
    table_to_dict,
)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_PARSE = 2
EXIT_THEOREM = 3
EXIT_RESOURCE = 4


def json_text(doc) -> str:
    """Exactly ``json.dumps(doc, indent=2, sort_keys=True)`` for documents
    with string keys.

    With ``indent`` set, ``json`` runs its pure-Python encoder item by
    item.  Here the pieces go to one list that is joined once; a plain
    int is ``str`` and a list of them, such as a bridge matrix row, is
    one join.  Tuples are written as lists, as ``json`` writes them;
    empty containers are written directly, and other leaves (floats,
    bools, None) go to ``json.dumps``.
    """
    out: list[str] = []
    _write_json(doc, "", out)
    return "".join(out)


def _write_json(obj, indent: str, out: list[str]) -> None:
    inner = indent + "  "
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif type(obj) is int:
        out.append(str(obj))
    elif isinstance(obj, dict) and obj:
        head = "{\n" + inner
        for k in sorted(obj):
            v = obj[k]
            key = f"{head}{encode_basestring_ascii(k)}: "
            # str and int leaves go into the key's piece; bool, a subclass
            # of int, goes through json.dumps
            if type(v) is str:
                out.append(key + encode_basestring_ascii(v))
            elif type(v) is int:
                out.append(f"{key}{v}")
            else:
                out.append(key)
                _write_json(v, inner, out)
            head = ",\n" + inner
        out.append(f"\n{indent}}}")
    elif isinstance(obj, (list, tuple)) and obj and set(map(type, obj)) == {int}:
        items = (",\n" + inner).join([str(v) for v in obj])
        out.append(f"[\n{inner}{items}\n{indent}]")
    elif isinstance(obj, (list, tuple)) and obj:
        head = "[\n" + inner
        for v in obj:
            out.append(head)
            _write_json(v, inner, out)
            head = ",\n" + inner
        out.append(f"\n{indent}]")
    elif isinstance(obj, dict):
        out.append("{}")
    elif isinstance(obj, (list, tuple)):
        out.append("[]")
    else:
        out.append(json.dumps(obj))


def table_json(table) -> str:
    """Exactly ``json_text(table_to_dict(table))``, written straight from
    the table.

    Each label is quoted once, and so is the tail of its ``"gen"`` item;
    each product entry is one piece.  A graded-commutative table shares
    one result dict between (i, j) and (j, i), and that dict is sorted
    and written once.
    """
    head, labels, in_order = table_layout(table)
    quoted = {idx: encode_basestring_ascii(label) for idx, label in labels.items()}
    tails = {idx: f',\n          "gen": {q}\n        }}' for idx, q in quoted.items()}
    lefts = {idx: f'{{\n      "left": {q},\n      "result": ' for idx, q in quoted.items()}
    rights = {idx: f',\n      "right": {q}\n    }}' for idx, q in quoted.items()}
    results: dict[int, str] = {}  # by id of a result dict the table holds
    products = []
    for (i, j), entry in table.entries.items():
        if not entry:
            result = "[]"
        elif (result := results.get(id(entry))) is None:
            items = ",\n        ".join([f'{{\n          "coeff": {c}{tails[k]}'
                                        for k, c in in_order(entry)])
            result = results[id(entry)] = f"[\n        {items}\n      ]"
        products.append(f"{lefts[i]}{result}{rights[j]}")
    out = ['{\n  "generators": ']
    _write_json(head["generators"], "  ", out)
    out.append(f',\n  "max_degree": {head["max_degree"]},\n  "n": {head["n"]},'
               f'\n  "name": {encode_basestring_ascii(head["name"])},\n  "products": ')
    out.append("[\n    " + ",\n    ".join(products) + "\n  ]" if products else "[]")
    out.append("\n}")
    return "".join(out)


def _emit(args, text_fn, doc):
    if args.format == "json":
        print(json_text(doc))
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
    if args.format == "json":
        print(table_json(table))
        return EXIT_OK
    doc = table_to_dict(table)
    for item in doc["generators"]:
        print(f"basis {item['name']}  degree={item['degree']}")
    for entry in doc["products"]:
        rhs = " ".join(f"{t['coeff']:+d}*{t['gen']}" for t in entry["result"]) or "0"
        print(f"{entry['left']} * {entry['right']} = {rhs}")
    return EXIT_OK


def cmd_betti(args) -> int:
    # at n < 0 degree 0 is still asked for, so betti names the bad argument
    values = [quotient.betti(args.g, args.n, k) for k in range(2 * max(args.n, 0) + 1)]
    doc = {"g": args.g, "n": args.n, "betti": values}
    _emit(args, lambda d: print(" ".join(map(str, d["betti"]))), doc)
    return EXIT_OK


def cmd_relations(args) -> int:
    """The JSON is exactly ``json_text`` of {"g", "n", "mode", "count",
    "generators": [{"monomial", "poly"}, ...]}, each item written straight
    into the text: words and relations hold only ASCII letters, digits and
    ``'.^+-*``, which JSON does not escape."""
    gens = quotient.ideal_generators(args.g, args.n, args.mode)
    texts = quotient._relation_texts(gens)
    if args.format == "text":
        print("\n".join([f"{len(texts)} generators ({gens.mode})"]
                        + [f"{poly}    [from {word}]" for word, poly in texts]))
        return EXIT_OK
    items = ",\n    ".join([f'{{\n      "monomial": "{word}",\n      "poly": "{poly}"\n    }}'
                            for word, poly in texts])
    # every generating set holds at least one relation
    print(f'{{\n  "count": {len(texts)},\n  "g": {args.g},\n  "generators": [\n    {items}\n  ],'
          f'\n  "mode": {encode_basestring_ascii(gens.mode)},\n  "n": {args.n}\n}}')
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
                                          max_degree=args.max_degree)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built on first use and kept: `parse_known_args` leaves the parser as
    # it found it, so one process can serve many requests
    parser = argparse.ArgumentParser(
        prog="symprod",
        description="Exact cohomology of symmetric products: tensor-power "
                    "tables, surface presentations, lattice certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def arg(*flags, **kwargs):
        return flags, kwargs

    def command(name, func, help, *args, **options):
        # the subcommand's own arguments in order, then --format
        p = sub.add_parser(name, help=help, **options)
        for flags, kwargs in args:
            p.add_argument(*flags, **kwargs)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)

    spec = arg("spec")
    g, n = arg("--g", type=int, required=True), arg("--n", type=int, required=True)
    mode = arg("--mode", default="full", choices=quotient.MODES)
    command("validate", cmd_validate, "check a ring-spec file", spec)
    command("sym-basis", cmd_sym_basis, "basis of the invariant subring",
            spec, n, arg("--degree", type=int, default=None))
    command("sym-table", cmd_sym_table, "integer multiplication table",
            spec, n, arg("--max-degree", type=int, required=True))
    command("betti", cmd_betti, "ranks of the surface symmetric power", g, n)
    command("relations", cmd_relations, "generating sets of the relation ideal",
            g, n, mode, aliases=["mac"])
    # poly is optional here; `main` finds or demands it
    command("nf", cmd_nf, "normal form modulo the relation ideal",
            g, n, arg("poly", nargs="?"))
    command("verify", cmd_verify, "minimality certificate", g, n)
    command("bridge", cmd_bridge, "compare the two models degree by degree",
            g, n, mode, arg("--max-degree", type=int, default=None),
            arg("--jobs", type=int, default=1,
                help="accepted for compatibility and ignored: every run "
                     "is one serial pass"),
            arg("--seed", type=int, default=20240501))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if args.command == "nf" and args.poly is None:
        # argparse files a word with a leading '-', such as "-x1.x'1.y",
        # under unknown options; for nf that word is the polynomial
        if not extras:
            parser.error("nf: the following arguments are required: poly")
        args.poly = extras.pop(0)
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        code = args.func(args)
        # a closed pipe shows here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (`symprod ... | head`): send what is left
        # in the buffer to devnull, so the final flush at exit cannot fail
        # again, and exit 1 as Python does on a broken pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, FileNotFoundError) as e:
        # every input error: RingSpecError, PolyParseError, InvalidModeError
        # and NonHomogeneousError are ValueErrors too
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except TheoremViolationError as e:
        print(f"theorem violation: {e}", file=sys.stderr)
        return EXIT_THEOREM
    except (InternalInconsistencyError, quotient.QuotientInvariantError) as e:
        print(f"internal inconsistency: {e}", file=sys.stderr)
        return EXIT_THEOREM


if __name__ == "__main__":
    sys.exit(main())
