"""References for the query commands' fast paths, as they were before
those paths read the closed form: `normal_form` reducing with decoded
`relation_poly` polynomials, the `relations` document written by
`format_poly`, and `enumerate_basis` building every index before it
filters by degree.  Also the quotient model as it was before relation
generators were kept as masks: the closed form in subset order, the
generators' monomials as validated `Monomial`s, a row writer that sorts
its terms, and the bridge spot check's draws from a pool of `Monomial`s.
`test_query_paths.py` compares the fast paths with them.  And the CLI's
parser with every subcommand's arguments written out in full, whose help
texts `test_cli.py` compares with the parser's."""

import argparse
import itertools
import random

from symprod import cli
from symprod.quotient import (
    Monomial,
    NonHomogeneousError,
    Polynomial,
    QuotientInvariantError,
    _below,
    _indices,
    _join,
    format_poly,
    ideal_generators,
    monomials_of_degree,
    relation_poly,
)
from symprod.rings import add_terms
from symprod.sympower import BasisIndex, _even_multisets


def normal_form_reference(f, g, n):
    """Weight descent on `Monomial` keys, one decoded relation per rewritten
    monomial of the top weight left."""
    if g < 0:
        raise ValueError(f"need g >= 0, got g={g}")
    if f.max_index() > g:
        raise ValueError(f"variable index exceeds g={g}")
    if not f.is_zero() and f.degree() is None:
        raise NonHomogeneousError("reduce homogeneous components separately")
    if n < 2:
        raise ValueError("need n >= 2")
    work = dict(f.terms)
    while (w := max((m.weight for m in work), default=0)) > n:
        for target in [m for m in work if m.weight == w]:
            if target.abcq[2] == 0:
                del work[target]
                continue
            rel = relation_poly(target)
            eps = rel.terms.get(target, 0)
            if eps not in (1, -1):
                raise QuotientInvariantError(
                    f"relation of {target.word()} has leading coefficient {eps}, not +-1")
            add_terms(work, rel.terms.items(), -work[target] * eps)
    return Polynomial(work)


def relations_doc_reference(g, n, mode):
    """The `relations` document with each relation decoded and formatted."""
    gens = ideal_generators(g, n, mode)
    polys = [relation_poly(m) for m in gens.monomials]
    return {
        "g": g,
        "n": n,
        "mode": gens.mode,
        "count": len(polys),
        "generators": [{"monomial": m.word(), "poly": format_poly(p)}
                       for m, p in zip(gens.monomials, polys)],
    }


def enumerate_basis_reference(ring, n, degree=None):
    """Every basis index built, then filtered by degree and sorted."""
    out = []
    for k in range(0, min(n, len(ring.odd_positions)) + 1):
        for odd in itertools.combinations(ring.odd_positions, k):
            budget = n - k
            for even in _even_multisets(ring.even_positions, budget):
                if k + len(even) == 0:
                    continue
                idx = BasisIndex(odd, even, budget - sum(m for _, m in even))
                if degree is None or idx.degree(ring) == degree:
                    out.append(idx)
    out.sort(key=lambda i: (i.degree(ring), i.odd, i.even, i.pad))
    return out


def mask_relation_row_reference(mask, g):
    """The closed form of `quotient._mask_relation_row` in subset order:
    the terms as the product taken one bracket at a time gives them, with
    the first paired index as the most significant subset bit."""
    paired = mask & mask >> g
    base = mask ^ (paired | paired << g)
    below = _below(base)
    masks, odd = [base], 0
    while paired:
        low = paired & -paired
        paired ^= low
        block = low | low << g
        odd = odd << 1 | (below & block).bit_count() & 1
        masks = [t for mask in masks for t in (mask, mask | block)]
    row = {}
    for subset, mask in enumerate(masks):
        size = subset.bit_count()
        row[mask] = -1 if (size * (size + 1) // 2 + (subset & odd).bit_count()) & 1 else 1
    return row


def generator_monomials_reference(g, n, mode):
    """The monomials of `ideal_generators(g, n, mode)`, built as validated
    `Monomial`s by the monomial enumerators (for a valid mode)."""
    if mode == "full":
        # a weight-(n+1) monomial has degree n+1..2n+2
        w = n + 1
        return sorted((m for s in range(w, 2 * w + 1) for m in monomials_of_degree(g, s)
                       if m.weight == w), key=lambda m: m.sort_key)
    if mode == "stable":
        everything = tuple(range(1, g + 1))
        return [Monomial(everything, everything, n - 2 * g + 1)]
    out = [m for m in monomials_of_degree(g, n + 1) if m.q == 0]
    if mode == "minimal_even":
        half = tuple(range(1, n // 2 + 1))
        out.append(Monomial(half, half, 1))
    return out


def format_row(row, g, d):
    """`format_poly` of the degree-d polynomial whose row, keyed by
    `_mask(t, g)`, is `row`, with its terms in any order: within one degree
    the weight is (d + popcount) / 2, so `Monomial.sort_key` order is
    (popcount, xs, xp) order, and the terms are sorted by it."""
    terms = []
    for t, c in row.items():
        xs, xp = _indices(t & ~(-1 << g)), _indices(t >> g)
        e = len(xs) + len(xp)
        terms.append(((e, xs, xp), Monomial(xs, xp, (d - e) // 2).word(), c))
    return _join([(word, c) for _, word, c in sorted(terms)])


def spot_check_draws_reference(g, n, samples, seed):
    """The monomial pairs `bridge.multiplicativity_spot_check` draws, from
    a pool of every monomial of degree 1..n built as a `Monomial`."""
    rng = random.Random(seed)
    pool = [m for s in range(1, n + 1) for m in monomials_of_degree(g, s)]
    return [(rng.choice(pool), rng.choice(pool)) for _ in range(samples)]


def build_parser_reference():
    # every subcommand written out in full, as `cli.build_parser` was
    # before one helper declared them
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
    p.set_defaults(func=cli.cmd_validate)

    p = sub.add_parser("sym-basis", help="basis of the invariant subring")
    p.add_argument("spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, default=None)
    common(p)
    p.set_defaults(func=cli.cmd_sym_basis)

    p = sub.add_parser("sym-table", help="integer multiplication table")
    p.add_argument("spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    common(p)
    p.set_defaults(func=cli.cmd_sym_table)

    p = sub.add_parser("betti", help="ranks of the surface symmetric power")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cli.cmd_betti)

    p = sub.add_parser("relations", aliases=["mac"],
                       help="generating sets of the relation ideal")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", default="full",
                   choices=("full", "stable", "minimal_odd", "minimal_even"))
    common(p)
    p.set_defaults(func=cli.cmd_relations)

    p = sub.add_parser("nf", help="normal form modulo the relation ideal")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("poly", nargs="?")  # optional here; `main` finds or demands it
    common(p)
    p.set_defaults(func=cli.cmd_nf)

    p = sub.add_parser("verify", help="minimality certificate")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cli.cmd_verify)

    p = sub.add_parser("bridge", help="compare the two models degree by degree")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", default="full",
                   choices=("full", "stable", "minimal_odd", "minimal_even"))
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility and ignored: every run "
                        "is one serial pass")
    p.add_argument("--seed", type=int, default=20240501)
    common(p)
    p.set_defaults(func=cli.cmd_bridge)

    return parser
