"""Test-side readers and cross-checks that no program path runs: reading
a written structure table or bridge report back into its object, and
expanding an invariant tensor by dual pairings instead of elimination.
`test_sympower.py`, `test_cli.py` and `test_bridge.py` import them."""

from fractions import Fraction

from symprod.bridge import BridgeReport, DegreeMatrix
from symprod.rings import Ring
from symprod.sympower import BasisIndex, StructureTable, dual_element
from symprod.tensors import TensorElement


def expand_via_pairing(t: TensorElement, candidates) -> dict[BasisIndex, Fraction]:
    """Cross-check expansion: read coefficients off dual pairings.

    With the slotwise pairing convention, the coefficient of an index is
    the value of t against its dual element.
    """
    ring = t.ring
    out = {}
    for idx in candidates:
        dual = dual_element(ring, idx)
        c = t.terms.get(dual.slots, Fraction(0)) * dual.coefficient
        if c:
            out[idx] = c
    return out


def index_from_dict(ring: Ring, doc: dict) -> BasisIndex:
    odd = tuple(ring.position[name] for name in doc["odd"])
    even = tuple((ring.position[name], int(m)) for name, m in doc["even"])
    return BasisIndex(odd, even, int(doc["pad"]))


def table_from_dict(ring: Ring, doc: dict) -> StructureTable:
    table = StructureTable.__new__(StructureTable)
    table.ring = ring
    table.n = int(doc["n"])
    table.max_degree = int(doc["max_degree"])
    by_label = {}
    basis = []
    for item in doc["generators"]:
        idx = index_from_dict(ring, item["index"])
        by_label[item["name"]] = idx
        basis.append(idx)
    table.basis = basis
    table.entries = {}
    for item in doc["products"]:
        entry = {by_label[t["gen"]]: int(t["coeff"]) for t in item["result"]}
        table.entries[(by_label[item["left"]], by_label[item["right"]])] = entry
    return table


def report_from_dict(doc: dict) -> BridgeReport:
    report = BridgeReport(doc["g"], doc["n"], doc["mode"],
                          max_degree=doc["max_degree"])
    report.relations_vanish = doc["relations_vanish"]
    for item in doc["degrees"]:
        report.degrees.append(DegreeMatrix(
            degree=item["degree"],
            quotient_rank=item["quotient_rank"],
            tensor_rank=item["tensor_rank"],
            matrix=[list(map(int, row)) for row in item["matrix"]],
            unimodular=item["unimodular"],
            smith=list(map(int, item["smith"])),
        ))
    return report
