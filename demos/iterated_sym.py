"""Structure tables are emitted in the same JSON dialect as ring specs, so
a symmetric power can be fed straight back in.  Here: the squared power of
the 2-sphere is a truncated polynomial ring on one degree-2 class; we
re-ingest its table as a presentation and square that ring in turn.
"""

import json

from symprod import fixtures
from symprod.rings import ring_from_dict
from symprod.sympower import structure_constants, table_to_dict


def main():
    sphere = fixtures.load_fixture("sphere2")
    first = structure_constants(sphere, 2, 4)
    doc = table_to_dict(first)
    print("table of the squared sphere power, as a ring spec:")
    print(json.dumps(doc, indent=2, sort_keys=True))

    ring = ring_from_dict(json.loads(json.dumps(doc)))
    report = ring.validate()
    print(f"re-ingested as presentation {ring!r}: validate -> "
          f"{'ok' if report.ok else 'FAILED'}")

    second = structure_constants(ring, 2, 8)
    print("basis of the squared power of THAT ring:")
    for idx in second.basis:
        print(f"  {idx.label(ring)}  degree {idx.degree(ring)}")
    eta = second.basis[0]
    entry = second.product(eta, eta)
    rhs = " ".join(f"{c:+d}*{k.label(ring)}" for k, c in entry.items())
    print(f"square of the first basis class: {rhs}")


if __name__ == "__main__":
    main()
