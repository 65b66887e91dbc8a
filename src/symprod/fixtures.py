"""The ring families, and the lookup of the shipped ring-spec files.

The ``.ring`` files under ``fixtures/`` are the only definition of the
fixed rings (sphere2, s2xs2, cp2_conn_cp2bar); ``load_fixture`` reads any
shipped file by name.  The families below, closed surfaces, even Hopf
cones (u^2 = 2k v) and the skew 3-form of strength s, cover every
parameter; the nine other files are their instances, written byte for
byte as ``json.dumps(ring_to_dict(ring), indent=2) + "\n"``.
"""

from __future__ import annotations

import os

from .rings import Generator, Ring, load_ring


def surface_ring(g: int) -> Ring:
    """H of the genus-g closed orientable surface, torsion-free part.

    Generators a1..a{2g} in degree 1 and b in degree 2, with
    a_i a_{i+g} = b = -a_{i+g} a_i and all other products zero.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    gens = [Generator(f"a{i}", 1) for i in range(1, 2 * g + 1)]
    gens.append(Generator("b", 2))
    products = {}
    for i in range(1, g + 1):
        products[(f"a{i}", f"a{i + g}")] = {"b": 1}
        products[(f"a{i + g}", f"a{i}")] = {"b": -1}
    return Ring(gens, products, name=f"surface_g{g}")


def hopf_ring(k: int, m: int = 1) -> Ring:
    """Sphere with a cell attached by a map of Hopf invariant 2k:
    u in degree 2m, v in degree 4m, u^2 = 2k v."""
    if k < 1 or m < 1:
        raise ValueError("need k >= 1 and m >= 1")
    gens = [Generator("u", 2 * m), Generator("v", 4 * m)]
    products = {("u", "u"): {"v": 2 * k}}
    return Ring(gens, products, name=f"hopf_{2 * k}" + ("" if m == 1 else f"_m{m}"))


def sullivan_ring(s: int) -> Ring:
    """Degree-1 classes a1,a2,a3 with triple product a1 a2 a3 = s * w.

    g1,g2,g3 form the Poincare-dual degree-2 basis (a_i g_j = delta_ij w),
    so a1 a2 = s g3, a2 a3 = s g1, a3 a1 = s g2.  s = 1 is the 3-torus.
    """
    if s < 1:
        raise ValueError("form strength s must be >= 1")
    gens = [Generator(f"a{i}", 1) for i in (1, 2, 3)]
    gens += [Generator(f"g{i}", 2) for i in (1, 2, 3)]
    gens.append(Generator("w", 3))
    products = {}
    cyclic = [("a1", "a2", "g3"), ("a2", "a3", "g1"), ("a3", "a1", "g2")]
    for left, right, dual in cyclic:
        products[(left, right)] = {dual: s}
        products[(right, left)] = {dual: -s}
    for i in (1, 2, 3):
        products[(f"a{i}", f"g{i}")] = {"w": 1}
        products[(f"g{i}", f"a{i}")] = {"w": 1}
    return Ring(gens, products, name=f"sullivan_mu_{s}")


FIXTURES_ENV = "SYMPROD_FIXTURES"


def packaged_fixture_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "fixtures")


def resolve_spec_path(spec: str) -> str:
    """Locate a ring-spec file: the literal path first, then, for a
    relative spec, $SYMPROD_FIXTURES and the fixtures shipped with the
    package.  Only files count: a directory of the same name is passed
    over.  The error names exactly the paths tried."""
    candidates = [spec]
    if not os.path.isabs(spec):
        dirs = (os.environ.get(FIXTURES_ENV), packaged_fixture_dir())
        candidates += [os.path.join(d, spec) for d in dirs if d]
    for path in candidates:
        if os.path.isfile(path):
            return path
    raise FileNotFoundError(f"no ring-spec file {spec!r} found (searched {candidates})")


def load_fixture(name: str) -> Ring:
    """Load a shipped fixture by bare name, e.g. 'torus'."""
    return load_ring(resolve_spec_path(name + ".ring"))
