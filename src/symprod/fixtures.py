"""Built-in ring presentations used throughout the tests and the CLI.

Covers the closed orientable surfaces, the 2-sphere, the four-manifold
pairs with intersection forms [[0,1],[1,0]] and [[1,0],[0,-1]], the cone
attachments with even Hopf invariant (u^2 = 2k v), and the 3-manifold
family realizing the skew 3-form of strength s.
"""

from __future__ import annotations

import os
from importlib import resources

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


def torus_ring() -> Ring:
    return surface_ring(1)


def sphere2_ring() -> Ring:
    """H of the 2-sphere: one degree-2 generator squaring to zero."""
    return Ring([Generator("b", 2)], {}, name="sphere2")


def s2xs2_ring() -> Ring:
    """Product of two 2-spheres: even intersection form [[0,1],[1,0]]."""
    gens = [Generator("u1", 2), Generator("u2", 2), Generator("w", 4)]
    products = {
        ("u1", "u2"): {"w": 1},
        ("u2", "u1"): {"w": 1},
    }
    return Ring(gens, products, name="s2xs2")


def cp2_conn_cp2bar_ring() -> Ring:
    """Connected sum of the complex projective plane with its reverse:
    odd intersection form [[1,0],[0,-1]]."""
    gens = [Generator("u1", 2), Generator("u2", 2), Generator("w", 4)]
    products = {
        ("u1", "u1"): {"w": 1},
        ("u2", "u2"): {"w": -1},
    }
    return Ring(gens, products, name="cp2_conn_cp2bar")


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


BUILTIN = {
    "torus": torus_ring,
    "surface_g2": lambda: surface_ring(2),
    "surface_g3": lambda: surface_ring(3),
    "sphere2": sphere2_ring,
    "s2xs2": s2xs2_ring,
    "cp2_conn_cp2bar": cp2_conn_cp2bar_ring,
    "hopf_2": lambda: hopf_ring(1),
    "hopf_4": lambda: hopf_ring(2),
    "hopf_6": lambda: hopf_ring(3),
    "sullivan_mu_1": lambda: sullivan_ring(1),
    "sullivan_mu_2": lambda: sullivan_ring(2),
    "sullivan_mu_3": lambda: sullivan_ring(3),
}

FIXTURES_ENV = "SYMPROD_FIXTURES"


def packaged_fixture_dir() -> str:
    return str(resources.files("symprod") / "fixtures")


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
