"""Spans and counters around calls into symprod's public functions.

Wrappers are installed from outside the program: every module attribute
(or class attribute, for methods) bound to a traced function is replaced
by one wrapper, because names are imported with ``from ... import`` and a
call resolves whichever binding its module holds.  ``uninstall`` puts the
original objects back.

A span is ``[name_id, start, end, parent, job]``.  Spans stay in memory
and are written out once the pass ends; a function's self time is its
spans' time minus the time their child spans cover and minus the speed
probe's time charged to it (``exclude``).  Per-element hot
methods (``Ring.slot_degree``, ``Ring.gen_product``, about 10^6 calls a
pass) are deliberately not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

# module -> traced public functions ("Class.method" for methods).
TARGETS = {
    "tensors": ["tensor_multiply", "act", "symmetrize"],
    "sympower": ["realize", "expand", "enumerate_basis", "structure_constants"],
    "quotient": ["ideal_degree_rows", "ideal_generators", "normal_form",
                 "quotient_basis", "multiply_nf"],
    "lattice": ["hermite_nonzero", "lattice_equal", "lattice_membership", "rank",
                "smith", "determinant"],
    "bridge": ["bridge_degree", "multiplicativity_spot_check",
               "SurfacePowerMap.coordinates", "SurfacePowerMap.image"],
    "rings": ["load_ring"],
    "cli": ["main"],
}

# Modules searched for bindings of the traced functions.
BINDING_MODULES = ("symprod", "symprod.rings", "symprod.tensors", "symprod.sympower",
                   "symprod.quotient", "symprod.lattice", "symprod.bridge",
                   "symprod.fixtures", "symprod.cli")


def _cells(m) -> int:
    return len(m) * len(m[0]) if m else 0


def _max_bits(rows) -> int:
    return max((abs(v).bit_length() for row in rows for v in row), default=0)


# Work counters taken from each call's arguments and result: name ->
# (stats, function returning one value per stat).  Counters are summed
# over calls, except ``*bits*`` counters, which keep the maximum.
COUNTERS = {
    "tensors.tensor_multiply": (("pairs", "terms_out"), lambda a, out: (
        len(a[0].terms) * len(a[1].terms), len(out.terms))),
    "sympower.realize": (("terms_out",), lambda a, out: (len(out.terms),)),
    "sympower.expand": (("terms_in",), lambda a, out: (len(a[0].terms),)),
    "quotient.ideal_degree_rows": (("rows_out", "cols"), lambda a, out: (
        len(out), len(out[0]) if out else 0)),
    "quotient.normal_form": (("terms_in", "terms_out"), lambda a, out: (
        len(a[0].terms), len(out.terms))),
    "lattice.hermite_nonzero": (("cells_in", "rank_out", "max_bits_out"),
                                lambda a, out: (_cells(a[0]), len(out), _max_bits(out))),
    "lattice.smith": (("cells_in",), lambda a, out: (_cells(a[0]),)),
    "lattice.determinant": (("dim", "bits_out"), lambda a, out: (
        len(a[0]), abs(out).bit_length())),
}


def function_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


def counter_names() -> list[str]:
    """Every work counter a traced pass reports, ``calls`` included."""
    out = [f"{name}.calls" for name in function_names()]
    for name, (stats, _) in COUNTERS.items():
        out += [f"{name}.{stat}" for stat in stats]
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.excluded: dict[int, float] = {}
        self.job = -1
        self._installed: list[tuple[object, str, object]] = []
        self._wrappers: set[int] = set()

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        originals = {}
        for mod, fns in TARGETS.items():
            module = importlib.import_module(f"symprod.{mod}")
            for fn in fns:
                owner, attr = _resolve(module, fn)
                originals[id(getattr(owner, attr))] = f"{mod}.{fn}"
        wrappers = {}
        for owner, attr, value in _bindings():
            name = originals.get(id(value))
            if name is None:
                continue
            if name not in wrappers:
                wrappers[name] = self._wrap(name, value)
            self._installed.append((owner, attr, value))
            setattr(owner, attr, wrappers[name])
        missing = set(originals.values()) - set(wrappers)
        if missing:
            raise RuntimeError(f"no binding found for {sorted(missing)}")
        self._wrappers = {id(w) for w in wrappers.values()}

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._installed):
            setattr(owner, attr, value)
        self._installed.clear()

    def leftover(self) -> list[str]:
        """Bindings that still hold a wrapper; empty after ``uninstall``."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, value in _bindings() if id(value) in self._wrappers]

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        stats, counter = COUNTERS.get(name, ((), None))
        keys = [(f"{name}.{stat}", "bits" in stat) for stat in stats]
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                for (key, keep_max), v in zip(keys, counter(args, out)):
                    old = counts.get(key, 0)
                    counts[key] = max(old, v) if keep_max else old + v
            return out

        return traced

    def exclude(self, seconds: float) -> None:
        """Charge time that is not the program's to the innermost open span."""
        if self.stack:
            top = self.stack[-1]
            self.excluded[top] = self.excluded.get(top, 0.0) + seconds

    # -- results ------------------------------------------------------------

    def summary(self, wall_s: float, scale: float) -> dict:
        """Per-function calls and self time (times ``scale``), counters and
        module shares of ``wall_s``."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        child_s = [0.0] * len(self.spans)
        for nid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        for sid, ((nid, t0, t1, _, _), covered) in enumerate(zip(self.spans, child_s)):
            calls[nid] += 1
            self_s[nid] += t1 - t0 - covered - self.excluded.get(sid, 0.0)
        out = {name: 0 for name in counter_names()}
        out.update(self.counts)
        shares: dict[str, float] = {mod: 0.0 for mod in TARGETS}
        for name, c, s in zip(self.names, calls, self_s):
            out[f"{name}.calls"] = c
            out[f"{name}.self_s"] = s * scale
            shares[name.split(".")[0]] += s
        for name in function_names():
            out.setdefault(f"{name}.self_s", 0.0)
        pairs = out["tensors.tensor_multiply.pairs"]
        out["tensors.tensor_multiply.yield"] = (
            out["tensors.tensor_multiply.terms_out"] / pairs if pairs else 0.0)
        for mod, s in shares.items():
            out[f"{mod}.share"] = s / wall_s
        out["harness.spans"] = len(self.spans)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"names": self.names, "fields": ["name", "start", "end",
                                                       "parent", "job"],
                       "spans": self.spans}, f, separators=(",", ":"))


def _bindings():
    """(owner, attribute, value) for every module and class attribute in
    the binding modules; classes are searched in the module defining them."""
    for modname in BINDING_MODULES:
        module = importlib.import_module(modname)
        owners = [module] + [v for v in vars(module).values()
                             if isinstance(v, type) and v.__module__ == modname]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                yield owner, attr, value


def _resolve(module, dotted: str):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr
