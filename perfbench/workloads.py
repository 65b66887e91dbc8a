"""Job lists of the four benchmark workloads, generated from a seed.

A job is a dict with the argv handed to ``symprod.cli.main`` and a golden
``key``: the argv with everything that may vary with the seed but cannot
change the output (the bridge ``--seed``) left out.  This module never
imports ``symprod``; the program receives only the generated argv.
"""

from __future__ import annotations

import random

WORKLOADS = ("table", "certify", "bridge", "queries")

OUT_DIR = "perfbench/out"
SYM2_SPEC = f"{OUT_DIR}/sym2_surface_g2.ring"

# The Sym^2(surface_g2) table, re-ingested by `table` as a ring with many
# generators.  It is generated by the program during set-up and checked
# against its golden digest like any job.
SYM2_JOB = {"key": "sym-table surface_g2.ring --n 2 --max-degree 4 --format json",
            "argv": ["sym-table", "surface_g2.ring", "--n", "2",
                     "--max-degree", "4", "--format", "json"]}

POOL_SEED = "symprod-queries-pool-v1"

_TABLE = [("surface_g2.ring", 4, 8), ("surface_g3.ring", 3, 6),
          ("sullivan_mu_2.ring", 3, 9), ("s2xs2.ring", 4, 16),
          ("hopf_2.ring", 5, 20), (SYM2_SPEC, 2, 8)]
_CERTIFY = [(4, 4), (4, 5), (3, 4), (3, 5)]
_BRIDGE = [(2, 4), (3, 4), (4, 3), (2, 5)]


def _job(argv, key_argv=None):
    argv = list(argv)
    return {"key": " ".join(key_argv or argv), "argv": argv}


def _fixed_jobs(workload: str) -> list[dict]:
    if workload == "table":
        return [_job(["sym-table", spec, "--n", str(n), "--max-degree", str(d),
                      "--format", "json"]) for spec, n, d in _TABLE]
    if workload == "certify":
        return [_job(["verify", "--g", str(g), "--n", str(n), "--format", "json"])
                for g, n in _CERTIFY]
    if workload == "bridge":
        return [_job(["bridge", "--g", str(g), "--n", str(n), "--jobs", "1",
                      "--format", "json"]) for g, n in _BRIDGE]
    raise ValueError(f"unknown batch workload {workload!r}")


def jobs(workload: str, seed: int) -> list[dict]:
    """The job list of one pass; the seed sets order, bridge seed and sample."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "queries":
        return query_sample(rng)
    out = _fixed_jobs(workload)
    rng.shuffle(out)
    if workload == "bridge":
        # --seed only picks the spot-check samples; the verdict printed is
        # the same for every seed, so the golden key leaves it out.
        out = [{"key": j["key"], "argv": j["argv"][:-2] + ["--seed", str(seed)]
                + j["argv"][-2:]} for j in out]
    return out


def all_golden_jobs() -> list[dict]:
    """Every job whose digest the goldens file must hold."""
    out = [SYM2_JOB]
    for workload in ("table", "certify", "bridge"):
        out += _fixed_jobs(workload)
    return out + query_pool()


def specs(job_list) -> list[str]:
    """Ring-spec files named by the jobs, loaded during set-up."""
    return sorted({j["argv"][1] for j in job_list
                   if j["argv"][0] in ("sym-table", "sym-basis")})


def surfaces(job_list) -> list[int]:
    """Genera of the surface rings the bridge jobs build."""
    return sorted({int(j["argv"][2]) for j in job_list if j["argv"][0] == "bridge"})


# -- queries ----------------------------------------------------------------
#
# A fixed pool of small requests in strata: for every (g, n) cell of the
# grid, NF_VARIANTS `nf` requests on random homogeneous polynomials of
# degree n+1..2n with at least one term of weight >= n+1 (so the rewriting
# always runs), one `betti` and one `relations` request; for every
# (spec, n), one `sym-basis` request per degree.  A pass draws the same
# number from each stratum, so every seed gets the same mix (about 70%
# `nf`) and only the variants differ.  The pool never depends on the run
# seed, so every request a run can draw has a recorded golden digest.

_GRID = [(g, n) for g in range(1, 7) for n in (2, 3, 4)]
_BASIS_SPECS = ["torus.ring", "surface_g2.ring", "surface_g3.ring", "sphere2.ring",
                "s2xs2.ring", "hopf_2.ring", "cp2_conn_cp2bar.ring",
                "sullivan_mu_1.ring"]
NF_VARIANTS = 40
NF_PER_PASS = 10       # per grid cell
BASIS_PER_PASS = 2     # per (spec, n)


def _strata() -> list[tuple[int, list[dict]]]:
    """(requests drawn per pass, pool of the stratum)."""
    rng = random.Random(POOL_SEED)
    out = []
    for g, n in _GRID:
        nf = {}
        while len(nf) < NF_VARIANTS:
            job = _nf_job(rng, g, n)
            nf[job["key"]] = job
        out.append((NF_PER_PASS, list(nf.values())))
        out.append((1, [_job(["betti", "--g", str(g), "--n", str(n), "--format", "json"])]))
        out.append((1, [_relations_job(g, n)]))
    for spec in _BASIS_SPECS:
        for n in (2, 3, 4):
            out.append((BASIS_PER_PASS, [
                _job(["sym-basis", spec, "--n", str(n), "--degree", str(d),
                      "--format", "json"]) for d in range(1, 2 * n + 1)]))
    return out


def query_pool() -> list[dict]:
    return [job for _, pool in _strata() for job in pool]


def query_sample(rng) -> list[dict]:
    out = [job for k, pool in _strata() for job in rng.sample(pool, k)]
    rng.shuffle(out)
    return out


def _relations_job(g: int, n: int) -> dict:
    # Full mode grows fast with g, so larger genera use the minimal or
    # stable generating sets, whichever the (g, n) admits.
    if g <= 3:
        mode = "full"
    elif n >= 2 * g - 1:
        mode = "stable"
    else:
        mode = "minimal_odd" if n % 2 else "minimal_even"
    return _job(["relations", "--g", str(g), "--n", str(n), "--mode", mode,
                 "--format", "json"])


def _nf_job(rng, g: int, n: int) -> dict:
    while True:
        degree = rng.randint(n + 1, 2 * n)
        monomials = {_random_monomial(rng, g, degree) for _ in range(rng.randint(1, 4))}
        if any(_weight(m) >= n + 1 for m in monomials):
            break
    terms = []
    for xs, xp, q in sorted(monomials):
        words = [f"x{i}" for i in xs] + [f"x'{i}" for i in xp]
        words += [f"y^{q}" if q > 1 else "y"] if q else []
        rng.shuffle(words)
        coeff = rng.randint(1, 9)
        terms.append(f"{rng.choice('+-')}{coeff}*{'.'.join(words)}")
    poly = "".join(terms)
    # The polynomial goes after "--": argparse would read a leading "-"
    # as an option.
    return _job(["nf", "--g", str(g), "--n", str(n), "--format", "json", "--", poly])


def _random_monomial(rng, g: int, degree: int):
    a = rng.randint(0, min(g, degree))
    b_max = min(g, degree - a)
    b = rng.choice([b for b in range(b_max + 1) if (degree - a - b) % 2 == 0])
    xs = tuple(sorted(rng.sample(range(1, g + 1), a)))
    xp = tuple(sorted(rng.sample(range(1, g + 1), b)))
    return xs, xp, (degree - a - b) // 2


def _weight(monomial) -> int:
    xs, xp, q = monomial
    return len(xs) + len(xp) + q
