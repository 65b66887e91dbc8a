"""Byte-identical CLI output: benchmark jobs against their recorded digests.

Each job runs through ``symprod.cli.main`` with stdout captured, and the
digest ``sha256(f"exit={code}\\n{stdout}")[:16]`` must equal the one in
``perfbench/goldens.json``.  Covered: every fixed ``sym-table``, ``verify``
and ``bridge`` job of the benchmark, and the first job of each small-query
subcommand in its request pool.  One larger bridge job, beyond the
benchmark's sizes, has its digest pinned here, and so do five ``verify``
jobs at g = 5 and 6, one ``relations`` job at g = 10 and two ``sym-table``
jobs (``surface_g2`` at n = 6, ``surface_g3`` at n = 4).
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from symprod.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
GOLDENS = json.loads((PERFBENCH / "goldens.json").read_text(encoding="utf-8"))["digests"]
BATCH = ("sym-table", "verify", "bridge")


def _golden_jobs() -> list[dict]:
    out, seen = [], set()
    for job in workloads.all_golden_jobs():
        command = job["argv"][0]
        if command in BATCH:
            out.append(job)
        elif command not in seen:
            seen.add(command)
            out.append(job)
    return out


JOBS = _golden_jobs()


def run_job(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def digest(code, stdout: str) -> str:
    return hashlib.sha256(f"exit={code}\n{stdout}".encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def sym2_spec(tmp_path_factory):
    """The Sym^2(surface_g2) table as a ring spec, written where the
    re-ingest job reads it; the table JSON names the ring, not the path."""
    code, stdout = run_job(workloads.SYM2_JOB["argv"])
    assert code == 0
    path = tmp_path_factory.mktemp("goldens") / "sym2_surface_g2.ring"
    path.write_text(stdout, encoding="utf-8")
    return str(path)


def test_goldens_cover_every_batch_job_and_query_subcommand():
    commands = {job["argv"][0] for job in JOBS}
    assert commands == {"sym-table", "verify", "bridge", "nf", "betti",
                        "relations", "sym-basis"}
    # the re-ingest spec's own job, 6 table, 4 certify and 4 bridge jobs
    assert sum(job["argv"][0] in BATCH for job in JOBS) == 15


@pytest.mark.parametrize("job", JOBS, ids=lambda job: job["key"])
def test_output_matches_golden_digest(job, sym2_spec):
    argv = [sym2_spec if a == workloads.SYM2_SPEC else a for a in job["argv"]]
    code, stdout = run_job(argv)
    assert digest(code, stdout) == GOLDENS[job["key"]]


def test_bridge_g4_n5_matches_recorded_digest():
    # recorded before the bridge shared one map per run and read unit
    # Smith invariants off the Hermite form
    code, stdout = run_job(["bridge", "--g", "4", "--n", "5", "--format", "json"])
    assert digest(code, stdout) == "22ad5b1075cf2d24"


@pytest.mark.parametrize("g, n, want", [(5, 4, "beb17e17874129cc"),
                                        (5, 5, "c5254b6cae7b62f3"),
                                        (6, 4, "a7950fd490acacaf")])
def test_verify_at_scale_matches_recorded_digest(g, n, want):
    # recorded while each degree's ideal lattice was still spanned by every
    # generator times every monomial of the complementary degree
    code, stdout = run_job(["verify", "--g", str(g), "--n", str(n), "--format", "json"])
    assert digest(code, stdout) == want


@pytest.mark.parametrize("g, n, want", [(6, 5, "a2b3ce2db92caaef"),
                                        (6, 6, "e2396831b8357baa")])
def test_verify_beyond_benchmark_matches_recorded_digest(g, n, want):
    # recorded while `verify` still built the full set's Hermite bases
    # and compared them with the minimal set's degree by degree
    code, stdout = run_job(["verify", "--g", str(g), "--n", str(n), "--format", "json"])
    assert digest(code, stdout) == want


@pytest.mark.parametrize("spec, n, max_degree, want", [
    ("surface_g2.ring", 6, 12, "702339ee285b885a"),
    ("surface_g3.ring", 4, 8, "b25364bef6a19df4"),
])
def test_table_at_scale_matches_recorded_digest(spec, n, max_degree, want):
    # recorded while both orders of every pair went through the kernel
    argv = ["sym-table", spec, "--n", str(n), "--max-degree", str(max_degree),
            "--format", "json"]
    code, stdout = run_job(argv)
    assert digest(code, stdout) == want


def test_relations_at_scale_matches_recorded_digest():
    # recorded while each relation was still expanded bracket by bracket
    # through the general polynomial product
    argv = ["relations", "--g", "10", "--n", "3", "--mode", "minimal_odd", "--format", "json"]
    code, stdout = run_job(argv)
    assert digest(code, stdout) == "8ae964411eef9546"
