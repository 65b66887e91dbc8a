"""symprod benchmark: drives the real CLI, one pass per fresh process.

One run:

    python3 perfbench/run.py --workload table --seed 1 --seconds 25 --trace 0

runs passes over the workload's job list until the time is used, each
pass in a fresh process (a CLI user starts cold every time; jobs inside a
pass share the process, as in a library sweep).  One client, closed loop,
one job after another, one core.  With ``--trace 0`` it reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics.  The last
line of stdout is the JSON result.

Other modes (see perfbench/README.md):

    --sweep FILE [--seeds 1-10]   run every workload (or --workload W) per
                                  seed and append the results to FILE
    --compare A [B]               spreads of one result set, or A/B rows
    --self-test                   traced bypass predictions on each workload
    --record-goldens              rewrite goldens.json from this commit
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import compare
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "goldens.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

RUN_LIMIT_S = 170        # a run must end within 180 s
MIN_SETUP_SAMPLES = 15   # set-up is measured at least this often per run


class HarnessError(RuntimeError):
    pass


# -- passes -----------------------------------------------------------------

def _worker(request: dict, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("SYMPROD_FIXTURES", None)
    payload = json.dumps(request)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                               repr(t_spawn)],
                              input=payload, capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise HarnessError("a pass did not finish within the run's time limit") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _pass(jobs, trace: bool, deadline: float, spans_path=None, keep_stdout=False):
    return _worker({"jobs": jobs, "specs": workloads.specs(jobs),
                    "surfaces": workloads.surfaces(jobs), "trace": trace,
                    "spans_path": spans_path, "keep_stdout": keep_stdout}, deadline)


def _setup_only(jobs, deadline: float) -> dict:
    return _worker({"jobs": [], "specs": workloads.specs(jobs),
                    "surfaces": workloads.surfaces(jobs), "setup_only": True},
                   deadline)


def make_inputs(workload: str, deadline: float) -> list[dict]:
    """Input generation outside the timed passes: the Sym^2(surface_g2)
    spec that `table` re-ingests.  Returns the generation job's result."""
    if workload != "table":
        return []
    os.makedirs(os.path.join(ROOT, workloads.OUT_DIR), exist_ok=True)
    result = _pass([workloads.SYM2_JOB], False, deadline, keep_stdout=True)
    job = result["jobs"][0]
    with open(os.path.join(ROOT, workloads.SYM2_SPEC), "w", encoding="utf-8") as f:
        f.write(job.pop("stdout"))
    return [job]


# -- one run ------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    goldens = load_goldens()
    spec = load_benchmark()
    jobs = workloads.jobs(workload, seed)
    checked = make_inputs(workload, deadline)

    passes = []
    t0 = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        spans = (os.path.join(ROOT, workloads.OUT_DIR,
                              f"spans-{workload}-{len(passes) // 2}.json")
                 if traced else None)
        passes.append(_pass(jobs, traced, deadline, spans))
        passes[-1]["traced"] = traced
        # Start another pass only if it should end within --seconds.
        elapsed = time.monotonic() - t0
        typical = statistics.median(p["wall_s"] + p["setup_s"] for p in passes)
        if len(passes) >= 2 and elapsed + typical > seconds:
            break
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    for p in passes:
        checked += p["jobs"]
    failed = [j for j in checked if goldens.get(j["key"]) != j["digest"]]
    for j in failed[:5]:
        print(f"FAILED {j['key']}: exit {j['code']}, digest {j['digest']}, "
              f"golden {goldens.get(j['key'])}", file=sys.stderr)
    correct = not failed

    if trace:
        metrics, consistent = _layer_metrics(plain, traced)
        correct = correct and consistent
        declared = spec["per_layer"]
    else:
        setups = passes + [_setup_only(jobs, deadline)
                           for _ in range(MIN_SETUP_SAMPLES - len(passes))]
        metrics = _end_to_end(plain, setups)
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        raise HarnessError(f"metrics {sorted(set(metrics) ^ set(names))} differ "
                           "from BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in declared}

    print(f"workload {workload}, seed {seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes of {len(jobs)} jobs, "
          f"{time.monotonic() - start:.1f} s in all")
    print(f"fail_frac = {len(failed) / len(checked):.4f} ratio "
          f"({len(failed)} of {len(checked)} jobs)")
    for name in names:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    raw = statistics.median(p["wall_s"] for p in plain)
    ref = statistics.median(p["ref_wall_s"] for p in plain)
    print(f"as measured: wall_s {raw:.6g} s, set-up {statistics.median(p['setup_s'] for p in passes):.6g} s; "
          f"host speed {ref / raw:.3f} of the reference "
          f"({sum(p['probes'] for p in plain)} probes)")
    return {"correct": correct, "attempted": len(checked), "failed": len(failed),
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in names}}


def _end_to_end(passes, setups) -> dict:
    """Times at the reference speed (see worker.SpeedProbe); memory as
    measured.  Per-job latency is the job's median over the
    passes; the percentiles are taken over the jobs, so they do not depend
    on the pass count."""
    per_job = {}
    for p in passes:
        for j in p["jobs"]:
            per_job.setdefault(j["key"], []).append(j["ref_seconds"])
    latencies = [statistics.median(v) * 1e3 for v in per_job.values()]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(p["ref_setup_s"] for p in setups),
        "wall_s": statistics.median(p["ref_wall_s"] for p in passes),
        "job_p50_ms": deciles[4],
        "job_p90_ms": deciles[8],
        "peak_rss_mb": statistics.median(p["maxrss_mb"] for p in passes),
    }


def _layer_metrics(plain, traced) -> tuple[dict, bool]:
    """Counters must repeat exactly in every traced pass; times are medians,
    at the reference speed."""
    layers = [p["layers"] for p in traced]
    out, consistent = {}, True
    for name in layers[0]:
        values = [lay[name] for lay in layers]
        if name.endswith(("_s", ".share")):
            out[name] = statistics.median(values)
        else:
            consistent = consistent and len(set(values)) == 1
            out[name] = values[0]
    leftover = sorted({b for p in traced for b in p["leftover"]})
    if leftover:
        print(f"tracing wrappers left installed: {leftover}", file=sys.stderr)
    if not consistent:
        print("work counters differ between traced passes", file=sys.stderr)
    out["harness.trace_overhead_s"] = (statistics.median(p["ref_wall_s"] for p in traced)
                                       - statistics.median(p["ref_wall_s"] for p in plain))
    return out, consistent and not leftover


# -- files ----------------------------------------------------------------------

def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as f:
        return json.load(f)["digests"]


def load_benchmark() -> dict:
    with open(BENCHMARK, encoding="utf-8") as f:
        return json.load(f)


def record_goldens() -> int:
    """Digest of every job any run can draw, from this commit's program."""
    deadline = time.monotonic() + 3600
    checked = make_inputs("table", deadline)
    jobs = workloads.all_golden_jobs()
    result = _pass(jobs, False, deadline)
    checked += result["jobs"]
    bad = [j for j in checked if j["code"] != 0]
    if bad:
        print(f"{len(bad)} jobs fail, e.g. {bad[0]}", file=sys.stderr)
        return 1
    with open(GOLDENS, "w", encoding="utf-8") as f:
        json.dump({"digests": {j["key"]: j["digest"] for j in checked}}, f,
                  indent=0, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(checked)} golden digests in {GOLDENS}")
    return 0


# -- self-test --------------------------------------------------------------

# Workloads expected to call each traced function (a nonzero `calls`).
EXERCISED = {
    "tensors.tensor_multiply": ("table", "bridge"),
    "tensors.act": ("table", "bridge"),
    "tensors.symmetrize": ("bridge",),
    "sympower.realize": ("table",),
    "sympower.expand": ("table", "bridge"),
    "sympower.enumerate_basis": ("table", "bridge", "queries"),
    "sympower.structure_constants": ("table",),
    "quotient.ideal_degree_rows": ("certify",),
    "quotient.ideal_generators": ("certify", "bridge", "queries"),
    "quotient.normal_form": ("bridge", "queries"),
    "quotient.quotient_basis": ("bridge",),
    "quotient.multiply_nf": ("bridge",),
    "lattice.hermite_nonzero": ("certify", "bridge"),
    "lattice.lattice_equal": ("certify",),
    "lattice.lattice_membership": ("certify",),
    "lattice.rank": ("certify",),
    "lattice.smith": ("bridge",),
    "lattice.determinant": ("bridge",),
    "bridge.bridge_degree": ("bridge",),
    "bridge.multiplicativity_spot_check": ("bridge",),
    "bridge.SurfacePowerMap.coordinates": ("bridge",),
    "bridge.SurfacePowerMap.image": ("bridge",),
    "rings.load_ring": ("table", "queries"),
    "cli.main": workloads.WORKLOADS,
}

# Layers a workload must bypass entirely.
BYPASSED = {"table": ("lattice",), "certify": ("tensors",)}


def self_test() -> int:
    """One traced pass per workload; checks the bypass predictions, the
    restored bindings and the golden digests of the traced pass."""
    import tracing
    goldens = load_goldens()
    deadline = time.monotonic() + 600
    failures = []

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    check(sorted(EXERCISED) == sorted(tracing.function_names()),
          "every traced function has an expected workload")
    for workload in workloads.WORKLOADS:
        make_inputs(workload, deadline)
        jobs = workloads.jobs(workload, 1)
        p = _pass(jobs, True, deadline)
        layers = p["layers"]
        check(all(goldens.get(j["key"]) == j["digest"] for j in p["jobs"]),
              f"{workload}: traced pass reproduces the golden digests")
        check(not p["leftover"], f"{workload}: every binding restored after the pass")
        for mod in BYPASSED.get(workload, ()):
            calls = {k: v for k, v in layers.items()
                     if k.startswith(mod + ".") and k.endswith(".calls") and v}
            check(not calls, f"{workload}: zero {mod}.* calls {calls or ''}")
        for name, expected in EXERCISED.items():
            if workload in expected:
                calls = layers[f"{name}.calls"]
                check(calls > 0, f"{workload}: {name} called ({calls} calls)")
        shares = ", ".join(f"{m} {layers[m + '.share']:.0%}" for m in tracing.TARGETS)
        print(f"INFO {workload}: self-time share of the traced pass: {shares}")
    print(f"{len(failures)} failures")
    return 1 if failures else 0


# -- sweep ----------------------------------------------------------------------

def sweep(path: str, workload_list, seeds, seconds: float, trace: bool) -> int:
    for seed in seeds:
        for workload in workload_list:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "1" if trace else "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            with open(path, "a", encoding="utf-8") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "trace": int(trace), "result": result}) + "\n")
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()
                if not trace or k.endswith(".share")), flush=True)
    compare.report([path], load_benchmark())
    return 0


def _seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", metavar="FILE")
    parser.add_argument("--seeds", type=_seed_list, default=[1])
    parser.add_argument("--compare", nargs="+", metavar="FILE")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return compare.report(args.compare, load_benchmark())
    if not os.path.isfile(os.path.join(ROOT, "src", "symprod", "cli.py")):
        print(f"error: no symprod sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        if args.record_goldens:
            return record_goldens()
        seconds = args.seconds or load_benchmark()["run_seconds"]
        if args.sweep:
            chosen = (args.workload,) if args.workload else workloads.WORKLOADS
            return sweep(args.sweep, chosen, args.seeds, seconds, bool(args.trace))
        if not args.workload:
            parser.error("--workload is required (or use --sweep)")
        result = run(args.workload, args.seed, seconds, bool(args.trace))
    except HarnessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
