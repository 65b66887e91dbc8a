"""One pass of a workload in a fresh process.

Run as ``worker.py <t_spawn>``, where ``t_spawn`` is the parent's
``time.monotonic()`` just before it started this process, with a request
on stdin: ``{"jobs": [...], "specs": [...], "surfaces": [...],
"setup_only": bool, "trace": bool, "spans_path": str | null,
"keep_stdout": bool}``.

Set-up imports symprod and loads the workload's rings; then every job runs
through ``symprod.cli.main(argv)`` with stdout captured, one after another.
Writes one JSON object to stdout: set-up time, per-job exit code, latency
and output digest, the pass's wall time and peak RSS and, when traced, the
per-layer summary.  Times are given as measured and at the reference speed
(see ``SpeedProbe``).
"""

import bisect
import contextlib
import gc
import hashlib
import io
import json
import resource
import signal
import sys
import traceback
from fractions import Fraction
from time import monotonic

# The host changes speed by 10-40% over seconds to minutes, per vCPU, so a
# fixed reference snippet is timed every PROBE_INTERVAL_S from a SIGALRM
# handler in this process, and times are also reported at the reference
# speed: each stretch between two probes counts as its wall time times
# REFERENCE_S over the probes' mean duration.  The snippet has the
# program's instruction mix (dict updates, Fraction arithmetic); the
# collector is paused while it runs and everything it allocates is freed
# before it returns, so the program's heap does not change its cost.
PROBE_FIRST_S = 0.005
PROBE_INTERVAL_S = 0.05
PROBE_LOOPS = 400
REFERENCE_S = 0.0012   # the snippet's duration on a quiet reference host


def _reference_work() -> Fraction:
    paused = gc.isenabled()
    gc.disable()
    try:
        d: dict[int, int] = {}
        acc = Fraction(0)
        for i in range(PROBE_LOOPS):
            k = (i * 7919) % 61
            d[k] = d.get(k, 0) + i
            acc += Fraction(i % 13, 7)
        return acc
    finally:
        if paused:
            gc.enable()


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.on_sample = None

    def _tick(self, signum, frame):
        t0 = monotonic()
        _reference_work()
        self.samples.append((t0, monotonic() - t0))
        if self.on_sample:
            self.on_sample(self.samples[-1][1])

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_FIRST_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # Stretches of program time between probes, with their cost; the
        # first and last stretch take the cost of the nearest probe.
        s = self.samples or [(0.0, REFERENCE_S)]
        self._ends = [t for t, _ in s] + [float("inf")]
        starts = [-float("inf")] + [t + d for t, d in s]
        costs = [s[0][1]] + [(a[1] + b[1]) / 2 for a, b in zip(s, s[1:])] + [s[-1][1]]
        self._stretches = list(zip(starts, self._ends, costs))

    def reference_time(self, a: float, b: float) -> float:
        """Program time within [a, b], probes excluded, at reference speed."""
        out = 0.0
        for lo, hi, cost in self._stretches[bisect.bisect_left(self._ends, a):]:
            if lo >= b:
                break
            out += max(0.0, min(hi, b) - max(lo, a)) * REFERENCE_S / cost
        return out

    def probe_time(self, a: float, b: float) -> float:
        return sum(d for t, d in self.samples if a <= t < b)


def digest(code, stdout: str) -> str:
    """Golden digest of one job: its exit code and its exact stdout."""
    return hashlib.sha256(f"exit={code}\n{stdout}".encode()).hexdigest()[:16]


def run_job(cli, argv):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:  # an escaping exception is a failed job, not a crash
        code = "exception:" + traceback.format_exc().strip().splitlines()[-1]
    return code, buf.getvalue()


def main() -> int:
    t_spawn = float(sys.argv[1])
    probe = SpeedProbe()
    probe.start()
    request = json.load(sys.stdin)
    from symprod import cli, fixtures, rings
    for spec in request["specs"]:
        rings.load_ring(fixtures.resolve_spec_path(spec))
    for g in request["surfaces"]:
        fixtures.surface_ring(g)
    setup_done = monotonic()
    jobs_in = [] if request.get("setup_only") else request["jobs"]
    if not jobs_in:
        probe.stop()

    tracer = None
    if request.get("trace"):
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        probe.on_sample = tracer.exclude
    jobs, spans = [], []
    t_pass = monotonic()
    for i, job in enumerate(jobs_in):
        if tracer:
            tracer.job = i
        t0 = monotonic()
        code, stdout = run_job(cli, job["argv"])
        spans.append((t0, monotonic()))
        jobs.append({"key": job["key"], "code": code, "digest": digest(code, stdout)})
        if request.get("keep_stdout"):
            jobs[-1]["stdout"] = stdout
    t_end = monotonic()
    if jobs_in:
        probe.stop()
    if tracer:
        tracer.uninstall()

    probes = probe.probe_time
    for job, (t0, t1) in zip(jobs, spans):
        job["seconds"] = t1 - t0 - probes(t0, t1)
        job["ref_seconds"] = probe.reference_time(t0, t1)
    wall_s = t_end - t_pass - probes(t_pass, t_end)
    ref_wall_s = probe.reference_time(t_pass, t_end)
    result = {"setup_s": setup_done - t_spawn - probes(t_spawn, setup_done),
              "ref_setup_s": probe.reference_time(t_spawn, setup_done),
              "jobs": jobs, "wall_s": wall_s, "ref_wall_s": ref_wall_s,
              "probes": len(probe.samples),
              "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        result["layers"] = tracer.summary(wall_s, ref_wall_s / wall_s)
        result["leftover"] = tracer.leftover()
        if request.get("spans_path"):
            tracer.dump(request["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
