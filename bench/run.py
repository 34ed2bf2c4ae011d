"""latticecount benchmark: one closed-loop client driving the CLI in process.

    python3 bench/run.py --workload triangles_large --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --seed 1            # every workload, one after another

A run generates the workload's request pool from the seed (workloads.py),
computes every reference count in a child process (reference.py), then
calls ``latticecount.cli.run(argv, out, err)`` from this single thread,
each request sent when the previous one has returned, for --seconds.
Every output is checked against its reference outside the timed call.

--trace 0 prints the end-to-end metrics.  On a shared host the speed of
a CPU drifts by up to a factor of two, over seconds to minutes, so each
end-to-end time is scaled by a reference timed beside it, on the same
CPU: request times by a probe of pure-Python work (HostSpeed), so they
read as times on a host where the probe takes PROBE_REFERENCE_S, and the
set-up time by the start of a bare interpreter, so it reads as the time
on a host where that takes BARE_START_REFERENCE_S.  The unscaled figures
are printed in a comment line.

--trace 1 runs each request twice, untraced and then traced (tracer.py),
and prints the per-layer metrics: self time per request of each layer,
counters per request, and the ratio of traced to untraced median latency.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the
same metrics by name and unit, the environment and the request tally.
"""

import argparse
import bisect
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import ceil
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# The tail latency reported for each workload: a fixed percentile that has
# at least ten samples beyond it in every run seen at the seed commit
# (in 22 s: 801-1001, 66-81, 242-310 and 3700-4702 samples).
TAIL_PERCENTILE = {
    "triangles_large": 98,
    "polygons_dense": 80,
    "semigroup_slices": 95,
    "cli_small": 99.5,
}
# interpreter starts per run, half before the timed loop and half after it,
# so that the median spans the run's drift in host speed
SETUP_REPEATS = 8
BARE_START_REFERENCE_S = 0.04
WARMUP_SECONDS = 0.5
# Probe timing: one probe every PROBE_EVERY seconds (between requests), each
# the mean of PROBE_REPEATS calls.  A time is scaled by the median of the
# PROBE_NEAREST probes on each side of its start.  A window of about a
# second follows the host's drift; a run-wide median does not, and
# neither does a single probe, which jitters by up to 80%.
PROBE_EVERY = 0.2
PROBE_REPEATS = 5
PROBE_NEAREST = 2
PROBE_REFERENCE_S = 0.4e-3
KEEP_SPANS = 50_000

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "counts_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def environment():
    """Interpreter, CPU count and commit ("unknown" outside a git checkout)."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit}


def _probe_work():
    """Fixed pure-Python work of the benchmark's own, so that no change to
    the package changes its cost: an integer loop like the quadrant
    kernel's, and rationals, dicts and strings like the geometry's and the
    CLI's, in about equal parts.  Either part alone follows some workloads
    and not others."""
    acc = 0
    for k in range(1, 1200):
        acc += (k * 7919 + acc) % 1031 // 3
    total = Fraction(0)
    for k in range(1, 40):
        total += Fraction(k, k + 7) * 3
    table = {}
    for k in range(300):
        table[str(k)] = k * k % 97
    return acc, total, sum(table.values())


class HostSpeed:
    """Probe times through a run, and times scaled by the probes around them."""

    def __init__(self):
        self.starts, self.seconds = [], []

    def probe(self):
        """Time one probe; returns the time it ended."""
        t0 = time.perf_counter()
        for _ in range(PROBE_REPEATS):
            _probe_work()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.seconds.append((t1 - t0) / PROBE_REPEATS)
        return t1

    def scale(self, start, seconds):
        """`seconds` of work begun at `start`, at the reference host speed."""
        j = bisect.bisect_right(self.starts, start)
        near = self.seconds[max(0, j - PROBE_NEAREST): j + PROBE_NEAREST]
        return seconds * PROBE_REFERENCE_S / statistics.median(near)


def setup_times(repeats):
    """(s, bare s) pairs: the wall time of a fresh interpreter importing
    latticecount.cli, and the mean wall time of the bare interpreter starts
    (``-c pass``) made just before and after it.

    Only the first, untimed start has a timeout: with one, subprocess polls
    for the child's exit in sleeps of up to 50 ms, which would quantise the
    timed starts; without, it blocks in waitpid."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def start(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return time.perf_counter() - t0

    subprocess.run([sys.executable, "-c", "import latticecount.cli"], env=env, check=True,
                   timeout=60)  # byte-compile once
    bare = [start("pass")]
    times = []
    for _ in range(repeats):
        times.append(start("import latticecount.cli"))
        bare.append(start("pass"))
    return [(t, (bare[k] + bare[k + 1]) / 2) for k, t in enumerate(times)]


def compute_references(pool):
    """Reference counts for the pool, from reference.py in a child process."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "reference.py")],
        input=json.dumps([req.ref for req in pool]),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return [int(n) for n in json.loads(proc.stdout)]


def _trace_total(trace):
    """The count a JSON trace implies on its own, where it implies one."""
    if "gaps" in trace:
        return len(trace["gaps"])
    for key in ("blocks", "slices", "apery"):
        if key in trace:
            return sum(int(n) for n in trace[key])
    return None


def check(req, expected, rc, out, err):
    """Classify one response: "ok", "known_defect" or "failed"."""
    if req.known_defect and rc == 1 and "error:" in err:
        return "known_defect"
    if rc != 0 or not out:
        return "failed"
    if out.startswith("{"):
        obj = json.loads(out)
        if json.dumps(obj, separators=(", ", ": ")) + "\n" != out:
            return "failed"  # not canonical JSON
        count = int(obj["count"])
        implied = _trace_total(obj.get("trace") or {})
        if implied is not None and implied != count:
            return "failed"
        if "--check" in req.argv and not (obj.get("agreed") is True
                                           and int(obj["oracle"]) == count):
            return "failed"
    else:
        head = out.split("\n", 1)[0]
        count = int(head.rsplit(": ", 1)[1])
        if "--check" in req.argv and f"  oracle: {count} (agreed)" not in out:
            return "failed"
    return "ok" if count == expected else "failed"


def call(run, argv):
    """One request: (seconds, exit code or the exception, stdout, stderr).
    argparse writes usage errors to sys.stderr, so it is redirected too."""
    out, err = io.StringIO(), io.StringIO()
    args = list(argv)
    saved, sys.stderr = sys.stderr, err
    try:
        t0 = time.perf_counter()
        try:
            rc = run(args, out, err)
        except Exception as exc:  # an escaped exception is a failed request
            rc = exc
        t1 = time.perf_counter()
    finally:
        sys.stderr = saved
    return t1 - t0, rc, out.getvalue(), err.getvalue()


def _rank(n, p):
    """1-based nearest rank of percentile p among n samples."""
    return max(1, ceil(Fraction(str(p)) * n / 100))


def percentile(values, p):
    return sorted(values)[_rank(len(values), p) - 1]


class Tally:
    def __init__(self):
        self.outcomes = {"ok": 0, "known_defect": 0, "failed": 0}
        self.first_failure = None

    def record(self, req, expected, rc, out, err):
        try:
            outcome = check(req, expected, rc, out, err)
        except (ValueError, KeyError, IndexError, TypeError):
            outcome = "failed"
        self.outcomes[outcome] += 1
        if outcome == "failed" and self.first_failure is None:
            self.first_failure = (req.argv, rc, out[:200], err[-200:])

    @property
    def attempted(self):
        return sum(self.outcomes.values())


def warm_up(run, pool):
    t_end = time.perf_counter() + WARMUP_SECONDS
    for req in pool:
        call(run, req.argv)
        if time.perf_counter() > t_end:
            break


def end_to_end(workload, pool, refs, seconds):
    from latticecount.cli import run

    speed = HostSpeed()
    setup = setup_times(SETUP_REPEATS // 2)
    warm_up(run, pool)
    tally, timed = Tally(), []
    t_start = next_probe = time.perf_counter()
    i = 0
    while time.perf_counter() - t_start < seconds:
        if time.perf_counter() >= next_probe:
            next_probe = speed.probe() + PROBE_EVERY
        req, expected = pool[i % len(pool)], refs[i % len(pool)]
        i += 1
        start = time.perf_counter()
        dt, rc, out, err = call(run, req.argv)
        timed.append((start, dt))
        tally.record(req, expected, rc, out, err)
    speed.probe()
    setup += setup_times(SETUP_REPEATS - SETUP_REPEATS // 2)
    latencies = [speed.scale(start, dt) for start, dt in timed]
    tail = TAIL_PERCENTILE[workload]
    metrics = {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": percentile(latencies, tail) * 1e3,
        # one closed-loop client: request time is the run's wall time, less
        # the checks and probes between requests
        "counts_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(t * BARE_START_REFERENCE_S / bare for t, bare in setup),
    }
    raw = [dt for _, dt in timed]
    beyond = len(latencies) - _rank(len(latencies), tail)
    notes = [
        f"tail=p{tail:g} with {beyond} of {len(latencies)} samples beyond it",
        f"unscaled: latency_p50_ms {statistics.median(raw) * 1e3:.6g} "
        f"latency_tail_ms {percentile(raw, tail) * 1e3:.6g} "
        f"counts_per_s {len(raw) / sum(raw):.6g} "
        f"setup_s {statistics.median(t for t, _ in setup):.6g} "
        f"bare start s {statistics.median(bare for _, bare in setup):.4g}; probe ms "
        f"median {statistics.median(speed.seconds) * 1e3:.4g} "
        f"min {min(speed.seconds) * 1e3:.4g} max {max(speed.seconds) * 1e3:.4g}",
    ]
    return tally, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def traced(workload, seed, pool, refs, seconds):
    from latticecount.cli import run

    from tracer import LAYER_METRICS, Tracer, clock

    warm_up(run, pool)
    tracer = Tracer(KEEP_SPANS)
    tally = Tally()
    plain, timed = [], []
    self_ns = dict.fromkeys(LAYER_METRICS, 0)
    counts, max_bits, output_bytes = {}, 0, 0
    t_start = time.perf_counter()
    i = 0
    while time.perf_counter() - t_start < seconds:
        req, expected = pool[i % len(pool)], refs[i % len(pool)]
        dt, rc, out, err = call(run, req.argv)
        plain.append(dt)
        tally.record(req, expected, rc, out, err)
        with tracer:
            root = tracer.begin()
            t0 = clock()
            _, rc, out, err = call(run, req.argv)
            t1 = clock()
            layers, request_counts = tracer.end(root, t0, t1, i)
        i += 1
        timed.append((t1 - t0) / 1e9)
        tally.record(req, expected, rc, out, err)
        output_bytes += len(out.encode())
        for layer, ns in layers.items():
            self_ns[layer] += ns
        max_bits = max(max_bits, request_counts.pop("triangles.kernel_max_bits"))
        for name, value in request_counts.items():
            counts[name] = counts.get(name, 0) + value
    n = len(timed)
    metrics = {LAYER_METRICS[layer]: (ns / n / 1e6, "ms/req") for layer, ns in self_ns.items()}
    metrics["cli.output_bytes"] = (output_bytes / n, "bytes/req")
    metrics["cli.known_defects"] = (tally.outcomes["known_defect"] / tally.attempted, "count/req")
    for name, value in counts.items():
        metrics[name] = (value / n, "count/req")
    metrics["triangles.kernel_max_bits"] = (max_bits, "bits")
    metrics["trace.overhead_ratio"] = (statistics.median(timed) / statistics.median(plain),
                                       "ratio")
    # shares of the traced time the layers account for; the rest is the
    # wrappers' own bookkeeping
    attributed = sum(self_ns.values())
    shares = sorted(((ns / attributed, LAYER_METRICS[layer]) for layer, ns in self_ns.items()),
                    reverse=True)
    notes = [
        "share of traced time by layer: " + ", ".join(
            f"{name} {share:.1%}" for share, name in shares if share >= 0.001),
        f"tracer bookkeeping: {1 - attributed / (sum(timed) * 1e9):.1%} of traced time",
    ]
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "fields": ["span", "parent", "layer", "request", "enter_ns", "start_ns", "end_ns",
                   "exit_ns"],
        "spans": tracer.kept, "dropped": tracer.dropped,
    }))
    notes.append(f"spans: {len(tracer.kept)} kept in {trace_file.relative_to(ROOT)}, "
                 f"{tracer.dropped} dropped past the first {KEEP_SPANS}")
    if tracer.absent:
        notes.append("not traced, absent from the package: " + ", ".join(tracer.absent))
    return tally, metrics, notes


def run_workload(workload, seed, seconds, trace):
    """One measured run; prints the summary lines and the result line."""
    from workloads import generate

    env = environment()
    pool = generate(workload, seed, OUT / f"work-{workload}-{seed}")
    refs = compute_references(pool)
    if trace:
        tally, metrics, notes = traced(workload, seed, pool, refs, seconds)
    else:
        tally, metrics, notes = end_to_end(workload, pool, refs, seconds)
    print(f"# workload={workload} seed={seed} seconds={seconds} trace={int(trace)} "
          f"closed loop, 1 client, {len(pool)} distinct requests")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    out = tally.outcomes
    print(f"# requests attempted={tally.attempted} ok={out['ok']} failed={out['failed']} "
          f"known_defect={out['known_defect']} "
          f"failed_ratio={out['failed'] / tally.attempted:.4g} "
          f"({(out['failed'] + out['known_defect']) / tally.attempted:.4g} with known defects)")
    if tally.first_failure:
        print(f"# first failure: {tally.first_failure}")
    for note in notes:
        print("# " + note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": out["failed"] == 0,
        "attempted": tally.attempted,
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return result


def run_all(seed, seconds, trace):
    """Every workload in its own process (peak memory is per process)."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=300,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="triangles_large, polygons_dense, semigroup_slices, "
                        "cli_small, or all (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latticecount" / "cli.py").is_file():
        print(f"error: no latticecount sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    # one CPU for the whole run, so that requests, interpreter starts and the
    # references they are scaled by meet the same host speed
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
