#!/usr/bin/env python3
"""mdpvcg benchmark: one seeded workload per invocation, closed loop, one thread.

    python3 benchmarks/run.py --workload rounds_export --seed 1 --seconds 36 --trace 0

Workloads, metrics and the layer -> metric -> workload map are described in
benchmarks/README.md. Run it from the repository root. The next-to-last line
of standard output is a JSON report (machine, named metrics, op counts); the
last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer metrics, from a run that alternates traced and
untraced operations. Exit code 2 means the benchmark could not run (no
result is printed); a failed operation is counted, not fatal.
"""

import os

# One thread for every numeric library, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sim_large", "offline_batch", "rounds_export")
SETUP_PROBES = 4       # extra set-ups in child processes; setup_s is the median of 5
PROBE_TIMEOUT_S = 120
# The host's CPU speed drifts by about +-25% in phases of 5 to 20 s, so the
# timed end-to-end metrics are scaled to a fixed speed: between set-ups and
# between ops (at least every CPU_SAMPLE_EVERY_S) a fixed pure-Python loop is
# timed, and each set-up or op time is multiplied by CPU_REF_S over the mean
# of the loop times just before and after it.
CPU_SAMPLE_EVERY_S = 1.0
CPU_REF_S = 0.100      # about the loop's time in the host's fast phases (Intel Xeon, 2 vCPUs)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _set_up(args, out_dir):
    """Import the program from this checkout and generate the workload inputs."""
    sys.path.insert(0, str(SRC))
    import mdpvcg  # noqa: F401
    if not Path(mdpvcg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"mdpvcg imported from {mdpvcg.__file__}, not from {SRC}")
    import workloads
    return workloads.make(args.workload, args.seed, out_dir)


def _probe_setup(args):
    """Time the set-up in a fresh interpreter, as the parent process did it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _machine():
    import numpy
    import scipy
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or sha
    cpu = "unknown"
    threads = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "git_sha": sha, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "process_threads": threads,
    }


def _percentile(values, q):
    """Nearest-rank percentile: the reported value was really observed."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _cpu_sample():
    """Seconds a fixed pure-Python loop takes now: the host CPU's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i * i
    return time.perf_counter() - start


def _loop(wl, seconds, tracer):
    """Run operations until ``seconds`` have passed; alternate tracing if given.

    Also returns, per op, the mean CPU sample time around it.
    """
    durations, traced, works, failures = [], [], [], []
    samples, before = [_cpu_sample()], []
    last_sample = time.perf_counter()
    deadline = last_sample + seconds
    j = 0
    while True:
        inp = wl.input(j)
        on = tracer is not None and j % 2 == 1
        if on:
            tracer.install()
        start = time.perf_counter()
        try:
            out = wl.run(inp)
        except Exception:  # a failed operation is counted and the loop goes on
            out = None
            problems = [traceback.format_exc(limit=3)]
        elapsed = time.perf_counter() - start
        if on:
            tracer.uninstall()
        work = 0
        if out is not None:
            try:
                problems = wl.check(inp, out)
                work = wl.work(inp, out)
            except Exception:  # e.g. an expected output file is missing
                problems = [traceback.format_exc(limit=3)]
        durations.append(elapsed)
        traced.append(on)
        works.append(work)
        before.append(len(samples) - 1)
        if problems:
            failures.append((j, problems))
        j += 1
        done = time.perf_counter() >= deadline and (tracer is None or j >= 2)
        if done or time.perf_counter() - last_sample >= CPU_SAMPLE_EVERY_S:
            samples.append(_cpu_sample())
            last_sample = time.perf_counter()
        if done:
            cpu = [(samples[k] + samples[k + 1]) / 2 for k in before]
            return durations, traced, works, failures, cpu


def _end_to_end(wl, setups, setup_cpu, durations, works, cpu):
    scaled = [d * CPU_REF_S / c for d, c in zip(durations, cpu)]
    metrics = {
        "setup_s": statistics.median(t * CPU_REF_S / c for t, c in zip(setups, setup_cpu)),
        "op_p50_ref_ms": 1e3 * statistics.median(scaled),
        "work_per_ref_s": sum(works) / sum(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Wall times as measured, under the names a user of each workload would use.
    named = {"setup_wall_s": (statistics.median(setups), "s"),
             "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
             "cpu_sample_ms": (1e3 * statistics.median(cpu), "ms")}
    if wl.item == "rounds":
        named["run_s"] = (statistics.median(durations), "s")
        named["rounds_per_s"] = (sum(works) / sum(durations), "1/s")
    else:
        named["mechanisms_per_s"] = (sum(works) / sum(durations), "1/s")
        named["mechanism_p50_ms"] = (1e3 * statistics.median(durations), "ms")
        named["mechanism_p95_ms"] = (1e3 * _percentile(durations, 95), "ms")
    return metrics, named


def _per_layer(tracer, durations, traced):
    on = [d for d, t in zip(durations, traced) if t]
    off = [d for d, t in zip(durations, traced) if not t]
    n = len(on)
    metrics = {}
    for layer, st in tracer.stats.items():
        metrics[f"{layer}.calls"] = st.calls / n
        metrics[f"{layer}.s"] = st.total / n
        metrics[f"{layer}.self_s"] = st.self_time / n
    for key, value in tracer.counters.items():
        metrics[key] = value if key.endswith("_max") else value / n
    metrics["op_traced_ms"] = 1e3 * statistics.median(on)
    metrics["op_untraced_ms"] = 1e3 * statistics.median(off)
    metrics["trace_overhead_ratio"] = statistics.median(on) / statistics.median(off)
    return metrics


def main(argv=None):
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_out"))
    try:
        try:
            wl = _set_up(args, out_dir)
        except ImportError as e:
            print(f"benchmark: cannot import the program from {SRC}: {e}", file=sys.stderr)
            return 2
        setup = time.perf_counter() - T_START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup}))
            return 0
        setups, samples = [setup], [_cpu_sample()]
        for _ in range(SETUP_PROBES):
            setups.append(_probe_setup(args))
            samples.append(_cpu_sample())
        # The first set-up (this process's) has only a sample after it.
        setup_cpu = samples[:1] + [(a + b) / 2 for a, b in zip(samples, samples[1:])]
        wl.warm_up()

        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        durations, traced, works, failures, cpu = _loop(wl, args.seconds, tracer)

        for j, problems in failures[:5]:
            print(f"operation {j} failed: {'; '.join(problems)}", file=sys.stderr)
        if args.trace:
            values = _per_layer(tracer, durations, traced)
            wanted = spec["per_layer"]
        else:
            values, named = _end_to_end(wl, setups, setup_cpu, durations, works, cpu)
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "ops": len(durations), "ops_failed": len(failures),
                  "setup_samples_s": setups, "machine": _machine()}
        if args.trace:
            report["absent_layers"] = tracer.absent
            report["idle_layers"] = sorted(l for l, st in tracer.stats.items() if not st.calls)
        else:
            report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        print(json.dumps(report))
        print(json.dumps({"correct": not failures, "attempted": len(durations),
                          "failed": len(failures), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
