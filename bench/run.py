"""lobliq benchmark: the CLI run in-process on generated configs.

    python3 bench/run.py --workload mc --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, every metric

One closed-loop client: each job (one CLI command on one config) starts when
the previous one has finished, in one Python process per workload.  With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1`` it
installs the wrappers of ``tracing.py`` and measures the per-layer metrics.
Every job's artifacts are checked before its time counts.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are capped before NumPy is imported: one client, one core
THREAD_CAPS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
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
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 5
# calibrate() takes this long at the reference CPU speed; times are reported
# at that speed, see README.md
CAL_REF_S = 0.025
MEASUREMENT_LIMITS = ("no machine-wide tracing and no page-cache dropping: file "
                      "reads may hit a warm cache; other tenants share the CPU")

# one fresh interpreter: import the CLI and parse every config of the workload
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import lobliq.cli
for i in range(2, len(sys.argv), 2):
    lobliq.cli.load_config(sys.argv[i + 1], sys.argv[i])
print(time.perf_counter() - t0)
"""


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_lobliq():
    if not os.path.isfile(os.path.join(SRC, "lobliq", "cli.py")):
        _fail(f"no lobliq sources under {SRC}")
    sys.path.insert(0, SRC)
    import lobliq.cli
    if not os.path.abspath(lobliq.cli.__file__).startswith(SRC + os.sep):
        _fail(f"lobliq imported from {lobliq.cli.__file__}, not from {SRC}")
    return lobliq.cli


def machine_facts(seed: int) -> dict:
    import scipy
    import yaml
    import lobliq

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    src_dir = os.path.join(SRC, "lobliq")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        # look for a repository at the root only, not in the directories above
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                capture_output=True, text=True,
                                env={**os.environ,
                                     "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
                                ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "load_average": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "lobliq_version": lobliq.__version__,
        "lobliq_commit": commit or "unknown (not a git checkout)",
        "lobliq_src_sha256": digest.hexdigest(),
        "seed": seed,
        "thread_caps": THREAD_CAPS,
        "measurement_limits": MEASUREMENT_LIMITS,
    }


def calibrate() -> float:
    """Time a fixed mix of the work lobliq does: scalar math through Python
    calls, NumPy calls on tiny arrays, arrays beyond the L2 cache, and
    small-object churn."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(10_000):
        x = 0.5 + i * 1e-5
        acc += math.exp(-x) * math.log1p(x) / (1.0 + x * x)
    y = np.arange(6.0)
    for _ in range(1_500):
        y = y + 1e-3 * (np.concatenate(([0.0], y[:-1])) - y)
    big = np.linspace(0.0, 1.0, 200_000)
    for _ in range(10):
        acc += float(np.exp(-big).sum())
    table: dict[int, tuple] = {}
    for i in range(10_000):
        table[i & 1023] = (table.get(i & 1023, (0,))[0] + i,)
    return perf_counter() - t0


def measure_setup(jobs, configs) -> list[tuple[float, float]]:
    """Wall time of import + load_config in fresh interpreters, each with
    the mean calibrate() time around it."""
    argv = [sys.executable, "-c", _SETUP_PROBE, SRC]
    for j in jobs:
        argv += [j.command, configs[j.name]]
    samples = []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                              cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        after = calibrate()
        samples.append((float(done.stdout.strip().splitlines()[-1]),
                        0.5 * (before + after)))
        before = after
    return samples


def at_reference_speed(samples) -> float:
    """Median over (time, calibration) samples of the time the work would
    take at the reference CPU speed."""
    return statistics.median(t * CAL_REF_S / c for t, c in samples)


class Runner:
    """Runs passes over a workload's jobs and keeps the checked job times."""

    def __init__(self, cli, jobs, configs, work_dir):
        self.cli, self.jobs, self.configs, self.work_dir = cli, jobs, configs, work_dir
        self.attempted = self.failed = 0
        # job -> [(seconds, mean calibrate() time around the job)]
        self.samples: dict[str, list[tuple[float, float]]] = {j.name: [] for j in jobs}

    def run_pass(self, tracer=None, keep: bool = True) -> float:
        """One pass over all jobs; returns the summed time of the jobs."""
        total = 0.0
        before = calibrate() if keep else 0.0
        for job in self.jobs:
            out = os.path.join(self.work_dir, job.name)
            argv = [job.command, "--config", self.configs[job.name], "--out", out]
            self.attempted += 1
            try:
                t0 = perf_counter()
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.run_job(job.name, self.cli.main, argv)
                elapsed = perf_counter() - t0
                if code != 0:
                    raise RuntimeError(f"exit code {code}")
                job.check(out)
            except Exception:  # a failing job is counted, and the run goes on
                self.failed += 1
                print(f"bench: job {job.name} failed:\n{traceback.format_exc()}",
                      file=sys.stderr)
                elapsed = None
            if keep:
                after = calibrate()
                if elapsed is not None:
                    self.samples[job.name].append((elapsed, 0.5 * (before + after)))
                before = after
            if elapsed is not None:
                total += elapsed
        return total


def end_to_end(runner: Runner, seconds: float, workload: str):
    """Set-up probes, a warm-up pass, then passes until ``seconds`` have
    elapsed."""
    from workloads import HEADLINE

    setup = measure_setup(runner.jobs, runner.configs)
    runner.run_pass(keep=False)
    start = perf_counter()
    passes, last = 0, 0.0
    # start a pass only if it should end within the window
    while passes == 0 or perf_counter() - start + last <= seconds:
        last = runner.run_pass()
        passes += 1
    med = {n: at_reference_speed(s) for n, s in runner.samples.items() if s}
    raw = {n: statistics.median(t for t, _ in s) for n, s in runner.samples.items() if s}
    cal = [c for s in [setup, *runner.samples.values()] for _, c in s]
    m = {"setup_s": (at_reference_speed(setup), "s")}
    if len(med) == len(runner.jobs):
        # a typical warm pass: each job at its median time
        m["wall_s"] = (sum(med.values()), "s")
        m["job_geomean_s"] = (math.exp(statistics.fmean(math.log(v) for v in med.values())),
                              "s")
        for name, (unit, fn) in HEADLINE[workload].items():
            m[name] = (fn(med), unit)
        m["wall_raw_s"] = (sum(raw.values()), "s")
    m["setup_raw_s"] = (statistics.median(t for t, _ in setup), "s")
    m["cpu_slowdown"] = (statistics.median(cal) / CAL_REF_S, "ratio")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    m["fail_frac"] = (runner.failed / runner.attempted, "fraction")
    info = {"passes": passes, "setup_samples": setup, "job_samples": runner.samples}
    return m, info


def traced(runner: Runner, seconds: float):
    """Untraced passes for the overhead baseline, then at least two traced
    passes whose counts must agree exactly."""
    from tracing import Tracer

    runner.run_pass(keep=False)
    start = perf_counter()
    plain = [runner.run_pass(keep=False)]
    while perf_counter() - start < seconds / 3:
        plain.append(runner.run_pass(keep=False))
    tracers, traced_s = [], []
    while len(tracers) < 2 or perf_counter() - start + traced_s[-1] <= seconds:
        tracer = Tracer()
        tracer.install()
        try:
            traced_s.append(runner.run_pass(tracer=tracer, keep=False))
        finally:
            tracer.uninstall()
        tracers.append(tracer)

    names = [j.name for j in runner.jobs]
    per_pass = [t.layer_metrics(names) for t in tracers]
    # counts repeat exactly (checked below); times are the median pass
    m = {k: (v if unit == "count" else statistics.median(p[k][0] for p in per_pass), unit)
         for k, (v, unit) in per_pass[0].items()}
    m["trace.overhead"] = (statistics.median(traced_s) / statistics.median(plain) - 1.0,
                           "fraction")
    counts = [t.counts() for t in tracers]
    mismatched = sorted(k for k in set().union(*counts)
                        if len({c.get(k) for c in counts}) > 1)
    info = {"untraced_passes_s": plain, "traced_passes_s": traced_s,
            "counts": counts[0], "count_mismatches": mismatched,
            "job_calls": tracers[0].job_calls,
            "spans": [s for t in tracers for s in t.spans]}
    return m, info


def _print_table(metrics: dict, workload: str) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload:8s} {name:40s} {value:16.6g} {unit}")


def _compare_baseline(job_calls: dict, seed: int) -> None:
    """Print each call count that differs from the recorded baseline."""
    with open(os.path.join(BENCH_DIR, "baseline_counts.json")) as fh:
        baseline = json.load(fh)
    if seed != baseline["seed"]:
        return
    for job, calls in job_calls.items():
        base = baseline["jobs"].get(job, {})
        for name in sorted(set(base) | set(calls)):
            if base.get(name, 0) != calls.get(name, 0):
                print(f"# baseline count differs: {job} {name} "
                      f"{base.get(name, 0)} -> {calls.get(name, 0)}")


def run_one(args) -> int:
    sys.path.insert(0, BENCH_DIR)
    cli = _import_lobliq()
    from workloads import workload_jobs, write_configs

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    jobs = workload_jobs(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        configs = write_configs(jobs, os.path.join(work_dir, "configs"))
        runner = Runner(cli, jobs, configs, work_dir)
        if args.trace:
            metrics, info = traced(runner, args.seconds)
        else:
            metrics, info = end_to_end(runner, args.seconds, args.workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    facts = machine_facts(args.seed)
    for key, value in facts.items():
        print(f"# {key}: {value}")
    _print_table(metrics, args.workload)
    mismatches = info.get("count_mismatches", [])
    for key in mismatches:
        print(f"bench: count {key} differs between traced passes", file=sys.stderr)
    if args.trace:
        _compare_baseline(info["job_calls"], args.seed)

    correct = runner.failed == 0 and not mismatches
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed + len(mismatches),
        "metrics": {},
    }
    for entry in wanted:
        if entry["name"] not in metrics:  # a job failed, so it has no median
            continue
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {unit}, "
                               f"BENCHMARK.json says {entry['unit']}")
        result["metrics"][entry["name"]] = {"value": value, "unit": unit}
    record = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds,
                   "machine": facts, "result": result,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   **info}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; prints every metric by name."""
    from workloads import WORKLOADS

    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, timeout=900)
        status = status or done.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc", "solvers", "curves", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        sys.path.insert(0, BENCH_DIR)
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
