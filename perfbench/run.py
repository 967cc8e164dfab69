"""toruslab benchmark: one closed-loop client driving toruslab.cli.main.

Run from the repository root:

    python3 perfbench/run.py --workload battery --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The client sends the next job only after the previous one returned. Each
job is one in-process cli.main(argv) call with stdout captured; its output
is checked after the timer stops. --trace 0 measures for --seconds (and at
least MIN_JOBS jobs) and reports the end-to-end metrics. --trace 1 runs a
fixed number of jobs untraced, then the same jobs traced, and reports the
per-layer metrics, so its counts repeat exactly. The last line of stdout is
one JSON object with correct, attempted, failed and metrics. The exit code
is 1 when any job failed, so a broken output cannot pass as a small change
of ok_ratio.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from here, before numpy loads

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

# One client, one BLAS thread: the host has two cores and other tenants.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = tuple(workloads.WORKLOADS)
MIN_JOBS = 100                 # p90 then has at least ten jobs beyond it
TAIL_LADDER = (90.0, 99.0, 99.9)
SETUP_CHILDREN = 7             # fresh-process set-ups per run
WARMUP_JOBS = 2
WARMUP_SEED = 0                # warm-up inputs do not depend on --seed
# Jobs per cycle of each workload's cost strata; runs end on a whole cycle.
CYCLE = {"battery": 1, "longpath": 1, "sweep": 32, "excise": 7}
# Traced jobs per workload: whole cycles of each workload's job strata.
TRACE_JOBS = {"battery": 64, "longpath": 24, "sweep": 64, "excise": 49}
CHILD_TIMEOUT_S = 120


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)  # raw seconds
    kernel: list[float] = field(default_factory=list)     # calibration passes
    items: int = 0
    failures: list[tuple[int, str]] = field(default_factory=list)

    @property
    def busy(self) -> float:
        return math.fsum(self.latencies)

    def scaled(self) -> list[float]:
        """Latencies corrected to a quiet host (see calibrate.py)."""
        return [t / s for t, s in zip(self.latencies,
                                      calibrate.slowdowns(self.kernel))]

    @property
    def items_per_s(self) -> float:
        return self.items / math.fsum(self.scaled())


def run_job(cli, job, work: Path):
    """One cli.main call; returns (seconds, exit code or None, stdout, error)."""
    argv = job.resolve(work)
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash in the program is a failed job
            code, error = None, repr(exc)
        elapsed = time.perf_counter() - start
    if code is not None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()[:200]}"
    return elapsed, code, out.getvalue(), error


def measure(cli, jobs, work, check, *, seconds=0.0, min_jobs=0, cycle=1,
            limit=None, tracer=None) -> Phase:
    """Closed loop over the job pool; checks run after each job's timer stops.

    Without a limit the loop runs for seconds of job time and min_jobs jobs,
    then finishes the current cycle of job strata.
    """
    phase = Phase()
    i = 0
    while (i < limit) if limit is not None else (
            phase.busy < seconds or i < min_jobs or i % cycle):
        job = jobs[i % len(jobs)]
        gc.collect()  # each job starts from a clean heap, as in a fresh process
        phase.kernel.append(calibrate.kernel_seconds())
        if tracer is not None:
            tracer.begin_job(i)
        elapsed, code, out, error = run_job(cli, job, work)
        if tracer is not None:
            tracer.end_job()
            tracer.counts["jsonio.bytes_out"] += len(out.encode())
        phase.latencies.append(elapsed)
        if not error:
            try:
                check(job, out)
            except checks.CheckFailed as exc:
                error = str(exc)
        if error:
            phase.failures.append((i, error))
        else:
            phase.items += job.items
        i += 1
    phase.kernel.append(calibrate.kernel_seconds())
    return phase


def setup(name: str, seed: int, work: Path):
    """Import, input generation and warm-up, timed from STARTED.

    The warm-up runs WARMUP_JOBS jobs of a fixed seed, so its cost is the
    same for every --seed. The host's slowdown is sampled after numpy is
    imported, after input generation and after each warm-up job; the
    corrected time is the raw time over their mean. The samples' own time
    is left out.
    Returns (raw seconds, corrected seconds, cli, jobs, check).
    """
    probe = calibrate.Probe()
    probe.sample()
    from toruslab import cli

    jobs = workloads.build(name, seed, work)
    check = checks.checker(name)
    probe.sample()
    warm = work / "warmup"
    for job in workloads.build(name, WARMUP_SEED, warm, count=WARMUP_JOBS):
        run_job(cli, job, warm)
        probe.sample()
    raw = time.perf_counter() - STARTED - probe.spent
    return raw, raw / probe.slowdown(), cli, jobs, check


def child_setups(args, root: Path) -> list[tuple[float, float]]:
    """(raw, corrected) set-up times of fresh processes with their own inputs."""
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        raw, corrected = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(raw), float(corrected)))
    return times


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with ten jobs beyond it."""
    n = len(latencies)
    fits = [p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9]
    p = fits[-1] if fits else 50.0
    ordered = sorted(latencies)
    return p, ordered[max(0, math.ceil(p / 100.0 * n) - 1)]


def end_to_end(phase: Phase, setups: list[tuple[float, float]]) -> dict:
    """End-to-end metrics; the notes give the raw, uncorrected figures."""
    scaled = phase.scaled()
    pct, tail_s = tail(scaled)
    _, raw_tail_s = tail(phase.latencies)
    jobs = len(scaled)
    return {
        "job_p50_ms": (1e3 * statistics.median(scaled), "ms",
                       f"median of {jobs} jobs; raw "
                       f"{1e3 * statistics.median(phase.latencies):.2f}"),
        "job_tail_ms": (1e3 * tail_s, "ms",
                        f"p{pct:g} of {jobs} jobs; raw {1e3 * raw_tail_s:.2f}"),
        "items_per_s": (phase.items_per_s, "1/s",
                        f"raw {phase.items / phase.busy:.6g} over "
                        f"{phase.busy:.2f} s of jobs"),
        "setup_s": (statistics.median(c for _, c in setups), "s",
                    f"median of {len(setups)} set-ups; raw "
                    f"{statistics.median(r for r, _ in setups):.3f}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", "this process"),
        "ok_ratio": ((jobs - len(phase.failures)) / jobs, "ratio",
                     f"fail_ratio {len(phase.failures)}/{jobs}"),
    }


def report(title: str, metrics: dict, attempted: int, failures) -> None:
    """Human lines, then the JSON result as the last line of stdout."""
    print(title)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} {note}")
    print(f"  jobs attempted {attempted}, failed {len(failures)}, "
          f"fail_ratio {len(failures) / attempted:g}")
    for i, reason in failures[:5]:
        print(f"perfbench: job {i} failed: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }, sort_keys=True))


def run_all(args, root: Path) -> int:
    """Every workload in its own fresh process, one table."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=root, capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's raw and corrected set-up "
                             "times and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "toruslab" / "cli.py").is_file():
        print("perfbench: no toruslab sources at ./src/toruslab; "
              "run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    sys.path.insert(0, str(root / "src"))
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        raw_setup_s, setup_s, cli, jobs, check = setup(args.workload, args.seed, work)
        if args.setup_only:
            print(repr(raw_setup_s), repr(setup_s))
            return 0
        title = (f"perfbench {args.workload} seed={args.seed} "
                 f"seconds={args.seconds:g} trace={args.trace}")
        if not args.trace:
            setups = child_setups(args, root)
            phase = measure(cli, jobs, work, check, seconds=args.seconds,
                            min_jobs=MIN_JOBS, cycle=CYCLE[args.workload])
            report(title, end_to_end(phase, setups), len(phase.latencies),
                   phase.failures)
            return 1 if phase.failures else 0
        import tracing

        # Both phases run the same jobs, so their item rates compare like for like.
        plain = measure(cli, jobs, work, check, limit=TRACE_JOBS[args.workload])
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            traced = measure(cli, jobs, work, check,
                             limit=TRACE_JOBS[args.workload], tracer=tracer)
        finally:
            uninstall()
        metrics = {name: (value, unit, "")
                   for name, (value, unit) in tracing.layer_metrics(tracer).items()}
        metrics["trace.overhead_ratio"] = (
            traced.items_per_s / plain.items_per_s, "ratio",
            "traced over untraced items_per_s")
        failures = plain.failures + [(len(plain.latencies) + i, r)
                                     for i, r in traced.failures]
        report(title, metrics, len(plain.latencies) + len(traced.latencies),
               failures)
        return 1 if failures else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only succeeds once no other run uses it


if __name__ == "__main__":
    sys.exit(main())
