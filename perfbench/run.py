"""Closed-loop benchmark of the carnotpoly command line.

One caller in one process runs the jobs of a workload back to back, each
job an in-process ``carnotpoly.cli.main(argv)`` call with ``--json``
whose standard output is captured and checked.  Passes repeat until the
next one would overrun ``--seconds`` (at least one pass runs).  Inputs
are generated from ``--seed`` during set-up.

    python3 perfbench/run.py --workload prolong --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the traced
ones, plus ``trace.overhead_s``; the spans are written to
``.perfbench_out/`` at the repository root.  A human-readable report
precedes the result, which is the last line of standard output: one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# BLAS is pinned to one thread before anything can import NumPy.
BLAS_THREADS = {var: "1" for var in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
COMMANDS = ("prolong", "verify", "polys", "minors", "detect", "integrate",
            "spiral")
# layer seconds on free(3,5) from the ROADMAP baseline table
ROADMAP_FREE35 = {"algebra.validate": 0.53, "group.left_invariant_fields": 0.83,
                  "prolong": 2.19, "extremal.build_family": 0.37,
                  "extremal.verify_structure": 10.1}


class SpeedProbe:
    """Samples this CPU's current speed with a fixed pure-Python kernel.

    The CPU a run gets slows down and speeds up by up to 1.7x over tens of
    seconds, whatever runs on it, and a second CPU's speed says nothing
    about this one.  So the kernel runs in this thread: on SIGALRM every
    ``PERIOD`` seconds (between bytecodes, so it never splits a C call)
    and at pass boundaries.  It runs twice per sample and only the second,
    cache-warm run is timed, so the sample follows the CPU's speed rather
    than the cache state the program left.  :meth:`scale` turns a wall
    time into seconds at the nominal kernel speed; :meth:`busy` is the
    probe's own time, which callers take out of their wall times.
    """

    PERIOD = 0.1
    NOMINAL = 0.0013        # warm kernel seconds that define reference speed

    def __init__(self):
        # (perf_counter() at the start, warm kernel seconds, seconds spent);
        # one append per sample, so a signal arriving mid-sample keeps
        # the records whole
        self.log = []

    @staticmethod
    def _kernel():
        acc = {}
        third = Fraction(1, 3)
        for i in range(300):
            key = (i % 37, i % 11)
            acc[key] = acc.get(key, Fraction(0)) + third * (i % 7)
        return acc

    def sample(self, *_):
        t0 = perf_counter()
        self._kernel()
        t1 = perf_counter()
        self._kernel()
        t2 = perf_counter()
        self.log.append((t0, t2 - t1, t2 - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return len(self.log)

    def scale(self, since):
        """Reference-speed factor from the samples taken since ``since``."""
        return self.NOMINAL / statistics.fmean(w for _, w, _ in self.log[since:])

    def busy(self, since):
        return sum(spent for _, _, spent in self.log[since:])


def call_cli(main, argv):
    """Run one CLI job; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = -1
        seconds = perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), seconds


def fresh_import():
    """Import carnotpoly.cli from scratch and return its ``main``."""
    for name in [m for m in sys.modules
                 if m == "carnotpoly" or m.startswith("carnotpoly.")]:
        del sys.modules[name]
    return importlib.import_module("carnotpoly.cli").main


def set_up(workload, seed, work, probe):
    """Import plus input generation, repeated.

    Returns ``(main, params, seconds)``: the set-up seconds of each repeat,
    scaled to reference speed by the probe samples of all repeats.
    """
    first = probe.mark()
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        os.chdir(work)
        probe.sample()
        since = probe.mark()
        t0 = perf_counter()
        main = fresh_import()
        params = workloads.make_inputs(workload, seed, main)
        times.append(perf_counter() - t0 - probe.busy(since))
    probe.sample()
    factor = probe.scale(first)
    return main, params, [t * factor for t in times]


@dataclass
class Pass:
    kind: str           # "plain" or "traced"
    seconds: float      # wall seconds at reference speed
    wall: float         # wall seconds as measured
    factor: float       # reference-speed factor of the pass
    jobs: list          # (job, seconds at reference speed, problems)
    first_id: int       # job id of the first job


class Runner:
    """Runs passes and keeps every job's outcome."""

    def __init__(self, main, jobs, expected_digests, probe):
        self.main = main
        self.probe = probe
        self.jobs = jobs
        self.expected = expected_digests
        self.digests = {}        # label -> digest of the first report
        self.labels = []         # job id -> label
        self.passes = []
        self.first_reports = {}  # label -> parsed report

    def run_pass(self, kind, tracer=None):
        """Run every job once, back to back."""
        gc.collect()
        first_id = len(self.labels)
        outcomes = []
        self.probe.sample()
        since = self.probe.mark()
        t0 = perf_counter()
        for job in self.jobs:
            if tracer is not None:
                tracer.job = len(self.labels)
            self.labels.append(job.label)
            mark = self.probe.mark()
            code, out, err, seconds = call_cli(self.main, job.argv + ["--json"])
            outcomes.append((job, code, out, err,
                             seconds - self.probe.busy(mark)))
        wall = perf_counter() - t0
        busy = self.probe.busy(since)
        self.probe.sample()
        factor = self.probe.scale(since)
        checked = [(job, seconds * factor, self._problems(job, code, out, err))
                   for job, code, out, err, seconds in outcomes]
        self.passes.append(Pass(kind, (wall - busy) * factor, wall, factor,
                                checked, first_id))

    def _problems(self, job, code, out, err):
        try:
            doc = json.loads(out)
        except ValueError:
            return [f"exit code {code}, no JSON report; stderr: {err[-300:]}"]
        self.first_reports.setdefault(job.label, doc)
        problems = workloads.check(job, code, doc)
        digest = hashlib.sha256(out.encode()).hexdigest()
        want = self.expected.get(job.label) if job.fixed_input \
            else self.digests.get(job.label)
        if want is not None and digest != want:
            problems.append(f"report digest {digest} differs from {want}")
        self.digests.setdefault(job.label, digest)
        return problems

    def of_kind(self, kind):
        return [p for p in self.passes if p.kind == kind]

    def seconds(self, kind):
        return [p.seconds for p in self.of_kind(kind)]

    def walls(self, kind):
        return [p.wall for p in self.of_kind(kind)]


def median(values):
    return statistics.median(values) if values else float("nan")


def report_untraced(runner, setup_times, rss_mb):
    passes = runner.of_kind("plain")
    seconds = runner.seconds("plain")
    print(f"pass_s        {median(seconds):10.4f} s   median of {len(passes)} "
          f"passes (wall as measured: {median(runner.walls('plain')):.4f} s)")
    per_cmd = {}
    for p in passes:
        totals = {}
        for job, job_s, _ in p.jobs:
            totals[job.command] = totals.get(job.command, 0.0) + job_s
        for cmd, total in totals.items():
            per_cmd.setdefault(cmd, []).append(total)
    for cmd in COMMANDS:
        if cmd in per_cmd:
            count = sum(j.command == cmd for j in runner.jobs)
            print(f"cmd.{cmd}_s{'':{10 - len(cmd)}}{median(per_cmd[cmd]):10.4f} s"
                  f"   median of {len(per_cmd[cmd])} passes, {count} "
                  f"invocations per pass")
    print(f"setup_s       {median(setup_times):10.4f} s   median of "
          f"{len(setup_times)} set-ups")
    print(f"peak_rss_mb   {rss_mb:10.1f} MB")
    by_label = {}
    for p in passes:
        for job, job_s, _ in p.jobs:
            by_label.setdefault(job.label, []).append(job_s)
    for label, times in by_label.items():
        print(f"  job {label:28s} {median(times):9.4f} s   median of "
              f"{len(times)}   sha256 {runner.digests.get(label)}")
    return {"pass_s": {"value": median(seconds), "unit": "s"},
            "setup_s": {"value": median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}


def report_traced(runner, tracer, workload, expected_counters, problems):
    passes = runner.of_kind("traced")
    traced = [range(p.first_id, p.first_id + len(p.jobs)) for p in passes]
    pauses = ([t for t, _, _ in runner.probe.log],
              [spent for _, _, spent in runner.probe.log])
    layers = [tracer.aggregate(set(ids), pauses, p.factor)
              for ids, p in zip(traced, passes)]
    counters = [tracer.counters(set(ids)) for ids in traced]
    for i, seen in enumerate(counters):
        diff = {k: (v, expected_counters.get(k)) for k, v in seen.items()
                if v != expected_counters.get(k)}
        if diff:
            problems.append(f"traced pass {i}: size counters differ "
                            f"(seen, expected): {diff}")
    overhead = median(runner.seconds("traced")) - median(runner.seconds("plain"))
    metrics = {}
    print(f"{'layer':46s} {'calls':>9s} {'s':>10s} {'self_s':>10s}   moves")
    for (mod, qual, _, moves), name in zip(tracing.TARGETS, tracing.NAMES):
        row = {key: median([agg[name][key] for agg in layers])
               for key in ("s", "self_s")}
        row["calls"] = statistics.median_low(agg[name]["calls"] for agg in layers)
        print(f"{name:46s} {row['calls']:9.0f} {row['s']:10.4f} "
              f"{row['self_s']:10.4f}   {moves}")
        metrics[f"{name}.calls"] = {"value": row["calls"], "unit": "count"}
        metrics[f"{name}.s"] = {"value": row["s"], "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": row["self_s"], "unit": "s"}
    for key in tracing.COUNTERS:
        print(f"{key:46s} {counters[0][key]:9d}   size counter per pass")
        metrics[key] = {"value": counters[0][key], "unit": "count"}
    print(f"pass wall as measured: untraced {median(runner.walls('plain')):.4f} s,"
          f" traced {median(runner.walls('traced')):.4f} s")
    print(f"trace.overhead_s {overhead:.4f} s (traced minus untraced pass_s, "
          f"medians of {len(traced)} and {len(runner.seconds('plain'))} passes)")
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    if workload == "exact-family":
        per_pass = [tracer.aggregate(
            {i for i in ids if runner.labels[i] == "verify free35"},
            pauses, p.factor) for ids, p in zip(traced, passes)]
        seen = {name: median([agg[name]["s"] for agg in per_pass])
                for name in ROADMAP_FREE35 if name != "prolong"}
        seen["prolong"] = median([
            agg["prolongation.compute_stratum"]["s"]
            + agg["prolongation.extend_structure_constants"]["s"]
            for agg in per_pass])
        print("free(3,5) in 'verify free35', traced, against the ROADMAP "
              "table:")
        for name, base in ROADMAP_FREE35.items():
            gap = seen[name] - base
            flag = "  beyond trace.overhead_s" if abs(gap) > abs(overhead) else ""
            print(f"  {name:30s} {seen[name]:8.3f} s  baseline {base:6.2f} s"
                  f"  gap {gap:+8.3f} s{flag}")
    return metrics


def run(args, work):
    probe = SpeedProbe()
    probe.start()
    try:
        return measure(args, work, probe)
    finally:
        probe.stop()


def measure(args, work, probe):
    main, params, setup_times = set_up(args.workload, args.seed, work, probe)
    expected = json.loads((HERE / "expected.json").read_text())
    runner = Runner(main, workloads.jobs(args.workload, params),
                    expected["digests"], probe)
    deadline = perf_counter() + args.seconds
    tracer = None
    problems = []
    if not args.trace:
        while True:
            runner.run_pass("plain")
            if perf_counter() + median(runner.walls("plain")) > deadline:
                break
    else:
        tracer = tracing.Tracer()
        while True:
            runner.run_pass("plain")
            tracer.install()
            try:
                runner.run_pass("traced", tracer)
            finally:
                left = tracer.restore()
            if left:
                problems.append(f"bindings left wrapped: {left}")
                break
            nxt = median(runner.walls("plain")) + median(runner.walls("traced"))
            if perf_counter() + nxt > deadline:
                break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(runner.labels)
    failed = 0
    for p in runner.passes:
        for job, _, job_problems in p.jobs:
            if job_problems:
                failed += 1
                problems.append(f"{p.kind} {job.label}: "
                                f"{'; '.join(job_problems)}")
    for job in runner.jobs:
        if job.oracle is not None and job.label in runner.first_reports:
            found = job.oracle(runner.first_reports[job.label])
            if found:
                failed += runner.labels.count(job.label)
                problems += [f"{job.label}: {line}" for line in found]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 caller; BLAS threads: "
          + " ".join(f"{k}={v}" for k, v in BLAS_THREADS.items()))
    print(f"jobs attempted {attempted}  failed {failed}  "
          f"fail_ratio {failed / attempted:.4f}")
    print(f"speed probe: {len(probe.log)} samples, median "
          f"{median([w for _, w, _ in probe.log]) * 1e3:.4f} ms against "
          f"{probe.NOMINAL * 1e3} "
          f"ms nominal; times below are at that nominal speed")
    if args.trace:
        metrics = report_traced(runner, tracer, args.workload,
                                expected["counters"][args.workload], problems)
        out_dir = ROOT / ".perfbench_out"
        tracer.save(out_dir / f"spans-{args.workload}.npz", runner.labels,
                    args.seed)
    else:
        metrics = report_untraced(runner, setup_times, rss_mb)
    for line in problems:
        print("PROBLEM " + line)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    src = ROOT / "src"
    if not (src / "carnotpoly" / "cli.py").is_file():
        print(f"error: no carnotpoly sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = ROOT / ".perfbench_out" / f"work-{os.getpid()}"
    try:
        result = run(args, work)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
