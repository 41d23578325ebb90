"""thuelex benchmark: one workload per run, end to end or traced per layer.

    python3 bench/run.py --workload certify|solve|words --seed N \
        --seconds S --trace 0|1

``--trace 0`` runs the workload's jobs as a closed loop with one client: each
job is a ``python -m thuelex.cli`` subprocess, and the next starts only after
the last has exited.  Whole passes over the job list repeat for about
``--seconds``.  A figure for the job list sums each job's median over the
passes; times are scaled to a reference speed (see REF_LOOP_S).

``--trace 1`` runs the same job list in this process through
``thuelex.cli.main``, each job once untraced and once traced, and reports the
per-layer figures of the traced runs (see ``METRICS.md``).

The last line of stdout is the result object; the line before it records the
interpreter, commit, CPU count, seed and per-job figures.  Inputs are written
by ``thuelex`` itself during set-up and rewritten from the seed; all files go
to a scratch directory under ``bench/_run`` that is removed at the end.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
STARTUP_REPS = 5
# every job of a run is killed once the run has lasted this long
RUN_LIMIT_S = 170.0
# The speed of this kind of shared machine drifts by up to half over minutes,
# so timed figures are scaled to a reference speed: each job's wall (CPU) time
# is multiplied by REF_LOOP_S over the wall (CPU) time of the reference loop,
# measured just before and just after the job and averaged.  Scaling CPU time
# by CPU time keeps cpu_s right when the machine withholds the CPU, which
# stretches wall times only.
REF_LOOP_ITERATIONS = 400_000
REF_LOOP_S = 0.030


@dataclass
class JobRun:
    job: object
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    out: str
    files: dict
    wall_scale: float = 1.0  # reference-speed factors for wall_s and cpu_s
    cpu_scale: float = 1.0


def reference_loop() -> tuple[float, float]:
    """Wall and CPU seconds taken by a fixed pure-Python loop: the machine's
    current speed."""
    t0, c0 = time.perf_counter(), time.process_time()
    total = 0
    for i in range(REF_LOOP_ITERATIONS):
        total += i * i
    return time.perf_counter() - t0, time.process_time() - c0


def _commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, work: Path, started: float):
        # One CPU for this process and every job it starts, so the reference
        # loop measures the CPU the jobs run on.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.work = work
        self.started = started
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
        self.ref = reference_loop()

    def spawn(self, argv, name: str) -> JobRun:
        """Run one command to completion; its rusage comes from wait4, so it
        covers this child alone.  The reference loop runs after it."""
        out_path, err_path = self.work / f"{name}.out", self.work / f"{name}.err"
        limit = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        before, self.ref = self.ref, reference_loop()
        return JobRun(None, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                      proc.returncode, out_path.read_text(encoding="utf-8", errors="replace"),
                      {}, 2 * REF_LOOP_S / (before[0] + self.ref[0]),
                      2 * REF_LOOP_S / (before[1] + self.ref[1]))

    def cli(self, argv, name: str = "job") -> JobRun:
        return self.spawn([sys.executable, "-m", "thuelex.cli", *argv], name)

    def setup(self, workload) -> list[JobRun]:
        runs = []
        for argv in workload.setup:
            runs.append(self.cli(argv, "setup"))
            if runs[-1].code != 0:
                err = (self.work / "setup.err").read_text(errors="replace")
                raise RuntimeError(f"set-up {' '.join(argv)} exited {runs[-1].code}: {err}")
        return runs

    def job(self, job) -> JobRun:
        run = self.cli(job.argv, job.name)
        run.job = job
        run.files = self._read(job)
        return run

    def job_inprocess(self, job, cli) -> JobRun:
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.work)
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(list(job.argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception:
                    traceback.print_exc()
                    code = 1
        finally:
            wall = time.perf_counter() - t0
            os.chdir(cwd)
        before, self.ref = self.ref, reference_loop()
        return JobRun(job, wall, 0.0, 0.0, code, out.getvalue(), self._read(job),
                      2 * REF_LOOP_S / (before[0] + self.ref[0]))

    def _read(self, job) -> dict:
        return {f: (self.work / f).read_text(encoding="utf-8") for f in job.writes
                if (self.work / f).is_file()}


class Checker:
    """Checks every job run, once per distinct output."""

    def __init__(self):
        self.seen: dict = {}
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, run: JobRun):
        self.attempted += 1
        key = (run.job.name, run.code, run.out, tuple(sorted(run.files.items())))
        if key not in self.seen:
            try:
                run.job.check(run.code, run.out, run.files)
                self.seen[key] = None
            except Exception as exc:  # a check that crashes on bad output fails the job
                self.seen[key] = f"{run.job.name}: {type(exc).__name__}: {exc}"
        if self.seen[key] is not None:
            self.failures.append(self.seen[key])


def _passes(seconds: float, one_pass) -> int:
    """Repeat whole passes while another pass of average length still fits."""
    t0 = time.perf_counter()
    n = 0
    while True:
        one_pass()
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / n > seconds:
            return n


def _median_sum(runs_by_step, figure) -> float:
    """Sum over the steps of a list of each step's median figure."""
    return sum(statistics.median(figure(r) for r in runs) for runs in runs_by_step)


def end_to_end(runner: Runner, jobs, seconds: float, check: Checker):
    passes: list[list[JobRun]] = []
    _passes(seconds, lambda: passes.append([runner.job(j) for j in jobs]))
    for runs in passes:
        for run in runs:
            check(run)
    by_job = list(zip(*passes))
    metrics = {
        "wall_s": (_median_sum(by_job, lambda r: r.wall_s * r.wall_scale), "s"),
        "cpu_s": (_median_sum(by_job, lambda r: r.cpu_s * r.cpu_scale), "s"),
        "peak_rss_mb": (max(statistics.median(r.rss_mb for r in runs) for runs in by_job), "MB"),
    }
    per_job = {
        job.name: {
            "wall_s": statistics.median(r.wall_s * r.wall_scale for r in runs),
            "raw_wall_s": statistics.median(r.wall_s for r in runs),
            "rss_mb": statistics.median(r.rss_mb for r in runs),
        }
        for job, runs in zip(jobs, by_job)
    }
    return metrics, {
        "passes": len(passes),
        "raw_wall_s": _median_sum(by_job, lambda r: r.wall_s),
        "raw_cpu_s": _median_sum(by_job, lambda r: r.cpu_s),
        "jobs": per_job,
    }


def traced(runner: Runner, jobs, seconds: float, check: Checker, spans_file: Path):
    import thuelex.cli as cli
    import tracer as tr

    startup = [
        runner.spawn([sys.executable, "-c", "import thuelex.cli"], "startup").wall_s
        for _ in range(STARTUP_REPS)
    ]
    per_pass, overheads, runs = [], [], []

    def one_pass():
        # Each job runs untraced and traced back to back, in alternating
        # order, so that both runs see the same machine speed; the overhead
        # compares their times at reference speed.
        tracer = tr.Tracer()
        traced_wall = overhead = 0.0
        for i, job in enumerate(jobs):
            for with_trace in (False, True) if (i + len(per_pass)) % 2 else (True, False):
                restore = tr.install(tracer) if with_trace else None
                tracer.job = i
                try:
                    run = runner.job_inprocess(job, cli)
                finally:
                    if restore:
                        restore()
                runs.append(run)
                traced_wall += run.wall_s if with_trace else 0.0
                overhead += run.wall_s * run.wall_scale * (1 if with_trace else -1)
        m = tr.layer_metrics(tracer.spans)
        m["trace.spans"] = len(tracer.spans)
        m["trace.wall_s"] = traced_wall
        per_pass.append(m)
        overheads.append(overhead)
        _write_spans(spans_file, tracer.spans, jobs)

    for job in jobs:  # warm-up: the first in-process run also pays for heap growth
        runs.append(runner.job_inprocess(job, cli))
    n = _passes(seconds, one_pass)
    for run in runs:
        check(run)
    units = dict(tr.PER_LAYER)
    metrics = {k: (statistics.median(p[k] for p in per_pass), units[k]) for k in per_pass[0]}
    metrics["cli.startup_s"] = (statistics.median(startup), "s")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return metrics, {"passes": n, "overhead_s": overheads}


def _write_spans(path: Path, spans, jobs):
    """The last traced pass, one row per span: job, layer, function, parent,
    start and end (seconds from the first span)."""
    t0 = spans[0].start if spans else 0.0
    rows = [[s.job, s.layer, s.name, s.parent, round(s.start - t0, 7), round(s.end - t0, 7)]
            for s in spans]
    path.write_text(json.dumps({"jobs": [j.name for j in jobs], "spans": rows}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["certify", "solve", "words"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    missing = [p for p in ("src/thuelex/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    os.environ.pop("THUE_NODE_BUDGET", None)  # the CLI's budget override
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / "bench" / "_run" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(work, started)
        runner.spawn([sys.executable, "-c", "import thuelex.cli"], "warmup")
        setup = [runner.setup(workload) for _ in range(1 if args.trace else SETUP_REPS)]
        jobs = workload.jobs(work, random.Random(args.seed))
        check = Checker()
        if args.trace:
            spans_file = work.parent / f"spans-{args.workload}.json"
            metrics, detail = traced(runner, jobs, args.seconds, check, spans_file)
        else:
            metrics, detail = end_to_end(runner, jobs, args.seconds, check)
            by_step = list(zip(*setup))
            metrics["setup_s"] = (_median_sum(by_step, lambda r: r.wall_s * r.wall_scale), "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in dict.fromkeys(check.failures):
        print(f"bench: FAILED {failure}", file=sys.stderr)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": sys.version.split()[0],
        "executable": sys.executable, "commit": _commit(), "nproc": os.cpu_count(),
        **detail,
    }
    print(json.dumps({"bench": meta}))
    print(json.dumps({
        "correct": not check.failures,
        "attempted": check.attempted,
        "failed": len(check.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
