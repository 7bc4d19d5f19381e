"""graphreg benchmark.

Usage, from the root of a graphreg checkout:

    python3 perfbench/run.py --workload quick-cli --seed 1 --seconds 35 --trace 0

Workloads: quick-cli, experiments and library-sweep (see workloads.py);
``--workload all`` runs the three in turn, each in its own process.  The
program is imported from ``src/`` of the checkout, so nothing needs
installing.

A run measures set-up, then runs passes over the workload's jobs until
the next pass would end after --seconds (at least one pass), checking
every report.  With --trace 0 it reports the end-to-end metrics

    wall_s       seconds of a typical pass, reports checked: each job's
                 median time over the run's passes, summed, so that a burst
                 of load on the machine during one job of one pass is
                 filtered out
    setup_s      median seconds for a fresh interpreter to import
                 graphreg.cli, plus median seconds to generate the inputs
    peak_rss_mb  peak resident memory (MiB) of the processes doing the
                 work, up to the end of the first pass, so that it does
                 not depend on how many passes fit

and prints fail_ratio (jobs failed / jobs attempted) beside them.  With
--trace 1 a warm-up pass is followed by untraced and traced passes in
turn; the run reports the per-layer metrics of spans.PER_LAYER (medians
over the traced passes) and trace_overhead, the typical traced over the
typical untraced pass time.  Traced reports must be byte-identical to untraced ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The environment, every pass and
every failure go to .perfbench/results/, the spans to .perfbench/spans/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("quick-cli", "experiments", "library-sweep")
SETUP_REPEATS = 11
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads(workload=None) -> str:
    """The BLAS thread count of a run: 1 for quick-cli, whose matrices are
    tiny and whose processes would otherwise start an idle BLAS worker that
    doubles their CPU use; otherwise the usable cores, at most 2.  Runs
    compared with each other must use the same count."""
    if workload == "quick-cli":
        return "1"
    return str(min(2, len(os.sched_getaffinity(0))))


class Run:
    """One run of one workload in the checkout ``root``."""

    def __init__(self, root, workload, seed, seconds, trace):
        import checks
        from spans import Tracer

        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.trace = seconds, trace
        self.src = os.path.join(root, "src")
        self.out = os.path.join(root, ".perfbench")
        self.workdir = os.path.join(self.out, f"work-{workload}-{os.getpid()}")
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.reference = checks.load_reference()[workload]
        self.passes = []          # {"traced", "wall", "metrics", "jobs"} per pass
        self.failures = []        # failed jobs with their problems
        self.attempted = self.failed = 0
        self.correct = True
        self.untraced_reports = {}
        self.import_s = None
        self.peak_rss = None
        self.tracer = Tracer()
        self.span_log = []

    # -- set-up ------------------------------------------------------------------

    def setup(self):
        """(setup_s, jobs): median fresh-interpreter import of graphreg.cli
        plus median time to generate the workload's inputs and jobs."""
        import workloads as wl

        os.makedirs(self.workdir, exist_ok=True)
        imports = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import graphreg.cli"],
                           env=self.env, check=True)
            imports.append(time.perf_counter() - start)
        if self.workload != "quick-cli":
            start = time.perf_counter()
            import graphreg.cli  # noqa: F401  (this process does the work)
            self.import_s = time.perf_counter() - start
        make = {"quick-cli": lambda: wl.quick_cli_jobs(self.seed),
                "experiments": lambda: wl.experiment_jobs(self.workdir),
                "library-sweep": lambda: wl.library_jobs(
                    wl.library_inputs(self.seed))}[self.workload]
        gens = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            jobs = make()
            gens.append(time.perf_counter() - start)
        return statistics.median(imports) + statistics.median(gens), jobs

    # -- passes -------------------------------------------------------------------

    def run_passes(self, jobs, budget, alternate=False):
        """Passes until the next one would end after ``budget`` seconds;
        with ``alternate``, untraced and traced in turn, at least one each."""
        start = time.perf_counter()
        traced = False
        while True:
            wall, metrics, job_walls = self.run_pass(jobs, len(self.passes), traced)
            self.passes.append({"traced": traced, "wall": wall, "metrics": metrics,
                                "jobs": job_walls})
            if self.peak_rss is None:
                self.peak_rss = self.peak_rss_mb()
            done = time.perf_counter() - start + wall > budget
            if done and not (alternate and not traced):
                return
            traced = alternate and not traced

    def run_pass(self, jobs, index, traced):
        """Run and check every job once; (seconds, per-layer metrics or
        None when untraced, seconds of each job)."""
        import workloads as wl
        from spans import install

        snapshots = []
        uninstall = None
        if traced and self.workload != "quick-cli":
            self.tracer.reset()
            uninstall = install(self.tracer)
        start = time.perf_counter()
        outcomes, job_walls = [], {}
        for job in jobs:
            job_start = time.perf_counter()
            if self.workload == "quick-cli":
                if traced:
                    snap = os.path.join(self.workdir, job.name + ".spans.json")
                    launcher = [sys.executable, os.path.join(HERE, "boot.py"),
                                snap, f"{index}:{job.name}"]
                else:
                    launcher = [sys.executable, "-m", "graphreg.cli"]
                outcome = wl.run_cli_job(job, self.workdir, self.env, launcher)
                if traced:
                    snapshots.append(_read_snapshot(snap))
            else:
                name, fn = job
                if traced:
                    self.tracer.job = f"{index}:{name}"
                outcome = wl.run_inprocess_job(name, fn)
            self.check(outcome, traced)
            outcomes.append(outcome)
            job_walls[outcome.job] = time.perf_counter() - job_start
        wall = time.perf_counter() - start
        if uninstall is not None:
            uninstall()
        if not traced:
            return wall, None, job_walls
        if self.workload != "quick-cli":
            snapshots = [self.tracer.snapshot()]
        return wall, self.pass_metrics(snapshots, outcomes), job_walls

    def check(self, outcome, traced):
        import checks

        passed, known, problems = checks.check(
            outcome, self.reference[outcome.job], self.root)
        if outcome.report is not None:
            first = self.untraced_reports.setdefault(outcome.job, outcome.report)
            if traced and first != outcome.report:
                passed = False
                problems.append("traced report differs from the untraced one")
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.correct = self.correct and known
            self.failures.append({"job": outcome.job, "traced": traced,
                                  "known_defect": known, "problems": problems,
                                  "exit": outcome.code, "error": outcome.error})

    def pass_metrics(self, snapshots, outcomes):
        """Per-layer metrics of one traced pass."""
        from spans import layer_metrics

        spans, counts, maxima, triples = [], {}, {}, 0
        for snap in snapshots:
            if snap is None:
                continue
            base = len(spans)
            spans += [[n, s, e, p + base if p >= 0 else -1, j, t]
                      for n, s, e, p, j, t in snap["spans"]]
            for key, value in snap["counts"].items():
                counts[key] = counts.get(key, 0) + value
            for key, value in snap["maxima"].items():
                maxima[key] = max(maxima.get(key, 0), value)
            triples += snap["triples"]
        self.span_log += spans
        metrics = layer_metrics(spans, counts, maxima, triples)
        if self.workload == "quick-cli":
            metrics["cli.import_s"] = statistics.median(
                s["import_s"] for s in snapshots if s is not None)
        else:
            metrics["cli.import_s"] = self.import_s
        metrics["cli.report_bytes"] = sum(
            len(o.report) for o in outcomes
            if o.report is not None and self.workload != "library-sweep")
        metrics["symbols.readback_failed"] = sum(
            1 for o in outcomes if o.job.startswith("readback-")
            and (o.code != 0 or o.report is None))
        return metrics

    # -- the whole run -------------------------------------------------------------

    def execute(self):
        setup_s, jobs = self.setup()
        if not self.trace:
            self.run_passes(jobs, self.seconds)
            return {"wall_s": typical_pass(self.passes), "setup_s": setup_s,
                    "peak_rss_mb": self.peak_rss}
        # a warm-up pass, then untraced and traced passes in turn, so that
        # trace_overhead compares warm passes of both kinds
        self.run_pass(jobs, -1, traced=False)
        self.run_passes(jobs, self.seconds, alternate=True)
        traced = [p for p in self.passes if p["traced"]]
        untraced = [p for p in self.passes if not p["traced"]]
        metrics = {key: statistics.median(p["metrics"][key] for p in traced)
                   for key in traced[0]["metrics"]}
        metrics["trace_overhead"] = typical_pass(traced) / typical_pass(untraced)
        return metrics

    def peak_rss_mb(self):
        who = (resource.RUSAGE_CHILDREN if self.workload == "quick-cli"
               else resource.RUSAGE_SELF)
        return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux

    def write_logs(self, env, metrics):
        for sub in ("results", "spans"):
            os.makedirs(os.path.join(self.out, sub), exist_ok=True)
        stem = f"{self.workload}-seed{self.seed}-trace{self.trace}"
        with open(os.path.join(self.out, "results", stem + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"environment": env, "metrics": metrics,
                       "attempted": self.attempted, "failed": self.failed,
                       "correct": self.correct, "passes": self.passes,
                       "failures": self.failures}, fh, indent=2, sort_keys=True)
        if self.span_log:
            with open(os.path.join(self.out, "spans", stem + ".jsonl"), "w",
                      encoding="utf-8") as fh:
                for span in self.span_log:
                    fh.write(json.dumps(span) + "\n")


def typical_pass(passes) -> float:
    """Each job's median seconds over ``passes``, summed."""
    return sum(statistics.median(p["jobs"][job] for p in passes)
               for job in passes[0]["jobs"])


def _read_snapshot(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def environment(root, args) -> dict:
    """What the numbers depend on besides the code."""
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {"name": deps["blas"].get("name"),
                "version": deps["blas"].get("version")}
    except (TypeError, KeyError):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "graphreg")
    for dirpath, dirnames, files in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(), "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_all(args) -> int:
    """Every workload in its own process; one summary per workload."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} failed with exit {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            totals["metrics"][f"{workload}.{key}"] = value
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="graphreg benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "graphreg", "cli.py")):
        print("perfbench: run from the root of a graphreg checkout "
              "(src/graphreg/cli.py not found)", file=sys.stderr)
        return 2
    # before numpy is imported here or in any child
    for var in BLAS_VARS:
        os.environ[var] = blas_threads(args.workload)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    run = Run(root, args.workload, args.seed, args.seconds, args.trace)
    try:
        metrics = run.execute()
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    env = environment(root, args)
    run.write_logs(env, metrics)
    units = END_TO_END if not args.trace else __import__("spans").PER_LAYER
    print("environment " + json.dumps(env, sort_keys=True))
    for job in dict.fromkeys(f["job"] for f in run.failures):
        same = [f for f in run.failures if f["job"] == job]
        print(f"failed {job} x{len(same)}: known_defect={same[0]['known_defect']} "
              f"exit={same[0]['exit']} {same[0]['error'][-200:]} "
              f"{'; '.join(same[0]['problems'])[:300]}")
    passes = len(run.passes)
    print(f"{args.workload} seed={args.seed} passes={passes} "
          f"attempted={run.attempted} failed={run.failed} correct={run.correct}")
    for key in sorted(metrics):
        print(f"  {key} = {metrics[key]:.6g} {units[key]}")
    print(f"  fail_ratio = {run.failed / run.attempted:.6g} failed/attempted")
    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {key: {"value": value, "unit": units[key]}
                          for key, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
