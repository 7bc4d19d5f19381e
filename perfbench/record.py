"""Record reference.json from the program as it is now.

Usage, from the root of a graphreg checkout:

    python3 perfbench/record.py

Runs every job of quick-cli and library-sweep at two seeds and the
experiments once (they take no seed), then writes what later runs are
checked against: the golden file of each ``analyze --catalog`` job, the
failure of each job in checks.KNOWN_DEFECTS, and otherwise the report
itself, with checks.SEEDED rules where values move with the seed.  A
value that moves with the seed and has no rule is an error, as is any
other failing job.  Record only at a commit whose reports are trusted.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (101, 202)


def outcomes(workload, seed, workdir, env):
    import workloads as wl

    if workload == "quick-cli":
        launcher = [sys.executable, "-m", "graphreg.cli"]
        return [wl.run_cli_job(job, workdir, env, launcher)
                for job in wl.quick_cli_jobs(seed)]
    jobs = (wl.experiment_jobs(workdir) if workload == "experiments"
            else wl.library_jobs(wl.library_inputs(seed)))
    return [wl.run_inprocess_job(name, fn) for name, fn in jobs]


def merge(job, a, b, path=""):
    """One reference tree from the reports of two seeds."""
    import checks

    rule = checks.seeded_rule(job, path)
    if rule is not None:
        problems = checks.compare(a, rule, path) + checks.compare(b, rule, path)
        if problems:
            raise ValueError(f"{job}: {problems}")
        return rule
    if isinstance(a, dict) and isinstance(b, dict) and set(a) == set(b):
        return {k: merge(job, a[k], b[k], checks._join(path, k)) for k in a}
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [merge(job, x, y, checks._join(path, i))
                for i, (x, y) in enumerate(zip(a, b))]
    if isinstance(a, float) and isinstance(b, float) and checks.close(a, b):
        return a
    if type(a) is type(b) and a == b:
        return a
    raise ValueError(f"{job}: {path or '.'} depends on the seed ({a!r} vs "
                     f"{b!r}) and has no rule in checks.SEEDED")


def spec_for(root, runs):
    import checks

    first = runs[0]
    job = first.job
    if job in checks.KNOWN_DEFECTS and first.code != 0:
        known = checks.KNOWN_DEFECTS[job]
        if not all(known["stderr"] in o.error for o in runs):
            raise ValueError(f"{job}: failed otherwise than recorded: {first.error}")
        return {"known_defect": {"code": first.code, "stderr": known["stderr"],
                                 "reason": known["reason"]},
                "fields": known["fields"]}
    for o in runs:
        if o.code != 0 or o.report is None:
            raise ValueError(f"{job}: exit {o.code}: {o.error}")
        bad = checks.nonfinite(json.loads(o.report))
        if bad:
            raise ValueError(f"{job}: not finite at {bad}")
    if job.startswith("analyze-"):
        golden = f"tests/golden/analyze_{job[len('analyze-'):]}.json"
        with open(os.path.join(root, golden), "rb") as fh:
            expected = fh.read()
        if any(o.report != expected for o in runs):
            raise ValueError(f"{job}: differs from {golden}")
        return {"golden": golden}
    reports = [checks.comparable(json.loads(o.report)) for o in runs]
    return {"report": merge(job, reports[0], reports[-1])}


def main() -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "graphreg", "cli.py")):
        print("record: run from the root of a graphreg checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, src]
    import checks
    from run import BLAS_VARS, blas_threads

    for var in BLAS_VARS:
        os.environ[var] = blas_threads()
    env = dict(os.environ, PYTHONPATH=src)
    workdir = os.path.join(root, ".perfbench", f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                            capture_output=True, text=True).stdout.strip()
    reference = {"recorded_at": {"git_commit": commit or None,
                                 "seeds": list(SEEDS)}}
    try:
        for workload in ("quick-cli", "experiments", "library-sweep"):
            seeds = SEEDS[:1] if workload == "experiments" else SEEDS
            per_seed = [outcomes(workload, s, workdir, env) for s in seeds]
            reference[workload] = {
                runs[0].job: spec_for(root, runs) for runs in zip(*per_seed)}
            print(f"{workload}: {len(reference[workload])} jobs recorded")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(checks.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
