"""formaut benchmark: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload catalog-groups --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; formaut is imported from ./src and
nothing is installed.  One process, no worker threads: BLAS pools are held to
one thread before numpy loads (formaut's integer and object matmuls do not
use BLAS anyway).

A run sets up (imports formaut, loads the catalog, parses the forms and
generators, generates the seeded inputs), then runs the workload's job list
in whole passes until --seconds is used up, at least once.  Every job's
verdict is compared with its reference; a job that raises or differs is a
failure and the run goes on.  lru caches are cleared between passes, so each
pass starts as cold as a fresh `formaut` process.

--trace 0 prints the end-to-end metrics:
  wall_s       median seconds per pass over the job list
  setup_s      median set-up seconds over this process and six fresh ones
               (two before, two midway through and two after the passes)
  peak_rss_mb  peak resident set of this process
--trace 1 wraps formaut's public functions (see spans.py), runs one pass and
prints the per-layer metrics, trace.wall_s being that traced pass.

The line before the last is a replay record (seed, primes, job order, pass
times, failures); the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 7

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds and exit (one set-up sample)")
    return p.parse_args(argv)


def setup(workload: str, seed: int, trace: bool):
    """Import formaut, build the seeded job list; (jobs, record, tracer, seconds)."""
    t0 = perf_counter()
    import workloads
    import formaut
    if Path(formaut.__file__).resolve().parent != (SRC / "formaut").resolve():
        raise RuntimeError("formaut was imported from %s, not from %s" % (formaut.__file__, SRC))
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    jobs, record = workloads.build(workload, seed, OUT_DIR)
    return jobs, record, tracer, perf_counter() - t0


def setup_sample(args) -> float:
    """Set-up seconds of a fresh process, as measured inside it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def clear_caches():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "formaut" or name.startswith("formaut.")):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_pass(jobs, failures: list, job_s: dict, midway=None):
    """Run every job once; returns (jobs failed, seconds spent in jobs).

    midway(), if given, runs untimed after the first half of the jobs.
    """
    failed = 0
    spent = 0.0
    for i, job in enumerate(jobs):
        if midway and i == len(jobs) // 2:
            midway()
        t0 = perf_counter()
        try:
            got = job.run()
        except Exception as exc:   # a raising job is a failure; the run goes on
            got = "raised %s: %s" % (type(exc).__name__, exc)
        dt = perf_counter() - t0
        spent += dt
        job_s[job.name] = job_s.get(job.name, 0.0) + dt
        if got != job.expected:
            failed += 1
            failures.append({"job": job.name, "got": repr(got)[:300],
                             "expected": repr(job.expected)[:300]})
    return failed, spent


def thread_count():
    """OS threads of this process (Linux), None where /proc is absent."""
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration):
        return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "formaut" / "__init__.py").is_file():
        print("error: no formaut sources under %s; run from a formaut checkout" % SRC,
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    jobs, record, tracer, setup_s = setup(args.workload, args.seed, bool(args.trace))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    # fresh-process set-up samples before, midway through and after the
    # passes, so that the median does not hang on one moment's machine load
    setup_samples = [setup_s]
    per_point = 0 if tracer else (SETUP_SAMPLES - 1) // 3

    def sample():
        setup_samples.extend(setup_sample(args) for _ in range(per_point))

    sample()
    failures: list = []
    job_s: dict = {}
    pass_s = []
    attempted = failed = 0
    start = perf_counter()
    while True:
        if pass_s:
            clear_caches()
        pass_failed, spent = run_pass(jobs, failures, job_s, None if pass_s else sample)
        failed += pass_failed
        pass_s.append(spent)
        attempted += len(jobs)
        if tracer or perf_counter() - start + spent > args.seconds:
            break
    sample()
    if tracer:
        tracer.uninstall()
        metrics = tracer.metrics(pass_s[0])
        units = dict(PER_LAYER)
    else:
        metrics = {
            "wall_s": statistics.median(pass_s),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    record.update(pass_s=pass_s, job_s=job_s, setup_s=setup_samples, failed_frac=failed / attempted,
                  failures=failures, threads=thread_count())
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
