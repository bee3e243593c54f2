"""One fresh vosa process: set up, then run one pass of a workload.

Usage (started by run.py, one process at a time):

    python3 perfbench/worker.py --root DIR --workload NAME --seed N
                                [--trace] [--cache-dir DIR] [--setup-only]

Set-up imports vosa from DIR/src and runs the warm-up job, then prints
"ready".  Unless --setup-only is given, the worker then runs the jobs.
Last it prints one JSON line: the host-speed samples of the set-up and,
after a pass, the pass's timings, job outcomes and, under --trace, the
per-layer aggregates.

Without --trace, host speed is sampled from the start of the process
(perfbench/hostspeed.py).  The pass's wall time is reported as measured
and every time at the reference speed, with the sampling time taken out.
"""

from __future__ import annotations

import sys
import time

import hostspeed

SAMPLER = hostspeed.Sampler()
if "--trace" not in sys.argv:
    SAMPLER.start()
START = SAMPLER.mark()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("cli", "exact", "fields", "fock", "liealg", "modules", "zhu")


def _setup(root: str):
    t0 = time.perf_counter()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import vosa
    for name in LAYERS:
        __import__(f"vosa.{name}")
    import_s = time.perf_counter() - t0
    if not os.path.abspath(vosa.__file__).startswith(os.path.abspath(src)):
        raise ImportError(f"vosa imported from {vosa.__file__}, not {src}")
    warm = workloads.warm_up(vosa)
    return vosa, import_s, warm


def _run_pass(vosa, jobs, tracer):
    norm = hostspeed.normalize
    outcomes = []
    m0 = SAMPLER.mark()
    t0 = time.perf_counter()
    c0 = time.process_time()
    for name, fn in jobs:
        j0 = SAMPLER.mark()
        start = time.perf_counter()
        try:
            found = (tracer.run_job(name, lambda: fn(vosa)) if tracer
                     else fn(vosa))
        except Exception:
            found = [("failed", traceback.format_exc(limit=3))]
        raw = time.perf_counter() - start
        j1 = SAMPLER.mark()
        # a job too short to hold a sample runs at the pass's speed so far
        seconds = norm(raw, j0, j1, fallback=(m0, j1))
        outcomes.append({"job": name, "seconds": seconds,
                         "findings": found})
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    m1 = SAMPLER.mark()
    return {
        # as measured, without the time spent sampling
        "wall_s": wall - (m1[1] - m0[1]),
        # at the reference host speed
        "norm_wall_s": sum(o["seconds"] for o in outcomes),
        "norm_cpu_s": norm(cpu, m0, m1, cpu=True),
        "norm_max_job_s": max(o["seconds"] for o in outcomes),
        "jobs": outcomes,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cache-dir", default="")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    vosa, import_s, warm = _setup(args.root)
    ready = SAMPLER.mark()
    print("ready", flush=True)
    setup = {"setup_marks": (START, ready)}
    if args.setup_only:
        SAMPLER.stop()
        print(json.dumps(setup), flush=True)
        return 0
    jobs = workloads.jobs_for(args.workload, args.seed, args.cache_dir)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer, vosa)
    result = _run_pass(vosa, jobs, tracer)
    SAMPLER.stop()
    result.update(setup)
    result["workload"] = args.workload
    result["warm_up"] = warm
    result["import_s"] = import_s
    result["sympy_loaded"] = "sympy" in sys.modules
    result["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer:
        result["trace"] = {
            "self_s": tracer.self_s, "incl_s": tracer.incl_s,
            "phase_s": tracer.phase_s, "calls": tracer.calls,
            "counts": tracer.counts, "records": tracer.records,
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
