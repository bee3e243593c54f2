"""vosa benchmark runner: certified Zhu facts, end to end and per layer.

Run from the root of a vosa checkout:

    python3 perfbench/run.py --workload certify_ladder --seed 1 \
        --seconds 25 --trace 0

    --workload   certify_ladder | cli_defaults | represent | all
    --seed       selects job order and the sampled identity triples
    --seconds    passes are repeated until about this much job time is
                 measured
    --trace      0: end-to-end metrics; 1: per-layer metrics from a
                 separate traced pass

Every pass of a workload runs in a fresh single-threaded process
(perfbench/worker.py), one process at a time.  The program is imported
from the checkout's src/ directory; nothing is installed.  Times are
reported at a reference host speed, which the worker samples alongside
the jobs (perfbench/hostspeed.py), because the host's own speed varies
by up to 1.5x from minute to minute.  The last line
of output is one JSON object with the keys correct, attempted, failed
and metrics.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
WORKER = os.path.join(HERE, "worker.py")
# scratch space of this run: worker stderr and the CLI cache
RUN_DIR = os.path.join(WORK, f"run-{os.getpid()}")

WORKLOADS = ("certify_ladder", "cli_defaults", "represent")
# fresh interpreters that only set up, besides the one in each pass
SETUP_PROBES = 2
# a run must end within 180 s; no pass starts after this much time
START_LIMIT_S = 100.0
PASS_TIMEOUT_S = 170.0

END_TO_END = [
    ("wall_s", "s"), ("cpu_s", "s"), ("max_job_s", "s"),
    ("setup_s", "s"), ("peak_rss_mib", "MiB"), ("ok_ratio", "ratio"),
]

# name, unit, source: ("self"|"incl"|"calls"|"counts"|"phase", key) or
# a function of (traced pass, untraced pass)
PER_LAYER = [
    ("zhu.relations_s", "s", ("self", "zhu.relations")),
    ("zhu.relations_generated", "count",
     ("counts", "zhu.relations_generated")),
    ("zhu.relations_independent", "count",
     ("counts", "zhu.relations_independent")),
    ("zhu.relations_useful_ratio", "ratio",
     lambda t, u: _ratio(t["trace"]["counts"],
                         "zhu.relations_independent",
                         "zhu.relations_generated")),
    ("zhu.build_s", "s", ("self", "zhu.build")),
    ("zhu.second_cutoff_s", "s", ("incl", "zhu.second_cutoff")),
    ("exact.echelon_add_s", "s", ("self", "exact.echelon_add")),
    ("exact.echelon_add_calls", "count", ("calls", "exact.echelon_add")),
    ("exact.echelon_add_new", "count", ("counts", "exact.echelon_add_new")),
    ("exact.echelon_rank", "count", ("counts", "exact.echelon_rank")),
    ("exact.pivot_max_bits", "bits", ("counts", "exact.pivot_max_bits")),
    ("exact.echelon_reduce_s", "s", ("self", "exact.echelon_reduce")),
    ("exact.reduce_calls", "count", ("calls", "exact.echelon_reduce")),
    ("exact.nullspace_s", "s", ("self", "exact.nullspace")),
    ("zhu.extend_on_read_s", "s", ("incl", "zhu.extend_on_read")),
    ("zhu.extend_on_read_calls", "count", ("calls", "zhu.extend_on_read")),
    ("zhu.star_s", "s", ("self", "zhu.star")),
    ("zhu.star_calls", "count", ("counts", "zhu.star_calls")),
    ("zhu.star_computed", "count", ("counts", "zhu.star_computed")),
    ("zhu.center_s", "s", ("self", "zhu.center")),
    ("zhu.radical_s", "s", ("self", "zhu.radical")),
    ("zhu.blocks_s", "s", ("self", "zhu.blocks")),
    ("zhu.assoc_s", "s", ("self", "zhu.assoc")),
    ("fields.mode_s", "s", ("self", "fields.mode")),
    ("fields.mode_calls", "count", ("calls", "fields.mode")),
    ("fields.mode_cache_entries", "count",
     ("counts", "fields.mode_cache_entries")),
    ("fields.mode_cache_module_entries", "count",
     ("counts", "fields.mode_cache_module_entries")),
    ("fields.verify_s", "s", ("self", "fields.verify")),
    ("modules.certify_s", "s", ("self", "modules.certify")),
    ("modules.omega_s", "s", ("self", "modules.omega")),
    ("modules.induce_s", "s", ("self", "modules.induce")),
    ("modules.zhu_rank_s", "s", ("self", "modules.zhu_rank")),
    ("liealg.verify_s", "s", ("self", "liealg.verify")),
    ("fock.basis_s", "s", ("self", "fock.basis")),
    ("fock.basis_calls", "count", ("calls", "fock.basis")),
    ("cli.overhead_s", "s", ("self", "cli.main")),
    ("cli.cache_write_s", "s", ("self", "cli.cache_write")),
    ("cli.cache_hit_s", "s", ("self", "cli.cache_hit")),
    ("cli.cache_miss_s", "s", ("self", "cli.cache_miss")),
    ("cli.cache_hits", "count", ("calls", "cli.cache_hit")),
    ("job.glue_s", "s", ("self", "job")),
    ("phase.build_s", "s", ("phase", "build")),
    ("phase.star_s", "s", ("phase", "star")),
    ("phase.structure_s", "s", ("phase", "structure")),
    ("phase.module_s", "s", ("phase", "module")),
    ("phase.cli_s", "s", ("phase", "cli")),
    ("phase.other_s", "s", ("phase", "other")),
    ("setup.import_s", "s", lambda t, u: t["import_s"]),
    ("setup.sympy_import_s", "s", lambda t, u: t["sympy_import_s"]),
    ("trace.wall_s", "s", lambda t, u: t["wall_s"]),
    ("trace.overhead_s", "s", lambda t, u: t["wall_s"] - u["wall_s"]),
    ("trace.spans", "count",
     lambda t, u: float(sum(t["trace"]["calls"].values()))),
    ("trace.dominant_as_designed", "bool",
     lambda t, u: float(_dominant(t)[0] == DESIGN[t["workload"]])),
]

# the phase each workload was designed to be dominated by
DESIGN = {"certify_ladder": "build", "cli_defaults": "star",
          "represent": "module"}
PHASE_MEANING = {
    "build": "relation generation + echelon insertion (Zhu builds)",
    "star": "star table with extension on read",
    "structure": "center, radical, blocks, associativity",
    "module": "Omega, induction, zero-mode rank, identity checks",
    "cli": "CLI overhead",
    "other": "job glue",
}


TRACE_TABLES = {"self": "self_s", "incl": "incl_s", "phase": "phase_s",
                "calls": "calls", "counts": "counts"}


def _ratio(counts, num, den):
    return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0


def _dominant(traced):
    phases = traced["trace"]["phase_s"]
    return max(phases.items(), key=lambda kv: kv[1])


def _layer_value(source, traced, untraced):
    if callable(source):
        return source(traced, untraced)
    kind, key = source
    table = traced["trace"][TRACE_TABLES[kind]]
    return float(table.get(key, 0))


class BenchError(Exception):
    pass


def _sympy_import_s(stderr_path: str) -> float:
    """Cumulative time of the top-level sympy import, from -X importtime."""
    with open(stderr_path) as f:
        for line in f:
            parts = line.split("|")
            if (line.startswith("import time:") and len(parts) == 3
                    and parts[2].strip() == "sympy"):
                return int(parts[1]) / 1e6
    return 0.0


def _spawn(workload, seed, deadline, *, trace=False, setup_only=False,
           cache_dir=""):
    """Start one worker; return (set-up seconds as measured, set-up
    seconds at the reference host speed, parsed pass result or None)."""
    os.makedirs(RUN_DIR, exist_ok=True)
    err_path = os.path.join(RUN_DIR, "worker.err")
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [WORKER, "--root", ROOT, "--workload", workload,
            "--seed", str(seed), "--cache-dir", cache_dir]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                text=True, env=env, cwd=ROOT)
        # past the deadline the worker is killed, which ends the reads
        timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    try:
        if first.strip() != "ready" or proc.returncode != 0:
            with open(err_path) as f:
                tail = f.read()[-2000:]
            raise BenchError(f"worker for {workload} exited "
                             f"{proc.returncode}:\n{tail}")
        result = json.loads(rest.strip().splitlines()[-1])
        norm_setup_s = hostspeed.normalize(setup_s, *result["setup_marks"])
        setup_s -= result["setup_marks"][1][1] - result["setup_marks"][0][1]
        if setup_only:
            return setup_s, norm_setup_s, None
        result["sympy_import_s"] = (_sympy_import_s(err_path)
                                    if trace and result["sympy_loaded"]
                                    else 0.0)
        return setup_s, norm_setup_s, result
    finally:
        os.unlink(err_path)


def _run_pass(workload, seed, deadline, trace=False):
    cache_dir = os.path.join(RUN_DIR, "cache")
    shutil.rmtree(cache_dir, ignore_errors=True)
    try:
        return _spawn(workload, seed, deadline, trace=trace,
                      cache_dir=cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def _outcomes(passes):
    """(correct, attempted, failed, failure lines) over all passes."""
    correct, attempted, failed, lines = True, 0, 0, []
    for p in passes:
        if p["warm_up"]:
            correct = False
            lines.append(f"  warm-up: {p['warm_up']}")
        for job in p["jobs"]:
            attempted += 1
            if job["findings"]:
                failed += 1
                lines.append(f"  {job['job']}: {job['findings']}")
            if any(kind == "wrong" for kind, _ in job["findings"]):
                correct = False
    return correct, attempted, failed, lines


def _measure(workload, seed, seconds, start):
    """Set-up probes, then fresh untraced passes for about `seconds`.

    Passes are whole, so a run measures the number of passes whose job
    time comes nearest to `seconds`: another pass starts only while the
    total would end closer to `seconds` with it than without it.
    """
    deadline = start + PASS_TIMEOUT_S
    setups = [_spawn(workload, seed, deadline, setup_only=True)[:2]
              for _ in range(SETUP_PROBES)]
    passes, measured = [], 0.0
    while True:
        s, norm_s, res = _run_pass(workload, seed, deadline)
        setups.append((s, norm_s))
        passes.append(res)
        measured += res["wall_s"]
        # never start a pass that could run past the time limit of a run
        if (measured + res["wall_s"] / 2 >= seconds or time.monotonic()
                - start + res["wall_s"] + s > START_LIMIT_S):
            return passes, setups


def run_workload(workload, seed, seconds, trace, start):
    out = []
    if trace:
        deadline = start + PASS_TIMEOUT_S
        untraced = _run_pass(workload, seed, deadline)[2]
        traced = _run_pass(workload, seed, deadline, trace=True)[2]
        passes = [untraced, traced]
        metrics = {name: {"value": _layer_value(src, traced, untraced),
                          "unit": unit}
                   for name, unit, src in PER_LAYER}
        phase, phase_s = _dominant(traced)
        total = sum(traced["trace"]["phase_s"].values())
        verdict = ("as designed" if phase == DESIGN[workload] else
                   f"differs from the design ({DESIGN[workload]})")
        out.append(f"{workload}: dominant self time is phase '{phase}' "
                   f"({PHASE_MEANING[phase]}), {phase_s:.3f} s of "
                   f"{total:.3f} s traced: {verdict}")
        path = os.path.join(WORK, f"spans-{workload}-{seed}.json")
        with open(path, "w") as f:
            json.dump(traced["trace"]["records"], f)
        out.append(f"{workload}: phase-boundary spans written to {path}")
    else:
        passes, setups = _measure(workload, seed, seconds, start)
        out.append(f"{workload}: {len(passes)} pass(es) of "
                   + ", ".join(f"{p['wall_s']:.3f}" for p in passes)
                   + " s as measured, "
                   + ", ".join(f"{p['norm_wall_s']:.3f}" for p in passes)
                   + " s at the reference speed")
        out.append(f"{workload}: {len(setups)} set-ups of "
                   + ", ".join(f"{s:.3f}" for s, _ in setups)
                   + " s as measured, "
                   + ", ".join(f"{n:.3f}" for _, n in setups)
                   + " s at the reference speed")
    correct, attempted, failed, lines = _outcomes(passes)
    if not trace:
        # times are at the reference host speed (perfbench/hostspeed.py),
        # per pass, averaged over all the passes of the run
        mean, med = statistics.fmean, statistics.median
        values = {
            "wall_s": mean(p["norm_wall_s"] for p in passes),
            "cpu_s": mean(p["norm_cpu_s"] for p in passes),
            "max_job_s": mean(p["norm_max_job_s"] for p in passes),
            "setup_s": med(n for _, n in setups),
            "peak_rss_mib": med(p["peak_rss_mib"] for p in passes),
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    out.append(f"{workload}: failed_ratio {failed}/{attempted} = "
               f"{failed / attempted:.4f}")
    out.extend(lines)
    for name, m in metrics.items():
        out.append(f"{workload}  {name:<30} {m['value']:>14.6f} "
                   f"{m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, out


def _check_declared():
    """The metrics emitted must be the ones BENCHMARK.json declares."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as f:
        bench = json.load(f)
    declared = ([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                [(m["name"], m["unit"]) for m in bench["per_layer"]])
    emitted = (END_TO_END, [(n, u) for n, u, _ in PER_LAYER])
    if declared != emitted:
        raise BenchError("metrics in BENCHMARK.json and perfbench/run.py "
                         "differ")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind so that the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.exists(os.path.join(ROOT, "src", "vosa", "__init__.py")):
        print(f"error: no vosa source under {ROOT}/src; run from the root "
              "of a vosa checkout", file=sys.stderr)
        return 2
    try:
        _check_declared()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            res, lines = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), time.monotonic())
            print("\n".join(lines), flush=True)
            results[name] = res
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
