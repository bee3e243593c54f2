"""The benchmark's span tracer still finds every name it wraps.

perfbench/spans.py patches vosa's functions and methods by name from
outside the package, so a refactor that renames or deletes one of them
breaks the traced benchmark run without failing any other test.  The
traced jobs are a bare Zhu build, which generates no O_g relation, the
same build with its block profile and its whole star table, whose
relations are generated on read and must reach the traced fields.mode,
the benchmark's set-up job, its own module-side job for tau, and a
small copy of that job (certification, Omega, induction, a commutator
check) whose shape and counters the test reads, so a change to how
those layers are called is caught here too.  The tracer is installed in
a fresh interpreter, because it patches the package in place.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
from fractions import Fraction
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans, workloads
import vosa, vosa.cli, vosa.liealg, vosa.modules
tracer = spans.Tracer()
spans.install(tracer, vosa)
# a bare build counts the leads and generates no relation
tracer.run_job("zhu_sigma2_build",
               lambda: vosa.zhu.ZhuAlgebra(vosa.zhu.ctx_sigma(2), 2))
build_relations = tracer.counts["zhu.relations_generated"]


def zhu_sigma2():
    # the block profile, then the whole star table, whose reductions
    # generate relations; they reach the mode recursion through
    # fields.mode, so its span counts them
    alg = vosa.zhu.ZhuAlgebra(vosa.zhu.ctx_sigma(2), 2)
    vosa.zhu.block_profile(alg)
    return alg.check_associative()


tracer.run_job("zhu_sigma2", zhu_sigma2)
zhu_mode_calls = tracer.calls["fields.mode"]
zhu_relations = tracer.calls["zhu.relations"]
found = tracer.run_job("warm_up", lambda: workloads.warm_up(vosa))


def represent_tau():
    # the module-side calls of the benchmark's represent jobs, small
    m = vosa.modules
    ctx = vosa.zhu.ctx_tau()
    rep = m.certified_zhu(ctx, Fraction(2))
    om = m.OmegaSpace(m.twisted_module(ctx), Fraction(2))
    umats, udim = m.omega_umats(rep["algebra"], rep["omega"])
    res = m.induce_truncated(rep["algebra"], umats, udim, Fraction(2))
    # one twisted-commutator check: its products u_i v are taken in the
    # algebra's own space, so that space's mode cache is read too
    vir = vosa.fields.Virasoro(ctx.sector)
    comm = vosa.fields.verify_commutator(
        om.space, vir.omega, vir.omega, [(1, 0, {((), 0): Fraction(1)})])
    return [om.dim, res["omega_is_seed"], comm["ok"]]


shape = tracer.run_job("represent_tau", represent_tau)
bench_tau = dict(workloads.represent(1))["tau"]
found += tracer.run_job("tau", lambda: bench_tau(vosa))
print(json.dumps({"found": found, "shape": shape,
                  "build_relations": build_relations,
                  "zhu_mode_calls": zhu_mode_calls,
                  "zhu_relations": zhu_relations,
                  "calls": dict(tracer.calls),
                  "counts": dict(tracer.counts)}))
"""


def test_tracer_installs_and_runs_warm_up():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"),
         str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout)
    assert out["found"] == []
    assert out["shape"] == [2, True, True]
    assert out["build_relations"] == 0
    assert out["zhu_mode_calls"] > 0
    assert out["zhu_relations"] > 0
    for name in ("zhu.build", "zhu.relations", "fields.mode", "fock.basis", "modules.certify",
                 "zhu.blocks", "modules.omega", "modules.induce",
                 "modules.zhu_rank", "exact.nullspace"):
        assert out["calls"].get(name, 0) > 0, name
    assert out["counts"].get("fields.mode_cache_module_entries", 0) > 0
    # the algebra-side caches are counted too, not only the module ones
    assert (out["counts"]["fields.mode_cache_entries"]
            > out["counts"]["fields.mode_cache_module_entries"])
    assert out["counts"].get("zhu.relations_generated", 0) > 0
    # a certification builds its algebra once: no second cutoff is
    # opened, and each relation generated on read adds one pivot
    assert "zhu.second_cutoff" not in out["calls"]
    assert (out["counts"].get("zhu.relations_independent")
            == out["counts"]["zhu.relations_generated"])
