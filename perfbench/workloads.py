"""The benchmark's workloads: jobs, their inputs, and answer oracles.

A job is a name and a function of the imported vosa package.  The
function returns a list of findings, each a pair (kind, text): kind
"wrong" when an answer disagrees with the oracle, "failed" when the job
did not deliver (uncertified where a certificate is expected, or an exit
status other than the cold run's).  An exception is a failed job too.

The expected answers are the paper's headline facts: the sigma-twisted
Zhu algebra of l free fermions has dimension 2, 4, 8, 16 with matrix
blocks [1,1], [2], [2,2], [4]; the untwisted one is the scalars; the
pair-swap twist gives dimension 2 with blocks [1,1].  Lowest-weight
spaces are the degree-0 ground spaces, and induction from the certified
simple module reproduces the twisted module degree by degree.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

H = Fraction(1, 2)
ONE = Fraction(1)

SIGMA = {1: (2, [1, 1]), 2: (4, [2]), 3: (8, [2, 2]), 4: (16, [4])}
SCALARS = (1, [1])
TAU = (2, [1, 1])
# dimension of the ground space (degree 0) of the canonical twisted module
GROUND = {"sigma2": 2, "sigma3": 4, "sigma4": 4, "tau": 2}


def _context(vosa, twist: str, l: int):
    z = vosa.zhu
    if twist == "sigma":
        return z.ctx_sigma(l)
    if twist == "id":
        return z.ctx_identity(l)
    return z.ctx_tau()


def _check_certified(rep, prof, expect) -> list:
    dim, blocks = expect
    found = []
    if rep["dim_upper"] != dim or prof["blocks"] != blocks:
        found.append(("wrong", f"dim {rep['dim_upper']} blocks "
                               f"{prof['blocks']}, want {dim} {blocks}"))
    if rep["dim_lower"] != rep["dim_upper"]:
        found.append(("wrong", f"bounds apart: upper {rep['dim_upper']} "
                               f"lower {rep['dim_lower']}"))
    if not rep["certified"]:
        found.append(("failed", "uncertified"))
    return found


def warm_up(vosa) -> list:
    """The set-up job: the smallest certification plus block profile."""
    rep = vosa.modules.certified_zhu(vosa.zhu.ctx_sigma(1), Fraction(2))
    return _check_certified(rep, vosa.zhu.block_profile(rep["algebra"]),
                            SIGMA[1])


# -- certify_ladder ---------------------------------------------------------

LADDER = (
    [(f"sigma{l}", "sigma", l, Fraction(5, 2), 2, SIGMA[l])
     for l in (1, 2, 3)]
    + [("sigma4", "sigma", 4, Fraction(2), 2, SIGMA[4])]
    + [(f"id{l}", "id", l, Fraction(2), 1, SCALARS) for l in (1, 2, 3)]
    + [("tau", "tau", 2, Fraction(2), 1, TAU)]
)


def _certify_job(twist, l, cutoff, margin, expect):
    def run(vosa):
        ctx = _context(vosa, twist, l)
        rep = vosa.modules.certified_zhu(ctx, cutoff, Fraction(margin))
        prof = vosa.zhu.block_profile(rep["algebra"])
        return _check_certified(rep, prof, expect)
    return run


def certify_ladder(seed: int) -> list:
    jobs = [(name, _certify_job(tw, l, w, m, exp))
            for name, tw, l, w, m, exp in LADDER]
    random.Random(seed).shuffle(jobs)
    return jobs


# -- cli_defaults -------------------------------------------------------------

CLI_ZHU = (
    [(f"zhu-sigma{l}", ["zhu", "--certify", "--l", str(l)],
      {"dim": SIGMA[l][0], "dim_lower": SIGMA[l][0], "certified": True,
       "blocks": SIGMA[l][1]}) for l in (1, 2, 3, 4)]
    + [("zhu-id3", ["zhu", "--certify", "--twist", "id", "--l", "3"],
        {"dim": 1, "dim_lower": 1, "certified": True, "blocks": [1]}),
       ("zhu-tau", ["zhu", "--certify", "--twist", "tau"],
        {"dim": 2, "dim_lower": 2, "certified": True, "blocks": [1, 1]}),
       # without --certify the report is honest: certified is false, and
       # the documented exit status is still 0
       ("zhu-plain-sigma3", ["zhu", "--l", "3"],
        {"dim": 8, "certified": False, "blocks": [2, 2]})]
)
CLI_VERIFY = ("verify-zhu-axioms4",
              ["verify", "--suite", "zhu-axioms", "--l", "4"],
              {"ok": True, "details": {"associative": True,
                                       "omega_central": True,
                                       "unit": True}})


def _run_cli(vosa, argv, cache_dir):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = vosa.cli.main(argv + ["--cache-dir", cache_dir])
    return code, buf.getvalue()


def _cold_job(argv, expect, cache_dir, seen):
    def run(vosa):
        code, out = _run_cli(vosa, argv, cache_dir)
        seen[tuple(argv)] = (code, out)
        found = []
        if code != 0:
            found.append(("failed", f"exit {code}, want 0"))
        got = json.loads(out)
        for key, want in expect.items():
            if got.get(key) != want:
                found.append(("wrong", f"{key} = {got.get(key)!r}, "
                                       f"want {want!r}"))
        return found
    return run


def _warm_job(argv, seen, cache_dir):
    def run(vosa):
        code, out = _run_cli(vosa, argv, cache_dir)
        if tuple(argv) not in seen:
            return [("failed", "cold run missing")]
        cold_code, cold_out = seen[tuple(argv)]
        found = []
        if out != cold_out:
            found.append(("wrong", "warm stdout differs from the cold run"))
        if code != cold_code:
            found.append(("failed", f"warm exit {code}, cold exit "
                                    f"{cold_code}"))
        return found
    return run


def cli_defaults(seed: int, cache_dir: str) -> list:
    """Cold runs in shuffled order, then every zhu job again from cache."""
    rng = random.Random(seed)
    seen: dict = {}
    cold = [(name, _cold_job(argv, exp, cache_dir, seen))
            for name, argv, exp in CLI_ZHU + [CLI_VERIFY]]
    warm = [(name + "-warm", _warm_job(argv, seen, cache_dir))
            for name, argv, _ in CLI_ZHU]
    rng.shuffle(cold)
    rng.shuffle(warm)
    return cold + warm


# -- represent -----------------------------------------------------------------

REPRESENT = [("sigma2", "sigma", 2, 6), ("sigma3", "sigma", 3, 5),
             ("sigma4", "sigma", 4, 4), ("tau", "tau", 2, 6)]
COMMUTATOR_TRIPLES = 24
JACOBI_TRIPLES = 4


def _gen(g):
    return {((-H, g),): ONE}


def _represent_job(name, twist, l, depth, rng):
    def run(vosa):
        m, f = vosa.modules, vosa.fields
        ctx = _context(vosa, twist, l)
        expect = TAU if twist == "tau" else SIGMA[l]
        rep = m.certified_zhu(ctx, Fraction(2))
        alg = rep["algebra"]
        found = _check_certified(rep, vosa.zhu.block_profile(alg), expect)
        space = m.twisted_module(ctx)
        depth_f = Fraction(depth)
        om = m.OmegaSpace(space, depth_f)
        if om.dim != GROUND[name] or any(om.degrees()):
            found.append(("wrong", f"Omega dim {om.dim} degrees "
                                   f"{om.degrees()}, want {GROUND[name]} "
                                   "at degree 0"))
        umats, udim = m.omega_umats(alg, rep["omega"])
        res = m.induce_truncated(alg, umats, udim, depth_f)
        if res["graded_dims"] != space.graded_dims(depth_f):
            found.append(("wrong", "induced graded dims differ from the "
                                   "twisted module's"))
        if not res["omega_is_seed"]:
            found.append(("wrong", "induced Omega is not the seed"))

        # seeded twisted-commutator triples on generators and omega
        vir = f.Virasoro(ctx.sector)
        states = [_gen(g) for g in ctx.sector.gids] + [vir.omega]
        targets = [{mono: ONE} for mono in space.basis(Fraction(3, 2))]
        by_pair: dict = {}
        for _ in range(COMMUTATOR_TRIPLES):
            i, j = rng.randrange(len(states)), rng.randrange(len(states))
            ou = f.mode_offset(space, next(iter(states[i])))
            ov = f.mode_offset(space, next(iter(states[j])))
            by_pair.setdefault((i, j), []).append(
                (ou + rng.choice((-1, 0, 1)), ov + rng.choice((-1, 0)),
                 rng.choice(targets)))
        for (i, j), samples in sorted(by_pair.items()):
            if not f.verify_commutator(space, states[i], states[j],
                                       samples)["ok"]:
                found.append(("wrong", f"commutator fails for {i},{j}"))

        # seeded graded Jacobi triples on generator mode symbols
        supp = {g: ctx.module_support(g) for g in ctx.sector.gids}
        syms = [vosa.liealg.symbol(_gen(g), supp[g] + H)
                for g in ctx.sector.gids]
        jtargets = [{mono: ONE} for mono in space.basis(ONE)]
        for _ in range(JACOBI_TRIPLES):
            x, y, z = (rng.choice(syms) for _ in range(3))
            if not vosa.liealg.verify_jacobi(ctx.sector, space, x, y, z,
                                             jtargets)["ok"]:
                found.append(("wrong", "graded Jacobi identity fails"))
        return found
    return run


def represent(seed: int) -> list:
    jobs = [(name, _represent_job(name, tw, l, d,
                                  random.Random(f"{seed}:{name}")))
            for name, tw, l, d in REPRESENT]
    random.Random(seed).shuffle(jobs)
    return jobs


def jobs_for(workload: str, seed: int, cache_dir: str) -> list:
    if workload == "certify_ladder":
        return certify_ladder(seed)
    if workload == "cli_defaults":
        return cli_defaults(seed, cache_dir)
    if workload == "represent":
        return represent(seed)
    raise ValueError(f"unknown workload {workload}")
