"""Twisted modules, lowest-weight spaces and the module functors."""

from fractions import Fraction

import pytest

from vosa.exact import Echelon, vec_iadd
from vosa.fields import Virasoro
from vosa.fock import weight
from vosa.modules import (InducedSpace, OmegaSpace, certified_zhu,
                          induce_truncated, o_action, omega_umats,
                          twisted_module, zhu_action_report, zhu_rank)
from vosa.zhu import ZhuAlgebra, ctx_identity, ctx_sigma, ctx_tau

from oracles import (TWISTS, Contragredient, ParitySubmodule,
                     graded_dim_oracle, omega_joint_kernel,
                     zero_mode_rank_oracle)

H = Fraction(1, 2)
ONE = Fraction(1)


def gen(g):
    return {((-H, g),): ONE}


def vac():
    """The ground vacuum of a twisted module: no factor, ground vector 0."""
    return {((), 0): ONE}


def _integer_support(ctx):
    return [g for g in ctx.sector.gids if ctx.support[g] == 0]


def _ground_dim(ctx):
    # 2^ceil(k/2) for k generators of integer support
    return 2 ** -(-len(_integer_support(ctx)) // 2)


def _oracle_dims(ctx, udim, depth):
    # udim copies of an exterior algebra whose lightest raising symbol
    # of a generator of support s has weight 1 - s, or 1 for s = 0
    offsets = [1 - ctx.support[g] for g in ctx.sector.gids]
    oracle = graded_dim_oracle(len(offsets), offsets, depth)
    return {d: udim * n for d, n in oracle.items()}


# ------------------------------------------------------------- modules
@pytest.mark.parametrize("name", sorted(TWISTS))
def test_ground_zero_modes_satisfy_the_clifford_relation(name):
    # Z_g Z_h + Z_h Z_g = (g, h) on the ground, for all integer-support
    # g and h
    ctx = TWISTS[name]()
    M = twisted_module(ctx)
    assert isinstance(M, InducedSpace) and M.algebra is ctx.sector
    assert M.udim == _ground_dim(ctx)
    assert M.graded_dims(0) == {0: M.udim}
    zero = _integer_support(ctx)

    def z(g, st):
        out: dict = {}
        for el, c in st.items():
            vec_iadd(out, M.apply_gen(g, Fraction(0), el), c)
        return out

    for j in range(M.udim):
        v = {((), j): ONE}
        for g in zero:
            for h in zero:
                anti = z(g, z(h, v))
                vec_iadd(anti, z(h, z(g, v)))
                pairing = ctx.sector.pair(g, h)
                assert anti == ({((), j): pairing} if pairing else {})


@pytest.mark.parametrize("name", sorted(TWISTS))
def test_twisted_module_graded_dims_match_oracle(name):
    ctx = TWISTS[name]()
    assert twisted_module(ctx).graded_dims(2) == _oracle_dims(
        ctx, _ground_dim(ctx), 2)


def test_graded_dim_oracle_uses_the_offsets_grid():
    # offsets 2/3 and 1/3 live on thirds, not on the half-integer grid
    assert graded_dim_oracle(2, [Fraction(2, 3), Fraction(1, 3)], 1) == {
        0: 1, Fraction(1, 3): 1, Fraction(2, 3): 1, 1: 1}


def test_apply_gen_rejects_off_coset_modes():
    # a mode outside its generator's coset raises on the canonical
    # module and on an induced one alike, zero modes included
    ctx = ctx_tau()  # u on integer support, v on half-integer support
    rep = certified_zhu(ctx, Fraction(2))
    umats, udim = omega_umats(rep["algebra"], rep["omega"])
    induced = induce_truncated(rep["algebra"], umats, udim, 0)["space"]
    for space in (twisted_module(ctx), induced):
        for gid, q in ((0, H), (0, -H), (1, Fraction(0)), (1, ONE)):
            with pytest.raises(ValueError):
                space.apply_gen(gid, q, ((), 0))
        assert space.apply_gen(0, -ONE, ((), 0))
        assert space.apply_gen(1, -H, ((), 0))


@pytest.mark.parametrize("k", [1, 2])
def test_sigma_module_graded_dims(k):
    # the integer-moded Fock space over a 2^k-dimensional ground space
    M = twisted_module(ctx_sigma(2 * k))
    dims = M.graded_dims(Fraction(2))
    assert dims[Fraction(0)] == 2 ** k
    # first excited level: one mode per generator on each ground vector
    assert dims[Fraction(1)] == 2 * k * 2 ** k


# --------------------------------------------------------------- omega
@pytest.mark.parametrize("k", [1, 2])
def test_omega_equals_ground_space(k):
    ctx = ctx_sigma(2 * k)
    om = OmegaSpace(twisted_module(ctx), Fraction(1))
    assert om.dim == 2 ** k
    assert all(d == 0 for d in om.degrees())


def test_omega_of_untwisted_space_is_vacuum():
    ctx = ctx_identity(2)
    om = OmegaSpace(twisted_module(ctx), Fraction(2))
    assert om.dim == 1
    assert om.basis == [vac()]


def test_omega_rechecked_against_all_low_weight_states():
    # beyond the generator and Virasoro modes, every state of weight <= 2
    # must annihilate the computed kernel through its lowering modes
    from vosa.fields import mode, mode_offset
    from vosa.fock import state_weight

    ctx = ctx_sigma(2)
    M = twisted_module(ctx)
    om = OmegaSpace(M, Fraction(1))
    for u in ctx.sector.basis(Fraction(2)):
        if not u:
            continue
        ust = {u: ONE}
        wu = state_weight(ust)
        off = mode_offset(M, u)
        n = wu  # degree-lowering indices n > wt - 1
        while n <= wu + 1:
            if off is None or (n - off) % 1 == 0:
                for v in om.basis:
                    assert mode(M, ust, n, v, check_index=False) == {}
            n += H


def test_tau_omega():
    om = OmegaSpace(twisted_module(ctx_tau()), Fraction(1))
    assert om.dim == 2
    assert all(d == 0 for d in om.degrees())


def _same_span(a, b) -> bool:
    ea, eb = Echelon(), Echelon()
    return (all(ea.add(v) for v in a) and all(eb.add(v) for v in b)
            and ea.pivots.keys() == eb.pivots.keys()
            and not any(ea.reduce(v) for v in b)
            and not any(eb.reduce(v) for v in a))


def _assert_omega_is_joint_kernel(space, depth):
    # the generator-only kernel spans, degree by degree, what the
    # generator and Virasoro modes cut out together
    got: dict = {}
    for v in OmegaSpace(space, depth).basis:
        got.setdefault(space.degree(next(iter(v))), []).append(v)
    for d in sorted(space.basis_by_degree(depth)):
        want = omega_joint_kernel(space, d)
        have = got.pop(d, [])
        assert len(have) == len(want), d
        assert _same_span(have, want), d
    assert not got


@pytest.mark.parametrize("name,depth", [
    ("sigma1", 3), ("sigma2", 3), ("sigma3", 3), ("sigma4", 2),
    ("id1", 3), ("id2", 3), ("id3", 3), ("tau", 3),
    # lowering modes on fractional cosets, some of them left of the
    # normal ordering
    ("order4", 3), ("rot3", 3), ("rot6", 3), ("rot4", 2),
    ("order4-l5", 2), ("order4-l5-e0", 2)])
def test_omega_matches_joint_kernel_on_twisted_modules(name, depth):
    _assert_omega_is_joint_kernel(twisted_module(TWISTS[name]()),
                                  Fraction(depth))


@pytest.mark.parametrize("seed", ["omega", "regular"])
@pytest.mark.parametrize("name", ["sigma2", "sigma3", "tau"])
def test_omega_matches_joint_kernel_on_induced_modules(name, seed):
    rep = certified_zhu(TWISTS[name](), Fraction(2))
    alg = rep["algebra"]
    umats, udim = (omega_umats(alg, rep["omega"]) if seed == "omega"
                   else (alg.left_multiplications(), alg.dim))
    space = induce_truncated(alg, umats, udim, 0)["space"]
    _assert_omega_is_joint_kernel(space, 2)


def test_parity_omega_halves_span_the_joint_kernel():
    # the two halves of an odd-rank sigma module split the lowest-weight
    # space between them
    M = twisted_module(ctx_sigma(3))
    halves = [ParitySubmodule(M, 2, s, Fraction(2)) for s in (1, -1)]
    om = [sub.omega_basis(Fraction(2)) for sub in halves]
    assert all(sub.contains(v) for sub, vs in zip(halves, om) for v in vs)
    want = [v for d in sorted(M.basis_by_degree(Fraction(2)))
            for v in omega_joint_kernel(M, d)]
    assert len(om[0]) == len(om[1]) == len(want) // 2
    assert _same_span(om[0] + om[1], want)


# -------------------------------------------------------- certification
@pytest.mark.parametrize("ctx,w,dim", [
    (ctx_sigma(1), Fraction(2), 2),
    (ctx_sigma(2), Fraction(5, 2), 4),
    (ctx_identity(2), Fraction(2), 1),
    (ctx_tau(), Fraction(2), 2),
])
def test_certified_dimensions(ctx, w, dim):
    rep = certified_zhu(ctx, w)
    assert rep["certified"]
    assert rep["dim_upper"] == rep["dim_lower"] == dim


def test_zhu_rank_is_lower_bound():
    ctx = ctx_sigma(2)
    alg = ZhuAlgebra(ctx, Fraction(5, 2))
    om = OmegaSpace(twisted_module(ctx), Fraction(1))
    assert zhu_rank(omega_umats(alg, om)[0]) <= alg.dim


def test_lower_bound_is_capped_at_the_count():
    # below the stable cutoff the count is no bound: sigma3 counts 7 free
    # monomials at cutoff 1, but A_g(V) has dimension 8, all generated by
    # the o-matrices of the generator classes
    rep = certified_zhu(ctx_sigma(3), Fraction(1))
    alg = rep["algebra"]
    mats = omega_umats(alg, rep["omega"])[0]
    gens = [mats[i] for i, m in enumerate(alg.basis) if weight(m) <= H]
    assert zhu_rank(gens) == 8
    assert rep["dim_lower"] == alg.dim == 7


def test_zero_mode_action_represents_the_algebra():
    ctx = ctx_sigma(2)
    alg = ZhuAlgebra(ctx, Fraction(5, 2))
    om = OmegaSpace(twisted_module(ctx), Fraction(1))
    rep = zhu_action_report(alg, om)
    assert rep["ok"]
    assert rep["simple"]


def test_tau_action_not_simple():
    # the pair-swap module splits, so the commutant is 2-dimensional
    ctx = ctx_tau()
    alg = ZhuAlgebra(ctx, Fraction(2))
    om = OmegaSpace(twisted_module(ctx), Fraction(1))
    rep = zhu_action_report(alg, om)
    assert rep["ok"]
    assert rep["commutant_dim"] == 2


# ----------------------------------------------------- parity submodules
@pytest.mark.parametrize("sign", [1, -1])
def test_odd_rank_parity_submodules(sign):
    ctx = ctx_sigma(1)
    M = twisted_module(ctx)
    sub = ParitySubmodule(M, 0, sign, Fraction(2))
    assert sub.check_invariance()
    dims = sub.graded_dims()
    assert dims[Fraction(0)] == 1
    assert len(sub.omega_basis(Fraction(1))) == 1


def test_parity_submodules_partition_the_module():
    ctx = ctx_sigma(1)
    M = twisted_module(ctx)
    plus = ParitySubmodule(M, 0, 1, Fraction(2))
    minus = ParitySubmodule(M, 0, -1, Fraction(2))
    whole = M.graded_dims(Fraction(2))
    for d, n in whole.items():
        assert plus.graded_dims().get(d, 0) + \
            minus.graded_dims().get(d, 0) == n


def test_tau_parity_submodules():
    M = twisted_module(ctx_tau())
    for sign in (1, -1):
        sub = ParitySubmodule(M, 0, sign, Fraction(2))
        assert sub.check_invariance()
        assert len(sub.omega_basis(Fraction(1))) == 1


def test_block_count_matches_simple_module_count():
    # even rank: one simple twisted module and one block; odd rank: two
    from vosa.zhu import block_profile

    for l, count in [(1, 2), (2, 1), (3, 2)]:
        alg = ZhuAlgebra(ctx_sigma(l), Fraction(5, 2))
        assert len(block_profile(alg)["blocks"]) == count


# --------------------------------------------------------- contragredient
# b(-1) B(0) on the ground vacuum of the sigma2 module
F1 = {(((-1, 0),), 1): ONE}


def test_contragredient_graded_dims_match():
    ctx = ctx_sigma(2)
    M = twisted_module(ctx)
    C = Contragredient(M, Fraction(2))
    assert C.graded_dims() == M.graded_dims(Fraction(2))


def test_contragredient_vacuum_pairing():
    # the vacuum's mode 1_{-1} is the identity, on the dual side too
    M = twisted_module(ctx_sigma(2))
    C = Contragredient(M, Fraction(2))
    for f in (vac(), F1):
        assert C.rmode({(): ONE}, -1, f) == f


def test_contragredient_commutators():
    ctx = ctx_sigma(2)
    M = twisted_module(ctx)
    C = Contragredient(M, Fraction(3))
    vir = Virasoro(ctx.sector)
    f0, f1 = vac(), F1
    half = [(m, n, f) for m in (-H, H, Fraction(3, 2)) for n in (-H, H)
            for f in (f0, f1)]
    ints = [(m, n, f) for m in (-1, 0, 1, 2) for n in (-1, 0, 1)
            for f in (f0, f1)]
    mix = [(m, n, f) for m in (-1, 0, 1) for n in (-H, H, Fraction(3, 2))
           for f in (f0, f1)]
    # a sample whose dual degree leaves the truncation is skipped, so each
    # set must check a floor of samples: every one but four omega-omega
    # samples, which leave it
    for u, v, samples, floor in ((gen(0), gen(1), half, 12),
                                 (gen(0), gen(0), half, 12),
                                 (vir.omega, vir.omega, ints, 20),
                                 (vir.omega, gen(0), mix, 18),
                                 (vir.omega, gen(1), mix, 18)):
        rep = C.verify_commutator(u, v, samples)
        assert rep["ok"] and rep["checked"] >= floor


def test_contragredient_of_untwisted_space():
    ctx = ctx_identity(2)
    V = twisted_module(ctx)
    C = Contragredient(V, Fraction(3))
    f0 = vac()
    ints = [(m, n, f0) for m in (-1, 0, 1) for n in (-1, 0, 1)]
    rep = C.verify_commutator(gen(0), gen(1), ints)
    assert rep["ok"] and rep["checked"] == len(ints)


def test_contragredient_mode_raises_beyond_truncation():
    M = twisted_module(ctx_sigma(2))
    C = Contragredient(M, Fraction(1))
    vir = Virasoro(M.algebra)
    with pytest.raises(ValueError):
        C.rmode(vir.omega, -2, vac())


def test_contragredient_rejects_a_functional_off_the_basis():
    # a functional keyed by an algebra monomial, not a (monomial, ground
    # index) basis element, would pair with nothing
    C = Contragredient(twisted_module(ctx_sigma(2)), Fraction(2))
    with pytest.raises(KeyError):
        C.rmode({(): ONE}, -1, {(): ONE})
    with pytest.raises(KeyError):
        C.verify_commutator(gen(0), gen(1), [(H, H, {(): ONE})])


# -------------------------------------------------------------- induction
def test_induction_from_omega_recovers_the_module():
    ctx = ctx_sigma(2)
    rep = certified_zhu(ctx, Fraction(5, 2))
    umats, udim = omega_umats(rep["algebra"], rep["omega"])
    res = induce_truncated(rep["algebra"], umats, udim, Fraction(3, 2))
    M = twisted_module(ctx)
    assert res["graded_dims"] == M.graded_dims(Fraction(3, 2))
    assert res["omega_is_seed"]


def test_induction_from_zero_module_is_zero():
    ctx = ctx_sigma(2)
    alg = ZhuAlgebra(ctx, Fraction(5, 2))
    res = induce_truncated(alg, {}, 0, Fraction(1))
    assert res["graded_dims"] == {}
    assert res["omega_is_seed"]


def test_induction_from_regular_module():
    # the regular module of the rank-one twisted Zhu algebra induces the
    # direct sum of the two parity halves
    ctx = ctx_sigma(1)
    alg = ZhuAlgebra(ctx, Fraction(2))
    res = induce_truncated(alg, alg.left_multiplications(), alg.dim,
                           Fraction(1))
    M = twisted_module(ctx)
    assert res["graded_dims"] == M.graded_dims(Fraction(1))
    assert res["omega_is_seed"]


@pytest.mark.parametrize("ctx,w", (
    [pytest.param(ctx_sigma(l), Fraction(5, 2) if l < 4 else Fraction(2),
                  id=f"sigma{l}") for l in (1, 2, 3, 4)]
    + [pytest.param(ctx_tau(), Fraction(2), id="tau")]))
def test_regular_seed_matches_star_table(ctx, w):
    # the seed is read from the derived left multiplications; entry x of
    # column y of basis[i]'s matrix is the x coordinate of
    # basis[i] * basis[y] in the plain table (not basis[y] * basis[i],
    # which is a right action)
    alg = ZhuAlgebra(ctx, w)
    mats = alg.left_multiplications()
    assert len(mats) == alg.dim
    for i, mat in enumerate(mats):
        for x in range(alg.dim):
            for y in range(alg.dim):
                assert mat[y].get(x, 0) == alg.star_coords(i, y).get(x, 0)


@pytest.mark.parametrize("ctx", (
    [pytest.param(ctx_sigma(l), id=f"sigma{l}") for l in (1, 2, 3, 4)]
    + [pytest.param(ctx_tau(), id="tau"),
       pytest.param(TWISTS["order4"](), id="order4")]))
def test_omega_umats_match_the_zero_mode_action(ctx):
    # column y of basis[i]'s sparse matrix, expanded in the kernel basis,
    # is o(basis[i]) applied to the y-th kernel vector
    rep = certified_zhu(ctx, Fraction(2))
    alg, om = rep["algebra"], rep["omega"]
    mats, udim = omega_umats(alg, om)
    assert udim == om.dim > 0 and len(mats) == alg.dim
    for i, mat in enumerate(mats):
        for y, col in enumerate(mat):
            img: dict = {}
            for x, c in col.items():
                vec_iadd(img, om.basis[x], c)
            assert img == o_action(om.space, {alg.basis[i]: ONE}, om.basis[y])


@pytest.mark.parametrize("name", list(TWISTS))
def test_zhu_rank_matches_the_dense_zero_mode_rank(name):
    # the lower bound, the dimension of the matrix algebra that the
    # generator classes' o-matrices generate, equals the rank of the
    # o_action images of every basis class in the monomial basis, by
    # dense elimination
    rep = certified_zhu(TWISTS[name](), Fraction(2))
    assert rep["dim_lower"] == zero_mode_rank_oracle(rep["algebra"],
                                                     rep["omega"]) > 0


def test_induced_space_commutator_identity():
    from vosa.fields import mode_offset, verify_commutator

    # sigma2 has integer supports only; tau mixes integer and half-integer
    for ctx in (ctx_sigma(2), ctx_tau()):
        rep = certified_zhu(ctx, Fraction(5, 2))
        umats, udim = omega_umats(rep["algebra"], rep["omega"])
        space = induce_truncated(rep["algebra"], umats, udim, 0)["space"]
        targets = [{el: ONE} for el in space.basis(Fraction(1))]
        ou, ov = (mode_offset(space, ((-H, g),)) for g in (0, 1))
        samples = [(m, n, w) for m in (ou - 1, ou, ou + 1)
                   for n in (ov - 1, ov) for w in targets[:4]]
        assert verify_commutator(space, gen(0), gen(1), samples)["ok"]
        vir = Virasoro(ctx.sector)
        ints = [(m, n, w) for m in (0, 1) for n in (-1, 0)
                for w in targets[:4]]
        assert verify_commutator(space, vir.omega, vir.omega, ints)["ok"]


@pytest.mark.parametrize("seed", ["omega", "regular"])
@pytest.mark.parametrize("name", ["sigma1", "sigma2", "sigma3", "tau"])
def test_induced_graded_dims_match_oracle(name, seed):
    ctx = ctx_tau() if name == "tau" else ctx_sigma(int(name[-1]))
    rep = certified_zhu(ctx, Fraction(2))
    alg = rep["algebra"]
    umats, udim = (omega_umats(alg, rep["omega"]) if seed == "omega"
                   else (alg.left_multiplications(), alg.dim))
    depth = Fraction(2)
    res = induce_truncated(alg, umats, udim, depth)
    assert res["graded_dims"] == _oracle_dims(ctx, udim, depth)
    assert res["omega_is_seed"]
    assert OmegaSpace(res["space"], depth).degrees() == [0] * udim


def test_induction_under_an_order_four_twist():
    # g = i on b and -i on B puts the module modes on Z + 3/4 and Z + 1/4,
    # off the half-integer grid; induction from the one-dimensional
    # Zhu algebra must still rebuild the twisted module
    ctx = TWISTS["order4"]()
    rep = certified_zhu(ctx, Fraction(2))
    assert rep["certified"] and rep["dim_upper"] == 1
    umats, udim = omega_umats(rep["algebra"], rep["omega"])
    res = induce_truncated(rep["algebra"], umats, udim, Fraction(2))
    assert res["graded_dims"] == _oracle_dims(ctx, 1, 2)
    assert Fraction(1, 4) in res["graded_dims"]
    assert res["omega_is_seed"]
