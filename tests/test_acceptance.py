"""Acceptance suite: the seven headline results, checked exactly.

Every assertion is over exact rationals; there are no tolerances.  Each
test prints a single pass line naming the criterion it certifies.
"""

from fractions import Fraction

from oracles import (min_assoc_exponent, ns_orthonormal, reduction_family,
                     verify_associativity)
from vosa.exact import vec_iadd
from vosa.fields import (Virasoro, mode_offset, verify_commutator,
                         verify_translation)
from vosa.liealg import symbol, verify_hom_to_zhu, verify_jacobi
from vosa.modules import (OmegaSpace, certified_zhu, induce_truncated,
                          omega_umats, twisted_module, zhu_action_report)
from vosa.zhu import ZhuAlgebra, block_profile, ctx_identity, ctx_sigma, \
    ctx_tau

H = Fraction(1, 2)
ONE = Fraction(1)


def gen(g):
    return {((-H, g),): ONE}


def test_criterion_1_even_rank_twisted_zhu_is_one_matrix_block():
    for l, dim, block, w in [(2, 4, 2, Fraction(5, 2)),
                             (4, 16, 4, Fraction(2))]:
        rep = certified_zhu(ctx_sigma(l), w, margin=Fraction(2))
        assert rep["certified"]
        assert rep["dim_upper"] == rep["dim_lower"] == dim
        prof = block_profile(rep["algebra"])
        assert prof["blocks"] == [block]
    print("PASS criterion 1: even-rank twisted Zhu algebras certified "
          "as single matrix blocks of dims 4 and 16")


def test_criterion_2_odd_rank_twisted_zhu_splits_in_two_blocks():
    for l, dim, blocks in [(1, 2, [1, 1]), (3, 8, [2, 2])]:
        rep = certified_zhu(ctx_sigma(l), Fraction(5, 2), margin=Fraction(2))
        assert rep["certified"]
        assert rep["dim_upper"] == rep["dim_lower"] == dim
        assert block_profile(rep["algebra"])["blocks"] == blocks
    print("PASS criterion 2: odd-rank twisted Zhu algebras certified "
          "with two equal blocks (dims 2 and 8)")


def test_criterion_3_untwisted_zhu_is_one_dimensional():
    for l in (1, 2, 3):
        rep = certified_zhu(ctx_identity(l), Fraction(2))
        assert rep["certified"]
        assert rep["dim_upper"] == rep["dim_lower"] == 1
        alg = rep["algebra"]
        # every odd state dies in the quotient
        for m in alg.ctx.sector.basis(Fraction(5, 2)):
            if len(m) % 2:
                assert alg.reduce({m: ONE}) == {}
    print("PASS criterion 3: untwisted Zhu algebra is the scalars for "
          "l = 1, 2, 3 and all odd states vanish")


def test_criterion_4_lowest_weight_space_is_the_ground_space():
    for k in (1, 2):
        l = 2 * k
        M = twisted_module(ctx_sigma(l))
        om = OmegaSpace(M, Fraction(1))
        assert om.dim == 2 ** k
        assert all(d == 0 for d in om.degrees())
        assert om.dim == M.graded_dims(Fraction(0))[Fraction(0)]
    print("PASS criterion 4: lowest-weight spaces of the canonical "
          "twisted modules equal their degree-0 pieces, dims 2 and 4")


def test_criterion_5_pair_swap_twist():
    rep = certified_zhu(ctx_tau(), Fraction(2))
    # the swap fixes a single self-paired direction: one integer-moded
    # generator, hence ground space of dim 2^1 and two blocks
    assert rep["omega"].dim == 2
    assert all(d == 0 for d in rep["omega"].degrees())
    assert rep["certified"]
    assert rep["dim_upper"] == rep["dim_lower"] == 2
    assert block_profile(rep["algebra"])["blocks"] == [1, 1]
    print("PASS criterion 5: pair-swap twist certified with "
          "2-dimensional ground space and blocks [1, 1]")


def test_criterion_6_identity_suites():
    # (a) twisted commutator identity, >= 200 sampled triples
    total = 0
    for ctx in (ctx_sigma(2), ctx_sigma(3), ctx_tau()):
        M = twisted_module(ctx)
        vir = Virasoro(ctx.sector)
        targets = [{m: ONE} for m in M.basis(Fraction(3, 2))]
        states = [gen(g) for g in ctx.sector.gids] + [vir.omega]
        for u in states:
            for v in states:
                ou = mode_offset(M, next(iter(u)))
                ov = mode_offset(M, next(iter(v)))
                samples = [(ou + a, ov + b, w) for a in (-1, 0, 1)
                           for b in (-1, 0) for w in targets[:3]]
                rep = verify_commutator(M, u, v, samples)
                assert rep["ok"]
                total += rep["checked"]
    assert total >= 200

    # (b) central charge c = l/2, exact
    for l in (1, 2, 3, 4):
        assert Virasoro(ns_orthonormal(l)).central_charge() == Fraction(l, 2)

    # (c) translation axiom
    ctx = ctx_sigma(2)
    M = twisted_module(ctx)
    vir = Virasoro(ctx.sector)
    targets = [{m: ONE} for m in M.basis(Fraction(1))]
    samples = [(n, w) for n in (-Fraction(3, 2), -H, H) for w in targets]
    assert verify_translation(M, vir.omega, gen(0), samples)["ok"]

    # (d) associativity, both exponent lattices (order-two twist with
    # trivial and with order-two untwisted grading)
    for ctx in (ctx_sigma(2), ctx_tau()):
        M = twisted_module(ctx)
        w = {((), 0): ONE}
        pairs = [(gen(0), gen(1)), (gen(1), gen(0))]
        for a, u in pairs:
            k0 = min_assoc_exponent(M, a, w)
            for kappa in (k0, k0 + 1):
                rep = verify_associativity(M, a, u, w, kappa, 2,
                                           Fraction(3, 2))
                assert rep["ok"] and rep["nonzero"] > 0

    # (e) the residue reduction family lands in the span of the circ
    # relations
    ctx = ctx_sigma(2)
    alg = ZhuAlgebra(ctx, Fraction(5, 2))
    for u in (gen(0), gen(1), vir.omega):
        for v in (gen(0), gen(1)):
            for m in range(3):
                for n in range(m + 1):
                    rel = reduction_family(ctx, u, v, m, n)
                    if rel:
                        assert alg.reduce(rel) == {}

    # (f) quotient algebra: associative, unital, omega central, on the
    # full multiplication tables
    for c, wt in [(ctx_sigma(2), Fraction(5, 2)), (ctx_tau(), Fraction(2))]:
        a2 = ZhuAlgebra(c, wt)
        assert a2.check_associative()
        unit = a2.unit_coords()
        wcl = a2.reduce(Virasoro(c.sector).omega)
        for i in range(a2.dim):
            acc = {}
            for t, cc in unit.items():
                vec_iadd(acc, a2.star_coords(t, i), cc)
            assert acc == {i: ONE}
            acc = {}
            for t, cc in wcl.items():
                vec_iadd(acc, a2.star_coords(t, i), cc)
                vec_iadd(acc, a2.star_coords(i, t), -cc)
            assert not acc

    # (g) mode-symbol superalgebra: Jacobi and the map onto the quotient
    sec = ctx.sector
    M = twisted_module(ctx)
    targets = [{m: ONE} for m in M.basis(Fraction(1))]
    syms = [symbol(gen(0), H), symbol(gen(1), -H), symbol(vir.omega, 1)]
    for x in syms:
        for y in syms:
            for z in syms:
                assert verify_jacobi(sec, M, x, y, z, targets)["ok"]
    assert verify_hom_to_zhu(alg)["ok"]

    # (h) zero modes represent the quotient on the lowest-weight space
    om = OmegaSpace(M, Fraction(1))
    rep = zhu_action_report(alg, om)
    assert rep["ok"]
    print("PASS criterion 6: all structure-identity suites hold exactly "
          f"(commutator triples checked: {total})")


def test_criterion_7_truncated_induction_recovers_the_module():
    ctx = ctx_sigma(2)
    rep = certified_zhu(ctx, Fraction(5, 2))
    umats, udim = omega_umats(rep["algebra"], rep["omega"])
    assert udim == 2
    res = induce_truncated(rep["algebra"], umats, udim, Fraction(3, 2))
    M = twisted_module(ctx)
    assert res["graded_dims"] == M.graded_dims(Fraction(3, 2))
    assert res["omega_is_seed"]
    print("PASS criterion 7: induction from the 2-dimensional simple "
          "module reproduces the twisted module through degree 3/2")
