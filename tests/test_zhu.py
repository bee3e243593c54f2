"""Twisted Zhu algebras: products, quotients, dimensions and structure."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (TWISTS, opposite_product, reduction_family,
                     wedderburn_profile)
from vosa.exact import vec_iadd
from vosa.fields import Virasoro
from vosa.fock import ns_polarized, weight
from vosa.modules import certified_zhu, twisted_module
from vosa.zhu import (TwistContext, ZhuAlgebra, block_profile, center_basis,
                     ctx_identity, ctx_sigma, ctx_tau,
                     trace_form_radical_dim)

H = Fraction(1, 2)
ONE = Fraction(1)


def gen(g):
    return {((-H, g),): ONE}


def vac():
    return {(): ONE}


# --------------------------------------------------------------- products
def test_clifford_square_in_sigma_quotient():
    # a self-paired generator squares to (e, e)/2 = 1 under the product
    ctx = ctx_sigma(1)
    assert ctx.star(gen(0), gen(0)) == vac()


def test_polarized_clifford_relation():
    # b * B + B * b = (b, B) = 1 modulo the relation ideal
    ctx = ctx_sigma(2)
    alg = ZhuAlgebra(ctx, Fraction(5, 2))
    lhs = {}
    from vosa.exact import vec_iadd
    vec_iadd(lhs, alg.reduce(ctx.star(gen(0), gen(1))))
    vec_iadd(lhs, alg.reduce(ctx.star(gen(1), gen(0))))
    assert lhs == alg.unit_coords()


def test_odd_states_multiply_to_zero_untwisted():
    # for the trivial twist the parity grading forces odd * anything = 0
    ctx = ctx_identity(2)
    assert ctx.star(gen(0), gen(1)) == {}
    assert ctx.star(gen(0), vac()) == {}


def test_odd_states_reduce_to_zero_untwisted():
    ctx = ctx_identity(3)
    alg = ZhuAlgebra(ctx, Fraction(2))
    for g in range(3):
        assert alg.reduce(gen(g)) == {}


def test_circ_of_generators_lands_in_ideal():
    ctx = ctx_sigma(2)
    alg = ZhuAlgebra(ctx, Fraction(5, 2))
    for g in (0, 1):
        for h in (0, 1):
            circ = ctx.circ(gen(g), gen(h))
            if circ:
                assert alg.reduce(circ) == {}


def test_reduction_family_lands_in_ideal():
    # the whole two-parameter family of residue relations dies in the
    # quotient by the generator-first circle products alone
    ctx = ctx_sigma(2)
    alg = ZhuAlgebra(ctx, Fraction(5, 2))
    vir = Virasoro(ctx.sector)
    states = [gen(0), gen(1), vir.omega, vac()]
    for u in states:
        for v in states:
            for m in range(3):
                for n in range(m + 1):
                    rel = reduction_family(ctx, u, v, m, n)
                    if rel:
                        assert alg.reduce(rel) == {}


def test_reduction_family_requires_m_ge_n():
    ctx = ctx_sigma(2)
    with pytest.raises(ValueError):
        reduction_family(ctx, gen(0), gen(1), 0, 1)


# ------------------------------------------------------------ twist data
# (context, T0, T, g_exp, gs_exp): the order of g, the order of g*sigma
# and the exponents r with g (resp. g*sigma) acting on a generator by
# exp(2 pi i r / T0) (resp. / T), as the contexts were once written
_OLD_TWIST_DATA = (
    [pytest.param(ctx_sigma(l), 2, 1, [1] * l, [0] * l, id=f"sigma{l}")
     for l in (1, 2, 3, 4)]
    + [pytest.param(ctx_identity(l), 1, 2, [0] * l, [1] * l, id=f"id{l}")
       for l in (1, 2, 3)]
    + [pytest.param(ctx_tau(), 2, 2, [1, 0], [0, 1], id="tau"),
       pytest.param(TwistContext("order4", ns_polarized(2),
                                 {0: Fraction(3, 4), 1: Fraction(1, 4)}),
                    4, 4, [1, 3], [3, 1], id="order4")])


@pytest.mark.parametrize("ctx,T0,T,g_exp,gs_exp", _OLD_TWIST_DATA)
def test_support_reproduces_the_exponent_data(ctx, T0, T, g_exp, gs_exp):
    for g in ctx.sector.gids:
        assert ctx.support[g] == (Fraction(g_exp[g], T0) + H) % 1
    for m in ctx.sector.basis(Fraction(2)):
        assert ctx.rstar(m) == Fraction(sum(gs_exp[a] for _, a in m), T) % 1
    assert twisted_module(ctx).support == ctx.support


def test_twist_must_preserve_the_pairing():
    # g multiplies b and B by -i each, so (b, B) changes sign; the
    # contexts of test_support_reproduces_the_exponent_data all pass
    with pytest.raises(ValueError):
        TwistContext("bad", ns_polarized(2), {0: Fraction(1, 4),
                                             1: Fraction(1, 4)})


# ------------------------------------------------------------- dimensions
@pytest.mark.parametrize("l,dim,w", [(1, 2, Fraction(2)),
                                     (2, 4, Fraction(5, 2)),
                                     (3, 8, Fraction(5, 2)),
                                     (4, 16, Fraction(2))])
def test_sigma_dimensions(l, dim, w):
    rep = certified_zhu(ctx_sigma(l), w)
    assert rep["stabilized"]
    assert rep["dim_upper"] == rep["algebra"].dim == dim
    assert rep["high_covered"]


@pytest.mark.parametrize("l", [1, 2, 3])
def test_untwisted_dimension_one(l):
    alg = ZhuAlgebra(ctx_identity(l), Fraction(2))
    assert alg.dim == 1
    assert alg.basis == [()]


def test_tau_dimension_two():
    rep = certified_zhu(ctx_tau(), Fraction(2))
    assert rep["stabilized"] and rep["dim_upper"] == 2


# -------------------------------------------------------------- structure
@pytest.mark.parametrize("ctx,w", [(ctx_sigma(1), Fraction(2)),
                                   (ctx_sigma(2), Fraction(5, 2)),
                                   (ctx_identity(2), Fraction(2)),
                                   (ctx_tau(), Fraction(2))])
def test_associative_unital(ctx, w):
    alg = ZhuAlgebra(ctx, w)
    assert alg.check_associative()
    unit = alg.unit_coords()
    for i in range(alg.dim):
        from vosa.exact import vec_iadd
        acc = {}
        for t, c in unit.items():
            vec_iadd(acc, alg.star_coords(t, i), c)
        assert acc == {i: ONE}
        acc = {}
        for t, c in unit.items():
            vec_iadd(acc, alg.star_coords(i, t), c)
        assert acc == {i: ONE}


def test_omega_class_is_central():
    ctx = ctx_sigma(2)
    alg = ZhuAlgebra(ctx, Fraction(5, 2))
    vir = Virasoro(ctx.sector)
    wcl = alg.reduce(vir.omega)
    from vosa.exact import vec_iadd
    for i in range(alg.dim):
        acc = {}
        for t, c in wcl.items():
            vec_iadd(acc, alg.star_coords(t, i), c)
            vec_iadd(acc, alg.star_coords(i, t), -c)
        assert not acc


@pytest.mark.parametrize("l,blocks,center", [(1, [1, 1], 2), (2, [2], 1),
                                             (3, [2, 2], 2), (4, [4], 1),
                                             (5, [4, 4], 2)])
def test_sigma_block_profiles(l, blocks, center):
    w = Fraction(2) if l == 4 else Fraction(5, 2)
    alg = ZhuAlgebra(ctx_sigma(l), w)
    prof = block_profile(alg)
    assert prof["blocks"] == blocks
    assert prof["center_dim"] == center
    assert prof["radical_dim"] == 0


def test_tau_block_profile():
    prof = block_profile(ZhuAlgebra(ctx_tau(), Fraction(2)))
    assert prof["blocks"] == [1, 1]
    assert prof["radical_dim"] == 0


def test_center_basis_contains_unit():
    alg = ZhuAlgebra(ctx_sigma(3), Fraction(5, 2))
    zs = center_basis(alg)
    assert len(zs) == 2
    assert trace_form_radical_dim(alg) == 0


def test_block_sizes_square_sum_to_dim():
    for ctx, w in [(ctx_sigma(2), Fraction(5, 2)),
                   (ctx_sigma(3), Fraction(5, 2)),
                   (ctx_tau(), Fraction(2))]:
        alg = ZhuAlgebra(ctx, w)
        prof = block_profile(alg)
        assert sum(b * b for b in prof["blocks"]) == alg.dim


def test_lazy_relation_extension_is_conservative():
    # reducing a heavy product forces extra relations to be generated;
    # the established basis below the cutoff must never change
    ctx = ctx_sigma(2)
    alg = ZhuAlgebra(ctx, Fraction(3, 2))
    basis0 = list(alg.basis)
    heavy = {((-Fraction(3, 2), 0), (-H, 0), (-H, 1)): ONE}
    coords = alg.reduce(ctx.star(heavy, heavy))
    assert alg.basis == basis0
    assert all(i < alg.dim for i in coords)


# ----------------------------------------- derived structure constants
@lru_cache(maxsize=None)
def _algebra(twist, l):
    # the benchmark cutoffs: 5/2 for sigma l <= 3, 2 otherwise
    if twist == "sigma":
        return ZhuAlgebra(ctx_sigma(l), Fraction(5, 2) if l < 4 else 2)
    if twist == "id":
        return ZhuAlgebra(ctx_identity(l), Fraction(2))
    return ZhuAlgebra(ctx_tau(), Fraction(2))


@pytest.mark.parametrize("twist,l", [("sigma", 1), ("sigma", 2),
                                     ("sigma", 3), ("sigma", 4),
                                     ("id", 1), ("id", 2), ("id", 3),
                                     ("tau", 2)])
def test_derived_left_multiplication_matches_star_table(twist, l):
    alg = _algebra(twist, l)
    left = alg.left_multiplications()
    assert len(left) == alg.dim
    for i in range(alg.dim):
        assert left[i] == [alg.star_coords(i, j) for j in range(alg.dim)]


def _coords(draw, n):
    vals = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return {i: Fraction(v) for i, v in enumerate(vals) if v}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([("sigma", 2), ("sigma", 3), ("tau", 2)]), st.data())
def test_derived_product_matches_plain_product(case, data):
    alg = _algebra(*case)
    a = _coords(data.draw, alg.dim)
    b = _coords(data.draw, alg.dim)
    left = alg.left_multiplications()
    derived: dict = {}
    for i, ca in a.items():
        for j, cb in b.items():
            vec_iadd(derived, left[i][j], ca * cb)
    plain: dict = {}
    for i, ca in a.items():
        for j, cb in b.items():
            vec_iadd(plain, alg.star_coords(i, j), ca * cb)
    assert derived == plain


@pytest.mark.parametrize("ctx,w", (
    [pytest.param(make, Fraction(2), id=name) for name, make in TWISTS.items()]
    + [pytest.param(lambda: ctx_sigma(5), Fraction(5, 2), id="sigma5")]))
def test_opposite_product_matches_star_table(ctx, w):
    # a product with a generator class g on the right, from Zhu's opposite
    # identity through one-factor modes and from the derived left table,
    # against the plain star product of the basis class with g
    alg = ZhuAlgebra(ctx(), w)
    gens = [g for g, m in enumerate(alg.basis) if weight(m) <= H]
    left = alg.left_multiplications()
    assert gens
    for g in gens:
        for j, u in enumerate(alg.basis):
            plain = alg.star_coords(j, g)
            assert alg.reduce(opposite_product(alg.ctx, u, alg.basis[g])) \
                == plain
            assert left[j][g] == plain


# ------------------------------------------- stub algebras by construction
# An algebra is given by its left multiplications: left[a][b] holds the
# coordinates of e_a e_b.  Every block profile below is known by
# construction.

def _matrices(n, upper=False):
    """The n x n matrices E_ab with a <= b (upper triangular) or all of
    them, multiplied by E_ab E_cd = delta_bc E_ad."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a <= b or not upper]
    idx = {p: i for i, p in enumerate(pairs)}
    return [[{idx[(a, d)]: ONE} if b == c else {} for c, d in pairs]
            for a, b in pairs]


def _quadratic_field(d):
    """Q(sqrt d) on the basis 1, r with r^2 = d."""
    return [[{0: ONE}, {1: ONE}], [{1: ONE}, {0: Fraction(d)}]]


def _quaternions():
    """The rational quaternions on 1, i, j, k."""
    table = {(0, a): {a: ONE} for a in range(4)}
    table.update({(a, 0): {a: ONE} for a in range(4)})
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        table[(a, a)] = {0: -ONE}
        table[(a, b)] = {c: ONE}
        table[(b, a)] = {c: -ONE}
    return [[table[(a, b)] for b in range(4)] for a in range(4)]


def _tensor(x, y):
    """x (tensor) y on the basis e_a (tensor) f_b, numbered a * dim y + b."""
    m = len(y)
    return [[{p * m + q: u * v for p, u in x[a][c].items()
              for q, v in y[b][d].items()}
             for c in range(len(x)) for d in range(m)]
            for a in range(len(x)) for b in range(m)]


def _direct_sum(*parts):
    n = sum(map(len, parts))
    left, off = [], 0
    for part in parts:
        for row in part:
            cols = [{} for _ in range(n)]
            for b, col in enumerate(row):
                cols[off + b] = {off + t: c for t, c in col.items()}
            left.append(cols)
        off += len(part)
    return left


class _Algebra:
    """Stand-in algebra from its left multiplications."""

    def __init__(self, left):
        self._left = left
        self.dim = len(left)

    def left_multiplications(self):
        return self._left


_Q = [[{0: ONE}]]


# the ids of the matrix cases are those they were first written with
@pytest.mark.parametrize("left,expect", [
    pytest.param(_matrices(2, upper=True),
                 {"center_dim": 1, "radical_dim": 1, "blocks": None},
                 id="2-True-expect0"),
    pytest.param(_matrices(8, upper=True),
                 {"center_dim": 1, "radical_dim": 28, "blocks": None},
                 id="8-True-expect1"),
    pytest.param(_matrices(2),
                 {"center_dim": 1, "radical_dim": 0, "blocks": [2]},
                 id="2-False-expect2"),
    # centers that do not split over Q: the central idempotents of the
    # blocks are irrational, the block counts are not
    pytest.param(_quadratic_field(2),
                 {"center_dim": 2, "radical_dim": 0, "blocks": [1, 1]},
                 id="Q(sqrt2)"),
    pytest.param(_quaternions(),
                 {"center_dim": 1, "radical_dim": 0, "blocks": [2]},
                 id="quaternions"),
    pytest.param(_direct_sum(_matrices(3), _Q),
                 {"center_dim": 2, "radical_dim": 0, "blocks": [3, 1]},
                 id="M3+Q"),
    pytest.param(_direct_sum(_tensor(_matrices(2), _quadratic_field(3)),
                             _matrices(3)),
                 {"center_dim": 3, "radical_dim": 0, "blocks": [3, 2, 2]},
                 id="M2(Q(sqrt3))+M3"),
    # every vector of the center basis of Q^3 has a repeated eigenvalue
    pytest.param(_direct_sum(_Q, _Q, _Q),
                 {"center_dim": 3, "radical_dim": 0, "blocks": [1, 1, 1]},
                 id="Q^3")])
def test_block_profile_reads_no_blocks_off_a_radical(left, expect):
    # the oracle reads blocks off only for a semisimple algebra;
    # upper-triangular matrices are 1 x 1 blocks mod a radical
    assert wedderburn_profile(_Algebra(left)) == expect


@pytest.mark.parametrize("name", list(TWISTS))
def test_block_profile_is_the_clifford_count(name):
    # A_g(V) is the Clifford algebra of the k zero modes: one block of
    # size 2^(k/2) for even k, two of size 2^((k-1)/2) for odd k
    ctx = TWISTS[name]()
    k = sum(1 for s in ctx.support.values() if s == 0)
    alg = ZhuAlgebra(ctx, Fraction(2))
    for prof in (block_profile(alg), wedderburn_profile(alg)):
        assert prof["radical_dim"] == 0
        assert prof["center_dim"] == 1 + k % 2
        assert prof["blocks"] == [2 ** (k // 2)] * (1 + k % 2)


@pytest.mark.parametrize("ctx,w", (
    [pytest.param(make, Fraction(2), id=name) for name, make in TWISTS.items()]
    + [pytest.param(lambda: ctx_sigma(5), Fraction(5, 2), id="sigma5"),
       pytest.param(lambda: ctx_sigma(6), Fraction(3), id="sigma6")]))
def test_block_profile_matches_the_wedderburn_count(ctx, w):
    # the blocks read off the Clifford presentation against the generic
    # count over the full multiplication tables
    alg = ZhuAlgebra(ctx(), w)
    assert block_profile(alg) == wedderburn_profile(alg)


def _profile_or_refusal(profile, alg):
    try:
        return profile(alg)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("name", list(TWISTS))
def test_block_profile_refuses_where_the_wedderburn_count_does(name):
    # below the stable cutoff a truncation need not close under the star
    # product nor be a Clifford quotient: both readings refuse it, or
    # both give the same profile
    for w in (0, Fraction(1, 2), 1, Fraction(3, 2)):
        for margin in (Fraction(1, 2), 1):
            alg = ZhuAlgebra(TWISTS[name](), w, margin)
            assert (_profile_or_refusal(block_profile, alg)
                    == _profile_or_refusal(wedderburn_profile, alg)), \
                (w, margin)


def test_block_profile_refuses_a_truncation_of_clifford_dimension():
    # dim 16 = 2^(k-1) with k = 5 generator classes, yet no quotient of
    # the Clifford algebra: the chirality element tells it apart
    alg = ZhuAlgebra(ctx_sigma(5), 1)
    assert alg.dim == 16
    with pytest.raises(ValueError):
        block_profile(alg)
    with pytest.raises(ValueError):
        wedderburn_profile(alg)


def test_block_profile_refuses_an_anticommutator_that_is_no_scalar(
        monkeypatch):
    alg = ZhuAlgebra(ctx_sigma(2), Fraction(2))
    ga, gb = [i for i, m in enumerate(alg.basis) if weight(m) == H]
    plain = alg.star_coords

    def tampered(i, j):
        out = dict(plain(i, j))
        if (i, j) == (ga, gb):
            vec_iadd(out, {alg.dim - 1: ONE})
        return out

    monkeypatch.setattr(alg, "star_coords", tampered)
    with pytest.raises(ValueError, match="not a scalar"):
        block_profile(alg)
