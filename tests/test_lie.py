"""The mode-symbol Lie superalgebra and its map onto the Zhu algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vosa.fields import Virasoro
from vosa.liealg import (bracket, check_coset, symbol, symbol_degree,
                         verify_bracket_on_module, verify_degree_additive,
                         verify_hom_to_zhu, verify_jacobi, verify_o_kernel,
                         zero_mode_symbol)
from vosa.modules import twisted_module
from vosa.zhu import ZhuAlgebra, ctx_sigma, ctx_tau

H = Fraction(1, 2)
ONE = Fraction(1)

CTX = ctx_sigma(2)
SPACE = twisted_module(CTX)
SECTOR = CTX.sector
VIR = Virasoro(SECTOR)
TARGETS = [{m: ONE} for m in SPACE.basis(Fraction(3, 2))]


def gen(g):
    return {((-H, g),): ONE}


def _symbols():
    # coset-correct indices on the twisted module: generators at
    # half-integers, the conformal vector at integers
    out = []
    for g in (0, 1):
        for k in (-Fraction(3, 2), -H, H, Fraction(3, 2), Fraction(5, 2)):
            out.append(symbol(gen(g), k))
    for k in (-1, 0, 1, 2):
        out.append(symbol(VIR.omega, k))
    return out


SYMBOLS = _symbols()


def test_symbol_degree():
    assert symbol_degree(symbol(gen(0), H)) == -1
    assert symbol_degree(symbol(VIR.omega, 1)) == 0
    assert symbol_degree(zero_mode_symbol(VIR.omega)) == 0


def test_symbol_rejects_inhomogeneous():
    mixed = {(): ONE, ((-H, 0),): ONE}
    with pytest.raises(ValueError):
        symbol(mixed, 0)


def test_check_coset():
    assert check_coset(SPACE, symbol(gen(0), H))
    assert not check_coset(SPACE, symbol(gen(0), 0))


def test_bracket_respects_degree():
    for x in SYMBOLS[:6]:
        for y in SYMBOLS[6:]:
            assert verify_degree_additive(SECTOR, x, y)


def test_bracket_matches_module_action():
    for x in SYMBOLS:
        for y in SYMBOLS:
            rep = verify_bracket_on_module(SECTOR, SPACE, x, y, TARGETS[:4])
            assert rep["ok"]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(SYMBOLS) - 1), st.integers(0, len(SYMBOLS) - 1),
       st.integers(0, len(SYMBOLS) - 1))
def test_super_jacobi_sampled(i, j, k):
    rep = verify_jacobi(SECTOR, SPACE, SYMBOLS[i], SYMBOLS[j], SYMBOLS[k],
                        TARGETS[:3])
    assert rep["ok"]


def test_jacobi_on_pair_swap_module():
    ctx = ctx_tau()
    space = twisted_module(ctx)
    targets = [{m: ONE} for m in space.basis(Fraction(1))]
    u = symbol(gen(0), 0)
    v = symbol(gen(1), H)
    w = symbol(gen(0), 1)
    assert verify_jacobi(ctx.sector, space, u, v, w, targets)["ok"]
    assert verify_bracket_on_module(ctx.sector, space, u, v, targets)["ok"]


def test_o_kernel_acts_by_zero():
    quad = {((-Fraction(3, 2), 0), (-H, 1)): ONE}
    for a in (gen(0), gen(1), VIR.omega, quad):
        rep = verify_o_kernel(SPACE, a, TARGETS)
        assert rep["ok"]


@pytest.mark.parametrize("ctx,w", [(ctx_sigma(1), Fraction(2)),
                                   (ctx_sigma(2), Fraction(5, 2)),
                                   (ctx_tau(), Fraction(2))])
def test_degree_zero_maps_onto_zhu(ctx, w):
    alg = ZhuAlgebra(ctx, w)
    rep = verify_hom_to_zhu(alg)
    assert rep["ok"] and rep["surjective"]
    assert rep["pairs"] == alg.dim ** 2
