"""The mode-symbol Lie superalgebra and its map onto the Zhu algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vosa.fields import Virasoro, in_coset, verify_commutator
from vosa.fock import weight
from vosa.liealg import (act, bracket, symbol, verify_hom_to_zhu,
                         verify_jacobi, degree_zero_symbol)
from vosa.modules import twisted_module
from vosa.zhu import ZhuAlgebra, ctx_sigma, ctx_tau

from oracles import verify_o_kernel

H = Fraction(1, 2)
ONE = Fraction(1)

CTX = ctx_sigma(2)
SPACE = twisted_module(CTX)
SECTOR = CTX.sector
VIR = Virasoro(SECTOR)
TARGETS = [{m: ONE} for m in SPACE.basis(Fraction(3, 2))]


def gen(g):
    return {((-H, g),): ONE}


def _modes():
    # coset-correct (state, index) pairs on the twisted module:
    # generators at half-integers, the conformal vector at integers
    out = []
    for g in (0, 1):
        for k in (-Fraction(3, 2), -H, H, Fraction(3, 2), Fraction(5, 2)):
            out.append((gen(g), k))
    for k in (-1, 0, 1, 2):
        out.append((VIR.omega, Fraction(k)))
    return out


MODES = _modes()
SYMBOLS = [symbol(u, k) for u, k in MODES]


def degrees(sym: dict) -> set:
    """The degrees wt - index - 1 of the terms of a symbol combination."""
    return {weight(m) - q - 1 for q, m in sym}


def test_symbol_degree():
    assert degrees(symbol(gen(0), H)) == {-1}
    assert degrees(symbol(VIR.omega, 1)) == {0}
    assert degrees(degree_zero_symbol(VIR.omega)) == {0}


def test_symbol_rejects_inhomogeneous():
    mixed = {(): ONE, ((-H, 0),): ONE}
    with pytest.raises(ValueError):
        symbol(mixed, 0)


def test_check_coset():
    assert in_coset(SPACE, gen(0), H)
    assert not in_coset(SPACE, gen(0), 0)


def test_bracket_respects_degree():
    for x in SYMBOLS[:6]:
        for y in SYMBOLS[6:]:
            (dx,), (dy,) = degrees(x), degrees(y)
            br = bracket(SECTOR, x, y)
            assert not br or degrees(br) == {dx + dy}


def test_bracket_matches_module_action():
    # the bracket is the commutator formula; check it on the module
    for u, m in MODES:
        for v, n in MODES:
            rep = verify_commutator(SPACE, u, v,
                                    [(m, n, w) for w in TARGETS[:4]])
            assert rep["ok"]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(SYMBOLS) - 1), st.integers(0, len(SYMBOLS) - 1),
       st.integers(0, len(SYMBOLS) - 1))
def test_super_jacobi_sampled(i, j, k):
    rep = verify_jacobi(SECTOR, SPACE, SYMBOLS[i], SYMBOLS[j], SYMBOLS[k],
                        TARGETS[:3])
    assert rep["ok"]


def test_jacobi_on_pair_swap_module():
    # under tau, gen 0 has integer mode labels and gen 1 half-integer
    # ones, so gen 0 acts at half-integer indices and gen 1 at integers;
    # weight-2 targets let the degree -2 symbol act
    ctx = ctx_tau()
    space = twisted_module(ctx)
    targets = [{m: ONE} for m in space.basis(Fraction(2))]
    u = symbol(gen(0), H)
    v = symbol(gen(1), 0)
    w = symbol(gen(0), Fraction(3, 2))
    for sym in (u, v, w):
        assert all(in_coset(space, {m: ONE}, q) for q, m in sym)
        assert any(act(space, sym, t) for t in targets)
    assert verify_jacobi(ctx.sector, space, u, v, w, targets)["ok"]
    assert verify_commutator(space, gen(0), gen(1),
                             [(H, 0, t) for t in targets])["ok"]


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
