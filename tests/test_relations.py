"""One O_g relation per non-basis monomial and the one-build
stabilization check.

The package generates O_g from one relation per monomial that is not a
basis candidate, each led by its monomial, and certifies from a single
build: the basis is stable when no monomial of the next half-weight band
is free there.  Both are checked here against the plain computations:
every generator-first circ product, the full-pairs relation generator,
the depth-1 reduction family with a generator first, and from-scratch
builds at two consecutive cutoffs.
"""

from fractions import Fraction

import pytest

from oracles import (full_pairs_relations, generator_circ_relations,
                     generator_first_relations, two_cutoff_stabilized)
from vosa import modules, zhu
from vosa.cli import EXIT_ERROR, main
from vosa.fock import graded_key, ns_polarized
from vosa.modules import certified_zhu
from vosa.zhu import (TwistContext, ZhuAlgebra, ctx_identity, ctx_sigma,
                      ctx_tau)

H = Fraction(1, 2)


def _snapshot(ctx, w, margin):
    """Pivot keys and basis after the build, then the full star table."""
    alg = ZhuAlgebra(ctx, w, margin)
    pivots = set(alg.ech.pivots)
    table = {(i, j): alg.star_coords(i, j)
             for i in range(alg.dim) for j in range(alg.dim)}
    return pivots, alg.basis, table


CUTOFF_2 = (Fraction(2), Fraction(1))


@pytest.mark.parametrize(
    "ctx,cut",
    [(ctx_sigma(1), CUTOFF_2), (ctx_sigma(2), CUTOFF_2),
     (ctx_sigma(3), CUTOFF_2), (ctx_identity(1), CUTOFF_2),
     (ctx_identity(2), CUTOFF_2), (ctx_tau(), CUTOFF_2),
     # wider windows, where relations from the heavier generator modes
     # are needed to reach the full-pairs pivots
     (ctx_sigma(2), (Fraction(5, 2), Fraction(2))),
     (ctx_sigma(3), (Fraction(5, 2), Fraction(1)))],
    ids=["sigma1", "sigma2", "sigma3", "id1", "id2", "tau",
         "sigma2-wide", "sigma3-wide"])
def test_generator_first_matches_full_pairs(ctx, cut, monkeypatch):
    pruned = _snapshot(ctx, *cut)
    monkeypatch.setattr(zhu, "o_relations", full_pairs_relations)
    full = _snapshot(ctx, *cut)
    assert pruned[0] == full[0]
    assert pruned[1] == full[1]
    assert pruned[2] == full[2]


def _star_table(alg):
    """Every product's coordinates, or the message of its escape."""
    table = {}
    for i in range(alg.dim):
        for j in range(alg.dim):
            try:
                table[i, j] = alg.star_coords(i, j)
            except ValueError as exc:
                table[i, j] = str(exc)
    return table


def _certification(ctx, w, margin):
    """Pivot keys after the stability check, basis, full star table and
    report of one certified_zhu run."""
    rep = certified_zhu(ctx, w, margin)
    alg = rep["algebra"]
    pivots = set(alg.ech.pivots)
    report = {k: v for k, v in rep.items() if k not in ("algebra", "omega")}
    return pivots, alg.basis, _star_table(alg), report


LADDER = (
    [pytest.param(ctx_sigma(l), Fraction(5, 2) if l < 4 else Fraction(2),
                  Fraction(2), id=f"sigma{l}") for l in (1, 2, 3, 4)]
    + [pytest.param(ctx_identity(l), Fraction(2), Fraction(1), id=f"id{l}")
       for l in (1, 2, 3)]
    + [pytest.param(ctx_tau(), Fraction(2), Fraction(1), id="tau")])

# diagonal twists beyond order 2: g*sigma of order 3, 6 and 4 acts on
# each generator by exp(2 pi i support)
ROTATIONS = [
    pytest.param(TwistContext(name, ns_polarized(len(support)),
                              dict(enumerate(support))),
                 Fraction(2), Fraction(1), id=name)
    for name, support in [
        ("rot3", (Fraction(1, 3), Fraction(2, 3), 0)),
        ("rot6", (Fraction(1, 6), Fraction(5, 6))),
        ("rot4", (Fraction(1, 4), 0, Fraction(3, 4), 0))]]


@pytest.mark.parametrize("ctx,w,margin", LADDER + ROTATIONS)
def test_one_relation_per_monomial_matches_generator_circ(ctx, w, margin,
                                                          monkeypatch):
    one_each = _certification(ctx, w, margin)
    o_relations = zhu.o_relations
    count = 0

    def counted(*args):
        nonlocal count
        for rel in o_relations(*args):
            count += 1
            yield rel

    with monkeypatch.context() as mp:
        mp.setattr(zhu, "o_relations", counted)
        alg = ZhuAlgebra(ctx, w, margin)
    # every relation's lead is new, so none is eliminated
    assert count == alg.ech.rank
    monkeypatch.setattr(zhu, "o_relations", generator_circ_relations)
    every = _certification(ctx, w, margin)
    for got, want in zip(one_each, every):
        assert got == want


def test_relation_without_its_lead_is_an_error(monkeypatch, capsys):
    circ = TwistContext.circ

    def lead_dropped(self, u, v):
        # the leading monomial of u circ v is the one it is generated for
        rel = circ(self, u, v)
        if rel:
            del rel[max(rel, key=graded_key)]
        return rel

    monkeypatch.setattr(TwistContext, "circ", lead_dropped)
    monkeypatch.delenv("VOSA_CACHE_DIR", raising=False)
    with pytest.raises(RuntimeError):
        ZhuAlgebra(ctx_sigma(2), 2)
    assert main(["zhu", "--l", "2"]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: the O_g relation")


@pytest.mark.parametrize("ctx,w,margin", LADDER + [
    pytest.param(ctx_sigma(3), Fraction(1), Fraction(1), id="sigma3-low")])
def test_circ_only_matches_depth_one_family(ctx, w, margin, monkeypatch):
    # the (1, 0) and (1, 1) reduction-family members add nothing to the
    # span of the circ products
    circ_only = _certification(ctx, w, margin)
    monkeypatch.setattr(zhu, "o_relations", generator_first_relations)
    family = _certification(ctx, w, margin)
    for got, want in zip(circ_only, family):
        assert got == want


@pytest.mark.parametrize("ctx,w,margin", LADDER + ROTATIONS + [
    pytest.param(ctx_sigma(3), Fraction(1), Fraction(1), id="sigma3-low")]
    + [pytest.param(ctx, Fraction(2), margin, id=f"{name}-margin-{size}")
       for name, ctx in [("sigma2", ctx_sigma(2)), ("tau", ctx_tau())]
       for size, margin in [("quarter", H / 2), ("half", H)]])
def test_one_build_stability_matches_two_cutoffs(ctx, w, margin):
    # margin 1/4 is the case where the single build has to extend its
    # relation span to w + 1/2 before it reads the flag
    rep = certified_zhu(ctx, w, margin)
    alg = rep["algebra"]
    low, high, stable = two_cutoff_stabilized(ctx, w, margin)
    assert rep["stabilized"] == stable
    assert rep["high_covered"] == low.high_covered
    assert rep["dim_upper"] == low.dim
    assert alg.basis == low.basis
    # the single build's pivots are the from-scratch ones over the window
    # it covers: the guard band, or the next half-weight band if wider
    top = w + max(margin, H)
    assert set(alg.ech.pivots) == {k for k in high.ech.pivots if k[0] <= top}
    assert {k for k in alg.ech.pivots if k[0] <= w + margin} == set(
        low.ech.pivots)


def test_low_cutoff_stays_uncertified():
    # the squeeze, not the pruning, decides: at cutoff 1 the bounds meet
    # but the basis is not yet stable and the guard band is not covered
    rep = certified_zhu(ctx_sigma(3), Fraction(1))
    assert rep["dim_upper"] == 7 and rep["dim_lower"] == 7
    assert not rep["stabilized"]
    assert not rep["high_covered"]
    assert not rep["certified"]
    assert rep["reasons"] == ["not_stabilized", "guard_band_not_covered"]


def test_bounds_apart_is_a_reason(monkeypatch):
    # no shipped cutoff has the bounds apart, so the zero-mode rank is
    # made to fall one short
    rank = modules.zhu_rank
    monkeypatch.setattr(modules, "zhu_rank", lambda mats: rank(mats) - 1)
    rep = certified_zhu(ctx_sigma(2), Fraction(2))
    assert rep["dim_lower"] == rep["dim_upper"] - 1
    assert rep["stabilized"] and rep["high_covered"]
    assert not rep["certified"]
    assert rep["reasons"] == ["bounds_apart"]


def test_sigma5_certified_dimension():
    rep = certified_zhu(ctx_sigma(5), Fraction(5, 2))
    assert rep["certified"] and rep["reasons"] == []
    assert rep["dim_upper"] == rep["dim_lower"] == 32
