"""One O_g relation per non-basis monomial and the incremental
stabilization cutoff.

The package generates O_g from one relation per monomial that is not a
basis candidate, each led by its monomial, and grows the second cutoff
from the first one's echelon.  Both are checked here against the plain
computations: every generator-first circ product, the full-pairs
relation generator, the depth-1 reduction family with a generator
first, and a from-scratch build at the second cutoff.
"""

from fractions import Fraction

import pytest

from oracles import (full_pairs_relations, generator_circ_relations,
                     generator_first_relations)
from vosa import modules, zhu
from vosa.cli import EXIT_ERROR, main
from vosa.fock import graded_key, ns_polarized
from vosa.modules import certified_zhu
from vosa.zhu import (TwistContext, ZhuAlgebra, ctx_identity, ctx_sigma,
                      ctx_tau, stabilized)

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


def _certification(ctx, w, margin, monkeypatch):
    """Pivot keys at both cutoffs, basis, full star table and report of
    one certified_zhu run."""
    builds = []

    def keep(*args):
        builds.append(stabilized(*args))
        return builds[-1]

    with monkeypatch.context() as mp:
        mp.setattr(modules, "stabilized", keep)
        rep = certified_zhu(ctx, w, margin)
    (a, b, _), = builds
    report = {k: v for k, v in rep.items() if k not in ("algebra", "omega")}
    return (set(a.ech.pivots), set(b.ech.pivots), a.basis, _star_table(a),
            report)


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
    one_each = _certification(ctx, w, margin, monkeypatch)
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
    every = _certification(ctx, w, margin, monkeypatch)
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
    circ_only = _certification(ctx, w, margin, monkeypatch)
    monkeypatch.setattr(zhu, "o_relations", generator_first_relations)
    family = _certification(ctx, w, margin, monkeypatch)
    for got, want in zip(circ_only, family):
        assert got == want


@pytest.mark.parametrize("ctx,w", [(ctx_sigma(2), Fraction(5, 2)),
                                   (ctx_sigma(3), Fraction(1)),
                                   (ctx_tau(), Fraction(2))],
                         ids=["sigma2", "sigma3-low", "tau"])
def test_second_cutoff_equals_from_scratch_build(ctx, w):
    _, grown, _ = stabilized(ctx, w)
    fresh = ZhuAlgebra(ctx, w + H)
    assert set(grown.ech.pivots) == set(fresh.ech.pivots)
    assert grown.basis == fresh.basis
    assert grown.high_covered == fresh.high_covered


def test_low_cutoff_stays_uncertified():
    # the squeeze, not the pruning, decides: at cutoff 1 the bounds meet
    # but the basis is not yet stable and the guard band is not covered
    rep = certified_zhu(ctx_sigma(3), Fraction(1))
    assert rep["dim_upper"] == 7 and rep["dim_lower"] == 7
    assert not rep["stabilized"]
    assert not rep["high_covered"]
    assert not rep["certified"]


def test_sigma5_certified_dimension():
    rep = certified_zhu(ctx_sigma(5), Fraction(5, 2))
    assert rep["certified"]
    assert rep["dim_upper"] == rep["dim_lower"] == 32
