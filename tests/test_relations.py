"""Generator-first relations and the incremental stabilization cutoff.

The package generates O_g relations with a generator as first argument
and grows the second cutoff from the first one's echelon.  Both are
checked here against the plain computations: the full-pairs relation
generator and a from-scratch build at the second cutoff.
"""

from fractions import Fraction

import pytest

from oracles import full_pairs_relations
from vosa import zhu
from vosa.modules import certified_zhu
from vosa.zhu import (ZhuAlgebra, ctx_identity, ctx_sigma, ctx_tau,
                      stabilized)

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
