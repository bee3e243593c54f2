"""The free alphabet counted at build, relations generated on read, the
one-build stabilization check and the squeeze.

Every monomial of the window is a lead or free; each lead m has one O_g
relation R_m, led by m.  The package's basis is the subsets of the free
alphabet, the factors (-1/2, a) of the generators of support 0; it
checks the leading coefficient once per generator mode that splits a
lead, by the lemma in zhu._check_lead, and generates R_m only when a
reduction reaches m.  Everything is checked here against eager builds
that classify the ambient Fock space by putting every relation of a
generator into the echelon first: the package's own relations, every
generator-first circ product, the full-pairs relation generator and the
depth-1 reduction family with a generator first, and from-scratch eager
builds at two consecutive cutoffs.  The per-monomial lead check is the
oracle of the per-mode one, and an injected fault in either the lead
check or the count is an error.
"""

from fractions import Fraction
from functools import partial
from math import comb

import pytest

import oracles
from oracles import (TWISTS, EagerZhuAlgebra, full_pairs_relations,
                     generator_circ_relations, generator_first_relations,
                     o_relations_window, two_cutoff_stabilized)
from vosa import modules, zhu
from vosa.cli import EXIT_ERROR, main
from vosa.fields import mode
from vosa.fock import graded_key, weight
from vosa.modules import certified_zhu
from vosa.zhu import (TwistContext, ZhuAlgebra, block_profile, ctx_identity,
                      ctx_sigma, ctx_tau, o_relations)

H = Fraction(1, 2)


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
    """The algebra of one certified_zhu run and what it reports: basis,
    dim, high_covered, the full star table and the report (stabilized
    included)."""
    rep = certified_zhu(ctx, w, margin)
    alg = rep["algebra"]
    report = {k: v for k, v in rep.items() if k not in ("algebra", "omega")}
    return alg, {"basis": alg.basis, "dim": alg.dim,
                 "high_covered": alg.high_covered,
                 "table": _star_table(alg), "report": report}


def _window_leads(alg):
    """Graded keys of the leads up to max_weight + max(margin, 1/2), the
    window the build checks: the ambient monomials that are not free."""
    top = alg.max_weight + max(alg.margin, H)
    window = {graded_key(m) for m in alg.ctx.sector.basis(top)}
    return window - {graded_key(m) for m in alg.free_monomials(top)}


def _lazy_matches_eager(ctx, w, margin, relations, monkeypatch):
    """Certify lazily and with EagerZhuAlgebra over relations, and compare
    everything they report; returns the lazy algebra and its report."""
    lazy, got = _certification(ctx, w, margin)
    with monkeypatch.context() as mp:
        mp.setattr(modules, "ZhuAlgebra",
                   partial(EagerZhuAlgebra, relations=relations))
        eager, want = _certification(ctx, w, margin)
    assert got == want
    # the leads are the eager pivots over the checked window,
    # and every relation generated on read is led by an eager pivot
    top = w + max(margin, H)
    assert _window_leads(lazy) == {k for k in eager.ech.pivots
                                   if k[0] <= top}
    assert set(lazy.ech.pivots) <= set(eager.ech.pivots)
    return lazy, got["report"]


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
    _lazy_matches_eager(ctx, *cut, full_pairs_relations, monkeypatch)


# cutoff and margin of each shared twist: the sigma ladder with margin 2,
# the others at cutoff 2 with margin 1; the rotations are the diagonal
# twists beyond order 2
CUTS = {"sigma1": (Fraction(5, 2), Fraction(2)),
        "sigma2": (Fraction(5, 2), Fraction(2)),
        "sigma3": (Fraction(5, 2), Fraction(2)),
        "sigma4": (Fraction(2), Fraction(2))}


def _params(names):
    return [pytest.param(TWISTS[name](),
                         *CUTS.get(name, (Fraction(2), Fraction(1))), id=name)
            for name in names]


LADDER = _params(oracles.LADDER)
ROTATIONS = _params(oracles.ROTATIONS)
# the order-4 twists, which neither list above holds
ORDER4 = _params([name for name in TWISTS
                  if name not in oracles.LADDER + oracles.ROTATIONS])

SIGMA3_LOW = pytest.param(ctx_sigma(3), Fraction(1), Fraction(1),
                          id="sigma3-low")
# margin 1/4 is the case where the stability flag reads the next
# half-weight band beyond the guard band
MARGINS = [pytest.param(ctx, Fraction(2), margin, id=f"{name}-margin-{size}")
           for name, ctx in [("sigma2", ctx_sigma(2)), ("tau", ctx_tau())]
           for size, margin in [("quarter", H / 2), ("half", H)]]


@pytest.mark.parametrize("ctx,w,margin", LADDER + ROTATIONS)
def test_one_relation_per_monomial_matches_generator_circ(ctx, w, margin,
                                                          monkeypatch):
    count = 0

    def counted(*args):
        nonlocal count
        for rel in o_relations(*args):
            count += 1
            yield rel

    monkeypatch.setattr(zhu, "o_relations", counted)
    assert ZhuAlgebra(ctx, w, margin).ech.rank == count == 0
    lazy, _ = _lazy_matches_eager(ctx, w, margin, generator_circ_relations,
                                  monkeypatch)
    # every relation generated on read has a new lead, so none is
    # eliminated
    assert count == lazy.ech.rank


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
    # the build generates no relation; the first read that does raises
    alg = ZhuAlgebra(ctx_sigma(2), 2)
    with pytest.raises(RuntimeError, match="the O_g relation"):
        for i in range(alg.dim):
            for j in range(alg.dim):
                alg.star_coords(i, j)
    # the block profile of a zhu run generates no relation on sigma2; the
    # associativity suite reads the whole star table
    assert main(["verify", "--suite", "zhu-axioms", "--l", "2"]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: the O_g relation")


# each delta the twist has: the lead is checked once per generator mode,
# with u_{-delta-1}; the CLI reaches sigma2 and tau, not rot3
@pytest.mark.parametrize("name,delta,argv", [
    ("sigma2", 1, ["zhu", "--l", "2"]),
    ("tau", 0, ["zhu", "--twist", "tau"]),
    ("tau", 1, ["zhu", "--twist", "tau"]),
    ("rot3", 0, None),
    ("rot3", 1, None)],
    ids=["sigma2-delta1", "tau-delta0", "tau-delta1", "rot3-delta0",
         "rot3-delta1"])
def test_broken_lead_term_is_an_error_at_build(name, delta, argv,
                                               monkeypatch, capsys):
    mode_mono = zhu.mode_mono

    def lead_dropped(space, u, n, w):
        # the i = 0 term of the residue sum, without its leading monomial,
        # for the generator modes of one delta
        top = dict(mode_mono(space, u, n, w))
        if top and n == -1 - delta:
            del top[max(top, key=graded_key)]
        return top

    monkeypatch.setattr(zhu, "mode_mono", lead_dropped)
    monkeypatch.delenv("VOSA_CACHE_DIR", raising=False)
    with pytest.raises(RuntimeError, match="the O_g relation"):
        ZhuAlgebra(TWISTS[name](), 2)
    if argv:
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: the O_g relation")


@pytest.mark.parametrize("ctx,w,margin",
                         LADDER + ROTATIONS + [SIGMA3_LOW] + MARGINS + ORDER4
                         + [pytest.param(ctx_sigma(5), Fraction(5, 2),
                                         Fraction(1), id="sigma5")])
def test_lead_coefficient_is_a_binomial(ctx, w, margin, monkeypatch):
    # for a lead m that is not twist-odd, with (mu, a) its first factor
    # with q = mu + delta(a) <= -1/2: the i = 0 term of u circ v, u the
    # generator mode ((q, a),) and v the rest of m, is +-C(p + delta, p) m
    # with p = -q - 1/2, and it is all of R_m at the weight of m; the
    # build checked it once for u
    modes = set()
    check = zhu._check_lead

    def spy(ctx, u):
        modes.add(u)
        check(ctx, u)

    monkeypatch.setattr(zhu, "_check_lead", spy)
    alg = ZhuAlgebra(ctx, w, margin)
    leads = {k[1] for k in _window_leads(alg)}
    checked = 0
    for m in ctx.sector.basis(w + max(margin, H)):
        split = [(i, mu + ctx.delta(((mu, a),)), a)
                 for i, (mu, a) in enumerate(m)
                 if mu + ctx.delta(((mu, a),)) <= -H]
        assert (ctx.rstar(m) != 0 or bool(split)) == (m in leads)
        if ctx.rstar(m) != 0 or not split:
            continue
        i, q, a = split[0]
        assert ((q, a),) in modes
        d = ctx.delta(((q, a),))
        p = int(-q - H)
        top = mode(ctx.sector, {((q, a),): 1}, -1 - d,
                   {m[:i] + m[i + 1:]: 1})
        assert top.keys() == {m}
        assert abs(top[m]) == comb(p + d, p)
        (rel,) = o_relations(ctx, [m])
        assert {x: c for x, c in rel.items() if weight(x) == weight(m)} == top
        checked += 1
    assert checked


@pytest.mark.parametrize("ctx,w,margin", LADDER + [SIGMA3_LOW])
def test_circ_only_matches_depth_one_family(ctx, w, margin, monkeypatch):
    # the (1, 0) and (1, 1) reduction-family members add nothing to the
    # span of the circ products
    _lazy_matches_eager(ctx, w, margin, generator_first_relations,
                        monkeypatch)


@pytest.mark.parametrize("ctx,w,margin",
                         LADDER + ROTATIONS + [SIGMA3_LOW] + MARGINS)
def test_one_build_stability_matches_two_cutoffs(ctx, w, margin,
                                                 monkeypatch):
    lazy, rep = _lazy_matches_eager(ctx, w, margin, o_relations_window,
                                    monkeypatch)
    low, high, stable = two_cutoff_stabilized(ctx, w, margin)
    assert rep["stabilized"] == stable
    assert rep["high_covered"] == low.high_covered
    assert rep["dim_upper"] == low.dim
    assert lazy.basis == low.basis
    # the leads of the single build's window are the from-scratch pivots
    # over it: the guard band, or the next half-weight band if wider
    top = w + max(margin, H)
    leads = _window_leads(lazy)
    assert leads == set(low.ech.pivots)
    assert leads == {k for k in high.ech.pivots if k[0] <= top}


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


@pytest.mark.parametrize("ctx,w,margin", [
    pytest.param(TWISTS[name](), Fraction(2), Fraction(1), id=name)
    for name in ("sigma4", "tau", "rot3")])
def test_squeeze_refutes_a_count_below_the_rank(ctx, w, margin,
                                                monkeypatch):
    # the count made to miss its top free monomial at every weight: the
    # basis stays stable and the guard band covered, so only the zero-mode
    # rank, one above the count, can tell
    free = ZhuAlgebra.free_monomials
    monkeypatch.setattr(ZhuAlgebra, "free_monomials",
                        lambda self, w: free(self, w)[:-1])
    with pytest.raises(RuntimeError, match="the zero-mode rank .* exceeds "
                                           "the count"):
        certified_zhu(ctx, w, margin)


@pytest.mark.parametrize("l,blocks", [(5, [4, 4]), (6, [8]), (7, [8, 8]),
                                      (8, [16])],
                         ids=["sigma5", "sigma6", "sigma7", "sigma8"])
def test_sigma_ladder_certified_dimension(l, blocks):
    rep = certified_zhu(ctx_sigma(l), Fraction(l, 2))
    assert rep["certified"] and rep["reasons"] == []
    assert rep["dim_upper"] == rep["dim_lower"] == 2 ** l
    assert block_profile(rep["algebra"])["blocks"] == blocks
