"""Mode recursion, structure identities and the Virasoro element."""

from fractions import Fraction

import pytest

from vosa.exact import vec_iadd
from vosa.fock import ns_polarized, state_weight, weight
from vosa.fields import (Virasoro, mode, mode_mono, mode_offset, o_action,
                         twist_correction, verify_commutator,
                         verify_skew_symmetry, verify_translation)
from vosa.zhu import ctx_sigma, ctx_tau
from vosa.modules import (certified_zhu, induce_truncated, omega_umats,
                          twisted_module)

from oracles import (LADDER, LEFT_POSITIVE, TWISTS, min_assoc_exponent,
                     ns_orthonormal, recursive_mode_mono,
                     verify_associativity)

H = Fraction(1, 2)
ONE = Fraction(1)


def gen(g):
    return {((-H, g),): ONE}


def vac():
    return {(): ONE}


def ground():
    """The ground vacuum of a twisted module: no factor, ground vector 0."""
    return {((), 0): ONE}


# ---------------------------------------------------------------- oracles
def test_vacuum_modes_are_delta():
    sec = ns_orthonormal(1)
    w = {((-H, 0),): ONE}
    assert mode(sec, vac(), -1, w) == w
    assert mode(sec, vac(), 0, w) == {}
    assert mode(sec, vac(), -2, w) == {}


def test_generator_pairing_mode():
    sec = ns_orthonormal(1)
    # a_0 a = (a, a) vacuum
    assert mode(sec, gen(0), 0, gen(0)) == vac()
    assert mode(sec, gen(0), 1, gen(0)) == {}
    assert mode(sec, gen(0), -1, gen(0)) == {}


def test_quadratic_state_example():
    sec = ns_orthonormal(1)
    # a_{-2} a = a(-3/2)a(-1/2)|0>
    expect = {((-Fraction(3, 2), 0), (-H, 0)): ONE}
    assert mode(sec, gen(0), -2, gen(0)) == expect


def test_omega_products_frozen():
    sec = ns_orthonormal(1)
    vir = Virasoro(sec)
    quad = ((-Fraction(3, 2), 0), (-H, 0))
    assert vir.omega == {quad: H}
    # L(0) omega = 2 omega
    assert mode(sec, vir.omega, 1, vir.omega) == {quad: ONE}
    # L(-1) omega
    assert mode(sec, vir.omega, 0, vir.omega) == {
        ((-Fraction(5, 2), 0), (-H, 0)): ONE
    }
    # central term: omega_3 omega = c/2 with c = 1/2
    assert mode(sec, vir.omega, 3, vir.omega) == {(): Fraction(1, 4)}


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_central_charge_is_half_the_rank(l):
    assert Virasoro(ns_orthonormal(l)).central_charge() == Fraction(l, 2)
    assert Virasoro(ns_polarized(l)).central_charge() == Fraction(l, 2)


@pytest.mark.parametrize("l,ground", [(1, Fraction(1, 16)),
                                      (2, Fraction(1, 8)),
                                      (3, Fraction(3, 16)),
                                      (4, Fraction(1, 4))])
def test_twisted_ground_conformal_weight(l, ground):
    ctx = ctx_sigma(l)
    M = twisted_module(ctx)
    vir = Virasoro(ctx.sector)
    assert vir.L(M, 0, {((), 0): ONE}) == {((), 0): ground}


def test_twist_correction_leading_value():
    # the p = 0, t = 1 correction for charge 1/2 reproduces the pairing
    # factor 1/2 in front of the z^{-1} term of a quadratic field
    assert twist_correction(H, 0, 1) == H
    assert twist_correction(Fraction(0), 0, 1) == 0


def test_quadratic_field_half_pairing_correction():
    # on the twisted module the quadratic field :b(z)B(z): carries an
    # extra -(b,B)/2 z^{-1} term; its zero mode on the ground state is
    # b(0)B(0) - 1/2 = (b,B) - 1/2 = 1/2
    ctx = ctx_sigma(2)
    M = twisted_module(ctx)
    bB = mode(ctx.sector, gen(0), -1, gen(1))
    out = mode(M, bB, 0, ground(), check_index=False)
    assert out == {((), 0): H}


def test_mode_grading_bound():
    sec = ns_orthonormal(2)
    vir = Virasoro(sec)
    # any mode raising above weight 0 on the vacuum is zero
    for n in range(2, 6):
        assert mode(sec, vir.omega, n, vac()) == {}


def test_mode_offset_coset_enforced():
    ctx = ctx_sigma(2)
    M = twisted_module(ctx)
    # generator modes on the twisted module sit at half-integers
    assert mode_offset(M, ((-H, 0),)) == H
    with pytest.raises(ValueError):
        mode(M, gen(0), 0, ground())
    # the creating partner acts nontrivially at an on-coset index
    assert mode(M, gen(1), -H, ground()) != {}


def _space_of_kind(ctx, kind):
    if kind == "algebra":
        return ctx.sector
    if kind == "module":
        return twisted_module(ctx)
    rep = certified_zhu(ctx, Fraction(2))
    umats, udim = omega_umats(rep["algebra"], rep["omega"])
    return induce_truncated(rep["algebra"], umats, udim, 0)["space"]


# each algebra sector once (id and sigma share theirs), every twisted
# module and every induced space
CLOSED_FORM_CASES = (
    [(name, "algebra") for name in LADDER[:4] + ["tau"]]
    + [(name, "module") for name in LADDER[:4] + ["tau"] + LEFT_POSITIVE]
    + [(name, "induced") for name in LADDER + LEFT_POSITIVE])


@pytest.mark.parametrize("name,kind", CLOSED_FORM_CASES)
def test_one_factor_closed_form_matches_the_recursion(name, kind):
    # the closed form for u = a_{-p-1/2}|0>, and the recursion built on
    # it, against the plain recursion; no result may hold a zero entry
    ctx = TWISTS[name]()
    space = _space_of_kind(ctx, kind)
    memo: dict = {}

    def check(u, ks, targets):
        off = mode_offset(space, u)
        for k in ks:
            for w in targets:
                got = mode_mono(space, u, off + k, w)
                assert got == recursive_mode_mono(space, u, off + k, w, memo)
                assert all(got.values())

    one_factor = [((-H - p, a),) for a in space.gids for p in range(3)]
    for u in one_factor:
        check(u, range(-4, 5), space.basis(Fraction(3, 2)))
    for u in ctx.sector.basis(Fraction(3, 2)):
        if len(u) > 1:
            check(u, range(-1, 2), space.basis(1))


# ------------------------------------------------- structure identities
def _module_targets(M, top):
    return [{m: ONE} for m in M.basis(Fraction(top))]


def test_commutator_identity_200_triples():
    total = 0
    for ctx in (ctx_sigma(2), ctx_sigma(3), ctx_tau()):
        M = twisted_module(ctx)
        sec = ctx.sector
        vir = Virasoro(sec)
        targets = _module_targets(M, Fraction(3, 2))
        states = [gen(g) for g in sec.gids] + [vir.omega]
        offs = [mode_offset(M, next(iter(s))) for s in states]
        for iu, u in enumerate(states):
            for iv, v in enumerate(states):
                ms = [offs[iu] + k for k in (-1, 0, 1)]
                ns = [offs[iv] + k for k in (-1, 0)]
                samples = [(m, n, w) for m in ms for n in ns
                           for w in targets[:3]]
                rep = verify_commutator(M, u, v, samples)
                assert rep["ok"], (ctx.name, iu, iv, rep)
                total += rep["checked"]
    assert total >= 200


@pytest.mark.parametrize("name", LEFT_POSITIVE)
def test_commutator_identity_with_positive_left_modes(name):
    # a generator of support s in (0, 1/2) has its positive modes up to
    # s on the left of the normal ordering; each must act on one side
    # only, or the commutator formula fails on the module
    ctx = TWISTS[name]()
    M = twisted_module(ctx)
    sec = ctx.sector
    bilinears = [{m: ONE} for m in sec.basis(ONE) if len(m) == 2][:3]
    states = ([gen(g) for g in sec.gids] + [Virasoro(sec).omega]
              + bilinears)
    offs = [mode_offset(M, next(iter(s))) for s in states]
    # the first basis target of each degree up to 3/2
    targets = [{ms[0]: ONE}
               for ms in M.basis_by_degree(Fraction(3, 2)).values()]
    for iu, u in enumerate(states):
        for iv, v in enumerate(states):
            samples = [(offs[iu] + i, offs[iv] + j, w)
                       for i in (-1, 0, 1) for j in (-1, 0, 1)
                       for w in targets]
            rep = verify_commutator(M, u, v, samples)
            assert rep["ok"], (iu, iv, rep)


def test_commutator_rejects_off_coset_indices():
    # gen 0 acts at half-integer indices on the sigma-twisted module; at
    # an integer index it acts by zero while its products need not, so
    # the check refuses the sample instead of comparing
    M = twisted_module(ctx_sigma(2))
    w = _module_targets(M, 1)[0]
    with pytest.raises(ValueError):
        verify_commutator(M, gen(0), gen(1), [(0, H, w)])
    with pytest.raises(ValueError):
        verify_commutator(M, gen(1), gen(0), [(H, 0, w)])


def test_commutator_on_untwisted_space():
    # generators on their own Fock space have integer mode indices
    sec = ns_orthonormal(2)
    vir = Virasoro(sec)
    targets = _module_targets(sec, Fraction(3, 2))
    int_samples = [(m, n, w) for m in (-1, 0, 1) for n in (0, 1)
                   for w in targets[:4]]
    assert verify_commutator(sec, gen(0), gen(1), int_samples)["ok"]
    assert verify_commutator(sec, vir.omega, vir.omega, int_samples)["ok"]


def test_associativity_exponent_lattice_order_two_by_one():
    # exponents live on the mode lattice of the left state: for the
    # order-two twist of the algebra with untwisted grading the lattice
    # steps by 1 inside the half-integer (generator) or integer (omega)
    # class
    ctx = ctx_sigma(2)
    M = twisted_module(ctx)
    sec = ctx.sector
    vir = Virasoro(sec)
    w = ground()
    for a, u in [(gen(0), gen(1)), (gen(0), vir.omega),
                 (vir.omega, gen(1)), (vir.omega, vir.omega)]:
        k0 = min_assoc_exponent(M, a, w)
        for kappa in (k0, k0 + 1, k0 + 2):
            rep = verify_associativity(M, a, u, w, kappa, 2, Fraction(2))
            assert rep["ok"], (kappa, rep)
            assert rep["nonzero"] > 0


def test_associativity_exponent_lattice_order_two_by_two():
    # the pair-swap twist has order two in both gradings; both exponent
    # classes appear among the generator eigenvectors
    ctx = ctx_tau()
    M = twisted_module(ctx)
    w = ground()
    u0 = gen(0)
    v0 = gen(1)
    seen = set()
    for a, u in [(u0, v0), (v0, u0), (u0, u0), (v0, v0)]:
        k0 = min_assoc_exponent(M, a, w)
        seen.add(k0 % 1)
        for kappa in (k0, k0 + 1):
            rep = verify_associativity(M, a, u, w, kappa, 2, Fraction(3, 2))
            assert rep["ok"], (kappa, rep)
    assert seen == {Fraction(0), H}


def test_associativity_on_excited_target():
    ctx = ctx_sigma(2)
    M = twisted_module(ctx)
    w = {((), 1): ONE}  # B(0) on the ground vacuum
    a, u = gen(0), gen(1)
    k0 = min_assoc_exponent(M, a, w)
    for kappa in (k0, k0 + 1):
        assert verify_associativity(M, a, u, w, kappa, 2, Fraction(3, 2))["ok"]


def test_translation_axiom():
    ctx = ctx_sigma(2)
    M = twisted_module(ctx)
    vir = Virasoro(ctx.sector)
    samples = [(n, w) for n in (-Fraction(3, 2), -H, H, Fraction(3, 2))
               for w in _module_targets(M, 1)]
    assert verify_translation(M, vir.omega, gen(0), samples)["ok"]
    int_samples = [(n, w) for n in (-2, -1, 0, 1)
                   for w in _module_targets(M, 1)]
    assert verify_translation(M, vir.omega, vir.omega, int_samples)["ok"]


def test_skew_symmetry():
    sec = ns_polarized(2)
    vir = Virasoro(sec)
    b, B = gen(0), gen(1)
    assert verify_skew_symmetry(sec, vir.omega, b, B)["ok"]
    assert verify_skew_symmetry(sec, vir.omega, b, b)["ok"]
    assert verify_skew_symmetry(sec, vir.omega, vir.omega, b)["ok"]
    assert verify_skew_symmetry(sec, vir.omega, vir.omega, vir.omega)["ok"]


def _weight_parts(st):
    parts: dict = {}
    for m, c in st.items():
        parts.setdefault(weight(m), {})[m] = c
    return list(parts.values())


@pytest.mark.parametrize("ctx", [ctx_sigma(2), ctx_tau()],
                         ids=["sigma2", "tau"])
def test_o_action_is_linear_over_weight_parts(ctx):
    # o of an inhomogeneous state is the sum of the homogeneous zero modes
    # part_{wt part - 1} over its weight parts
    space = twisted_module(ctx)
    sector = ctx.sector
    targets = [{m: ONE} for m in space.basis(Fraction(2))]
    omega = Virasoro(sector).omega
    a = {((-3 * H, 0),): ONE}
    translated = mode(sector, omega, 0, a)                 # L(-1) a
    vec_iadd(translated, mode(sector, omega, 1, a))        # + L(0) a
    circs = (ctx.circ({u: ONE}, {v: ONE})
             for u in sector.basis(Fraction(2))
             for v in sector.basis(Fraction(1)))
    circ = next(c for c in circs if len(_weight_parts(c)) > 1
                and any(o_action(space, c, w) for w in targets))
    for st in (translated, circ):
        parts = _weight_parts(st)
        assert len(parts) > 1
        for w in targets:
            by_parts: dict = {}
            for part in parts:
                vec_iadd(by_parts, mode(space, part, state_weight(part) - 1,
                                        w, check_index=False))
            assert o_action(space, st, w) == by_parts
    # the parts of (L(-1) + L(0)) a act nonzero one by one and cancel
    assert any(mode(space, part, state_weight(part) - 1, w,
                    check_index=False)
               for part in _weight_parts(translated) for w in targets)
