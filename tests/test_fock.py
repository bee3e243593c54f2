"""Monomial normalization, Koszul signs and graded basis enumeration."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from vosa.fock import (normalize, parity, graded_key, ns_polarized,
                       state_weight, weight)

from oracles import graded_dim_oracle, ns_orthonormal

HALF = Fraction(1, 2)

factor = st.tuples(
    st.sampled_from([Fraction(-5, 2), Fraction(-3, 2), -HALF, Fraction(-1),
                     Fraction(-2), Fraction(0)]),
    st.integers(0, 3),
)


@given(st.lists(factor, max_size=6, unique=True))
def test_normalize_idempotent(factors):
    mono, sign = normalize(factors)
    if sign:
        again, sign2 = normalize(mono)
        assert again == mono and sign2 == 1


@given(st.lists(factor, min_size=2, max_size=6, unique=True),
       st.data())
def test_normalize_permutation_sign(factors, data):
    mono, sign = normalize(factors)
    if not sign:
        return
    perm = data.draw(st.permutations(factors))
    mono2, sign2 = normalize(perm)
    assert mono2 == mono
    # the relative sign is the parity of the permutation
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if factors.index(perm[i]) > factors.index(perm[j])
    )
    assert sign2 == sign * (-1) ** (inversions % 2)


def test_normalize_kills_repeats():
    f = (-HALF, 0)
    mono, sign = normalize([f, (-Fraction(3, 2), 0), f])
    assert mono is None and sign == 0


def test_weight_and_parity():
    m = ((-Fraction(3, 2), 0), (-HALF, 1))
    assert weight(m) == 2
    assert parity(m) == 0
    assert parity(m[:1]) == 1
    assert weight(()) == 0


def test_state_weight_homogeneous_only():
    assert state_weight({(): Fraction(1)}) == 0
    mixed = {(): Fraction(1), ((-HALF, 0),): Fraction(1)}
    assert state_weight(mixed) is None


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_ns_graded_dims_match_generating_function(l):
    sec = ns_orthonormal(l)
    dims = sec.graded_dims(Fraction(6))
    oracle = graded_dim_oracle(l, [HALF] * l, Fraction(6))
    assert dims == oracle


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_polarized_dims_agree_with_orthonormal(l):
    assert (ns_polarized(l).graded_dims(Fraction(5))
            == ns_orthonormal(l).graded_dims(Fraction(5)))


def test_apply_gen_clifford_relation():
    sec = ns_orthonormal(2)
    vac = ()
    # a_{1/2} a_{-1/2} + a_{-1/2} a_{1/2} = (a, a) = 1 on the vacuum
    st1 = sec.apply_gen(0, HALF, ((-HALF, 0),))
    assert st1 == {(): Fraction(1)}
    created = sec.apply_gen(0, -HALF, vac)
    assert created == {((-HALF, 0),): Fraction(1)}


def test_apply_gen_derivation_sign():
    sec = ns_orthonormal(1)
    m = ((-Fraction(3, 2), 0), (-HALF, 0))
    # contracting the second factor passes one fermion: sign -1
    out = sec.apply_gen(0, HALF, m)
    assert out == {((-Fraction(3, 2), 0),): Fraction(-1)}


def test_basis_sorted_by_graded_key():
    sec = ns_polarized(2)
    basis = sec.basis(Fraction(5, 2))
    assert basis == sorted(basis, key=graded_key)
    assert basis[0] == ()


def test_describe_is_json_stable():
    import json

    sec = ns_polarized(3)
    d1 = json.dumps(sec.describe(), sort_keys=True)
    d2 = json.dumps(ns_polarized(3).describe(), sort_keys=True)
    assert d1 == d2
