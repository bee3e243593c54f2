"""Exact arithmetic and linear algebra kernels."""

from fractions import Fraction
from math import comb

from hypothesis import given, strategies as st

from vosa.exact import (Echelon, gen_binomial, nullspace, span_coordinates,
                        vec_iadd)

from oracles import binomial_oracle, matrix_rank_oracle

ALPHAS = [Fraction(p, q) for q in (1, 2, 4) for p in range(-20, 21)]


def test_binomial_matches_oracle():
    for alpha in ALPHAS:
        for s in range(13):
            assert gen_binomial(alpha, s) == binomial_oracle(alpha, s)


def test_binomial_integer_case():
    for n in range(12):
        for k in range(12):
            assert gen_binomial(Fraction(n), k) == comb(n, k)


def test_binomial_pascal_property():
    for alpha in ALPHAS:
        for s in range(1, 13):
            assert gen_binomial(alpha, s) == (
                gen_binomial(alpha - 1, s) + gen_binomial(alpha - 1, s - 1)
            )


def test_binomial_negative_one_half():
    # binom(-1/2, s) = (-1/4)^s binom(2s, s)
    for s in range(10):
        expect = Fraction(-1, 4) ** s * comb(2 * s, s)
        assert gen_binomial(Fraction(-1, 2), s) == expect


@given(st.dictionaries(st.integers(0, 5),
                       st.fractions(max_denominator=8), max_size=5),
       st.dictionaries(st.integers(0, 5),
                       st.fractions(max_denominator=8), max_size=5))
def test_vec_iadd_is_componentwise_sum(a, b):
    a = {k: v for k, v in a.items() if v}
    b = {k: v for k, v in b.items() if v}
    acc = dict(a)
    vec_iadd(acc, b)
    keys = set(a) | set(b)
    for k in keys:
        expect = a.get(k, 0) + b.get(k, 0)
        assert acc.get(k, Fraction(0)) == expect
    assert all(v for v in acc.values())


def _rows_to_dicts(rows):
    return [{j: Fraction(x) for j, x in enumerate(r) if x} for r in rows]


ROWS = [
    [1, 2, 3, 0],
    [2, 4, 6, 0],
    [0, 1, 1, 1],
    [1, 0, 1, -2],
    [3, 3, 6, -3],
]


def test_echelon_rank_matches_oracle():
    ech = Echelon()
    rank = sum(1 for r in _rows_to_dicts(ROWS) if ech.add(dict(r)))
    assert rank == matrix_rank_oracle(ROWS)


def test_echelon_rank_invariant_under_permutation_and_scaling():
    base = _rows_to_dicts(ROWS)
    ech = Echelon()
    rank0 = sum(1 for r in base if ech.add(dict(r)))
    perm = [base[i] for i in (4, 2, 0, 3, 1)]
    scaled = [{k: 7 * v for k, v in r.items()} for r in perm]
    ech2 = Echelon()
    rank1 = sum(1 for r in scaled if ech2.add(dict(r)))
    assert rank0 == rank1


def test_echelon_reduce_idempotent_and_membership():
    ech = Echelon()
    for r in _rows_to_dicts(ROWS):
        ech.add(dict(r))
    for r in _rows_to_dicts(ROWS):
        assert not ech.reduce(dict(r))
    red = ech.reduce({0: Fraction(1), 3: Fraction(5)})
    assert ech.reduce(dict(red)) == red


def test_nullspace_dimension_and_membership():
    # the first two rows are proportional, the last is a combination
    images = _rows_to_dicts([[1, 2], [2, 4], [1, 1], [3, 5]])
    kers = nullspace(images)
    # 4 vectors into rank-2 image space: kernel dim 2
    assert len(kers) == 2
    for ker in kers:
        acc: dict = {}
        for j, c in ker.items():
            vec_iadd(acc, images[j], c)
        assert not acc


def test_rank_and_quotient_basis():
    ech = Echelon()
    for row in _rows_to_dicts(ROWS):
        ech.add(row)
    assert ech.rank == matrix_rank_oracle(ROWS)
    # each pivot sits on its own ambient key
    assert set(ech.pivots) <= set(range(4))


def test_span_coordinates_roundtrip():
    basis = _rows_to_dicts([[1, 0, 1], [0, 1, 1]])
    target: dict = {}
    vec_iadd(target, basis[0], Fraction(3))
    vec_iadd(target, basis[1], Fraction(-1, 2))
    sol = span_coordinates(basis, [target])[0]
    assert sol is not None
    recon: dict = {}
    for i, c in sol.items():
        vec_iadd(recon, basis[i], c)
    assert recon == target


def test_span_coordinates_detects_outside_vector():
    basis = _rows_to_dicts([[1, 0, 1]])
    assert span_coordinates(basis, [{0: Fraction(1)}]) == [None]
