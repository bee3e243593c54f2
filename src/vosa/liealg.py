"""The graded Lie superalgebra of twisted mode symbols.

A mode symbol is a pair (state, index) with the index constrained to the
state's twist coset; its degree is wt - index - 1.  The bracket mirrors
the commutator of the corresponding operators, so equality of abstract
expressions is always certified by acting on twisted modules rather than
by materializing the quotient that defines the algebra.  Degree-zero
symbols close under the bracket and map onto the twisted Zhu algebra.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import vec_iadd
from .fock import State, state_weight
from .fields import mode, residue_terms, state_parity

# a symbol combination is a dict {(index, mono): Fraction}; each key is
# one basis mode symbol (monomial, index), grouped sparsely


def symbol(st: State, index) -> dict:
    """The mode symbol of a homogeneous state at an allowed index."""
    index = Fraction(index)
    if state_weight(st) is None:
        raise ValueError("mode symbols need weight-homogeneous states")
    return {(index, m): c for m, c in st.items() if c}


def bracket(sector, x: dict, y: dict) -> dict:
    """The super-commutator of two symbol combinations.

    [a(q), b(p)] = sum_i binom(q, i) (a_i b)(q + p - i), the commutator
    formula read off fields.residue_terms; the sum is finite because
    products above weight wt a + wt b - 1 vanish.
    """
    out: dict = {}
    for (q, am), ca in x.items():
        for (p, bm), cb in y.items():
            for i, c, prod in residue_terms(sector, {am: Fraction(1)}, q, 0,
                                            {bm: Fraction(1)}):
                vec_iadd(out, {(q + p - i, m2): c2
                               for m2, c2 in prod.items()}, ca * cb * c)
    return out


def act(space, sym: dict, w: State) -> State:
    """A symbol combination acting on a module state."""
    out: State = {}
    for (q, m), c in sym.items():
        vec_iadd(out, mode(space, {m: Fraction(1)}, q, w,
                           check_index=False), c)
    return out


def degree_zero_symbol(st: State) -> dict:
    """o(a) = a(wt a - 1), the degree-preserving symbol of a state."""
    return symbol(st, state_weight(st) - 1)


def symbol_parity(sym: dict) -> int:
    ps = {state_parity({m: Fraction(1)}) for _, m in sym}
    if len(ps) != 1:
        raise ValueError("symbol combination of mixed parity")
    return ps.pop()


def verify_jacobi(sector, space, x: dict, y: dict, z: dict,
                  targets) -> dict:
    """Graded Jacobi identity, certified by action on module states.

    [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]] applied to each
    target state must vanish identically.
    """
    px, py = symbol_parity(x), symbol_parity(y)
    sgn = -1 if px and py else 1
    lhs_sym = bracket(sector, x, bracket(sector, y, z))
    rhs1 = bracket(sector, bracket(sector, x, y), z)
    rhs2 = bracket(sector, y, bracket(sector, x, z))
    checked = 0
    for w in targets:
        res = act(space, lhs_sym, w)
        vec_iadd(res, act(space, rhs1, w), Fraction(-1))
        vec_iadd(res, act(space, rhs2, w), Fraction(-sgn))
        if res:
            return {"ok": False, "checked": checked}
        checked += 1
    return {"ok": True, "checked": checked}


def verify_hom_to_zhu(alg) -> dict:
    """The degree-zero part maps onto the Zhu algebra as a superalgebra.

    For every pair of basis classes the bracket of zero-mode symbols,
    re-expressed through o, must agree with the star super-commutator;
    surjectivity holds because every basis class is o of its monomial.
    """
    from .zhu import _mono_state

    ctx = alg.ctx
    sector = ctx.sector
    for i in range(alg.dim):
        for j in range(alg.dim):
            a = _mono_state(alg.basis[i])
            b = _mono_state(alg.basis[j])
            br = bracket(sector, degree_zero_symbol(a), degree_zero_symbol(b))
            # each bracket term c(q) has q = wt c - 1, so it is o(c);
            # collect the underlying states and reduce
            st: State = {}
            for (q, m), c in br.items():
                if q != state_weight({m: Fraction(1)}) - 1:
                    return {"ok": False, "failure": "bracket leaves degree 0"}
                vec_iadd(st, {m: c})
            lhs = alg.reduce(st)
            pa = state_parity(a)
            pb = state_parity(b)
            sgn = -1 if pa and pb else 1
            rhs = dict(alg.star_coords(i, j))
            vec_iadd(rhs, alg.star_coords(j, i), Fraction(-sgn))
            vec_iadd(lhs, rhs, Fraction(-1))
            if lhs:
                return {"ok": False, "failure": f"pair {i},{j}"}
    return {"ok": True, "pairs": alg.dim * alg.dim, "surjective": True}
