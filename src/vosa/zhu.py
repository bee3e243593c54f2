"""Twisted Zhu algebras of free-fermion vertex operator superalgebras.

A twist context fixes a finite-order automorphism g acting diagonally on
a chosen generator basis, together with the parity automorphism sigma.
The bilinear products circ and star below are graded by the eigenvalues
of g*sigma; the span of all circ products is the ideal O_g whose
quotient A_g(V) = V/O_g is an associative algebra under star.

Dimensions are certified by squeezing: an upper bound from a
weight-truncated quotient of V, once its basis is stable, and a lower
bound from the matrix algebra that the zero modes of the generator
classes generate on the lowest-weight space of the canonical twisted
module.  The two agree in every shipped configuration.  Each lead
monomial m (a structural test on its factors) has one relation R_m in
O_g, led by m, so the upper bound counts the monomials that are no lead;
R_m itself is generated only when a reduction reaches m.

A product with a generator class on the left needs one-factor modes
only; ZhuAlgebra.left_multiplications derives every other left
multiplication from these along words in the generators, and the plain
star table is its tested reference.

The matrix blocks are read off the Clifford presentation (block_profile):
when the anticommutators of the k weight-1/2 classes are scalars forming
a nondegenerate form G, the subalgebra those classes generate is a
nonzero quotient of Cl(k, G).  For odd k the chirality element tells
which one; a quotient of the algebra's dimension is all of it, and a
truncation that matches no quotient raises ValueError.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import (Echelon, mat_apply, mat_lincomb, span_coordinates,
                    vec_iadd)
from .fock import (
    Monomial,
    Sector,
    State,
    graded_key,
    ns_polarized,
    weight,
)
from .fields import HALF, mode_mono, residue_terms


class TwistContext:
    """A finite-order automorphism g diagonal on the sector's generators.

    support[gid] is the fractional part of the generator's mode labels on
    g-twisted modules, in [0, 1): g acts on the generator by
    exp(2*pi*i*(support[gid] - 1/2)) and g*sigma by
    exp(2*pi*i*support[gid]).  Monomial exponents add, and all Zhu-side
    data (delta, the binomial exponents, the module mode cosets) derive
    from support.  g must preserve the pairing: support[i] + support[j]
    is an integer for every paired (i, j), otherwise ValueError.

    star and circ are residue sums sum_s binom(alpha, s) u_{s-k} v with
    products taken in the sector itself; fields.residue_terms expands
    them.
    """

    def __init__(self, name: str, sector: Sector, support: dict):
        self.name = name
        self.sector = sector
        self.support = {g: Fraction(support[g]) % 1 for g in sector.gids}
        for i, j in sector.pairing:
            if (self.support[i] + self.support[j]).denominator != 1:
                raise ValueError("the twist does not preserve the pairing")

    def rstar(self, mono: Monomial) -> Fraction:
        """The g*sigma exponent of a monomial, in [0, 1)."""
        return sum((self.support[a] for _, a in mono), Fraction(0)) % 1

    def delta(self, mono: Monomial) -> int:
        return 1 if self.rstar(mono) == 0 else 0

    # perfbench/workloads.py reads the module supports through this
    def module_support(self, gid: int) -> Fraction:
        """Fractional part of the twisted-module mode labels of a generator."""
        return self.support[gid]

    def _homogeneous(self, u: State):
        ws = {weight(m) for m in u}
        rs = {self.rstar(m) for m in u}
        if len(ws) != 1 or len(rs) != 1:
            raise ValueError("state must be weight- and twist-homogeneous")
        return ws.pop(), rs.pop()

    def _residue_sum(self, u: State, v: State, alpha, k: int) -> State:
        """sum_s binom(alpha, s) u_{s-k} v (fields.residue_terms)."""
        out: State = {}
        for _, c, prod in residue_terms(self.sector, u, alpha, k, v):
            vec_iadd(out, prod, c)
        return out

    def circ(self, u: State, v: State) -> State:
        """The product whose span is the ideal O_g: the residue sum with
        alpha = wt u - 1 + delta + r* and k = delta + 1."""
        wu, rs = self._homogeneous(u)
        d = 1 if rs == 0 else 0
        return self._residue_sum(u, v, wu - 1 + d + rs, d + 1)

    def star(self, u: State, v: State) -> State:
        """The product inducing the associative multiplication on A_g."""
        wu, rs = self._homogeneous(u)
        if rs != 0:
            return {}
        return self._residue_sum(u, v, wu, 1)


def ctx_sigma(l: int) -> TwistContext:
    """g = sigma itself: g*sigma = 1, so the whole algebra is untwisted
    for the star grading while modules live on integer mode labels."""
    sector = ns_polarized(l)
    return TwistContext("sigma", sector, dict.fromkeys(sector.gids, 0))


def ctx_identity(l: int) -> TwistContext:
    """g = 1: the parity automorphism alone grades the Zhu products."""
    sector = ns_polarized(l)
    return TwistContext("id", sector, dict.fromkeys(sector.gids, HALF))


def ctx_tau() -> TwistContext:
    """An order-2 twist of the two-generator algebra swapping the
    polarized pair up to sign; the eigenbasis keeps everything rational:
    one self-paired generator of square norm 2 and one of square norm -2.
    """
    sector = Sector(["u", "v"], {(0, 0): Fraction(2), (1, 1): Fraction(-2)},
                    {0: HALF, 1: HALF})
    return TwistContext("tau", sector, {0: 0, 1: HALF})


def _mono_state(m: Monomial) -> State:
    return {m: Fraction(1)}


def _generator_split(ctx: TwistContext, m: Monomial):
    """(u, v) for the first factor (mu, a) of m with q = mu + delta(a) <=
    -1/2: u = ((q, a),) is a generator mode and v the rest of m.  None if
    m has no such factor."""
    for i, (mu, a) in enumerate(m):
        q = mu + ctx.delta(((mu, a),))
        if q <= -HALF:
            return ((q, a),), m[:i] + m[i + 1:]
    return None


def _no_lead(m: Monomial) -> RuntimeError:
    labels = ", ".join(f"({nu}, {b})" for nu, b in m)
    return RuntimeError(f"the O_g relation for ({labels}) does not lead "
                        "with it")


def _check_lead(ctx: TwistContext, m: Monomial, u: Monomial,
                v: Monomial) -> None:
    """The lead of R_m = u circ v without generating it.

    The i = 0 term u_{-delta-1} v of the residue sum is the only one of
    m's weight (the term i has weight wt m - i), so R_m leads with m
    exactly when that term is a nonzero multiple of m alone; analytically
    it is +-C(p + delta, p) m with p = -q - 1/2.  RuntimeError otherwise.
    """
    top = mode_mono(ctx.sector, u, -1 - ctx.delta(u), v)
    if top.keys() != {m}:
        raise _no_lead(m)


def o_relations(ctx: TwistContext, monomials):
    """The relation R_m of O_g for each lead m among monomials, in order;
    a free monomial yields nothing.

    A twist-odd m lies in O_g and is its own relation.  Otherwise
    _generator_split gives the generator mode u and the rest v of m, and
    R_m = u circ v; RuntimeError unless m is its lead (under graded_key)
    with a nonzero coefficient.  Distinct leads make the relations
    independent.  Any subset of O_g gives an upper bound that the
    certification squeeze still has to meet, and reducing modulo its
    span either returns the true class or raises because the class
    escapes the truncation.
    """
    for m in monomials:
        if ctx.rstar(m) != 0:
            yield _mono_state(m)
            continue
        split = _generator_split(ctx, m)
        if split is None:
            continue
        rel = ctx.circ(*map(_mono_state, split))
        if not rel.get(m) or max(rel, key=graded_key) != m:
            raise _no_lead(m)
        yield rel


class ZhuAlgebra:
    """Exact model of A_g(V) as a weight-truncated quotient by O_g.

    A monomial m is a lead when it is twist-odd or has a factor (mu, a)
    with mu + delta(a) <= -1/2; the others are free.  Every lead has one
    relation R_m of o_relations, led by m, so the quotient by all of
    them is spanned by the free monomials and its dimension is a count.
    The build classifies the monomials up to max_weight + max(margin,
    1/2) and generates no relation: basis holds the free monomials of
    weight <= max_weight, and high_covered reports whether every
    monomial in the guard band above max_weight is a lead, which is what
    makes the truncation argument close.  dim bounds dim A_g(V) from
    above only once the basis is stable and the guard band is covered;
    below that a free monomial of higher weight can still be a new class
    (sigma3 counts 7 at cutoff 1 against a true dimension of 8).  The
    leading coefficient of every counted lead that is not twist-odd is
    checked on the way (_check_lead).

    reduce generates R_m when a reduction first reaches a lead m and adds
    it to ech as the pivot of m, so ech.pivots holds exactly the
    relations generated so far.  The pivots are the leads either way, so
    the normal forms are those of the echelon of every relation.  Tables
    of structure constants are computed on demand.
    """

    def __init__(self, ctx: TwistContext, max_weight, margin=Fraction(1)):
        self.ctx = ctx
        self.max_weight = Fraction(max_weight)
        self.margin = Fraction(margin)
        self.ech = Echelon()
        self._covered = Fraction(-1)
        self._free = []
        self._extend(self.max_weight + max(self.margin, HALF))
        self.basis = self.free_monomials(self.max_weight)
        guarded = self.free_monomials(self.max_weight + self.margin)
        self.high_covered = guarded == self.basis
        self.dim = len(self.basis)
        self._index = {m: i for i, m in enumerate(self.basis)}
        self._table = {}
        self._left = None

    def free_monomials(self, w) -> list:
        """The free monomials of weight <= w, in graded order."""
        self._extend(w)
        return [m for m in self._free if weight(m) <= w]

    def _extend(self, w_amb) -> None:
        """Classify the monomials of weight in (_covered, w_amb]: the free
        ones join _free, and each lead that is not twist-odd has its
        leading coefficient checked."""
        if w_amb <= self._covered:
            return
        ctx = self.ctx
        for m in ctx.sector.basis(w_amb):
            if weight(m) <= self._covered or ctx.rstar(m) != 0:
                continue
            split = _generator_split(ctx, m)
            if split is None:
                self._free.append(m)
            else:
                _check_lead(ctx, m, *split)
        self._covered = w_amb

    def _relation(self, key) -> dict:
        """R_m keyed for the echelon, for m = key[1]; {} if m is free."""
        if key[1] in self._index:
            return {}
        for rel in o_relations(self.ctx, [key[1]]):
            return {graded_key(m): c for m, c in rel.items()}
        return {}

    def reduce(self, st: State):
        """Coordinates of a state's class in the basis, generating the
        relations of the leads the reduction reaches."""
        red = self.ech.reduce({graded_key(m): c for m, c in st.items()},
                              self._relation)
        out = {}
        for (w, m), c in red.items():
            if m not in self._index:
                labels = ", ".join(f"({q}, {a})" for q, a in m)
                raise ValueError(
                    f"class escapes the truncation at ({labels})")
            out[self._index[m]] = c
        return out

    def star_coords(self, i: int, j: int) -> dict:
        key = (i, j)
        if key not in self._table:
            prod = self.ctx.star(_mono_state(self.basis[i]),
                                 _mono_state(self.basis[j]))
            self._table[key] = self.reduce(prod)
        return self._table[key]

    def unit_coords(self) -> dict:
        return self.reduce({(): Fraction(1)})

    def product(self, x: dict, y: dict) -> dict:
        """Coordinates of x * y for coordinate dicts x and y: the plain
        star_coords table, the checked reference, extended bilinearly."""
        out: dict = {}
        for i, a in x.items():
            for j, b in y.items():
                vec_iadd(out, self.star_coords(i, j), a * b)
        return out

    def check_associative(self) -> bool:
        """(e_i * e_j) * e_k = e_i * (e_j * e_k) for all basis triples."""
        n = self.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if (self.product(self.star_coords(i, j), {k: 1})
                            != self.product({i: 1}, self.star_coords(j, k))):
                        return False
        return True

    def left_multiplications(self) -> list:
        """Left multiplication by every basis class, as sparse columns.

        mats[i][y] is the sparse column of coordinates of basis[i] *
        basis[y]: the algebra acting on itself, the regular seed of an
        induction.

        Left multiplication by a weight-1/2 generator class g is the
        plain star_coords row of g.  A breadth-first search over words in
        these classes, starting from the unit, which acts as the
        identity, keeps each word whose coordinates are independent of the
        kept ones, with L_{g*w} = L_g L_w, and stops at rank dim; L_i is
        then the combination of kept L_w that gives basis[i].  This relies
        on the associativity of A_g(V) and on its generation by the classes
        of the strong generators (Dong-Li-Mason); the tests compare the
        derived table with the plain star_coords table.  Raises ValueError
        if the words do not span.
        """
        if self._left is None:
            n = self.dim
            steps = [i for i, m in enumerate(self.basis) if weight(m) == HALF]
            left = {g: [self.star_coords(g, j) for j in range(n)]
                    for g in steps}
            unit = self.unit_coords()
            ech = Echelon()
            ech.add(unit)
            # (coordinates, left multiplication) of kept words
            words = [(unit, [{j: Fraction(1)} for j in range(n)])]
            k = 0
            while k < len(words) and ech.rank < n:
                coords, mat = words[k]
                k += 1
                for g in steps:
                    new = mat_apply(left[g], coords)
                    if ech.add(new):
                        words.append((new, [mat_apply(left[g], col)
                                               for col in mat]))
            if ech.rank < n:
                raise ValueError("the generator classes do not span "
                                 "the truncation")
            units = [{i: Fraction(1)} for i in range(n)]
            mats = [mat for _, mat in words]
            self._left = [
                mat_lincomb(mats, a, n)
                for a in span_coordinates([c for c, _ in words], units)]
        return self._left


# center_basis and trace_form_radical_dim feed the generic block count
# that block_profile is tested against; perfbench/spans.py wraps both
def center_basis(alg: ZhuAlgebra) -> list[dict]:
    """Basis of the (ungraded) center, as coordinate dicts: the x with
    basis[i] * x = x * basis[i] for every i, read off the one table of
    left_multiplications, where basis[j] * basis[i] is column i of L_j.
    """
    from .exact import nullspace

    left = alg.left_multiplications()
    images = []
    for j in range(alg.dim):
        img: dict = {}
        for i, mat in enumerate(left):
            vec_iadd(img, {(i, t): c for t, c in mat[j].items()})
            vec_iadd(img, {(i, t): c for t, c in left[j][i].items()},
                     Fraction(-1))
        images.append(img)
    return nullspace(images)


def trace_form_radical_dim(alg: ZhuAlgebra) -> int:
    """Dimension of the radical of the trace form tr(L_a L_b).

    For a finite-dimensional associative algebra in characteristic zero
    this equals the dimension of the Jacobson radical.  The form is
    tr(L_i L_j) = sum c_ik^t c_jt^k over the sparse structure constants
    of left_multiplications.
    """
    from .exact import nullspace

    n = alg.dim
    consts = [{(k, t): c for k, col in enumerate(mat) for t, c in col.items()}
              for mat in alg.left_multiplications()]
    rows = [{} for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            cj = consts[j]
            tr = sum((c * cj[(t, k)] for (k, t), c in consts[i].items()
                      if (t, k) in cj), Fraction(0))
            if tr:
                rows[i][j] = rows[j][i] = tr
    return len(nullspace(rows))


def block_profile(alg: ZhuAlgebra) -> dict:
    """Semisimple structure of the algebra: matrix block sizes, read off
    its Clifford presentation.

    The anticommutators g_a * g_b + g_b * g_a of the k weight-1/2 basis
    classes g_a must be scalars G_ab times the unit, and G must be
    nondegenerate.  Then the subalgebra the g_a generate is a nonzero
    quotient of the Clifford algebra Cl(k, G).  Over C that algebra is
    simple of dimension 2^k for even k, so the subalgebra is all of it;
    for odd k it is the sum of two simple halves of dimension 2^(k-1),
    and the chirality element gamma = f_1 * ... * f_k of a G-orthogonal
    basis f_i of the generator span tells which quotient the subalgebra
    is: gamma is central and no scalar in Cl(k, G), and a nonzero scalar
    in either half.  A subalgebra of the algebra's dimension is the whole
    algebra, so:

    - even k and dim 2^k: one block of size 2^(k/2);
    - odd k, gamma no scalar and dim 2^k: two blocks of size 2^((k-1)/2);
    - odd k, gamma a nonzero scalar and dim 2^(k-1): one such block.

    The radical is 0 in each case.  Anything else (an anticommutator
    that is no scalar, a degenerate G, a dimension or a gamma that
    matches no case) raises ValueError, as does a product whose class
    escapes the truncation.  The products are k^2 star products of
    weight <= 1 and the k left multiplications that build gamma; the
    plain star_coords table is the reference for both, and the generic
    Wedderburn count over the full multiplication tables is the tested
    oracle.
    """
    from .exact import nullspace

    gens = [i for i, m in enumerate(alg.basis) if weight(m) == HALF]
    k, n = len(gens), alg.dim
    unit = alg.unit_coords()  # {u: 1}: the empty monomial is free
    (u,) = unit
    gram = [{} for _ in gens]
    for a, ga in enumerate(gens):
        for b in range(a, k):
            anti = vec_iadd(dict(alg.star_coords(ga, gens[b])),
                            alg.star_coords(gens[b], ga))
            if not anti.keys() <= unit.keys():
                raise ValueError("an anticommutator of generator classes "
                                 "is not a scalar")
            if anti:
                gram[a][b] = gram[b][a] = anti[u]
    if nullspace(gram):
        raise ValueError("the generator classes have a degenerate "
                         "anticommutator form")
    if k % 2 == 0:
        if n != 2 ** k:
            raise ValueError(f"dimension {n} is not that of the Clifford "
                             f"algebra on {k} generators")
        return {"center_dim": 1, "radical_dim": 0, "blocks": [2 ** (k // 2)]}
    gamma = unit
    for f in reversed(_orthogonal_basis(gram)):
        gamma = alg.product({gens[a]: c for a, c in f.items()}, gamma)
    if gamma.keys() - unit.keys() and n == 2 ** k:
        return {"center_dim": 2, "radical_dim": 0,
                "blocks": [2 ** (k // 2)] * 2}
    if gamma.keys() == unit.keys() and n == 2 ** (k - 1):
        return {"center_dim": 1, "radical_dim": 0, "blocks": [2 ** (k // 2)]}
    raise ValueError(f"dimension {n} and the chirality element match no "
                     f"quotient of the Clifford algebra on {k} generators")


def _orthogonal_basis(gram: list) -> list:
    """A basis of Q^k orthogonal for the nondegenerate symmetric form
    gram, as sparse vectors, by Gram-Schmidt.  An isotropic vector is
    replaced by its sum with a vector it pairs with, which is not
    isotropic in characteristic 0 (a polarized pair b, B is isotropic)."""
    def form(x, y):
        return sum((c * d * gram[a].get(b, 0) for a, c in x.items()
                    for b, d in y.items()), Fraction(0))

    rest = [{a: Fraction(1)} for a in range(len(gram))]
    out = []
    while rest:
        i = next((i for i, x in enumerate(rest) if form(x, x)), None)
        if i is None:
            i, j = next((i, j) for i, x in enumerate(rest)
                        for j in range(i + 1, len(rest)) if form(x, rest[j]))
            rest[i] = vec_iadd(dict(rest[i]), rest[j])
        f = rest.pop(i)
        nf = form(f, f)
        rest = [vec_iadd(dict(x), f, -form(x, f) / nf) for x in rest]
        out.append(f)
    return out
