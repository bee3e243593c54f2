"""Twisted Zhu algebras of free-fermion vertex operator superalgebras.

A twist context fixes a finite-order automorphism g acting diagonally on
a chosen generator basis, together with the parity automorphism sigma.
The bilinear products circ and star below are graded by the eigenvalues
of g*sigma; the span of all circ products is the ideal O_g whose
quotient A_g(V) = V/O_g is an associative algebra under star.

Dimensions are certified by squeezing: an upper bound from a
weight-truncated quotient of V, and a lower bound from the rank of the
zero-mode action on lowest-weight spaces of explicit twisted modules.
The two agree in every shipped configuration.  Each lead monomial m (a
structural test on its factors) has one relation R_m in O_g, led by m,
so the upper bound counts the monomials that are no lead; R_m itself is
generated only when a reduction reaches m.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

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
    weight <= max_weight, dim is an upper bound for the true dimension
    by construction, and high_covered reports whether every monomial in
    the guard band above max_weight is a lead, which is what makes the
    truncation argument close.  The leading coefficient of every counted
    lead that is not twist-odd is checked on the way (_check_lead).

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
        self._gen_mult = None
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

    def generator_multiplications(self) -> tuple:
        """Left and right multiplication by the generator classes.

        The generators are the unit and the weight-1/2 basis classes (the
        classes of the strong generators).  Returns (gens, left, right)
        with left[g][j] the coordinates of basis[g] * basis[j] and
        right[g][j] those of basis[j] * basis[g], from star_coords: 2
        products per generator and basis class, of weight at most
        max_weight + 1/2.  Raises RuntimeError unless L_g R_h = R_h L_g
        for every pair, which is associativity on the generators.
        """
        if self._gen_mult is None:
            n = self.dim
            gens = [i for i, m in enumerate(self.basis) if weight(m) <= HALF]
            left = {g: [self.star_coords(g, j) for j in range(n)]
                    for g in gens}
            right = {g: [self.star_coords(j, g) for j in range(n)]
                     for g in gens}
            for g in gens:
                for h in gens:
                    for j in range(n):
                        if (mat_apply(left[g], right[h][j])
                                != mat_apply(right[h], left[g][j])):
                            raise RuntimeError(
                                "left and right multiplications by "
                                "generator classes do not commute")
            self._gen_mult = gens, left, right
        return self._gen_mult

    def left_multiplications(self) -> list:
        """Left multiplication by every basis class, as sparse columns.

        mats[i][y] is the sparse column of coordinates of basis[i] *
        basis[y]: the algebra acting on itself, the regular seed of an
        induction.

        A breadth-first search over words in the weight-1/2 generator
        classes, starting from the unit, keeps each word whose coordinates
        are independent of the kept ones, with L_{g*w} = L_g L_w, and
        stops at rank dim; L_i is then the combination of kept L_w that
        gives basis[i].  This relies on the associativity of A_g(V) and on
        its generation by the classes of the strong generators
        (Dong-Li-Mason); the plain products of star_coords are the
        checked reference.  Raises ValueError if the words do not span.
        """
        if self._left is None:
            gens, left, _ = self.generator_multiplications()
            steps = [g for g in gens if weight(self.basis[g]) == HALF]
            unit = self.unit_coords()
            ech = Echelon()
            words = []  # (coordinates, left multiplication) of kept words
            if ech.add(unit):
                words.append((unit, mat_lincomb(left, unit, self.dim)))
            k = 0
            while k < len(words) and ech.rank < self.dim:
                coords, mat = words[k]
                k += 1
                for g in steps:
                    new = mat_apply(left[g], coords)
                    if ech.add(new):
                        words.append((new, [mat_apply(left[g], col)
                                               for col in mat]))
            if ech.rank < self.dim:
                raise ValueError("the generator classes do not span "
                                 "the truncation")
            units = [{i: Fraction(1)} for i in range(self.dim)]
            mats = [mat for _, mat in words]
            self._left = [
                mat_lincomb(mats, a, self.dim)
                for a in span_coordinates([c for c, _ in words], units)]
        return self._left


def center_basis(alg: ZhuAlgebra) -> list[dict]:
    """Basis of the (ungraded) center, as coordinate dicts.

    The center is the commutant of the generator classes: they generate
    the algebra (left_multiplications checks that their words span), and
    by associativity an element commuting with each of them commutes with
    their products.  The plain star_coords table is the checked
    reference for the derived products.
    """
    from .exact import nullspace

    alg.left_multiplications()
    gens, left, right = alg.generator_multiplications()
    images = []
    for j in range(alg.dim):
        img: dict = {}
        for g in gens:
            vec_iadd(img, {(g, t): c for t, c in left[g][j].items()})
            vec_iadd(img, {(g, t): c for t, c in right[g][j].items()},
                     Fraction(-1))
        images.append(img)
    return nullspace(images)


def trace_form_radical_dim(alg: ZhuAlgebra) -> int:
    """Dimension of the radical of the trace form tr(L_a L_b).

    For a finite-dimensional associative algebra in characteristic zero
    this equals the dimension of the Jacobson radical.  The form is
    tr(L_i L_j) = sum c_ik^t c_jt^k over the sparse structure constants
    of left_multiplications, which are derived from the generator
    products by associativity; the plain star_coords table is the checked
    reference.
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
    """Semisimple structure of the algebra: matrix block sizes.

    Over C a semisimple A of dimension n is a sum of blocks M_{s_j}, and
    its central idempotents e_j span the center Z.  The two trace forms
    T_A(x, y) = tr_A(L_{xy}) and T_Z(x, y) = tr_Z(xy) on Z are diag(s_j^2)
    and the identity in the e_j basis, since L_{e_j} projects A onto its
    block of dimension s_j^2 and Z onto the line of e_j.  So the number
    of blocks of size s is dim ker(T_A - s^2 T_Z).  Both forms have
    rational entries on the rational center basis of center_basis, so
    that kernel is computed over Q and has the same dimension over C,
    even when the e_j are not rational.  Everything is exact rational
    arithmetic on left_multiplications, whose products rely on the
    associativity of A_g(V); the plain star_coords table is the checked
    reference.

    Blocks are read off only for a semisimple algebra: with a nonzero
    radical, blocks is None.  A zero radical makes the center semisimple,
    so a degenerate T_Z and block sizes that do not add up to the center
    and the dimension are consistency failures (RuntimeError).
    """
    from .exact import nullspace

    rad = trace_form_radical_dim(alg)
    zc = center_basis(alg)
    if rad:
        return {"center_dim": len(zc), "radical_dim": rad, "blocks": None}
    left = alg.left_multiplications()
    n, k = alg.dim, len(zc)
    # consts[i][j] = coordinates of zc[i] * zc[j] on the center basis
    lzc = [mat_lincomb(left, z, n) for z in zc]
    prods = span_coordinates(zc, [mat_apply(lz, z) for lz in lzc for z in zc])
    consts = [prods[i * k:(i + 1) * k] for i in range(k)]
    traces = [sum((col.get(j, 0) for j, col in enumerate(mat)), Fraction(0))
              for mat in left]
    # the linear forms t_A(x) = tr_A(L_x) and t_Z(x) = tr_Z(x) on zc
    t_a = [sum((traces[t] * x for t, x in z.items()), Fraction(0))
           for z in zc]
    t_z = [sum((consts[m][i].get(i, 0) for i in range(k)), Fraction(0))
           for m in range(k)]

    def form(t):
        # columns of the bilinear form (x, y) -> t(xy) on the center basis
        return [{i: v for i in range(k)
                 if (v := sum((c * t[m] for m, c in consts[i][j].items()),
                              Fraction(0)))}
                for j in range(k)]

    form_a, form_z = form(t_a), form(t_z)
    if nullspace(form_z):
        raise RuntimeError("center is not semisimple")
    blocks = []
    for s in range(isqrt(n), 0, -1):
        diff = [vec_iadd(dict(a), z, Fraction(-s * s))
                for a, z in zip(form_a, form_z)]
        blocks += [s] * len(nullspace(diff))
    if len(blocks) != k or sum(s * s for s in blocks) != n:
        raise RuntimeError("block sizes do not match the center")
    return {"center_dim": k, "radical_dim": 0, "blocks": blocks}
