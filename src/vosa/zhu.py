"""Twisted Zhu algebras of free-fermion vertex operator superalgebras.

A twist context fixes a finite-order automorphism g acting diagonally on
a chosen generator basis, together with the parity automorphism sigma.
The bilinear products circ and star below are graded by the eigenvalues
of g*sigma; the span of all circ products is the ideal O_g whose
quotient A_g(V) = V/O_g is an associative algebra under star.

Dimensions are certified by squeezing: an upper bound from an exact
echelon quotient of a weight-truncated piece of V, and a lower bound
from the rank of the zero-mode action on lowest-weight spaces of
explicit twisted modules.  The two agree in every shipped configuration.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import Echelon, gen_binomial, vec_iadd
from .fock import (
    Monomial,
    Sector,
    State,
    graded_key,
    ns_polarized,
    weight,
)
from .fields import mode

HALF = Fraction(1, 2)


class TwistContext:
    """An order-T0 automorphism g diagonal on the sector's generators.

    g_exp[gid] is the exponent r with g acting by exp(2*pi*i*r/T0) on the
    generator; gs_exp[gid] likewise for g*sigma with order T.  Monomial
    exponents add.  All Zhu-side data (delta, binomial exponents, the
    allowed module mode cosets) derive from these.
    """

    def __init__(self, name: str, sector: Sector, T0: int, T: int,
                 g_exp: dict, gs_exp: dict):
        self.name = name
        self.sector = sector
        self.T0 = T0
        self.T = T
        self.g_exp = dict(g_exp)
        self.gs_exp = dict(gs_exp)
        for g in sector.gids:
            want = (Fraction(self.g_exp[g], T0) + HALF) % 1
            have = Fraction(self.gs_exp[g], T) % 1
            if want != have:
                raise ValueError("g and g*sigma exponents disagree")

    def rstar(self, mono: Monomial) -> int:
        return sum(self.gs_exp[a] for _, a in mono) % self.T

    def r(self, mono: Monomial) -> int:
        return sum(self.g_exp[a] for _, a in mono) % self.T0

    def delta(self, mono: Monomial) -> int:
        return 1 if self.rstar(mono) == 0 else 0

    def module_support(self, gid: int) -> Fraction:
        """Fractional part of the twisted-module mode labels of a generator."""
        return (Fraction(self.g_exp[gid], self.T0) + HALF) % 1

    def _homogeneous(self, u: State):
        ws = {weight(m) for m in u}
        rs = {self.rstar(m) for m in u}
        if len(ws) != 1 or len(rs) != 1:
            raise ValueError("state must be weight- and twist-homogeneous")
        return ws.pop(), rs.pop()

    def circ(self, u: State, v: State) -> State:
        """The product whose span is the ideal O_g."""
        wu, rs = self._homogeneous(u)
        d = 1 if rs == 0 else 0
        alpha = wu - 1 + d + Fraction(rs, self.T)
        wv = max((weight(m) for m in v), default=Fraction(0))
        out: State = {}
        s = 0
        while s - 1 - d <= wu + wv - 1:
            c = gen_binomial(alpha, s)
            if c:
                vec_iadd(out, mode(self.sector, u, s - 1 - d, v), c)
            s += 1
        return out

    def star(self, u: State, v: State) -> State:
        """The product inducing the associative multiplication on A_g."""
        wu, rs = self._homogeneous(u)
        if rs != 0:
            return {}
        wv = max((weight(m) for m in v), default=Fraction(0))
        out: State = {}
        i = 0
        while i - 1 <= wu + wv - 1:
            c = gen_binomial(wu, i)
            if c:
                vec_iadd(out, mode(self.sector, u, i - 1, v), c)
            i += 1
        return out

    def reduction_family(self, u: State, v: State, m: int, n: int) -> State:
        """Members of O_g indexed by m >= n >= 0; (0, 0) recovers circ."""
        if not m >= n >= 0:
            raise ValueError("need m >= n >= 0")
        wu, rs = self._homogeneous(u)
        d = 1 if rs == 0 else 0
        alpha = wu - 1 + d + Fraction(rs, self.T) + n
        wv = max((weight(m2) for m2 in v), default=Fraction(0))
        out: State = {}
        s = 0
        while s - m - d - 1 <= wu + wv - 1:
            c = gen_binomial(alpha, s)
            if c:
                vec_iadd(out, mode(self.sector, u, s - m - d - 1, v), c)
            s += 1
        return out


def ctx_sigma(l: int) -> TwistContext:
    """g = sigma itself: g*sigma = 1, so the whole algebra is untwisted
    for the star grading while modules live on integer mode labels."""
    sector = ns_polarized(l)
    g = {i: 1 for i in sector.gids}
    gs = {i: 0 for i in sector.gids}
    return TwistContext("sigma", sector, 2, 1, g, gs)


def ctx_identity(l: int) -> TwistContext:
    """g = 1: the parity automorphism alone grades the Zhu products."""
    sector = ns_polarized(l)
    g = {i: 0 for i in sector.gids}
    gs = {i: 1 for i in sector.gids}
    return TwistContext("id", sector, 1, 2, g, gs)


def ctx_tau() -> TwistContext:
    """An order-2 twist of the two-generator algebra swapping the
    polarized pair up to sign; the eigenbasis keeps everything rational:
    one self-paired generator of square norm 2 and one of square norm -2.
    """
    sector = Sector(["u", "v"], {(0, 0): Fraction(2), (1, 1): Fraction(-2)},
                    {0: HALF, 1: HALF})
    return TwistContext("tau", sector, 2, 2, {0: 1, 1: 0}, {0: 0, 1: 1})


def _mono_state(m: Monomial) -> State:
    return {m: Fraction(1)}


def o_relations(ctx: TwistContext, w_ambient, depth: int = 1,
                w_skip=Fraction(-1)):
    """Generate members of O_g supported inside weight <= w_ambient.

    Yields the (m, n) reduction-family vectors up to the given extra
    depth (circ products are (0, 0)), plus the twist-odd monomials, which
    lie in O_g outright.  Relations are generator-first: the first
    argument u runs over the single-factor monomials (generator modes of
    any weight) and only v runs over the whole basis, because the classes
    of the strong generators generate A_g(V) and O_g is reached through
    relations whose first argument is a generator.  This is sound without
    that theorem: any subset of O_g gives an upper bound that the
    certification squeeze still has to meet, and reducing modulo a
    sub-span either returns the true class or raises because the class
    escapes the truncation.

    Every vector is complete (never truncated), so the span is a genuine
    subspace of O_g.  Vectors whose top weight is at most w_skip are
    omitted (they were generated by an earlier pass).
    """
    basis = ctx.sector.basis(w_ambient)
    for mono in basis:
        if mono and ctx.rstar(mono) != 0 and weight(mono) > w_skip:
            yield _mono_state(mono)
    for u in basis:
        if len(u) != 1:
            continue
        wu = weight(u)
        du = ctx.delta(u)
        for v in basis:
            top = wu + weight(v) + du
            for m in range(depth + 1):
                for n in range(m + 1):
                    if w_skip < top + m <= w_ambient:
                        yield ctx.reduction_family(
                            _mono_state(u), _mono_state(v), m, n)


class ZhuAlgebra:
    """Exact model of A_g(V) from a weight-truncated echelon quotient.

    basis holds the surviving monomials of weight <= max_weight; tables
    of structure constants are computed on demand.  dim is an upper
    bound for the true dimension by construction; high_covered reports
    whether every monomial in the guard band above max_weight reduces,
    which is what makes the truncation argument close.
    """

    def __init__(self, ctx: TwistContext, max_weight, margin=Fraction(1),
                 depth: int = 1, *, _below: ZhuAlgebra | None = None):
        self.ctx = ctx
        self.max_weight = Fraction(max_weight)
        self.margin = Fraction(margin)
        self.depth = depth
        w_amb = self.max_weight + self.margin
        self.ech = Echelon()
        self._covered = Fraction(-1)
        if _below is not None:
            # stabilized(): start from a freshly built lower cutoff of the
            # same context; echelon rows are never mutated once stored,
            # so the two algebras can share them
            self.ech.pivots = dict(_below.ech.pivots)
            self._covered = _below._covered
        self._extend(w_amb)
        ambient = ctx.sector.basis(w_amb)
        free = [m for m in ambient if graded_key(m) not in self.ech.pivots]
        self.basis = [m for m in free if weight(m) <= self.max_weight]
        self.high_covered = len(free) == len(self.basis)
        self.dim = len(self.basis)
        self._index = {m: i for i, m in enumerate(self.basis)}
        self._table = {}

    def _extend(self, w_amb) -> None:
        """Grow the relation span to cover monomials of weight <= w_amb."""
        if w_amb <= self._covered:
            return
        for rel in o_relations(self.ctx, w_amb, self.depth, self._covered):
            if rel:
                self.ech.add({graded_key(m): c for m, c in rel.items()})
        self._covered = w_amb
        if getattr(self, "basis", None) is not None:
            for m in self.ctx.sector.basis(self.max_weight):
                survives = graded_key(m) not in self.ech.pivots
                if survives != (m in self._index):
                    raise AssertionError(
                        "relation span changed below the cutoff; "
                        "rebuild with a larger max_weight")

    def reduce(self, st: State):
        """Coordinates of a state's class in the surviving-monomial basis."""
        if st:
            self._extend(max(weight(m) for m in st))
        red = self.ech.reduce({graded_key(m): c for m, c in st.items()})
        out = {}
        for (w, m), c in red.items():
            if m not in self._index:
                raise ValueError(f"class escapes the truncation at {m}")
            out[self._index[m]] = c
        return out

    def star_coords(self, i: int, j: int) -> dict:
        key = (i, j)
        if key not in self._table:
            prod = self.ctx.star(_mono_state(self.basis[i]),
                                 _mono_state(self.basis[j]))
            self._table[key] = self.reduce(prod)
        return self._table[key]

    def multiplication_matrix(self, coords: dict):
        """Left multiplication by sum coords[i] basis[i], as dense rows."""
        n = self.dim
        mat = [[Fraction(0)] * n for _ in range(n)]
        for j in range(n):
            col = {}
            for i, c in coords.items():
                if c:
                    vec_iadd(col, self.star_coords(i, j), c)
            for i, c in col.items():
                mat[i][j] = c
        return mat

    def unit_coords(self) -> dict:
        return self.reduce({(): Fraction(1)})

    def contains_in_ideal(self, st: State) -> bool:
        return not self.reduce(st)

    def check_associative(self) -> bool:
        n = self.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    left = {}
                    for t, c in self.star_coords(i, j).items():
                        vec_iadd(left, self.star_coords(t, k), c)
                    for t, c in self.star_coords(j, k).items():
                        vec_iadd(left, self.star_coords(i, t), -c)
                    if left:
                        return False
        return True


def stabilized(ctx: TwistContext, max_weight, margin=Fraction(1),
               depth: int = 1):
    """Build the algebra at two consecutive cutoffs and insist they agree.

    The second cutoff, max_weight + 1/2, grows the first one's echelon by
    only the relations whose top weight lies in the new half-weight band.
    Its row space, and so its pivot keys, basis and reductions, are those
    of a from-scratch build at that cutoff.
    """
    a = ZhuAlgebra(ctx, max_weight, margin, depth)
    b = ZhuAlgebra(ctx, a.max_weight + HALF, margin, depth, _below=a)
    return a, b, a.basis == b.basis


def _mult_coords(alg: ZhuAlgebra, a: dict, b: dict) -> dict:
    out: dict = {}
    for i, ca in a.items():
        for j, cb in b.items():
            vec_iadd(out, alg.star_coords(i, j), ca * cb)
    return out


def center_basis(alg: ZhuAlgebra) -> list[dict]:
    """Basis of the (ungraded) center, as coordinate dicts."""
    from .exact import nullspace

    n = alg.dim
    images = []
    for i in range(n):
        img: dict = {}
        for j in range(n):
            for t, c in alg.star_coords(i, j).items():
                vec_iadd(img, {(j, t): c})
            for t, c in alg.star_coords(j, i).items():
                vec_iadd(img, {(j, t): -c})
        images.append(img)
    return nullspace(images)


def trace_form_radical_dim(alg: ZhuAlgebra) -> int:
    """Dimension of the radical of the trace form tr(L_a L_b).

    For a finite-dimensional associative algebra in characteristic zero
    this equals the dimension of the Jacobson radical.
    """
    from .exact import nullspace

    n = alg.dim
    left = [alg.multiplication_matrix({i: Fraction(1)}) for i in range(n)]
    rows = []
    for i in range(n):
        img = {}
        for j in range(n):
            tr = sum(
                (sum((left[i][k][t] * left[j][t][k] for t in range(n)),
                     Fraction(0)) for k in range(n)),
                Fraction(0),
            )
            if tr:
                img[j] = tr
        rows.append(img)
    return len(nullspace(rows))


def _minimal_polynomial(alg: ZhuAlgebra, v: dict):
    """Monic minimal polynomial of an element, low degree first."""
    from .exact import solve_in_span

    powers = [alg.unit_coords()]
    while True:
        nxt = _mult_coords(alg, v, powers[-1])
        coords = solve_in_span(powers, nxt)
        if coords is not None:
            return [-c for c in coords] + [Fraction(1)]
        powers.append(nxt)


def _poly_at(alg: ZhuAlgebra, coeffs, v: dict) -> dict:
    """Evaluate sum coeffs[k] v^k inside the algebra (Horner)."""
    acc: dict = {}
    for c in reversed(coeffs):
        acc = _mult_coords(alg, v, acc)
        if c:
            vec_iadd(acc, alg.unit_coords(), Fraction(c))
    return acc


def block_profile(alg: ZhuAlgebra) -> dict:
    """Semisimple structure of the algebra: matrix block sizes.

    A separating central element is found whose minimal polynomial has
    the center's dimension; each irreducible rational factor of degree d
    cuts a central component of dimension D carrying d complex blocks of
    size sqrt(D/d).  Everything is exact: the only floating point free
    step is sympy's rational polynomial factorization.
    """
    import sympy
    from math import isqrt

    zc = center_basis(alg)
    rad = trace_form_radical_dim(alg)
    # search for a separating central element among small combinations
    cand = list(zc)
    for i in range(len(zc)):
        for j in range(i + 1, len(zc)):
            mix: dict = {}
            vec_iadd(mix, zc[i])
            vec_iadd(mix, zc[j], Fraction(2))
            cand.append(mix)
    sep = None
    for v in cand:
        mp = _minimal_polynomial(alg, v)
        if len(mp) - 1 == len(zc):
            sep, minpoly = v, mp
            break
    if sep is None:
        raise RuntimeError("no separating central element found")
    x = sympy.Symbol("x")
    poly = sympy.Poly(
        sum(sympy.Rational(c.numerator, c.denominator) * x**k
            for k, c in enumerate(minpoly)),
        x,
    )
    blocks = []
    idempotents = []
    for fac, mult in poly.factor_list()[1]:
        if mult != 1:
            raise RuntimeError("center is not semisimple")
        h = poly.exquo(fac)
        u, _, g = sympy.gcdex(h.as_expr(), fac.as_expr(), x)
        if sympy.simplify(g - 1) != 0:
            u = u / g
        proj = sympy.Poly(sympy.expand(u * h.as_expr()), x)
        coeffs = [Fraction(int(sympy.Rational(c).p), int(sympy.Rational(c).q))
                  for c in reversed(proj.all_coeffs())]
        e = _poly_at(alg, coeffs, sep)
        idempotents.append(e)
        ech = Echelon()
        for j in range(alg.dim):
            ech.add(_mult_coords(alg, e, {j: Fraction(1)}))
        D = ech.rank
        d = fac.degree()
        size_sq, remainder = divmod(D, d)
        s = isqrt(size_sq)
        if remainder or s * s != size_sq:
            raise RuntimeError("component does not split into square blocks")
        blocks.extend([s] * d)
    # idempotents must be orthogonal and sum to the unit
    total: dict = {}
    for e in idempotents:
        if _mult_coords(alg, e, e) != e:
            raise RuntimeError("projection is not idempotent")
        vec_iadd(total, e)
    unit = alg.unit_coords()
    vec_iadd(total, unit, Fraction(-1))
    if total:
        raise RuntimeError("central idempotents do not sum to the unit")
    return {
        "center_dim": len(zc),
        "radical_dim": rad,
        "blocks": sorted(blocks, reverse=True),
    }
