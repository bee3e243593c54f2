"""Independent reference computations for the test suite.

Everything here is implemented from first principles, without using the
package's recursion or echelon machinery, so agreement is meaningful.
The exceptions are the plain computations that the package's pruned
ones are checked against: reduction_family, the two-parameter family of
residue members of O_g whose (0, 0) member is circ; EagerZhuAlgebra,
the build that puts every relation of a generator into the echelon
before it reads the free monomials off the pivots, against which the
package's leads and relations generated on read are checked;
o_relations_window, the package's own relations over a weight window;
generator_circ_relations, every circ product of a generator mode with a
basis monomial, which the package's one relation per lead must span the
same space as; full_pairs_relations, the relation generator over all
pairs; generator_first_relations, which adds the depth-1 reduction
family to the circ products; two_cutoff_stabilized, the comparison of
from-scratch eager builds at two consecutive cutoffs that the package
reads off one build; omega_joint_kernel, the lowest-weight space cut
out by the generator and the Virasoro modes together; and
zero_mode_rank_oracle, which reads the package's o_action but none of
its matrices or echelon.
"""

from fractions import Fraction
from math import comb

from vosa.fock import graded_key, weight
from vosa.zhu import ZhuAlgebra, o_relations


def binomial_oracle(alpha: Fraction, s: int) -> Fraction:
    """Falling-factorial definition, term by term."""
    num = Fraction(1)
    for i in range(s):
        num *= alpha - i
    den = 1
    for i in range(1, s + 1):
        den *= i
    return num / den


def graded_dim_oracle(l: int, offsets, max_weight: Fraction) -> dict:
    """Graded dimensions of an exterior algebra on l families of modes.

    offsets[i] is the positive weight of the lightest creation mode of
    family i; heavier modes step by 1.  Computed by brute polynomial
    multiplication over a common denominator grid.
    """
    denom = 2
    top = int(max_weight * denom)
    poly = [0] * (top + 1)
    poly[0] = 1
    for i in range(l):
        w = offsets[i]
        while w * denom <= top:
            step = int(w * denom)
            nxt = poly[:]
            for d in range(top + 1 - step):
                nxt[d + step] += poly[d]
            poly = nxt
            w += 1
    return {Fraction(d, denom): poly[d] for d in range(top + 1) if poly[d]}


def clifford_dim_oracle(l: int) -> int:
    """Dimension of the Clifford algebra on an l-dimensional space."""
    return 2 ** l


def matrix_rank_oracle(rows) -> int:
    """Gaussian elimination over Fractions on dense rows."""
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        d = rows[r][c]
        rows[r] = [x / d for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def pascal_holds(binom, alpha: Fraction, s: int) -> bool:
    """binom(alpha, s) = binom(alpha - 1, s) + binom(alpha - 1, s - 1)."""
    return binom(alpha, s) == binom(alpha - 1, s) + binom(alpha - 1, s - 1)


def integer_binomial(n: int, k: int) -> int:
    return comb(n, k)


def reduction_family(ctx, u, v, m: int, n: int):
    """The member (m, n), m >= n >= 0, of the residue family in O_g:
    sum_s binom(wt u - 1 + delta + r* + n, s) u_{s-m-delta-1} v, with u
    weight- and twist-homogeneous.  (0, 0) is circ."""
    from vosa.exact import vec_iadd
    from vosa.fields import residue_terms

    if not m >= n >= 0:
        raise ValueError("need m >= n >= 0")
    (wu,) = {weight(x) for x in u}
    (rs,) = {ctx.rstar(x) for x in u}
    d = 1 if rs == 0 else 0
    out = {}
    for _, c, prod in residue_terms(ctx.sector, u, wu - 1 + d + rs + n,
                                    m + d + 1, v):
        vec_iadd(out, prod, c)
    return out


def generator_circ_relations(ctx, w_ambient, w_skip=Fraction(-1)):
    """The twist-odd monomials, then u circ v for every generator mode u
    and basis monomial v with top weight in (w_skip, w_ambient]: every
    generator-first circ product, about half of them dependent.  A
    relation generator for EagerZhuAlgebra.
    """
    basis = ctx.sector.basis(w_ambient)
    for mono in basis:
        if mono and ctx.rstar(mono) != 0 and weight(mono) > w_skip:
            yield {mono: Fraction(1)}
    for u in basis:
        if len(u) != 1:
            continue
        lift = weight(u) + ctx.delta(u)  # top weight of u circ v, less wt v
        for v in basis:
            if w_skip < lift + weight(v) <= w_ambient:
                yield ctx.circ({u: Fraction(1)}, {v: Fraction(1)})


def _family_relations(ctx, w_ambient, w_skip, depth, first):
    """The twist-odd monomials, then the (m, n) reduction-family vectors
    for 0 <= n <= m <= depth and every pair (u, v) of basis monomials with
    first(u), in the order of generator_circ_relations."""
    basis = ctx.sector.basis(w_ambient)
    for mono in basis:
        if mono and ctx.rstar(mono) != 0 and weight(mono) > w_skip:
            yield {mono: Fraction(1)}
    for u in basis:
        if not first(u):
            continue
        wu = weight(u)
        du = ctx.delta(u)
        for v in basis:
            top = wu + weight(v) + du
            for m in range(depth + 1):
                for n in range(m + 1):
                    if w_skip < top + m <= w_ambient:
                        yield reduction_family(
                            ctx, {u: Fraction(1)}, {v: Fraction(1)}, m, n)


def full_pairs_relations(ctx, w_ambient, w_skip=Fraction(-1), *, depth=1):
    """The unpruned relation generator: reduction-family vectors up to
    the given depth for every pair (u, v) of basis monomials, not only
    generator-first circ products.  A relation generator for
    EagerZhuAlgebra.
    """
    return _family_relations(ctx, w_ambient, w_skip, depth, bool)


def generator_first_relations(ctx, w_ambient, w_skip=Fraction(-1), *,
                              depth=1):
    """Generator-first reduction-family vectors up to the given depth:
    u runs over the generator modes only, as in generator_circ_relations,
    which keeps only the circ products (depth 0).  A relation generator
    for EagerZhuAlgebra.
    """
    return _family_relations(ctx, w_ambient, w_skip, depth,
                             lambda u: len(u) == 1)


def o_relations_window(ctx, w_ambient, w_skip=Fraction(-1)):
    """vosa.zhu.o_relations over every monomial of weight in (w_skip,
    w_ambient]: one relation per lead, all at once."""
    return o_relations(ctx, [m for m in ctx.sector.basis(w_ambient)
                             if weight(m) > w_skip])


class EagerZhuAlgebra(ZhuAlgebra):
    """The quotient by every relation of a generator, eagerly.

    relations(ctx, w_ambient, w_skip) yields members of O_g whose top
    weight lies in (w_skip, w_ambient]: o_relations_window,
    generator_circ_relations, full_pairs_relations or
    generator_first_relations.  Growing the window puts all of them into
    the echelon, and the free monomials are those that are no pivot, as
    the echelon leaves them.  reduce grows the window to the weight of
    its state first and never generates a relation on read.
    """

    def __init__(self, ctx, max_weight, margin=Fraction(1),
                 relations=o_relations_window):
        self.relations = relations
        super().__init__(ctx, max_weight, margin)

    def _extend(self, w_amb) -> None:
        if w_amb <= self._covered:
            return
        for rel in self.relations(self.ctx, w_amb, self._covered):
            self.ech.add({graded_key(m): c for m, c in rel.items()})
        self._free = [m for m in self.ctx.sector.basis(w_amb)
                      if graded_key(m) not in self.ech.pivots]
        self._covered = w_amb

    def _relation(self, key) -> dict:
        return {}

    def reduce(self, st):
        if st:
            self._extend(max(weight(m) for m in st))
        return super().reduce(st)


def two_cutoff_stabilized(ctx, max_weight, margin=Fraction(1),
                          relations=o_relations_window):
    """Build the eager algebra from scratch at max_weight and at
    max_weight + 1/2, with the same margin, and compare the bases: (low,
    high, whether they agree)."""
    low = EagerZhuAlgebra(ctx, max_weight, margin, relations)
    high = EagerZhuAlgebra(ctx, low.max_weight + Fraction(1, 2), margin,
                           relations)
    return low, high, low.basis == high.basis


def omega_joint_kernel(space, d):
    """Degree-d kernel of the generator lowering modes and of L(m) for
    1 <= m <= d, solved as one linear system; a list of states.

    OmegaSpace solves for the generator modes alone and only checks the
    Virasoro modes on the result, so the two must span the same space.
    """
    from vosa.exact import nullspace, vec_iadd
    from vosa.fields import Virasoro
    from vosa.modules import lowering_mode_labels

    d = Fraction(d)
    virasoro = Virasoro(space.algebra)
    monos = space.basis_by_degree(d).get(d, [])
    images = []
    for m in monos:
        img: dict = {}
        for g in space.gids:
            for q in lowering_mode_labels(space, g, d):
                for m2, c in space.apply_gen(g, q, m).items():
                    vec_iadd(img, {("a", g, q, m2): c})
        lm = 1
        while lm <= d:
            for m2, c in virasoro.L(space, lm, {m: Fraction(1)}).items():
                vec_iadd(img, {("L", lm, m2): c})
            lm += 1
        images.append(img)
    return [{monos[j]: c for j, c in ker.items()} for ker in nullspace(images)]


def zero_mode_rank_oracle(alg, om) -> int:
    """Rank of the zero-mode map a -> o(a) on a lowest-weight space.

    One dense row per basis class of alg: the o_action images of its
    monomial on every vector of om.basis, flattened over (vector index,
    monomial) columns, ranked by matrix_rank_oracle.
    """
    from vosa.fields import o_action

    rows = []
    for m in alg.basis:
        row = {}
        for j, v in enumerate(om.basis):
            for m2, c in o_action(om.space, {m: Fraction(1)}, v).items():
                row[(j, m2)] = c
        rows.append(row)
    cols = list(dict.fromkeys(k for row in rows for k in row))
    return matrix_rank_oracle([[row.get(k, 0) for k in cols] for row in rows])
