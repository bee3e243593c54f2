"""Twisted modules, lowest-weight spaces and module functors.

Every twisted module here is an InducedSpace: a truncated Verma-type
module over a ground space on which the integer-support zero modes act
by matrices.  twisted_module induces from the Clifford module of those
zero modes, the canonical g-twisted module; induce_truncated induces
from a Zhu-algebra module.  Also here: the lowest-weight subspace
Omega(M) and the zero-mode representation of the Zhu algebra on it.

Omega(M) is an A_g(V)-module by the zero modes (fields.o_action), and
one code path builds its matrices: omega_umats gives those of every
basis class, which zhu_action_report and induction read, and
certified_zhu takes those of the generator classes alone, whose
generated matrix algebra (zhu_rank) is the certification lower bound.

Omega(M) is computed as the joint kernel of the positive generator
modes, wherever they sit in the normal ordering.  On a rotation twist
the recursion's split point puts positive modes up to charge - 1/2 on
the left, so the factors left of it can lower the degree too.  The
kernel is still all of Omega(M): with the split moved to mode 0, every
term of a lowering mode applies a positive generator mode first, or a
nonpositive one after a lowering mode of a shorter state, or is a twist
correction, a mode of a lower-weight state.  The positive Virasoro modes
are verified to vanish on the result rather than solved for.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import (Echelon, mat_apply, mat_lincomb, nullspace,
                    span_coordinates, vec_iadd)
from .fock import Sector, State, parity, weight
from .fields import HALF, Virasoro, o_action
from .zhu import TwistContext, ZhuAlgebra, _mono_state


def twisted_module(ctx: TwistContext) -> InducedSpace:
    """The canonical g-twisted module, induced from the Clifford module
    of the integer-support zero modes.

    The ground is the exterior algebra on the creators: the higher id of
    each integer-support dual pair and every self-paired integer-support
    generator.  Ground index j has bit b set when the b-th creator, in
    ascending order, is a factor.  A creator's zero mode multiplies on
    the left, and Z_g contracts the creator c by (g, c), halved for g =
    c, so Z_g Z_h + Z_h Z_g = (g, h).
    """
    sector = ctx.sector
    zero = [g for g in sector.gids if ctx.support[g] == 0]
    creators = [g for g in zero if sector.pair(g, g)
                or any(h < g for h, _ in sector.partners(g))]
    udim = 1 << len(creators)
    zmats = {}
    for g in zero:
        cols = []
        for j in range(udim):
            col = {}
            for b, c in enumerate(creators):
                # Z_g passes the creators below c
                sign = -1 if (j & ((1 << b) - 1)).bit_count() & 1 else 1
                if j >> b & 1:
                    w = sector.pair(g, c) / (2 if g == c else 1)
                    if w:
                        col[j ^ 1 << b] = sign * w
                elif g == c:
                    col[j | 1 << b] = Fraction(sign)
            cols.append(col)
        zmats[g] = cols
    return InducedSpace(ctx, zmats, udim)


class OmegaSpace:
    """Joint kernel of all degree-lowering modes, degree by degree.

    The kernel is computed against the positive generator modes alone,
    left or right of the normal ordering; that is already the full
    lowest-weight space (see the module docstring).  A monomial's row
    holds only the modes space.ann_modes names, since no other positive
    mode meets one of its factors.  The positive Virasoro modes L(m),
    1 <= m <= degree, are applied to every kernel vector as a check, and
    a nonzero image raises RuntimeError.
    """

    def __init__(self, space, max_degree):
        self.space = space
        self.max_degree = Fraction(max_degree)
        virasoro = Virasoro(space.algebra)
        self.basis: list[State] = []
        by_deg = space.basis_by_degree(self.max_degree)
        for d in sorted(by_deg):
            monos = by_deg[d]
            images = []
            for m in monos:
                img: dict = {}
                for g in space.gids:
                    for q in space.ann_modes(g, m):
                        for m2, c in space.apply_gen(g, q, m).items():
                            vec_iadd(img, {(g, q, m2): c})
                images.append(img)
            for ker in nullspace(images):
                v = {monos[j]: c for j, c in ker.items()}
                lm = 1
                while lm <= d:
                    if virasoro.L(space, lm, v):
                        raise RuntimeError(
                            f"L({lm}) does not kill a degree-{d} vector "
                            "of the generator kernel")
                    lm += 1
                self.basis.append(v)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def degrees(self) -> list:
        return sorted(self.space.degree(next(iter(v))) for v in self.basis)


def zhu_rank(mats: list) -> int:
    """Dimension of the unital matrix algebra the matrices generate.

    mats are zero-mode matrices, as omega_umats returns them, all of the
    same size.  A breadth-first search over words in them, starting from
    the identity, keeps each word independent of the kept ones and stops
    when no product of a matrix with a kept word is new, as
    ZhuAlgebra.left_multiplications does on the algebra side.  When o is
    an algebra map, this is the dimension of the image of the subalgebra
    the matrices' classes generate.
    """
    n = len(mats[0]) if mats else 0
    ech = Echelon()
    words = []

    def keep(word):
        if ech.add({(y, x): c for y, col in enumerate(word)
                    for x, c in col.items()}):
            words.append(word)

    keep([{y: Fraction(1)} for y in range(n)])
    k = 0
    while k < len(words) and ech.rank < n * n:
        for mat in mats:
            keep([mat_apply(mat, col) for col in words[k]])
        k += 1
    return ech.rank


def zhu_action_report(alg: ZhuAlgebra, om: OmegaSpace) -> dict:
    """Exact checks that Omega(M) is a module for the quotient algebra.

    Verifies o(1) = id, o(a)o(b) = o(a star b) for all table pairs on
    the omega_umats matrices, o(u circ v) = 0 on Omega(M) for the sampled
    ideal elements (ideal_samples counts the pairs checked), and reports
    the commutant dimension of the image (1 means the action is
    simple)."""
    try:
        mats, n = omega_umats(alg, om)
    except ValueError as exc:
        return {"ok": False, "failure": str(exc)}
    if mat_lincomb(mats, alg.unit_coords(), n) != [{y: 1} for y in range(n)]:
        return {"ok": False, "failure": "o(1) is not the identity"}
    for i in range(alg.dim):
        for j in range(alg.dim):
            lhs = [mat_apply(mats[i], col) for col in mats[j]]
            rhs = mat_lincomb(mats, alg.star_coords(i, j), n)
            if lhs != rhs:
                return {"ok": False, "failure": f"o(a)o(b)!=o(a*b) at {i},{j}"}
    # ideal elements u circ v act by zero: every v of weight <= 1 with a
    # nonzero circ, for the first 20 nonempty u
    count = 0
    ctx = alg.ctx
    us = [u for u in ctx.sector.basis(Fraction(2)) if u][:20]
    vs = ctx.sector.basis(Fraction(1))
    for u in us:
        for v in vs:
            circ = ctx.circ(_mono_state(u), _mono_state(v))
            if not circ:
                continue
            if any(o_action(om.space, circ, w) for w in om.basis):
                return {"ok": False,
                        "failure": "o of an ideal element is nonzero"}
            count += 1
    # commutant of the image: row a*n + b holds the entries of
    # [E_ab, o(m_i)], collected from each nonzero entry o(m_i)[r][t]
    flat_rows = [{} for _ in range(n * n)]
    for i, mat in enumerate(mats):
        for t, col in enumerate(mat):
            for r, c in col.items():
                for a in range(n):
                    vec_iadd(flat_rows[a * n + r], {(i, a, t): c})
                    vec_iadd(flat_rows[t * n + a], {(i, r, a): -c})
    commutant_dim = len(nullspace(flat_rows))
    return {"ok": True, "ideal_samples": count,
            "commutant_dim": commutant_dim, "simple": commutant_dim == 1}


def certified_zhu(ctx: TwistContext, max_weight, margin=Fraction(1)) -> dict:
    """Full certification: stabilized upper bound against zero-mode rank.

    The upper bound is the dim of one ZhuAlgebra build: the count of
    free monomials, the subsets of the free alphabet, up to max_weight.
    The lower bound is zhu_rank of the o-matrices of the generator
    classes (the unit and the twist-even weight-1/2 states, read off the
    sector rather than the count) on Omega(M) of the twisted module,
    computed to degree 1: the dimension of the matrix algebra they
    generate.  That algebra is the image under o of the subalgebra the
    generator classes generate, so its dimension bounds dim A_g(V) from
    below.  This relies on o(O_g) = 0 and on o(a)o(b) = o(a * b) on
    Omega(M), the paper's theorem, which verify --suite omega checks.
    Once the basis is stable and the guard band covered the count is an
    upper bound, so a rank above it refutes the count: RuntimeError.
    Below that the count is no upper bound, and the generated dimension
    can exceed it (8 against 7 for sigma3 at cutoff 1), so the reported
    lower bound is capped at the count.  Neither bound generates a
    relation; reading the star table of the algebra does.  Stabilized
    means no free monomial has weight in (max_weight, max_weight + 1/2],
    so the basis one half-weight higher is the same.  reasons lists the
    failed checks in a fixed order; certified means there are none.
    """
    alg = ZhuAlgebra(ctx, max_weight, margin)
    stable = alg.free_monomials(alg.max_weight + HALF) == alg.basis
    om = OmegaSpace(twisted_module(ctx), Fraction(1))
    gens = [m for m in ctx.sector.basis(HALF) if ctx.rstar(m) == 0]
    rank = zhu_rank(_o_matrices(om, gens))
    if stable and alg.high_covered and rank > alg.dim:
        raise RuntimeError(f"the zero-mode rank {rank} exceeds the count "
                           f"{alg.dim} of free monomials")
    lower = min(rank, alg.dim)
    checks = {"not_stabilized": stable,
              "guard_band_not_covered": alg.high_covered,
              "bounds_apart": lower == alg.dim}
    reasons = [why for why, ok in checks.items() if not ok]
    return {
        "algebra": alg,
        "omega": om,
        "dim_upper": alg.dim,
        "dim_lower": lower,
        "stabilized": stable,
        "high_covered": alg.high_covered,
        "certified": not reasons,
        "reasons": reasons,
    }


class InducedSpace(Sector):
    """Truncated Verma-type module over a ground module of the zero modes.

    Basis elements are (mono, j): a Fock monomial in the negative
    generator modes, which hold no zero mode, applied to the j-th of the
    udim ground vectors.  zmats[g][j] is the sparse column of Z_g applied
    to ground vector j, for every generator g of integer support; the
    zero modes anticommute through the monomial and act on the ground
    by these columns.  Positive modes contract against the monomial by
    the Clifford pairing and annihilate the ground.  The mode recursion
    then gives the action of every state; the algebra's own Fock space
    supplies the products of its twist corrections.
    """

    def __init__(self, ctx: TwistContext, zmats: dict, udim: int):
        sector = ctx.sector
        super().__init__(sector.labels, sector.pairing, ctx.support)
        self.algebra = sector
        self.udim = udim
        self._zmat = zmats

    def degree(self, el):
        return weight(el[0])

    def ann_modes(self, gid, el):
        return super().ann_modes(gid, el[0])

    def apply_gen(self, gid, q, el) -> State:
        mono, j = el
        if q == 0 and gid in self._zmat:
            sign = -1 if parity(mono) else 1
            return {(mono, x): sign * c
                    for x, c in self._zmat[gid][j].items()}
        return {(m, j): c
                for m, c in super().apply_gen(gid, q, mono).items()}

    def basis_by_degree(self, max_degree) -> dict:
        return {d: [(m, j) for m in monos for j in range(self.udim)]
                for d, monos in super().basis_by_degree(max_degree).items()}


def omega_umats(alg: ZhuAlgebra, om: OmegaSpace) -> tuple:
    """The zero-mode matrices of a lowest-weight space as a seed module.

    mats[i][y] is the sparse column of coordinates of o(basis[i]) applied
    to om.basis[y].  Raises ValueError if a zero mode leaves the kernel
    space.
    """
    return _o_matrices(om, alg.basis), om.dim


def _o_matrices(om: OmegaSpace, monomials) -> list:
    """The sparse matrix of o(m) on om.basis for each monomial m."""
    mats = []
    for m in monomials:
        mat = span_coordinates(
            om.basis, [o_action(om.space, _mono_state(m), v)
                       for v in om.basis])
        if None in mat:
            raise ValueError("zero modes leave the kernel space")
        mats.append(mat)
    return mats


def induce_truncated(alg: ZhuAlgebra, umats: list, udim: int,
                     max_degree) -> dict:
    """Induce a twisted module from a Zhu-algebra module and validate it.

    Returns the induced space, its graded dimensions, and whether the
    lowest-weight space of the result recovers exactly the seed (the
    degree-0 piece and nothing else at the truncation).  Of umats it
    reads only the matrices of the integer-support generator classes,
    which act as the zero modes of their generators.
    """
    if udim == 0:
        return {"space": None, "graded_dims": {}, "omega_dim": 0,
                "omega_is_seed": True}
    ctx = alg.ctx
    # the matrix of each zero mode is that of its generator's class
    zmats = {g: mat_lincomb(umats, alg.reduce({((-HALF, g),): Fraction(1)}),
                            udim)
             for g in ctx.sector.gids if ctx.support[g] == 0}
    space = InducedSpace(ctx, zmats, udim)
    om = OmegaSpace(space, max_degree)
    return {
        "space": space,
        "graded_dims": space.graded_dims(max_degree),
        "omega_dim": om.dim,
        "omega_is_seed": not any(om.degrees()) and om.dim == udim,
    }
