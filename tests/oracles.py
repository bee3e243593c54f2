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
reads off one build; recursive_mode_mono, the mode recursion without
the closed form for a one-factor state; omega_joint_kernel, the
lowest-weight space cut out by every positive generator mode
(lowering_mode_labels) and the Virasoro modes together;
zero_mode_rank_oracle, which reads the package's o_action but none of
its matrices or echelon; opposite_product, Zhu's opposite identity for
a product u * v, which the plain star table and the package's derived
left multiplications are checked against; and wedderburn_profile, the
block count over the full multiplication table that the package's
reading of the blocks off the Clifford presentation is checked
against.  TWISTS names the twist contexts the tests share.

The checks at the end, which no command calls, also run on the
package's own mode recursion: ns_orthonormal, min_assoc_exponent,
verify_associativity, verify_o_kernel, ParitySubmodule and
Contragredient test the engine against the vertex-algebra axioms.
"""

from fractions import Fraction
from functools import partial
from math import isqrt, lcm

from vosa.exact import (Echelon, gen_binomial, mat_apply, mat_lincomb,
                        nullspace, span_coordinates, vec_iadd)
from vosa.fields import (HALF, Virasoro, commutator_defect, mode, o_action,
                         residue_terms, state_parity, twist_correction)
from vosa.fock import (Sector, State, graded_key, ns_polarized, parity,
                       state_weight, weight)
from vosa.modules import OmegaSpace
from vosa.zhu import (TwistContext, ZhuAlgebra, center_basis, ctx_identity,
                      ctx_sigma, ctx_tau, o_relations, trace_form_radical_dim)


def _diagonal(name, support):
    """The twist of ns_polarized(len(support)) whose g*sigma acts on
    generator i by exp(2 pi i support[i])."""
    return TwistContext(name, ns_polarized(len(support)),
                        dict(enumerate(map(Fraction, support))))


# every twist context the tests share, by name; a call builds a fresh one
TWISTS = {
    **{f"sigma{l}": partial(ctx_sigma, l) for l in (1, 2, 3, 4)},
    **{f"id{l}": partial(ctx_identity, l) for l in (1, 2, 3)},
    "tau": ctx_tau,
    # g = i on b and -i on B: module modes on Z + 3/4 and Z + 1/4
    "order4": partial(_diagonal, "order4",
                      (Fraction(3, 4), Fraction(1, 4))),
    # g*sigma of order 3, 6 and 4 beyond the order-two twists
    "rot3": partial(_diagonal, "rot3", (Fraction(1, 3), Fraction(2, 3), 0)),
    "rot6": partial(_diagonal, "rot6", (Fraction(1, 6), Fraction(5, 6))),
    "rot4": partial(_diagonal, "rot4", (Fraction(1, 4), 0, Fraction(3, 4), 0)),
    # order 4 on l = 5, with g = 1 and g = -1 on e
    "order4-l5": partial(_diagonal, "order4-l5",
                         (0, Fraction(1, 4), 0, Fraction(3, 4), HALF)),
    "order4-l5-e0": partial(_diagonal, "order4-l5-e0",
                            (0, Fraction(1, 4), 0, Fraction(3, 4), 0)),
}
LADDER = ["sigma1", "sigma2", "sigma3", "sigma4", "id1", "id2", "id3", "tau"]
ROTATIONS = ["rot3", "rot6", "rot4"]
# twists with a generator of support in (0, 1/2): positive modes up to
# charge - 1/2 sit left of the normal ordering on their modules
LEFT_POSITIVE = ["order4", "rot3", "rot6", "rot4", "order4-l5",
                 "order4-l5-e0"]


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
    multiplication on the grid of the offsets' common denominator.
    """
    denom = lcm(*(Fraction(w).denominator for w in offsets))
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


def reduction_family(ctx, u, v, m: int, n: int):
    """The member (m, n), m >= n >= 0, of the residue family in O_g:
    sum_s binom(wt u - 1 + delta + r* + n, s) u_{s-m-delta-1} v, with u
    weight- and twist-homogeneous.  (0, 0) is circ."""
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


def lowering_mode_labels(space, gid: int, max_degree) -> list:
    """Mode labels q > 0 of one generator that can lower degrees <= max."""
    q = space.support[gid]
    if q == 0:
        q = Fraction(1)
    out = []
    while q <= max_degree:
        out.append(q)
        q += 1
    return out


def recursive_mode_mono(space, u, n, w, memo=None) -> State:
    """u_n w by the plain mode recursion, with no closed form for one
    factor: the leading generator a of u splits into its left modes q <=
    charge(a) - 1/2, applied after the tail, and its positive right modes
    above that, applied first; then the twist corrections.  Products in
    the algebra recurse here too.  memo maps (space, u, n, w) to results
    and may be shared between calls.
    """
    if not u:
        return {w: Fraction(1)} if n == -1 else {}
    if memo is None:
        memo = {}
    key = (space, u, n, w)
    if key in memo:
        return memo[key]
    out: State = {}
    memo[key] = out  # filled in below; the recursion never returns to key
    if space.degree(w) + weight(u) - n - 1 < 0:
        return out
    (mu, a), tail = u[0], u[1:]
    p = int(-mu - HALF)
    chi = space.charge(a)
    tail_sign = -1 if parity(tail) else 1
    wt_tail = weight(tail)
    for q in space.ann_modes(a, w):
        if q <= chi - HALF:
            continue
        coeff = gen_binomial(-q - HALF, p) * tail_sign
        for m2, c2 in space.apply_gen(a, q, w).items():
            vec_iadd(out, recursive_mode_mono(space, tail, n - q - p - HALF,
                                              m2, memo), coeff * c2)
    lo = n - p - HALF - (space.degree(w) + wt_tail - 1)
    for q in space.left_modes(a, lo):
        res = recursive_mode_mono(space, tail, n - q - p - HALF, w, memo)
        for m2, c2 in res.items():
            vec_iadd(out, space.apply_gen(a, q, m2),
                     gen_binomial(-q - HALF, p) * c2)
    t = 1
    while chi and HALF + wt_tail - t >= 0:
        ct = twist_correction(chi, p, t)
        prod = recursive_mode_mono(space.algebra, ((-HALF, a),), t - 1, tail,
                                   memo) if ct else {}
        for m2, c2 in prod.items():
            vec_iadd(out, recursive_mode_mono(space, m2, n - p - t, w, memo),
                     -ct * c2)
        t += 1
    return out


def omega_joint_kernel(space, d):
    """Degree-d kernel of the generator lowering modes and of L(m) for
    1 <= m <= d, solved as one linear system; a list of states.

    OmegaSpace solves for the generator modes alone and only checks the
    Virasoro modes on the result, so the two must span the same space.
    """
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
    rows = []
    for m in alg.basis:
        row = {}
        for j, v in enumerate(om.basis):
            for m2, c in o_action(om.space, {m: Fraction(1)}, v).items():
                row[(j, m2)] = c
        rows.append(row)
    cols = list(dict.fromkeys(k for row in rows for k in row))
    return matrix_rank_oracle([[row.get(k, 0) for k in cols] for row in rows])


def opposite_product(ctx, u, v) -> State:
    """(-1)^{|u||v|} sum_s binom(wt v - 1, s) v_{s-1} u for monomials u
    and v, that is (-1)^{|u||v|} Res_z Y(v, z) u (1 + z)^{wt v - 1} / z.

    It is congruent to u * v modulo O_g for twist-even u and v (Zhu 1996,
    Lemma 2.1.3; Dong-Li-Mason 1998 for A_g); every basis class is
    twist-even.  With v a generator every mode in it is a one-factor
    mode: a second formula for the products with a generator class on
    the right.
    """
    sign = -1 if parity(u) and parity(v) else 1
    out: State = {}
    for _, c, prod in residue_terms(ctx.sector, {v: Fraction(1)},
                                    weight(v) - 1, 1, {u: Fraction(1)}):
        vec_iadd(out, prod, sign * c)
    return out


def wedderburn_profile(alg) -> dict:
    """The block profile of block_profile, read off the full table of
    left multiplications with no use of a Clifford presentation; a right
    product x * y is column y of L_x.

    Over C a semisimple A of dimension n is a sum of blocks M_{s_j}, and
    its central idempotents e_j span the center Z.  The two trace forms
    T_A(x, y) = tr_A(L_{xy}) and T_Z(x, y) = tr_Z(xy) on Z are diag(s_j^2)
    and the identity in the e_j basis, since L_{e_j} projects A onto its
    block of dimension s_j^2 and Z onto the line of e_j.  So the number
    of blocks of size s is dim ker(T_A - s^2 T_Z).  Both forms have
    rational entries on the rational center basis of center_basis, so
    that kernel is computed over Q and has the same dimension over C,
    even when the e_j are not rational.

    Blocks are read off only for a semisimple algebra: with a nonzero
    radical (trace_form_radical_dim), blocks is None.  A zero radical
    makes the center semisimple, so a degenerate T_Z and block sizes that
    do not add up to the center and the dimension are consistency
    failures (RuntimeError).  alg needs only dim and left_multiplications,
    so stand-in algebras given by their tables work too.
    """
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


def ns_orthonormal(l: int) -> Sector:
    """The algebra's own Fock space on an orthonormal generator basis."""
    labels = [f"a{i+1}" for i in range(l)]
    pairing = {(i, i): Fraction(1) for i in range(l)}
    support = {i: Fraction(1, 2) for i in range(l)}
    return Sector(labels, pairing, support)


def min_assoc_exponent(space, a: State, w: State) -> Fraction:
    """Smallest kappa with z^kappa a(z) w free of negative powers of z."""
    wa = state_weight(a)
    deg = max(space.degree(m) for m in w)
    n = wa + deg - 1
    while n > -10:
        if mode(space, a, n, w, check_index=False):
            return n + 1
        n -= HALF
    return Fraction(0)


def verify_associativity(space, a: State, u: State, w: State, kappa,
                         a_max: int = 3, b_max=3) -> dict:
    """Compare the two expansions of z^kappa a(x) acting through u on w.

    Coefficients of z0^A z2^B are matched exactly for |A| <= a_max and
    |B| <= b_max: composing modes of a and u on one side, modes of the
    products a_i u on the other.  kappa must make z^kappa a(z) w regular.
    """
    kappa = Fraction(kappa)
    alg = space.algebra
    wu = state_weight(u)
    deg = max(space.degree(m) for m in w)
    if kappa < min_assoc_exponent(space, a, w):
        raise ValueError("kappa too small for a regular product")
    checked = nonzero = 0
    b_vals = []
    b = Fraction(-b_max)
    while b <= b_max:
        b_vals.append(b)
        b += HALF
    for A in range(-a_max, a_max + 1):
        for B in b_vals:
            lhs: State = {}
            j = 0
            while j <= wu + deg + B:
                c0 = gen_binomial(A + j, j)
                if c0:
                    uw = mode(space, u, j - B - 1, w, check_index=False)
                    if uw:
                        vec_iadd(lhs,
                                 mode(space, a, kappa - 1 - A - j, uw,
                                      check_index=False), c0)
                j += 1
            rhs: State = {}
            for i, c0, prod in residue_terms(alg, a, kappa, A + 1, u):
                vec_iadd(rhs, mode(space, prod, kappa - B - 1 - i, w,
                                   check_index=False), c0)
            vec_iadd(lhs, rhs, Fraction(-1))
            if lhs:
                return {"ok": False, "checked": checked,
                        "failure": {"A": str(A), "B": str(B)}}
            checked += 1
            if rhs:
                nonzero += 1
    return {"ok": True, "checked": checked, "nonzero": nonzero}


def verify_o_kernel(space, a: State, targets) -> dict:
    """o((L(-1) + L(0)) a) acts by zero on every twisted module; o_action
    is linear, so the inhomogeneous state acts whole."""
    alg = space.algebra
    omega = Virasoro(alg).omega
    st: State = {}
    vec_iadd(st, mode(alg, omega, 0, a))          # L(-1) a
    vec_iadd(st, mode(alg, omega, 1, a))          # L(0) a
    if not st:
        return {"ok": True, "checked": 0}
    for checked, w in enumerate(targets):
        if o_action(space, st, w):
            return {"ok": False, "checked": checked}
    return {"ok": True, "checked": len(targets)}


def _degree_of(space, st: State):
    """Degree of a homogeneous state of a space, or None for 0 or a
    non-homogeneous one."""
    ds = {space.degree(el) for el in st}
    return ds.pop() if len(ds) == 1 else None


class ParitySubmodule:
    """One of the two halves cut out by a self-paired zero mode e(0).

    The basis consists of (1 + s e(0)) y for even y and (1 - s e(0)) y
    for odd y, with y = (mono, j) running over the basis elements whose
    ground vector j is free of the factor e(0); y has the parity of
    len(mono) plus the number of set bits in j, and s is +1 or -1.
    Invariance under all modes is checked computationally, never
    assumed.
    """

    def __init__(self, space, egid: int, sign: int, max_degree):
        if not space.pair(egid, egid):
            raise ValueError("submodule requires a self-paired zero mode")
        # e(0) on the ground vacuum is the ground vector of e(0) alone;
        # apply_gen raises unless e has integer support
        ((_, self.ebit),) = space.apply_gen(egid, Fraction(0), ((), 0))
        self.space = space
        self.egid = egid
        self.sign = sign
        self.max_degree = Fraction(max_degree)
        self.basis: list[State] = []
        for el in space.basis(self.max_degree):
            if el[1] & self.ebit:
                continue
            vec = {el: Fraction(1)}
            vec_iadd(vec, space.apply_gen(egid, Fraction(0), el),
                     Fraction(self._sign(el)))
            self.basis.append(vec)

    def _sign(self, el) -> int:
        """s on even basis elements, -s on odd ones."""
        mono, j = el
        odd = (len(mono) + j.bit_count()) & 1
        return -self.sign if odd else self.sign

    def graded_dims(self) -> dict:
        dims: dict = {}
        for v in self.basis:
            w = _degree_of(self.space, v)
            dims[w] = dims.get(w, 0) + 1
        return dims

    def contains(self, st: State) -> bool:
        deg = {self.space.degree(el) for el in st}
        cand = [v for v in self.basis
                if _degree_of(self.space, v) in deg]
        return span_coordinates(cand, [st])[0] is not None

    def check_invariance(self) -> bool:
        """Every generator mode keeps the subspace inside itself, tested
        on the basis vectors of weight <= 1."""
        for v in self.basis:
            if _degree_of(self.space, v) > 1:
                continue
            for g in self.space.gids:
                qs = list(self.space.left_modes(g, -1)) + \
                    lowering_mode_labels(self.space, g,
                                         _degree_of(self.space, v))
                for q in qs:
                    img: State = {}
                    for m, c in v.items():
                        vec_iadd(img, self.space.apply_gen(g, q, m), c)
                    if not img:
                        continue
                    if _degree_of(self.space, img) > self.max_degree:
                        continue
                    if not self.contains(img):
                        return False
        return True

    def omega_basis(self, max_degree) -> list[State]:
        """Lowest-weight vectors of the submodule."""
        om = OmegaSpace(self.space, max_degree)
        out = []
        for v in om.basis:
            # project the ambient kernel onto this half; the parity rule
            # makes the projector sign length-dependent
            proj: State = {}
            for el, c in v.items():
                vec_iadd(proj, {el: c * HALF})
                vec_iadd(proj, self.space.apply_gen(self.egid, Fraction(0), el),
                         c * self._sign(el) * HALF)
            if proj and self.contains(proj):
                out.append(proj)
        ech = Echelon()
        return [v for v in out if ech.add(v)]


class Contragredient:
    """Matrix-level dual module with phase-normalized mode action.

    For states of half-integer weight the defining involution produces
    a unit-modulus phase; it is stripped, leaving rational matrices R
    that satisfy the clean twisted commutator identity [R_u, R_v]_pm =
    sum_i binom(m, i) R_{u_i v}(m + n - i): the stripped phases square
    to the Koszul sign the odd-odd case needs.  Dual vectors are stored
    as coefficient dicts against the primal monomial basis; the dual
    vacuum is {(): 1}.
    """

    def __init__(self, space, max_degree):
        self.space = space
        self.max_degree = Fraction(max_degree)
        self.vir = Virasoro(space.algebra)
        self.by_degree = space.basis_by_degree(self.max_degree)
        self._keys = {el for els in self.by_degree.values() for el in els}

    def graded_dims(self) -> dict:
        return {d: len(ms) for d, ms in self.by_degree.items()}

    def _phase_free_sign(self, h: Fraction, par: int) -> Fraction:
        # (-1)^h = i^{par} * (-1)^{(2h - par)/2}
        e = (2 * h - par) / 2
        if e.denominator != 1:
            raise ValueError("weight/parity mismatch")
        return Fraction((-1) ** (int(e) % 2))

    def rmode(self, a: State, n, f: dict) -> dict:
        """Phase-normalized action of the dual mode a'_n on a dual vector."""
        off = [el for el in f if el not in self._keys]
        if off:
            raise KeyError(f"functional keyed off the basis: {off[0]}")
        n = Fraction(n)
        h = state_weight(a)
        par = state_parity(a)
        sign = self._phase_free_sign(h, par)
        # build the finite list of L(1)-descendants of a
        terms = []
        cur = dict(a)
        j = 0
        fact = Fraction(1)
        while cur:
            terms.append((j, {m: c / fact for m, c in cur.items()}))
            cur = mode(self.space.algebra, self.vir.omega, 2, cur)
            j += 1
            fact *= j
        deg_f = {self.space.degree(el) for el in f}
        out: dict = {}
        for d in deg_f:
            dm = d + h - n - 1
            if dm > self.max_degree:
                raise ValueError("dual mode leaves the truncated range")
            for m in self.by_degree.get(dm, []):
                val = Fraction(0)
                for j, aj in terms:
                    img = mode(self.space, aj, 2 * h - n - j - 2,
                               {m: Fraction(1)}, check_index=False)
                    for m2, c in img.items():
                        if m2 in f:
                            val += sign * c * f[m2]
                if val:
                    out[m] = out.get(m, Fraction(0)) + val
        return {m: c for m, c in out.items() if c}

    def verify_commutator(self, u: State, v: State, samples) -> dict:
        """The twisted commutator identity transported to the dual side:
        vosa.fields.commutator_defect with rmode as the action."""
        # a mixed-parity state is an error, not a skipped sample
        state_parity(u), state_parity(v)
        checked = skipped = 0
        for m, n, f in samples:
            m, n = Fraction(m), Fraction(n)
            try:
                lhs = commutator_defect(self.space.algebra, self.rmode,
                                        u, m, v, n, f)
            except ValueError:
                # an intermediate dual degree left the truncated range
                skipped += 1
                continue
            if lhs:
                return {"ok": False, "checked": checked,
                        "failure": {"m": str(m), "n": str(n)}}
            checked += 1
        return {"ok": True, "checked": checked, "skipped": skipped}
