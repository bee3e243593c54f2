"""Vertex-operator mode actions on Fock-type spaces.

The mode u_n of a state u acting on a target w is computed recursively:
the leading (smallest-mode) free-field factor of u splits around the
normal ordering into the modes q <= charge - 1/2 left of the split point
(applied after the tail field) and those right of it (commuted through
the tail with a Koszul sign and applied first).  On a twisted module the
left side can hold positive modes too.  Generators whose module modes
sit on the shifted lattice carry a fractional twist charge chi, which
adds finitely many correction terms binom(chi-related) z^{-t} for the
states a_{t-1}u of lower weight.  A one-factor state has no tail and no
correction, so its mode is one generator mode, computed in closed form.
Grading bounds keep every sum finite, so no formal series is ever
materialized.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .exact import gen_binomial, span_coordinates, vec_iadd
from .fock import Monomial, State, normalize, parity, state_weight, weight

HALF = Fraction(1, 2)


def twist_correction(chi: Fraction, p: int, t: int) -> Fraction:
    """Coefficient of -z^{-p-t} Y(a_{t-1}u, z) in the mode recursion."""
    return sum(
        (gen_binomial(-chi, j) * gen_binomial(chi, p + t - j)
         for j in range(p + 1)),
        Fraction(0),
    )


def mode_mono(space, u: Monomial, n: Fraction, w) -> State:
    """u_n applied to a single target basis element w; returns a State.

    The leading generator a of u splits at charge(a) - 1/2: modes at or
    below it act after the tail, the positive modes above it act on w
    first.  Each mode of a sits on exactly one side.
    """
    cache = space._mode_cache
    key = (u, n, w)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if not u:
        res = {w: Fraction(1)} if n == -1 else {}
        cache[key] = res
        return res
    deg_w = space.degree(w)
    if deg_w + weight(u) - n - 1 < 0:
        cache[key] = {}
        return {}
    mu, a = u[0]
    tail = u[1:]
    p = -mu - HALF  # divided-power order of the leading factor
    if p < 0 or p.denominator != 1:
        raise ValueError("states must live in the half-integer Fock space")
    p = int(p)
    if not tail:
        # the empty tail takes only its -1 mode and leaves no twist
        # correction, so u_n w = C(-q-1/2, p) a_q w at q = n - p + 1/2;
        # a right mode acts only where it meets a paired factor of w,
        # which apply_gen checks
        q = n - p + HALF
        coeff = gen_binomial(-q - HALF, p)
        out = {}
        if coeff and (q - space.support[a]) % 1 == 0:
            out = {m: coeff * c for m, c in space.apply_gen(a, q, w).items()}
        cache[key] = out
        return out
    chi = space.charge(a)
    tail_sign = -1 if parity(tail) else 1
    wt_tail = weight(tail)
    out: State = {}
    # right of the normal ordering: act on w first, sign past the tail
    for q in space.ann_modes(a, w):
        if q <= chi - HALF:
            continue  # a left mode, taken below
        aw = space.apply_gen(a, q, w)
        if not aw:
            continue
        coeff = gen_binomial(-q - HALF, p) * tail_sign
        n2 = n - q - p - HALF
        for m2, c2 in aw.items():
            vec_iadd(out, mode_mono(space, tail, n2, m2), coeff * c2)
    # left of the normal ordering: act after the tail's result
    lo = n - p - HALF - (deg_w + wt_tail - 1)
    for q in space.left_modes(a, lo):
        res = mode_mono(space, tail, n - q - p - HALF, w)
        if not res:
            continue
        coeff = gen_binomial(-q - HALF, p)
        for m2, c2 in res.items():
            vec_iadd(out, space.apply_gen(a, q, m2), coeff * c2)
    # twist corrections: lower-weight products of the leading generator
    # with the tail, taken inside the algebra itself
    if chi:
        gen = {((-HALF, a),): Fraction(1)}
        t = 1
        while HALF + wt_tail - t >= 0:
            ct = twist_correction(chi, p, t)
            if ct:
                prod = mode(space.algebra, gen, t - 1, {tail: Fraction(1)},
                            check_index=False)
                for m2, c2 in prod.items():
                    vec_iadd(out, mode_mono(space, m2, n - p - t, w),
                             -ct * c2)
            t += 1
    cache[key] = out
    return out


def mode_offset(space, u: Monomial) -> Fraction:
    """Coset of indices n for which u_n can act on this space."""
    return (weight(u) - 1 + sum(space.support[a] for _, a in u)) % 1


def in_coset(space, u: State, n) -> bool:
    """n lies in the twist coset of every monomial of u."""
    return all((n - mode_offset(space, um)) % 1 == 0 for um in u)


def mode(space, u: State, n, w: State, check_index: bool = True) -> State:
    """The operator u_n applied to w, for weight-homogeneous u."""
    n = Fraction(n)
    if u and state_weight(u) is None:
        raise ValueError("mode requires a weight-homogeneous state")
    if check_index and not in_coset(space, u, n):
        raise ValueError(f"index {n} not in the twist class of u")
    out: State = {}
    for um, cu in u.items():
        for wm, cw in w.items():
            vec_iadd(out, mode_mono(space, um, n, wm), cu * cw)
    return out


def o_action(space, a: State, w: State) -> State:
    """The zero mode o(a) applied to w, linear in a: each monomial m of a
    acts by the degree-preserving m_{wt m - 1}, so a may be inhomogeneous."""
    out: State = {}
    for m, c in a.items():
        vec_iadd(out, mode(space, {m: c}, weight(m) - 1, w,
                           check_index=False))
    return out


class Virasoro:
    """The conformal vector and its modes, with the computed central term."""

    def __init__(self, sector):
        self.sector = sector
        # column i of the inverse Gram matrix solves G x = e_i; G is
        # symmetric, so it is also row i
        gram = [dict(sector.partners(j)) for j in sector.gids]
        ginv = span_coordinates(gram, [{i: Fraction(1)} for i in sector.gids])
        omega: State = {}
        for i in sector.gids:
            for j in sector.gids:
                c = ginv[i].get(j)
                if c:
                    m, s = normalize([(Fraction(-3, 2), i), (-HALF, j)])
                    if s:
                        vec_iadd(omega, {m: HALF * c * s})
        self.omega = omega

    def L(self, space, m, w: State) -> State:
        return mode(space, self.omega, Fraction(m) + 1, w)

    def central_charge(self) -> Fraction:
        quad = mode(self.sector, self.omega, 3, self.omega)
        return 2 * quad.get((), Fraction(0))


def state_parity(st: State) -> int:
    ps = {parity(m) for m in st}
    if len(ps) != 1:
        raise ValueError("state has mixed parity")
    return ps.pop()


def residue_terms(alg, u: State, alpha, k: int, v: State):
    """The nonzero terms (i, C(alpha, i), u_{i-k} v) of the residue sum
    sum_i C(alpha, i) u_{i-k} v, products taken in the algebra alg.

    Every mode u_j with j > wt u + wt v - 1 annihilates v, so i runs
    while i - k stays at or below that bound; the top weight of v is
    used, so v may be inhomogeneous.  The Zhu products star and circ,
    the Lie bracket of mode symbols and the commutator formula all
    expand through this one sum, and so does the associativity check
    in tests/oracles.py.
    """
    if not u or not v:
        return
    top = max(map(weight, u)) + max(map(weight, v)) - 1
    i = 0
    while i - k <= top:
        c = gen_binomial(alpha, i)
        if c:
            prod = mode(alg, u, i - k, v)
            if prod:
                yield i, c, prod
        i += 1


def commutator_defect(alg, action, u: State, m, v: State, n,
                      w: State) -> State:
    """[u_m, v_n]+- w - sum_i C(m, i) (u_i v)_{m+n-i} w.

    action(x, k, y) applies the mode x_k to y: the mode on a space for
    verify_commutator; tests/oracles.py passes the dual mode of its
    Contragredient to check the dual module.
    The products u_i v are taken in alg.  Zero exactly when the twisted
    commutator formula holds on w.
    """
    sgn = -1 if state_parity(u) and state_parity(v) else 1
    out = action(u, m, action(v, n, w))
    vec_iadd(out, action(v, n, action(u, m, w)), Fraction(-sgn))
    for i, c, uiv in residue_terms(alg, u, m, 0, v):
        vec_iadd(out, action(uiv, m + n - i, w), -c)
    return out


def verify_commutator(space, u: State, v: State, samples) -> dict:
    """Check [u_m, v_n]+- w = sum_i C(m,i) (u_i v)_{m+n-i} w exactly.

    samples is an iterable of (m, n, w) triples; m and n must lie in
    the twist cosets of u and v, otherwise ValueError (off-coset modes
    act by zero, but their products need not).  Returns a report with
    the first failing tuple, if any.
    """
    def action(x, k, y):
        return mode(space, x, k, y, check_index=False)

    checked = 0
    for m, n, w in samples:
        m, n = Fraction(m), Fraction(n)
        if not (in_coset(space, u, m) and in_coset(space, v, n)):
            raise ValueError(f"indices {m}, {n} not in the twist classes")
        if commutator_defect(space.algebra, action, u, m, v, n, w):
            return {"ok": False, "checked": checked,
                    "failure": {"m": str(m), "n": str(n)}}
        checked += 1
    return {"ok": True, "checked": checked}


def verify_translation(space, omega: State, v: State, samples) -> dict:
    """Check (L(-1)v)_n = -n v_{n-1} on sample (n, w) pairs."""
    alg = space.algebra
    dv = mode(alg, omega, 0, v)
    checked = 0
    for n, w in samples:
        n = Fraction(n)
        lhs = mode(space, dv, n, w, check_index=False)
        vec_iadd(lhs, mode(space, v, n - 1, w, check_index=False), n)
        if lhs:
            return {"ok": False, "checked": checked, "failure": str(n)}
        checked += 1
    return {"ok": True, "checked": checked}


def verify_skew_symmetry(sector, omega: State, u: State, v: State) -> dict:
    """Check u_n v = eta sum_j (-1)^{n+j+1} L(-1)^j v_{n+j} u / j!."""
    eta = -1 if state_parity(u) and state_parity(v) else 1
    wu, wv = state_weight(u), state_weight(v)
    checked = 0
    n = int(wu + wv)  # products vanish above wu + wv - 1
    lo = -int(wu + wv) - 2
    for n in range(lo, n + 1):
        lhs = mode(sector, u, n, v)
        j = 0
        while j <= wu + wv - n - 1:
            vju = mode(sector, v, n + j, u)
            if vju:
                for _ in range(j):
                    vju = mode(sector, omega, 0, vju)
                sign = eta * (-1 if (n + j + 1) % 2 else 1)
                vec_iadd(lhs, vju, Fraction(-sign, factorial(j)))
            j += 1
        if lhs:
            return {"ok": False, "checked": checked, "failure": str(n)}
        checked += 1
    return {"ok": True, "checked": checked}
