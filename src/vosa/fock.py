"""Fermionic Fock monomials, Koszul signs and graded basis enumeration.

A monomial is a tuple of (mode, generator_id) factors sorted strictly
ascending; the empty tuple is the vacuum.  States are sparse dicts
mapping monomials to Fractions.  A Sector fixes the generator set, the
bilinear pairing and the coset of allowed modes per generator, and
provides the elementary creation/annihilation action every higher
operation is built from.  Its monomials hold no zero mode: a twisted
module's zero modes act on a ground space (modules.InducedSpace).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

Monomial = tuple
State = dict


def normalize(factors: Iterable[tuple]):
    """Sort factors into canonical order, tracking the Koszul sign.

    Returns (monomial, sign) with sign in {1, -1}, or (None, 0) when a
    factor repeats (fermion square).
    """
    fs = list(factors)
    sign = 1
    # insertion sort; fermionic factors are odd so each swap flips the sign
    for i in range(1, len(fs)):
        j = i
        while j > 0 and fs[j - 1] > fs[j]:
            fs[j - 1], fs[j] = fs[j], fs[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and fs[j - 1] == fs[j]:
            return None, 0
    return tuple(fs), sign


def weight(mono: Monomial) -> Fraction:
    """Sum of -mode over factors; the vacuum has weight 0."""
    return -sum((m for m, _ in mono), Fraction(0))


def parity(mono: Monomial) -> int:
    return len(mono) & 1


def state_weight(st: State):
    """Weight of a homogeneous state, or None for 0 / non-homogeneous."""
    ws = {weight(m) for m in st}
    return ws.pop() if len(ws) == 1 else None


def graded_key(mono: Monomial):
    """Total order on monomials: by weight, then lexicographic."""
    return (weight(mono), mono)


class Sector:
    """Generator/mode data for one fermionic Fock space.

    pairing is a symmetric dict {(i, j): Fraction}; support maps each
    generator to the fractional part of its allowed mode indices.  Modes
    below zero create and positive modes contract; no monomial holds a
    zero mode.  algebra is the Fock space of the vertex algebra whose
    module this is, the space itself here (modules.InducedSpace sets
    it); the twist corrections of the mode recursion act through its
    generator states.  _mode_cache memoizes that recursion on this
    space.
    """

    def __init__(self, labels, pairing, support):
        self.labels = list(labels)
        self.gids = list(range(len(self.labels)))
        self.pairing = {}
        for (i, j), c in pairing.items():
            c = Fraction(c)
            if c:
                self.pairing[(i, j)] = c
                self.pairing[(j, i)] = c
        self.support = {g: Fraction(support[g]) % 1 for g in self.gids}
        self.algebra = self
        self._mode_cache: dict = {}
        for g in self.gids:
            if not any((g, h) in self.pairing for h in self.gids):
                raise ValueError(f"degenerate pairing at generator {g}")

    def pair(self, i: int, j: int) -> Fraction:
        return self.pairing.get((i, j), Fraction(0))

    def partners(self, g: int):
        return [(h, c) for (i, h), c in self.pairing.items() if i == g]

    def charge(self, gid: int) -> Fraction:
        """Fractional twist charge of a generator, in [0, 1).

        Zero for half-integer mode support (untwisted behaviour); one half
        for integer support.  Generators with nonzero charge pick up
        correction terms in the mode recursion.
        """
        return (self.support[gid] + Fraction(1, 2)) % 1

    def creation_modes(self, gid: int, lo: Fraction):
        """Basis-building modes q with lo <= q: the negative modes,
        descending from the largest."""
        off = self.support[gid]
        # plain ints on the integer lattice: they hash and compare much
        # faster than Fractions inside monomials
        q = off - 1 if off else -1
        out = []
        while q >= lo:
            out.append(q)
            q -= 1
        return out

    def left_modes(self, gid: int, lo: Fraction):
        """Modes on the left of the normal ordering, descending, >= lo.

        The split point depends only on the twist charge: modes q <=
        charge - 1/2 sit on the left, so a zero mode always does,
        whatever operator it happens to act by, and on a rotation twist
        (charge above 1/2) so do the positive modes up to charge - 1/2.
        The modes above the split point sit on the right.
        """
        q = self.charge(gid) - Fraction(1, 2)
        out = []
        while q >= lo:
            out.append(q)
            q -= 1
        return out

    def ann_modes(self, gid: int, mono: Monomial):
        """Positive modes of gid that meet a paired factor of mono,
        ascending: the positive modes that can act on mono.  Those up to
        charge - 1/2 sit left of the normal ordering, the rest right."""
        out = {
            -mu
            for mu, h in mono
            if mu < 0 and self.pair(gid, h)
        }
        return sorted(out)

    def degree(self, el) -> Fraction:
        """Degree of a basis element; the hook the mode recursion grades by."""
        return weight(el)

    def apply_gen(self, gid: int, mode: Fraction, mono: Monomial) -> State:
        """Action of generator mode gid(mode) on one monomial.

        Negative modes multiply on the left (then normalize); the others
        act as the pairing-weighted super-derivation.  A mode outside the
        generator's coset raises ValueError.
        """
        if (mode - self.support[gid]) % 1 != 0:
            raise ValueError(
                f"mode {mode} outside support of {self.labels[gid]}"
            )
        if mode < 0:
            m, s = normalize(((mode, gid),) + mono)
            return {m: Fraction(s)} if s else {}
        out: State = {}
        sign = 1
        for i, (mu, h) in enumerate(mono):
            if mu == -mode:
                c = self.pair(gid, h)
                if c:
                    # distinct factors leave distinct rests
                    out[mono[:i] + mono[i + 1 :]] = sign * c
            sign = -sign
        return out

    def _weighed_basis(self, max_weight) -> list:
        """(weight, monomial) pairs of weight <= max_weight, sorted: the
        monomials in graded-lex order, each with its weight."""
        max_weight = Fraction(max_weight)
        factors = []
        for g in self.gids:
            for q in self.creation_modes(g, -max_weight):
                factors.append((q, g))
        factors.sort()
        out = []

        def grow(start: int, acc: list, w):
            out.append((w, tuple(acc)))
            for i in range(start, len(factors)):
                dw = -factors[i][0]
                if w + dw <= max_weight:
                    acc.append(factors[i])
                    grow(i + 1, acc, w + dw)
                    acc.pop()

        # (weight, monomial) pairs sort in graded_key order
        grow(0, [], Fraction(0))
        out.sort()
        return out

    def basis(self, max_weight) -> list:
        """All basis elements of degree <= max_weight, by degree and in
        basis_by_degree order within one: graded-lex on monomials."""
        by = self.basis_by_degree(max_weight)
        return [el for d in sorted(by) for el in by[d]]

    def basis_by_degree(self, max_weight) -> dict:
        """The monomials of weight <= max_weight grouped by weight, in
        lexicographic order within a group."""
        by: dict = {}
        for w, mono in self._weighed_basis(max_weight):
            by.setdefault(w, []).append(mono)
        return by

    def graded_dims(self, max_weight) -> dict:
        return {d: len(els)
                for d, els in self.basis_by_degree(max_weight).items()}

    def describe(self) -> dict:
        """Stable JSON-friendly description (used for cache keys)."""
        return {
            "labels": self.labels,
            "pairing": sorted(
                [i, j, str(c)] for (i, j), c in self.pairing.items() if i <= j
            ),
            "support": [str(self.support[g]) for g in self.gids],
        }


def ns_polarized(l: int) -> Sector:
    """The algebra's Fock space on a polarized basis.

    For l = 2k the generators are b_1..b_k, b*_1..b*_k with (b_i, b*_j) =
    delta_ij; odd l adds a self-paired e with (e, e) = 2.  This basis keeps
    every twisted-module computation rational.
    """
    k = l // 2
    labels = [f"b{i+1}" for i in range(k)] + [f"B{i+1}" for i in range(k)]
    pairing = {(i, k + i): Fraction(1) for i in range(k)}
    if l % 2:
        labels.append("e")
        pairing[(l - 1, l - 1)] = Fraction(2)
    support = {i: Fraction(1, 2) for i in range(l)}
    return Sector(labels, pairing, support)
