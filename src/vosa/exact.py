"""Exact rational scalars, generalized binomials and sparse linear algebra.

Scalars are ``fractions.Fraction`` throughout.  Sparse vectors are plain
dicts mapping a totally ordered key (usually a canonical monomial tuple)
to a nonzero Fraction.  A matrix is a list of sparse columns: mat[y] is
the image of basis vector y.  The elimination core is fraction-free: rows are
scaled to integers and combined by cross-multiplication with gcd
normalization, so no intermediate fractions appear.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable


def gen_binomial(alpha, s: int) -> Fraction:
    """Binomial coefficient alpha(alpha-1)...(alpha-s+1)/s! for rational alpha."""
    if s < 0:
        raise ValueError("binomial order must be nonnegative")
    alpha = Fraction(alpha)
    num = Fraction(1)
    for i in range(s):
        num *= alpha - i
        num /= i + 1
    return num


def vec_iadd(dst: dict, src: dict, c: Fraction = Fraction(1)) -> dict:
    """dst += c*src in place; src is never mutated. Returns dst."""
    if not c:
        return dst
    for k, v in src.items():
        w = dst.get(k, 0) + c * v
        if w:
            dst[k] = w
        else:
            dst.pop(k, None)
    return dst


def _to_int_row(v: dict) -> dict:
    """Clear denominators and divide by content; leading (max-key) entry > 0."""
    if not v:
        return {}
    den = 1
    for x in v.values():
        den = lcm(den, Fraction(x).denominator)
    row = {k: int(Fraction(x) * den) for k, x in v.items()}
    g = 0
    for x in row.values():
        g = gcd(g, x)
    if row[max(row)] < 0:
        g = -g
    return {k: x // g for k, x in row.items()}


class Echelon:
    """Incremental exact row echelon form over the rationals.

    Rows are stored as integer dicts, pivoted on their maximal key.  Adding
    a row eliminates it against existing pivots by integer
    cross-multiplication (no divisions except a final gcd), which keeps all
    arithmetic fraction-free.  The echelon form is independent of row
    order and row scaling up to the stored normalization.
    """

    def __init__(self):
        self.pivots: dict[Hashable, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _eliminate(self, row: dict) -> dict:
        while row:
            k = max(row)
            p = self.pivots.get(k)
            if p is None:
                return row
            a, b = p[k], row[k]
            row = {j: a * x for j, x in row.items()}
            for j, x in p.items():
                w = row.get(j, 0) - b * x
                if w:
                    row[j] = w
                else:
                    row.pop(j, None)
            g = 0
            for x in row.values():
                g = gcd(g, x)
            if g > 1:
                row = {j: x // g for j, x in row.items()}
        return row

    def add(self, vec: dict) -> bool:
        """Insert a vector; returns True if it enlarged the row space."""
        row = self._eliminate(_to_int_row(vec))
        if not row:
            return False
        if row[max(row)] < 0:
            row = {k: -x for k, x in row.items()}
        self.pivots[max(row)] = row
        return True

    def reduce(self, vec: dict, fill=None) -> dict:
        """Canonical representative of vec modulo the row space.

        The result is supported only on non-pivot keys and is linear in vec.
        fill, if given, is called with each key the reduction reaches that
        has no pivot; a nonzero row it returns must lead with that key and
        is added as its pivot, so the row space grows as it is read.
        """
        out = {k: Fraction(x) for k, x in vec.items() if x}
        done: dict = {}
        while out:
            k = max(out)
            p = self.pivots.get(k)
            if p is None and fill is not None and self.add(fill(k)):
                p = self.pivots[k]
            if p is None:
                done[k] = out.pop(k)
                continue
            c = out.pop(k) / p[k]
            for j, x in p.items():
                if j == k:
                    continue
                w = out.get(j, 0) - c * x
                if w:
                    out[j] = w
                else:
                    out.pop(j, None)
        return done


def nullspace(images: list[dict]) -> list[dict]:
    """Kernel of the linear map sending domain basis vector j to images[j].

    Returns kernel vectors as dicts {j: coefficient}.
    """
    ech = Echelon()
    kernel = []
    for j, img in enumerate(images):
        aug = {(1, k): Fraction(x) for k, x in img.items()}
        aug[(0, j)] = Fraction(1)
        row = ech._eliminate(_to_int_row(aug))
        if row and max(row)[0] == 0:
            kernel.append({k[1]: Fraction(x) for k, x in row.items()})
        elif row:
            ech.pivots[max(row)] = row
    return kernel


def span_coordinates(basis: list[dict], targets: list[dict]) -> list:
    """Sparse coordinates {j: c} of each target in span(basis), or None.

    One echelon of the tagged basis vectors serves every target.
    """
    ech = Echelon()
    for j, b in enumerate(basis):
        aug = {(1, k): Fraction(x) for k, x in b.items()}
        aug[(0, j)] = Fraction(1)
        ech.add(aug)
    out = []
    for target in targets:
        red = ech.reduce({(1, k): Fraction(x) for k, x in target.items()})
        if any(k[0] == 1 for k in red):
            out.append(None)
        else:
            out.append({k[1]: -x for k, x in red.items()})
    return out


def mat_apply(mat: list, vec: dict) -> dict:
    """A matrix of sparse columns applied to a sparse vector."""
    out: dict = {}
    for j, c in vec.items():
        vec_iadd(out, mat[j], c)
    return out


def mat_lincomb(mats, coords: dict, n: int) -> list:
    """sum coords[i] mats[i] of n-column matrices, column by column."""
    cols = [{} for _ in range(n)]
    for i, c in coords.items():
        for col, src in zip(cols, mats[i]):
            vec_iadd(col, src, c)
    return cols
