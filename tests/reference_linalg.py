"""Reference sparse elimination on field elements, for tests only.

This is the field-element `EchelonSolver` that `koszulkit.linalg` used
before its rows held plain ints: every operation is `Fraction` or
`GFElement` arithmetic, so it is slow but obviously right.
`tests/test_linalg.py` checks that the int-backed solver returns
literally equal results.

`int_kernel` is the int kernel as it was before zero columns came back
as indices and unit columns skipped the elimination: every free column
gives a pair (f, C), the zero ones ({f: 1}), and every nonzero column is
reduced through the heap.

`eliminate_q` is the int elimination over Q as it was before it took
one content gcd per reduced vector: it divides V, C and D by their
common gcd after every row operation.

`vec_add_scaled` and `vec_combine` are the field-vector sums that
`koszulkit.linalg` kept while its kernels still returned field vectors;
the references use them.
"""

from __future__ import annotations

import heapq
from math import gcd
from typing import Hashable, Iterable, Optional

from koszulkit.linalg import EchelonSolver as IntEchelonSolver


def vec_add_scaled(dst: dict, scale, src: dict) -> None:
    """dst += scale * src, dropping entries that become zero."""
    if not scale:
        return
    get = dst.get
    for c, v in src.items():
        nv = get(c)
        nv = scale * v if nv is None else nv + scale * v
        if nv:
            dst[c] = nv
        else:
            del dst[c]


def vec_combine(coeffs: dict, vectors) -> dict:
    """The sum of coeffs[k] * vectors[k], dropping zeros."""
    out: dict = {}
    for k, c in coeffs.items():
        vec_add_scaled(out, c, vectors[k])
    return out


class EchelonSolver:
    """Incremental forward echelon; every row has pivot coefficient one."""

    def __init__(self, field, track: bool = False):
        self.field = field
        self.track = track
        self.rows: dict[int, dict] = {}
        self.combos: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict, combo: Optional[dict] = None):
        """Return (remainder, combo') after eliminating all pivot coordinates."""
        vec = dict(vec)
        combo = dict(combo) if combo is not None else ({} if self.track else None)
        if not vec:
            return vec, combo
        rows = self.rows
        heap = list(vec)
        heapq.heapify(heap)
        while heap:
            c = heapq.heappop(heap)
            v = vec.get(c)
            if not v:
                continue
            row = rows.get(c)
            if row is None:
                continue
            del vec[c]
            for cc, rv in row.items():
                if cc == c:
                    continue
                nv = vec.get(cc)
                if nv is None:
                    nv = -v * rv
                    if nv:
                        vec[cc] = nv
                        heapq.heappush(heap, cc)
                else:
                    nv = nv - v * rv
                    if nv:
                        vec[cc] = nv
                    else:
                        del vec[cc]
            if combo is not None:
                vec_add_scaled(combo, -v, self.combos[c])
        return vec, combo

    def add(self, vec: dict, tag: Hashable = None):
        """None if vec was independent, else its dependency {tag: coeff}."""
        start = {tag: self.field.one} if self.track else None
        rem, combo = self.reduce(vec, start)
        if not rem:
            if combo is None:
                return {}
            combo.pop(tag, None)
            return {t: -c for t, c in combo.items()}
        pivot = min(rem)
        pv = rem[pivot]
        if pv != self.field.one:
            inv = self.field.one / pv
            rem = {c: v * inv for c, v in rem.items()}
            if combo is not None:
                combo = {t: v * inv for t, v in combo.items()}
        self.rows[pivot] = rem
        if combo is not None:
            self.combos[pivot] = combo
        return None

    def solve(self, target: dict):
        """Express target in the inserted vectors: {tag: coeff} or None."""
        rem, combo = self.reduce(target, {})
        if rem:
            return None
        return {t: -c for t, c in combo.items() if c}


class Subspace:
    def __init__(self, field, vectors: Iterable[dict] = ()):
        self._solver = EchelonSolver(field)
        for v in vectors:
            self._solver.add(v)

    @property
    def dim(self) -> int:
        return self._solver.rank

    def extend(self, vec: dict) -> bool:
        return self._solver.add(vec) is None

    def reduce(self, vec: dict) -> dict:
        return self._solver.reduce(vec, None)[0]

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def basis_rows(self) -> list[dict]:
        return [self._solver.rows[p] for p in sorted(self._solver.rows)]

    def reduced_basis_rows(self) -> list[dict]:
        pivots = sorted(self._solver.rows)
        out = {}
        for p in reversed(pivots):
            row = dict(self._solver.rows[p])
            for q in pivots:
                if q <= p or q not in row:
                    continue
                vec_add_scaled(row, -row[q] / out[q][q], out[q])
            out[p] = row
        return [out[p] for p in pivots]


def kernel_of_columns(columns: list[dict], field) -> list[dict]:
    solver = EchelonSolver(field, track=True)
    kernel = []
    for j, col in enumerate(columns):
        dep = solver.add(col, tag=j)
        if dep is not None:
            vec = {t: -c for t, c in dep.items()}
            vec[j] = field.one
            kernel.append(vec)
    return kernel


def int_kernel(columns, field, solver=None) -> list[tuple[int, dict]]:
    """The null space of the int columns (V_j, S_j) as pairs (f, C) in
    ascending order of the free column f, the zero columns included.
    With `solver`, an empty tracked solver, the columns go into it, each
    stored row through `_store`."""
    if solver is None:
        solver = IntEchelonSolver(field, track=True)
    kernel = []
    for f, (V, S) in enumerate(columns):
        if not V:
            kernel.append((f, {f: 1}))
            continue
        V, C, _D = solver.reduce(dict(V), S, {f: 1})
        if V:
            solver._store(V, C)
        else:
            kernel.append((f, C))
    return kernel


def eliminate_q(V: dict, C, D: int, rows: dict, combos: dict):
    """Clear every coordinate of V / D that is a pivot of rows, with a
    content gcd after every row operation; returns the new (V, C, D)."""
    heap = list(V)
    heapq.heapify(heap)
    while heap:
        c = heapq.heappop(heap)
        a = V.get(c)
        if a is None:
            continue
        row = rows.get(c)
        if row is None:
            continue
        del V[c]
        P = row[c]
        if P != 1:
            g = gcd(a, P)
            a //= g
            if g != P:
                s = P // g
                V = {k: x * s for k, x in V.items()}
                if C is not None:
                    C = {t: x * s for t, x in C.items()}
                D *= s
        for cc, rv in row.items():
            if cc == c:
                continue
            nv = V.get(cc)
            if nv is None:
                V[cc] = -a * rv
                heapq.heappush(heap, cc)
            else:
                nv -= a * rv
                if nv:
                    V[cc] = nv
                else:
                    del V[cc]
        if C is not None:
            for t, x in combos[c].items():
                nv = C.get(t, 0) - a * x
                if nv:
                    C[t] = nv
                else:
                    del C[t]
        if D != 1:
            g = gcd(D, *V.values())
            if g != 1 and C:
                g = gcd(g, *C.values())
            if g != 1:
                V = {k: x // g for k, x in V.items()}
                if C is not None:
                    C = {t: x // g for t, x in C.items()}
                D //= g
    return V, C, D
