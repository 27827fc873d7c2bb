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
"""

from __future__ import annotations

import heapq
from typing import Hashable, Iterable, Optional

from koszulkit.linalg import EchelonSolver as IntEchelonSolver, vec_add_scaled


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


def int_kernel(columns, field) -> list[tuple[int, dict]]:
    """The null space of the int columns (V_j, S_j) as pairs (f, C) in
    ascending order of the free column f, the zero columns included."""
    solver = IntEchelonSolver(field, track=True)
    kernel = []
    for f, (V, S) in enumerate(columns):
        if not V:
            kernel.append((f, {f: 1}))
            continue
        V, C, _D = solver._reduce_ints(dict(V), S, {f: 1})
        if V:
            solver._store(V, C)
        else:
            kernel.append((f, C))
    return kernel
