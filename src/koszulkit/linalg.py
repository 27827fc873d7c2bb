"""Sparse exact linear algebra over Q and GF(p).

Vectors are dicts mapping coordinate index to a nonzero field element.
The workhorse is an incremental forward echelon (`EchelonSolver`) that
can optionally track how each inserted vector was reduced, which yields
kernels, membership certificates and particular solutions from the same
loop.  Pivot choice is deterministic: the smallest coordinate index.

Inside the solver every row, tracked combination and working vector
holds plain Python ints; field elements are converted only where
vectors enter or leave it.
- GF(p): an entry is its residue in [1, p); a stored row has pivot
  residue 1.
- Q: a vector being reduced is a dict of integer numerators V over one
  common denominator D > 0, and its tracked combination C shares D.  A
  stored row is an integer dict with positive pivot entry whose true
  value is row / row[pivot]; its combination has the same scale, and
  the entries of the two have no common factor.  Eliminating pivot c
  with g = gcd(V[c], P), P = row[c], sets V := (P/g) V - (V[c]/g) row
  (the combination likewise) and D := (P/g) D, then divides V, C and D
  by their common gcd: fraction-free elimination with one content gcd
  per row operation (Bareiss 1968 in its simplest form).

A vector that matters only up to a nonzero scale, such as one spanning
a saturation, can skip the field altogether: `EchelonSolver.add_ints`
takes an int dict (residues over GF(p), integers over Q) and stores it
with the same elimination and the same normalised rows as `add`.
`int_kernel` takes column j as ints over its own denominator, V_j / S_j,
and returns the null basis: the zero columns as indices, the other null
vectors as int vectors known up to scale; `kernel_of_columns` is a thin
wrapper on field vectors.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import itemgetter
from typing import Hashable, Iterable, Optional

from .fields import GFElement, rational


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


def vec_add_terms(dst: dict, terms) -> dict:
    """dst[k] += v for every pair (k, v) of terms, dropping entries that
    become zero; returns dst.  Values may be field elements or anything
    else with + and a truth value, such as polynomials."""
    get = dst.get
    for k, v in terms:
        cur = get(k)
        if cur is not None:
            v = cur + v
        if v:
            dst[k] = v
        elif cur is not None:
            del dst[k]
    return dst


def vec_combine(coeffs: dict, vectors) -> dict:
    """The sum of coeffs[k] * vectors[k], dropping zeros."""
    out: dict = {}
    for k, c in coeffs.items():
        vec_add_scaled(out, c, vectors[k])
    return out


def int_vector(vec: dict, p: int) -> tuple[dict, int]:
    """A field vector as ints V over one denominator D, vec = V / D:
    residues over GF(p) with D = 1, integers over Q with D the lcm of the
    denominators."""
    if p:
        return {c: e.v for c, e in vec.items()}, 1
    D = lcm(*[e.denominator for e in vec.values()])
    return {c: e.numerator * (D // e.denominator) for c, e in vec.items()}, D


def _sub_scaled(dst: dict, a: int, src: dict, p: int) -> None:
    """dst -= a * src on int dicts, mod p when p, dropping zeros."""
    for t, x in src.items():
        nv = dst.get(t, 0) - a * x
        if p:
            nv %= p
        if nv:
            dst[t] = nv
        else:
            del dst[t]


def _eliminate_mod_p(V: dict, C, p: int, rows: dict, combos: dict) -> None:
    """Clear every coordinate of V that is a pivot of rows, in place."""
    heap = list(V)
    heapify(heap)
    while heap:
        c = heappop(heap)
        a = V.get(c)
        if a is None:
            continue
        row = rows.get(c)
        if row is None:
            continue
        del V[c]
        for cc, rv in row.items():
            if cc == c:
                continue
            nv = V.get(cc)
            if nv is None:
                V[cc] = -a * rv % p
                heappush(heap, cc)
            else:
                nv = (nv - a * rv) % p
                if nv:
                    V[cc] = nv
                else:
                    del V[cc]
        if C is not None:
            _sub_scaled(C, a, combos[c], p)


def _eliminate_q(V: dict, C, D: int, rows: dict, combos: dict):
    """Clear every coordinate of V / D that is a pivot of rows.

    Returns the new (V, C, D); the true values V / D and C / D change
    exactly as field-element elimination would change them.
    """
    heap = list(V)
    heapify(heap)
    while heap:
        c = heappop(heap)
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
                heappush(heap, cc)
            else:
                nv -= a * rv
                if nv:
                    V[cc] = nv
                else:
                    del V[cc]
        if C is not None:
            _sub_scaled(C, a, combos[c], 0)
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


class EchelonSolver:
    """Incremental echelon form with optional combination tracking.

    Every stored row has its smallest coordinate as pivot and, as a
    field vector, pivot coefficient one.  Rows are only forward reduced;
    `reduce` still terminates with a remainder free of pivot coordinates
    because row entries never precede their pivot.
    """

    def __init__(self, field, track: bool = False):
        self.field = field
        self.track = track
        self._p = field.char  # 0 over Q
        self._rows: dict[int, dict] = {}
        self._combos: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, vec: dict, combo: Optional[dict] = None):
        """Eliminate all pivot coordinates from vec (a dict of field elements).

        `combo` is None (untracked) or a starting combination of int
        coefficients (residues over GF(p)).  Returns (V, C, D): the
        remainder is V / D and the combination C / D, with V and C int
        dicts and D = 1 over GF(p).  Tracking invariant: remainder -
        sum(C[t] / D * original_t) equals vec - sum(combo[t] * original_t).
        """
        return self._reduce_ints(*int_vector(vec, self._p), combo)

    def _reduce_ints(self, V: dict, D: int, combo: Optional[dict]):
        """`reduce` of the int vector V / D (D = 1 over GF(p)); consumes V."""
        p = self._p
        if p:
            C = None if combo is None else dict(combo)
            _eliminate_mod_p(V, C, p, self._rows, self._combos)
            return V, C, 1
        C = None if combo is None else {t: x * D for t, x in combo.items()}
        return _eliminate_q(V, C, D, self._rows, self._combos)

    def _to_field(self, vec: dict, D: int, sign: int = 1) -> dict:
        """The field vector sign * vec / D."""
        return field_vector(self._p, vec, D, sign)

    def _store(self, V: dict, C) -> None:
        """Normalise a nonzero remainder V (and its combination C) and
        store it as the row of its pivot: pivot residue 1 over GF(p),
        content 1 and a positive pivot entry over Q."""
        pivot = min(V)
        p = self._p
        if p:
            pv = V[pivot]
            if pv != 1:
                inv = pow(pv, p - 2, p)
                V = {c: x * inv % p for c, x in V.items()}
                if C is not None:
                    C = {t: x * inv % p for t, x in C.items()}
        else:
            g = gcd(*V.values())
            if g != 1 and C:
                g = gcd(g, *C.values())
            if V[pivot] < 0:
                g = -g
            if g != 1:
                V = {c: x // g for c, x in V.items()}
                if C is not None:
                    C = {t: x // g for t, x in C.items()}
        self._rows[pivot] = V
        if C is not None:
            self._combos[pivot] = C

    def add(self, vec: dict, tag: Hashable = None):
        """Insert a vector into the echelon.

        Returns None when the vector was independent (a new pivot row).
        Otherwise returns the dependency: a dict {tag: coeff} with
        vec = sum(coeff * previously added vector).  Requires track=True
        for a meaningful dependency; untracked solvers return {}.
        """
        if not vec:
            return {}
        V, C, D = self.reduce(vec, {tag: 1} if self.track else None)
        if not V:
            if C is None:
                return {}
            # 0 = vec + sum over earlier tags, so vec = -that sum
            C.pop(tag, None)
            return self._to_field(C, D, -1)
        self._store(V, C)
        return None

    def _remainder_ints(self, V: dict) -> dict:
        """The untracked remainder of an int vector known up to scale;
        consumes V."""
        p = self._p
        if p:
            _eliminate_mod_p(V, None, p, self._rows, self._combos)
            return V
        return _eliminate_q(V, None, 1, self._rows, self._combos)[0]

    def add_ints(self, V: dict) -> bool:
        """Insert an int vector that matters only up to a nonzero scale:
        residues over GF(p), integers over Q.  Consumes V; True if it was
        independent.  Only for untracked solvers."""
        V = self._remainder_ints(V)
        if not V:
            return False
        self._store(V, None)
        return True

    def contains_ints(self, V: dict) -> bool:
        """Is the int vector V (as for `add_ints`) in the span?  Consumes V."""
        return not self._remainder_ints(V)

    def has_pivot(self, c: int) -> bool:
        return c in self._rows

    def reduced_ints(self, pivot: int) -> dict:
        """The row of `pivot` with every other pivot coordinate
        eliminated: its reduced-echelon row, as ints up to scale (pivot
        residue 1 over GF(p), a positive pivot entry over Q)."""
        tail = dict(self._rows[pivot])
        lead = tail.pop(pivot)
        if self._p:
            _eliminate_mod_p(tail, None, self._p, self._rows, self._combos)
            return {pivot: lead, **tail}
        tail, _, D = _eliminate_q(tail, None, 1, self._rows, self._combos)
        return {pivot: lead * D, **tail}

    def int_rows(self) -> list[dict]:
        """The stored int rows in insertion order; each is the field row
        up to scale, and none is ever changed once stored."""
        return list(self._rows.values())

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)[0]

    def copy(self) -> "EchelonSolver":
        """An independent untracked solver with the same rows.

        The int rows are shared, not copied: the solver never changes a
        stored row, it only replaces or adds rows.
        """
        if self.track:
            raise ValueError("only untracked solvers are copied")
        s = EchelonSolver(self.field)
        s._rows = dict(self._rows)
        return s

    def solve(self, target: dict):
        """Express target in the inserted vectors: {tag: coeff} or None."""
        if not self.track:
            raise ValueError("solver was built without tracking")
        V, C, D = self.reduce(target, {})
        if V:
            return None
        return self._to_field(C, D, -1)


class Subspace:
    """A subspace of a coordinate space, stored as an echelon basis."""

    def __init__(self, field, vectors: Iterable[dict] = ()):
        self.field = field
        self._solver = EchelonSolver(field, track=False)
        for v in vectors:
            self._solver.add(v)

    @property
    def dim(self) -> int:
        return self._solver.rank

    def extend(self, vec: dict) -> bool:
        """Add a vector; True if the dimension grew."""
        return self._solver.add(vec) is None

    def extend_ints(self, vec: dict) -> bool:
        """Add an int vector known up to a nonzero scale (residues over
        GF(p), integers over Q); consumes it.  True if the dimension grew."""
        return self._solver.add_ints(vec)

    def extend_all(self, vectors: Iterable[dict]) -> None:
        for v in vectors:
            self._solver.add(v)

    def contains(self, vec: dict) -> bool:
        return self._solver.contains(vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis_rows())

    def reduce(self, vec: dict) -> dict:
        s = self._solver
        V, _, D = s.reduce(vec)
        return s._to_field(V, D)

    def basis_rows(self) -> list[dict]:
        """Echelon basis rows ordered by pivot coordinate."""
        s = self._solver
        rows = s._rows
        return [s._to_field(rows[p], rows[p][p]) for p in sorted(rows)]

    def reduced_basis_rows(self) -> list[dict]:
        """Fully reduced (RREF) basis: canonical for the subspace."""
        s = self._solver
        rows = s._rows
        pivots = sorted(rows)
        out = {}
        # back-eliminate, highest pivot first so later rows are final;
        # out rows have no entry at any other pivot, so each is a valid row
        for q in reversed(pivots):
            row = dict(rows[q])
            if s._p:
                _eliminate_mod_p(row, None, s._p, out, {})
            else:
                row = _eliminate_q(row, None, row[q], out, {})[0]
            out[q] = row
        return [s._to_field(out[q], out[q][q]) for q in pivots]

    def copy(self) -> "Subspace":
        """An independent subspace with the same (shared) rows."""
        s = Subspace(self.field)
        s._solver = self._solver.copy()
        return s

    def sum(self, other: "Subspace") -> "Subspace":
        s = self.copy()
        s.extend_all(other.basis_rows())
        return s


def field_vector(p: int, vec: dict, D: int, sign: int = 1) -> dict:
    """The field vector sign * vec / D of an int vector, over GF(p) for
    p > 0 and over Q for p = 0."""
    if p:
        return {c: GFElement(p, sign * x) for c, x in vec.items()}
    if D == 1:
        return {c: rational(sign * x) for c, x in vec.items()}
    return {c: rational(sign * x, D) for c, x in vec.items()}


def int_kernel(columns: Iterable[tuple[dict, int]], field) -> tuple[list, list, set]:
    """Null space of the linear map whose j-th column is V_j / S_j, for
    the int pairs (V_j, S_j) of columns (S_j = 1 over GF(p)), as
    (zeros, kernel, stored).

    A column is free exactly when it is not in `stored`, the set of the
    columns that became echelon rows.  `zeros` lists the zero columns f in
    ascending order; the null vector of each is the unit vector e_f.
    `kernel` holds the other free columns as pairs (f, C) in ascending
    order of f: C is an int vector (residues over GF(p), integers without
    common factor over Q) whose field value C / C[f] is the reduced-echelon
    null vector of free column f, with coefficient one at f and zero at
    every other free column.  Column j's combination starts at S_j, as it
    would for V_j / S_j, so no C depends on the scale of a column.
    """
    solver = EchelonSolver(field, track=True)
    rows = solver._rows
    p = field.char
    zeros, kernel, stored = [], [], set()
    for f, (V, S) in enumerate(columns):
        if not V:  # most columns of a resolution sweep
            zeros.append(f)
            continue
        if len(V) == 1 and (c := next(iter(V))) not in rows:
            # nothing to eliminate: store the row that elimination would,
            # whose combination starts at S (at 1 over GF(p))
            solver._store({c: V[c]}, {f: 1 if p else S})
            stored.add(f)
            continue
        V, C, _D = solver._reduce_ints(dict(V), S, {f: 1})
        if V:
            solver._store(V, C)
            stored.add(f)
        else:
            kernel.append((f, C))  # C[f] is the common denominator _D
    return zeros, kernel, stored


def kernel_vector(f: int, C: dict, field) -> dict:
    """The field vector of an `int_kernel` pair: entries in the order of
    C, except that the coefficient one at f comes last."""
    vec = field_vector(field.char, C, C[f])
    del vec[f]
    vec[f] = field.one
    return vec


def kernel_of_columns(columns: list[dict], field) -> list[dict]:
    """Null space of the linear map whose j-th column is columns[j].

    Returns kernel vectors over the source indices, in ascending order of
    their leading (free) index; each has coefficient one there.  This is
    the reduced-echelon null basis with free variables set to zero.
    """
    pairs = (int_vector(col, field.char) for col in columns)
    zeros, kernel, _stored = int_kernel(pairs, field)
    # each list is ascending in f, so the sort merges two runs
    vectors = sorted([(f, {f: field.one}) for f in zeros] +
                     [(f, kernel_vector(f, C, field)) for f, C in kernel], key=itemgetter(0))
    return [vec for _f, vec in vectors]
