"""Sparse exact linear algebra over Q and GF(p), on int vectors.

The workhorse is an incremental forward echelon (`EchelonSolver`) that
can optionally track how each inserted vector was reduced, which yields
kernels, membership certificates and particular solutions from the same
loop.  Pivot choice is deterministic: the smallest coordinate index.

Every vector that goes in or comes out of the solver holds plain Python
ints; field elements are built (`field_vector`) or taken apart
(`int_vector`) only where a value enters or leaves the library.
- GF(p): an entry is its residue in [1, p); a stored row has pivot
  residue 1.
- Q: a vector being reduced is a dict of integer numerators V over one
  common denominator D > 0, and its tracked combination C shares D.  A
  stored row is an integer dict with positive pivot entry whose true
  value is row / row[pivot]; its combination has the same scale, and
  the entries of the two have no common factor.  Eliminating pivot c
  with g = gcd(V[c], P), P = row[c], sets V := (P/g) V - (V[c]/g) row
  (the combination likewise) and D := (P/g) D: fraction-free
  elimination (Bareiss 1968 in its simplest form).  After the last row
  operation V, C and D are divided by their common gcd, one content gcd
  per reduced vector.  That is literally what a gcd after every row
  operation gives: either way V / D and C / D are the same field
  values, and those have exactly one int form with D > 0 and
  gcd(D, V, C) = 1.

`reduce` and `solve` take a vector as the pair (V, D).  A vector that
matters only up to a nonzero scale, such as one spanning a saturation,
goes to `add` and `contains` as V alone.  `kernel_of_columns`, the one
kernel, takes column j as ints V_j over their own denominator S_j and
returns the null basis: the zero columns as indices, the other null
vectors as int vectors known up to scale.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Optional

from .fields import GFElement, rational


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


def int_vector(vec: dict, p: int) -> tuple[dict, int]:
    """A field vector as ints V over one denominator D, vec = V / D:
    residues over GF(p) with D = 1, integers over Q with D the lcm of the
    denominators."""
    if p:
        return {c: e.v for c, e in vec.items()}, 1
    D = lcm(*[e.denominator for e in vec.values()])
    return {c: e.numerator * (D // e.denominator) for c, e in vec.items()}, D


def _sub_scaled(dst: dict, a: int, src: dict, p: int) -> None:
    """dst -= a * src on int dicts, mod p when p, dropping zeros; a new
    entry goes last."""
    for t, x in src.items():
        nv = dst.get(t, 0) - a * x
        if p:
            nv %= p
        if nv:
            dst[t] = nv
        else:
            del dst[t]


def combine_ints(coeffs: tuple[dict, int], pairs, p: int) -> tuple[dict, int]:
    """The int pair of sum C[k] / D * pairs[k] for the int pair (C, D) of
    coefficients and int pairs (V_k, S_k) (residues over GF(p)), over D
    times the lcm L of the S_k.  The entries come in C's order, each
    term's new entries last."""
    C, D = coeffs
    L = lcm(*(pairs[k][1] for k in C))
    out: dict = {}
    for k, c in C.items():
        V, S = pairs[k]
        _sub_scaled(out, -c * (L // S), V, p)
    return out, D * L


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
    exactly as field-element elimination would change them.  A call that
    eliminates nothing returns its input as it is.
    """
    eliminated = False
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
        eliminated = True
    if eliminated and D != 1:  # the one content gcd (see the module docstring)
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
    """Incremental int echelon form with optional combination tracking.

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

    def reduce(self, V: dict, D: int, combo: Optional[dict] = None):
        """Eliminate all pivot coordinates from the int vector V / D
        (residues with D = 1 over GF(p)); consumes V.

        `combo` is None (untracked) or a starting combination of int
        coefficients (residues over GF(p)).  Returns (V, C, D): the
        remainder is V / D and the combination C / D, with V and C int
        dicts and D = 1 over GF(p).  Tracking invariant: remainder -
        sum(C[t] / D * original_t) equals the input V / D -
        sum(combo[t] * original_t).
        """
        p = self._p
        if p:
            C = None if combo is None else dict(combo)
            _eliminate_mod_p(V, C, p, self._rows, self._combos)
            return V, C, 1
        C = None if combo is None else {t: x * D for t, x in combo.items()}
        return _eliminate_q(V, C, D, self._rows, self._combos)

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

    def add(self, V: dict) -> bool:
        """Insert an int vector that matters only up to a nonzero scale:
        residues over GF(p), integers over Q.  Consumes V; True if it was
        independent.  Only for untracked solvers."""
        V = self.reduce(V, 1)[0]
        if not V:
            return False
        self._store(V, None)
        return True

    def contains(self, V: dict) -> bool:
        """Is the int vector V (as for `add`) in the span?  Consumes V."""
        return not self.reduce(V, 1)[0]

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

    def solve(self, V: dict, D: int):
        """Express the target V / D (ints as for `reduce`) in the
        inserted vectors: the int pair (X, E) of the solution
        {tag: X[tag] / E}, with residues and E = 1 over GF(p), or None.
        Consumes V."""
        if not self.track:
            raise ValueError("solver was built without tracking")
        V, C, D = self.reduce(V, D, {})
        if V:
            return None
        p = self._p
        if p:
            return {t: p - x for t, x in C.items()}, 1
        return {t: -x for t, x in C.items()}, D


class Subspace:
    """A subspace of a coordinate space, stored as an int echelon basis."""

    def __init__(self, field):
        self._solver = EchelonSolver(field)

    @property
    def dim(self) -> int:
        return self._solver.rank

    def extend(self, V: dict) -> bool:
        """Add an int vector known up to a nonzero scale (residues over
        GF(p), integers over Q); consumes it.  True if the dimension grew."""
        return self._solver.add(V)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self._solver.contains(dict(V)) for V, _S in other.basis_pairs())

    def basis_pairs(self) -> list[tuple[dict, int]]:
        """Echelon basis rows ordered by pivot coordinate, each as an int
        pair (row, S) whose field vector row / S has pivot coefficient one."""
        rows = self._solver._rows
        return [(rows[q], rows[q][q]) for q in sorted(rows)]

    def reduced_basis_rows(self) -> list[dict]:
        """Fully reduced (RREF) basis as field vectors: canonical for the
        subspace."""
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
        return [field_vector(s._p, out[q], out[q][q]) for q in pivots]


def field_vector(p: int, vec: dict, D: int, sign: int = 1) -> dict:
    """The field vector sign * vec / D of an int vector, over GF(p) for
    p > 0 and over Q for p = 0."""
    if p:
        return {c: GFElement(p, sign * x) for c, x in vec.items()}
    if D == 1:
        return {c: rational(sign * x) for c, x in vec.items()}
    return {c: rational(sign * x, D) for c, x in vec.items()}


def kernel_of_columns(columns: Iterable[tuple[dict, int]], field,
                      solver: Optional[EchelonSolver] = None) -> tuple[list, list, set]:
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

    With `solver`, an empty tracked solver over the same field, the
    columns go into it, each tagged by its position, and it keeps their
    echelon for later solves.
    """
    if solver is None:
        solver = EchelonSolver(field, track=True)
    rows, combos = solver._rows, solver._combos
    p = field.char
    zeros, kernel, stored = [], [], set()
    for f, (V, S) in enumerate(columns):
        if not V:  # most columns of a resolution sweep
            zeros.append(f)
            continue
        if len(V) == 1 and (c := next(iter(V))) not in rows:
            # nothing to eliminate: store the row and combination that
            # `_store` makes of ({c: V[c]}, {f: 1 if p else S})
            if p:  # pivot residue 1
                rows[c], combos[c] = {c: 1}, {f: pow(V[c], p - 2, p)}
            else:  # content 1 and a positive pivot entry
                g = gcd(x, S) if (x := V[c]) > 0 else -gcd(x, S)
                rows[c], combos[c] = {c: x // g}, {f: S // g}
            stored.add(f)
            continue
        V, C, _D = solver.reduce(dict(V), S, {f: 1})
        if V:
            solver._store(V, C)
            stored.add(f)
        else:
            kernel.append((f, C))  # C[f] is the common denominator _D
    return zeros, kernel, stored


def null_pairs(null_space: tuple) -> list[tuple[int, tuple[dict, int]]]:
    """The null vectors of a `kernel_of_columns` result as (f, (V, S)) in
    ascending order of the free column f: ({f: 1}, 1) for a zero column,
    else (C, C[f]) with f moved last (C is taken over), so that the field
    vector V / S has its coefficient one at f last."""
    zeros, kernel, _stored = null_space
    pairs = [(f, ({f: 1}, 1)) for f in zeros]
    for f, C in kernel:
        C[f] = C.pop(f)
        pairs.append((f, (C, C[f])))
    return sorted(pairs, key=itemgetter(0))
