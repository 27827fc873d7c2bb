"""The Koszul complex of a quotient ring as a differential graded algebra.

For R = k[x1..xn]/I the complex is the exterior algebra over R on
generators T1..Tn with d(Ti) = xi extended by the Leibniz rule.  Elements
are stored as maps from strictly increasing index tuples (the exterior
monomials) to normal-form coefficients in R.

Bidegrees (i, j): i is the homological degree (exterior word length),
j the internal degree (coefficient degree plus i).  The differential
preserves j; products add bidegrees.  Homology is computed per bidegree
on the ring's int coordinate layer: a differential column is an int pair
(V, S), ints V over the piece's one scale S read off
`QuotientRing.int_action`, which `kernel_of_columns` takes as it is.
Cycles and filtered slices stay int pairs; field vectors are built only
for representatives, generators, class coordinates and witnesses.  The
cycle test `KoszulElement.is_cycle` reads the same tables: each
component of an element in one piece goes through them column by
column, and only an ungraded ring that is not artinian, which has no
pieces, takes `diff` through `Polynomial` products.
Products of cycles, where only their span matters (minimal generators
and the checks in `conditions`), are int vectors from the ring's
structure constants and a table of exterior shuffle signs
(`product_ints`).  Such a span lies inside the cycle space of its piece,
so it is complete once its dimension reaches the number of cycles.

Spans inside the cycle space are kept in cycle coordinates.  The cycles
of a piece are the reduced-echelon null basis of `kernel_of_columns`: z_f
has coefficient one at its free column f and zero at every other free
column.  So keeping only the free columns F of a cycle w is an exact
isomorphism Z -> k^F, with w = sum of w[f] z_f, and boundaries, products
of cycles and class coordinates all live in k^F.  Free column f is named
-f there, so an echelon pivots on the largest free column, and z_f lies
outside span + span(z_g : g < f) exactly when -f is not a pivot: that is
how representatives and generators are chosen, with the same choices as
inserting the cycles one by one in full coordinates.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import comb
from typing import Optional, Sequence

from .errors import BudgetError, NotACycleError, NotArtinianError, PreconditionError
from .linalg import (EchelonSolver, combine_ints, field_vector, int_vector, kernel_of_columns,
                     null_pairs, vec_add_terms)
from .poly import Polynomial, power
from .quotient import QuotientRing


def _merge_sign(s: tuple, t: tuple):
    """Merged exterior monomial and the sign of the shuffle, or (None, 0)."""
    if set(s) & set(t):
        return None, 0
    inversions = sum(1 for a in s for b in t if a > b)
    merged = tuple(sorted(s + t))
    return merged, (-1 if inversions % 2 else 1)


class KoszulElement:
    """An element of the Koszul complex, coefficients kept in normal form."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: QuotientRing, terms: dict, normalize: bool = True):
        self.ring = ring
        if normalize:
            clean = {}
            for key, poly in terms.items():
                if list(key) != sorted(set(key)):
                    raise ValueError("exterior index tuple %r is not strictly increasing" % (key,))
                nf = ring.normal_form(poly)
                if nf.terms:
                    clean[key] = nf
            terms = clean
        self.terms = terms

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring) -> "KoszulElement":
        return cls(ring, {}, normalize=False)

    @classmethod
    def scalar(cls, ring, value) -> "KoszulElement":
        p = Polynomial.constant(ring.n, ring.field, ring.order, value)
        return cls(ring, {(): p} if p.terms else {}, normalize=False)

    @classmethod
    def from_polynomial(cls, ring, p: Polynomial) -> "KoszulElement":
        nf = ring.normal_form(p)
        return cls(ring, {(): nf} if nf.terms else {}, normalize=False)

    @classmethod
    def generator(cls, ring, index: int) -> "KoszulElement":
        if not 0 <= index < ring.n:
            raise ValueError("generator index out of range")
        return cls(ring, {(index,): ring.one_poly()}, normalize=False)

    @classmethod
    def term(cls, ring, poly: Polynomial, indices: Sequence[int]) -> "KoszulElement":
        return cls(ring, {tuple(indices): poly})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def homological_degree(self) -> Optional[int]:
        """Common exterior length, or None for inhomogeneous elements."""
        lengths = {len(k) for k in self.terms}
        if len(lengths) != 1:
            return None
        return lengths.pop()

    def bidegree(self) -> Optional[tuple[int, int]]:
        """(i, j) when homogeneous in both gradings, else None."""
        i = self.homological_degree()
        if i is None:
            return None
        degrees = set()
        for key, poly in self.terms.items():
            degrees.update(m.degree for m, _ in poly.terms)
        if len(degrees) != 1:
            return None
        return (i, i + degrees.pop())

    # -- arithmetic ---------------------------------------------------

    def _check_ring(self, other: "KoszulElement"):
        if self.ring is not other.ring:
            raise ValueError("elements live over different rings")

    def __add__(self, other):
        if isinstance(other, (int, Polynomial)):
            other = _coerce(self.ring, other)
        if not isinstance(other, KoszulElement):
            return NotImplemented
        self._check_ring(other)
        return KoszulElement(self.ring, vec_add_terms(dict(self.terms), other.terms.items()),
                             normalize=False)

    __radd__ = __add__

    def __neg__(self):
        return KoszulElement(self.ring, {k: -p for k, p in self.terms.items()},
                             normalize=False)

    def __sub__(self, other):
        if isinstance(other, (int, Polynomial)):
            other = _coerce(self.ring, other)
        if not isinstance(other, KoszulElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Graded-commutative product with shuffle signs."""
        if isinstance(other, (int, Polynomial)):
            other = _coerce(self.ring, other)
        if not isinstance(other, KoszulElement):
            return NotImplemented
        self._check_ring(other)
        ring = self.ring

        def products():
            for s, p in self.terms.items():
                for t, q in other.terms.items():
                    merged, sign = _merge_sign(s, t)
                    if merged is not None:
                        prod = ring.multiply(p, q)
                        if prod.terms:
                            yield merged, (-prod if sign < 0 else prod)

        return KoszulElement(ring, vec_add_terms({}, products()), normalize=False)

    def __rmul__(self, other):
        if isinstance(other, (int, Polynomial)):
            return _coerce(self.ring, other) * self
        return NotImplemented

    def __pow__(self, exponent: int) -> "KoszulElement":
        """The product of `exponent` copies, from the scalar 1."""
        return power(KoszulElement.scalar(self.ring, 1), self, exponent)

    def diff(self) -> "KoszulElement":
        """The Koszul differential: d(Ti) = xi, extended by Leibniz."""
        ring = self.ring

        def faces():
            for key, poly in self.terms.items():
                for pos, idx in enumerate(key):
                    coeff = ring.multiply(ring.variable(idx), poly)
                    if coeff.terms:
                        yield key[:pos] + key[pos + 1:], (-coeff if pos % 2 else coeff)

        return KoszulElement(ring, vec_add_terms({}, faces()), normalize=False)

    def is_cycle(self) -> bool:
        """Is d of this element zero?

        Each component in one piece, a bidegree over a graded ring or a
        homological degree over an ungraded artinian one, goes through the
        int x_l table of its ring piece (`_maps_to_zero`); d maps distinct
        components into distinct pieces.  A ring without pieces, ungraded
        and not artinian, takes `diff`.
        """
        ring = self.ring
        if not ring.graded and not ring.is_artinian:
            return self.diff().is_zero()
        parts: dict = {}
        for key, poly in self.terms.items():
            for mono, c in poly.terms:
                e = mono.degree if ring.graded else ring.whole_piece
                parts.setdefault((len(key), e), []).append((key, mono, c))
        return all(_maps_to_zero(component_piece(ring, i, i + e) if ring.graded
                                 else full_piece(ring, i), triples)
                   for (i, e), triples in parts.items())

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return not self.terms
        if not isinstance(other, KoszulElement):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        from .ringdef import format_koszul_element
        return "<koszul %s>" % format_koszul_element(self)


def _coerce(ring, value) -> KoszulElement:
    if isinstance(value, Polynomial):
        return KoszulElement.from_polynomial(ring, value)
    return KoszulElement.scalar(ring, value)


# -- finite-dimensional pieces ---------------------------------------


class Piece:
    """Coordinates for a finite-dimensional slice of K_i.

    A basis vector is a pair (standard monomial of one piece of the ring,
    exterior monomial of length i); the pair of monomial position a and
    exterior position b has coordinate a * len(exts) + b.  Monomials run
    in the ring piece's order, exterior tuples in ascending lexicographic
    order.
    """

    def __init__(self, ring: QuotientRing, hom_degree: int, ring_piece):
        self.ring = ring
        self.hom_degree = hom_degree
        self.ring_piece = ring_piece
        self.monos = ring.piece(ring_piece)
        self.exts = exterior_monomials(ring.n, hom_degree) if 0 <= hom_degree <= ring.n else []
        self.ext_index = {ext: b for b, ext in enumerate(self.exts)}

    @property
    def dim(self) -> int:
        return len(self.monos) * len(self.exts)

    def vector_of(self, el: KoszulElement) -> dict:
        return self.vector_of_terms((key, mono, coeff) for key, poly in el.terms.items()
                                    for mono, coeff in poly.terms)

    def vector_of_terms(self, terms) -> dict:
        """The vector of the sum of the terms coeff * mono * T_key, given
        as triples (key, mono, coeff) with distinct (key, mono)."""
        index = self.ring.piece_index(self.ring_piece)
        ext_index = self.ext_index
        width = len(self.exts)
        vec = {}
        for key, mono, coeff in terms:
            a = index.get(mono)
            b = ext_index.get(key)
            if a is None or b is None:
                raise ValueError("element does not lie in this piece")
            vec[a * width + b] = coeff
        return vec

    def element_of(self, vec: dict) -> KoszulElement:
        ring = self.ring
        width = len(self.exts)
        terms: dict = {}
        for k, coeff in vec.items():
            terms.setdefault(self.exts[k % width], []).append((self.monos[k // width], coeff))
        return KoszulElement(ring, {key: Polynomial(ring.n, ring.field, ring.order, t)
                                    for key, t in terms.items()}, normalize=False)

    def element_of_ints(self, V: dict, S: int) -> KoszulElement:
        """The element of the int pair (V, S), the vector V / S."""
        return self.element_of(field_vector(self.ring.field.char, V, S))


def exterior_monomials(n: int, length: int) -> list[tuple]:
    return list(itertools.combinations(range(n), length))


@lru_cache(maxsize=None)
def _merge_table(n: int, i: int, k: int) -> tuple:
    """Per exterior monomials s of length i and t of length k, in the
    order of `exterior_monomials`: None if they overlap, else the
    position of the merged monomial among those of length i + k and the
    sign of the shuffle."""
    index = {ext: c for c, ext in enumerate(exterior_monomials(n, i + k))}
    rows = []
    for s in exterior_monomials(n, i):
        row = []
        for t in exterior_monomials(n, k):
            merged, sign = _merge_sign(s, t)
            row.append(None if merged is None else (index[merged], sign))
        rows.append(tuple(row))
    return tuple(rows)


def product_ints(left: Piece, u: dict, right: Piece, v: dict, target: Piece) -> dict:
    """The product of vectors u of left and v of right as an int vector
    of target, the piece holding the products.  All three vectors are
    ints known up to a nonzero scale: residues over GF(p), integers over
    Q (an `int_vector`, a cycle's V or a `kernel_of_columns` vector).

    Monomial products come from the ring's structure constants
    (`QuotientRing.int_mul_table`), merged exterior monomials and their
    signs from `_merge_table`.
    """
    ring = left.ring
    p = ring.field.char
    table = ring.int_mul_table(left.ring_piece, right.ring_piece)[1]
    merges = _merge_table(ring.n, left.hom_degree, right.hom_degree)
    wl, wr, wt = len(left.exts), len(right.exts), len(target.exts)
    vs = [(divmod(k, wr), y) for k, y in v.items()]
    out: dict = {}
    get = out.get
    for k, x in u.items():
        a, s = divmod(k, wl)
        products, merge = table[a], merges[s]
        for (b, t), y in vs:
            m = merge[t]
            entries = products[b]
            if m is None or not entries:
                continue
            pos, sign = m
            xy = x * y if sign > 0 else -x * y
            for ti, c in entries:
                key = ti * wt + pos
                out[key] = get(key, 0) + xy * c
    if p:
        return {k: r for k, x in out.items() if (r := x % p)}
    return {k: x for k, x in out.items() if x}


def component_piece(ring: QuotientRing, i: int, j: int) -> Piece:
    """Basis of the bidegree (i, j) component for a graded ring."""
    if not ring.graded:
        raise PreconditionError("bigraded pieces need a graded ring")
    return Piece(ring, i, j - i)


def full_piece(ring: QuotientRing, i: int) -> Piece:
    """Basis of all of K_i for an artinian ring."""
    ring.require_artinian("whole Koszul components")
    return Piece(ring, i, ring.whole_piece)


def differential_columns(ring: QuotientRing, source: Piece, target: Piece) -> list[tuple]:
    """Matrix of the differential, one int pair (V, S) per source
    coordinate, the column V / S, with one scale S for the piece.

    d(m T_s) is the sum over the positions of s of the signed x_l m
    T_(s without l), with x_l m read off the ring's `int_action` table;
    target is the piece of K_(i-1) on the next ring piece.
    """
    if not source.dim:
        return []
    p, width = ring.field.char, len(target.exts)
    scale = ring.action_scale(source.ring_piece)
    faces = _faces(ring.n, source.hom_degree)
    return [(_face_column(entries, face, width, p), scale)
            for entries in ring.int_action(source.ring_piece, scale) for face in faces]


@lru_cache(maxsize=None)
def _faces(n: int, i: int) -> tuple:
    """Per exterior monomial s of length i, in the order of
    `exterior_monomials`: x_l in s -> (position of s without l among the
    monomials of length i - 1, odd?), the faces of d(T_s) and their signs."""
    index = {ext: b for b, ext in enumerate(exterior_monomials(n, i - 1))} if i else {}
    return tuple({l: (index[s[:pos] + s[pos + 1:]], pos % 2) for pos, l in enumerate(s)}
                 for s in exterior_monomials(n, i))


def _face_column(entries, face: dict, width: int, p: int) -> dict:
    """d(m T_s) as an int vector of the next piece: entries are the
    `int_action` triples (l, position, c) of the monomial m, face the
    `_faces` entry of s, width the number of exterior monomials there."""
    col = {}
    for l, ti, c in entries:
        if l in face:
            b, odd = face[l]
            col[ti * width + b] = (p - c if p else -c) if odd else c
    return col


def _maps_to_zero(piece: Piece, terms: list) -> bool:
    """Is d of the element with these (key, mono, coeff) terms of piece
    zero?  Its int vector goes through the piece's int x_l table, column
    by column as in `differential_columns`."""
    ring, i, e = piece.ring, piece.hom_degree, piece.ring_piece
    p, width = ring.field.char, len(piece.exts)
    action = ring.int_action(e, ring.action_scale(e))
    faces = _faces(ring.n, i)
    target_width = comb(ring.n, i - 1) if i else 0
    image: dict = {}
    get = image.get
    for k, x in int_vector(piece.vector_of_terms(terms), p)[0].items():
        a, b = divmod(k, width)
        for t, c in _face_column(action[a], faces[b], target_width, p).items():
            image[t] = get(t, 0) + x * c
    return not any(y % p for y in image.values()) if p else not any(image.values())


class HomologyPiece:
    """Cycles, boundaries and chosen representatives in one bidegree.

    cycles are the (free column, int pair) null vectors of the
    differential out of piece (`null_pairs`), and boundaries the columns
    of the differential into it, kept as an echelon in cycle coordinates
    (see the module docstring); cycle z_f is a representative when -f is
    not one of its pivots.
    """

    def __init__(self, piece: Piece, cycles: list, boundaries: list):
        self.piece = piece
        self.cycles = [pair for _f, pair in cycles]
        # free column f -> its name -f, which every echelon row shares
        self.free = {f: -f for f, _pair in cycles}
        span = self.boundary_span = EchelonSolver(piece.ring.field)
        for V, _S in boundaries:
            if span.rank == len(cycles):  # the span is all of Z
                break
            span.add(self.restrict(V))
        self.rep_free = [f for f in self.free if not span.has_pivot(-f)]
        self.rep_pairs = [pair for f, pair in cycles if not span.has_pivot(-f)]

    @cached_property
    def representatives(self) -> list[KoszulElement]:
        """The representatives as elements, built on first read."""
        return [self.piece.element_of_ints(*pair) for pair in self.rep_pairs]

    @property
    def dim(self) -> int:
        return len(self.rep_pairs)

    def restrict(self, w: dict) -> dict:
        """Cycle coordinates of a cycle w of the piece: its entries at the
        free columns, column f renamed -f."""
        free = self.free
        return {free[k]: x for k, x in w.items() if k in free}


def internal_degree_bounds(ring: QuotientRing) -> list[int]:
    """Largest internal degree with possibly nonzero homology, per i in 0..n.

    Artinian: coefficients die above the top degree, so j <= i + top.
    Monomial ideals: the Taylor complex resolves R over the polynomial
    ring, so j is at most the sum of the i largest generator degrees.
    """
    n = ring.n
    art = ring.is_artinian
    taylor = None
    if ring.is_monomial_ideal:
        degs = sorted((g.lead_monomial.degree for g in ring.groebner_basis), reverse=True)
        taylor = [sum(degs[:i]) for i in range(n + 1)]
    if not art and taylor is None:
        raise NotArtinianError(
            "full homology needs an artinian quotient or a monomial ideal; "
            "no finite internal-degree bound is certified otherwise")
    bounds = []
    for i in range(n + 1):
        cands = []
        if art:
            cands.append(i + ring.top_degree)
        if taylor is not None and i <= len(taylor) - 1:
            cands.append(taylor[i] if i else 0)
        bounds.append(min(cands))
    return bounds


# Coordinates one bidegree piece of the Koszul complex may hold, dim
# R_(j-i) * C(n, i); a larger piece raises BudgetError before any piece
# is built.  R = Q[x_1..x_n]/m^3 passes for n = 11 (largest piece 30492)
# and is refused for n = 12 (72072).
HOMOLOGY_BUDGET = 50000


class HomologyAlgebra:
    """All bidegree components of the homology of the Koszul complex."""

    def __init__(self, ring: QuotientRing):
        if not ring.graded:
            raise PreconditionError("the bigraded homology algebra needs a graded ring")
        self.ring = ring
        self.bounds = internal_degree_bounds(ring)
        n = ring.n
        # the pieces (i, j) below and the sources (i + 1, j) of their boundaries
        size, i, j = max((len(ring.piece(j - i)) * comb(n, i), i, j)
                         for a in range(n + 1) for j in range(a, self.bounds[a] + 1)
                         for i in (a, a + 1) if i <= n)
        if size > HOMOLOGY_BUDGET:
            raise BudgetError(
                "homology budget of %d coordinates per piece exceeded: piece (%d,%d) "
                "of the Koszul complex needs %d" % (HOMOLOGY_BUDGET, i, j, size))
        self.pieces: dict[tuple[int, int], HomologyPiece] = {}
        self._generators = None
        # the differential out of (i + 1, j) gives the boundaries of
        # (i, j) and then the cycles of (i + 1, j); it is built once
        columns: dict = {}
        for i in range(ring.n + 1):
            for j in range(i, self.bounds[i] + 1):
                piece = component_piece(ring, i, j)
                if i > 0:
                    cols = columns.pop((i, j), None)
                    if cols is None:
                        cols = differential_columns(ring, piece, component_piece(ring, i - 1, j))
                    cycles = null_pairs(kernel_of_columns(cols, ring.field))
                else:
                    cycles = [(k, ({k: 1}, 1)) for k in range(piece.dim)]
                source = component_piece(ring, i + 1, j)
                bcols = columns[(i + 1, j)] = differential_columns(ring, source, piece)
                self.pieces[(i, j)] = HomologyPiece(piece, cycles, bcols)

    def dim(self, i: int, j: int) -> int:
        piece = self.pieces.get((i, j))
        return piece.dim if piece is not None else 0

    def support(self) -> list[tuple[int, int]]:
        return sorted(k for k, p in self.pieces.items() if p.dim)

    def bigraded_dims(self) -> dict[tuple[int, int], int]:
        return {k: p.dim for k, p in sorted(self.pieces.items()) if p.dim}

    def h_polynomial(self) -> list[int]:
        """Coefficients of sum_i dim H_i z^i, homological degree only."""
        out = [0] * (self.ring.n + 1)
        for (i, _j), p in self.pieces.items():
            out[i] += p.dim
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    def representatives(self, i: int, j: int) -> list[KoszulElement]:
        piece = self.pieces.get((i, j))
        return list(piece.representatives) if piece is not None else []

    def generators(self) -> list[tuple[str, tuple[int, int], KoszulElement]]:
        """Minimal algebra generators: bidegree-wise complement of products.

        Bidegrees are swept by total degree then homological degree; in
        each one the span of boundaries and products of lower-bidegree
        representatives is completed to the cycle space.  The count is
        basis independent; the chosen cycles follow deterministic pivots:
        in cycle coordinates, z_f is a generator when -f is not a pivot
        of the span.
        """
        if self._generators is not None:
            return list(self._generators)
        gens = []
        order = sorted((k for k, p in self.pieces.items() if p.dim and k != (0, 0)),
                       key=lambda k: (k[1], k[0]))
        for (i, j) in order:
            hp = self.pieces[(i, j)]
            span = hp.boundary_span.copy()
            full = len(hp.cycles)  # the span lies in Z, so it is done at dim Z
            for w in self._products(i, j):
                if w and span.add(w) and span.rank == full:
                    break
            gens += [((i, j), hp.piece.element_of_ints(*pair))
                     for f, pair in zip(hp.free, hp.cycles)
                     if not span.has_pivot(-f)]
        labeled = [("g%d" % (k + 1), bd, el) for k, (bd, el) in enumerate(gens)]
        self._generators = labeled
        return list(labeled)

    def _products(self, i: int, j: int):
        """Int vectors, in the cycle coordinates of (i, j), of the
        products u * v of representatives whose bidegrees add up to
        (i, j), both of positive homological degree.  Each unordered pair
        is taken once, since v * u = +-u * v."""
        hp = self.pieces[(i, j)]
        for (a, b), left in self.pieces.items():
            right = self.pieces.get((i - a, j - b))
            if a < 1 or i - a < 1 or right is None or (a, b) > (i - a, j - b):
                continue
            us, vs = ([V for V, _S in side.rep_pairs] for side in (left, right))
            for k, u in enumerate(us):
                for v in vs[k:] if right is left else vs:
                    yield hp.restrict(product_ints(left.piece, u, right.piece, v, hp.piece))

    def class_of(self, el: KoszulElement) -> tuple[tuple[int, int], dict]:
        """Coordinates of a cycle's class in the representative basis.

        In cycle coordinates the representatives are the unit vectors at
        the non-pivots of the boundary echelon, so reducing el there
        leaves exactly the class coordinates, which are unique.
        """
        bd = el.bidegree()
        if bd is None:
            raise PreconditionError("class coordinates need a bihomogeneous element")
        if not el.is_cycle():
            raise NotACycleError("element has nonzero differential")
        hp = self.pieces.get(bd)
        if hp is None:
            if el.is_zero():
                return bd, {}
            raise PreconditionError("bidegree %r is outside the certified support" % (bd,))
        p = self.ring.field.char
        V, D = int_vector(hp.restrict(hp.piece.vector_of(el)), p)
        V, _C, D = hp.boundary_span.reduce(V, D)
        rest = field_vector(p, V, D)
        return bd, {k: rest[-f] for k, f in enumerate(hp.rep_free) if -f in rest}


def homology_algebra(ring: QuotientRing) -> HomologyAlgebra:
    if ring._homology is None:
        ring._homology = HomologyAlgebra(ring)
    return ring._homology


def homology_h_polynomial(ring: QuotientRing) -> list[int]:
    """dim H_i for i = 0..n, for graded or local artinian rings."""
    if ring.graded:
        return homology_algebra(ring).h_polynomial()
    ring.require_artinian("homology of an inhomogeneous quotient")
    dims = [len(filtered_cycles(ring, 0, i)[1]) - filtered_boundaries(ring, 0, i).rank
            for i in range(ring.n + 1)]
    while len(dims) > 1 and dims[-1] == 0:
        dims.pop()
    return dims


# -- m-adic filtration slices (local conditions) ----------------------


def filtered_cycles(ring: QuotientRing, t: int, i: int) -> tuple[Piece, list[tuple]]:
    """Cycle space of (m^t K)_i inside the full component K_i, as int
    pairs (V, S): each null vector's combination of the basis of
    `filtered_component`, over one common denominator."""
    piece, basis = filtered_component(ring, t, i)
    if i == 0:
        return piece, basis
    null = null_pairs(kernel_of_columns(_filtered_differential(ring, t, i), ring.field))
    return piece, [combine_ints(pair, basis, ring.field.char) for _f, pair in null]


def filtered_component(ring: QuotientRing, t: int, i: int) -> tuple[Piece, list[tuple]]:
    """Basis of (m^t K)_i as int pairs (V, S) in the full K_i coordinates:
    the echelon rows of m^t (`Subspace.basis_pairs`) at each exterior
    monomial.  The ring caches the basis only: a cached `Piece` would
    point back to the ring and keep it alive in a reference cycle."""
    key = ("F", t, i)
    cache = ring._koszul_filtration
    if not cache:
        _require_filtration_budget(ring)
    piece = full_piece(ring, i)
    basis = cache.get(key)
    if basis is None:
        width = len(piece.exts)
        rows = ring.power_ideal_subspace(t).basis_pairs() if width else []
        basis = cache[key] = [({c * width + b: x for c, x in V.items()}, S)
                              for b in range(width) for V, S in rows]
    return piece, basis


def _require_filtration_budget(ring: QuotientRing) -> None:
    """Raise BudgetError when a whole component K_i, of dim R * C(n, i)
    coordinates, is over HOMOLOGY_BUDGET.  Every caller of the filtration
    walks K_0..K_n, so the largest is counted before the first is built."""
    dim = len(ring.piece(ring.whole_piece))
    size, i = max((dim * comb(ring.n, i), i) for i in range(ring.n + 1))
    if size > HOMOLOGY_BUDGET:
        raise BudgetError(
            "homology budget of %d coordinates per piece exceeded: component K_%d "
            "of the m-adic filtration needs %d" % (HOMOLOGY_BUDGET, i, size))


def filtered_boundaries(ring: QuotientRing, t: int, i: int) -> EchelonSolver:
    """d((m^t K)_{i+1}) as a new int echelon in the coordinates of K_i,
    to extend with `add`."""
    span = EchelonSolver(ring.field)
    for V, _S in _filtered_differential(ring, t, i + 1):
        span.add(dict(V))
    return span


def _filtered_differential(ring: QuotientRing, t: int, i: int) -> list[tuple]:
    """d of each basis pair of (m^t K)_i as an int pair in the coordinates
    of K_(i-1): the kernel gives the filtered cycles of degree i, the span
    the filtered boundaries of degree i - 1.  Empty for i > n."""
    key = ("d", t, i)
    cache = ring._koszul_filtration
    if key not in cache:
        piece, basis = filtered_component(ring, t, i)
        cols = differential_columns(ring, piece, full_piece(ring, i - 1))
        cache[key] = [combine_ints(pair, cols, ring.field.char) for pair in basis]
    return cache[key]
