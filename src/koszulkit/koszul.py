"""The Koszul complex of a quotient ring as a differential graded algebra.

For R = k[x1..xn]/I the complex is the exterior algebra over R on
generators T1..Tn with d(Ti) = xi extended by the Leibniz rule.  Elements
are stored as maps from strictly increasing index tuples (the exterior
monomials) to normal-form coefficients in R.

Bidegrees (i, j): i is the homological degree (exterior word length),
j the internal degree (coefficient degree plus i).  The differential
preserves j; products add bidegrees.  Homology is computed per bidegree
by exact linear algebra over the coefficient field.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from .errors import NotACycleError, NotArtinianError, PreconditionError
from .linalg import EchelonSolver, Subspace, kernel_of_columns, vec_combine
from .poly import Monomial, Polynomial
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

    def strand_degree(self) -> Optional[int]:
        bd = self.bidegree()
        if bd is None:
            return None
        return bd[1] - bd[0]

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
        terms = dict(self.terms)
        for key, poly in other.terms.items():
            cur = terms.get(key)
            s = poly if cur is None else cur + poly
            if s.terms:
                terms[key] = s
            elif key in terms:
                del terms[key]
        return KoszulElement(self.ring, terms, normalize=False)

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
        acc: dict = {}
        for s, p in self.terms.items():
            for t, q in other.terms.items():
                merged, sign = _merge_sign(s, t)
                if merged is None:
                    continue
                prod = ring.multiply(p, q)
                if not prod.terms:
                    continue
                if sign < 0:
                    prod = -prod
                cur = acc.get(merged)
                tot = prod if cur is None else cur + prod
                if tot.terms:
                    acc[merged] = tot
                elif merged in acc:
                    del acc[merged]
        return KoszulElement(ring, acc, normalize=False)

    def __rmul__(self, other):
        if isinstance(other, (int, Polynomial)):
            return _coerce(self.ring, other) * self
        return NotImplemented

    def diff(self) -> "KoszulElement":
        """The Koszul differential: d(Ti) = xi, extended by Leibniz."""
        ring = self.ring
        acc: dict = {}
        for key, poly in self.terms.items():
            for pos, idx in enumerate(key):
                coeff = ring.multiply(ring.variable(idx), poly)
                if not coeff.terms:
                    continue
                if pos % 2:
                    coeff = -coeff
                sub = key[:pos] + key[pos + 1:]
                cur = acc.get(sub)
                tot = coeff if cur is None else cur + coeff
                if tot.terms:
                    acc[sub] = tot
                elif sub in acc:
                    del acc[sub]
        return KoszulElement(ring, acc, normalize=False)

    def is_cycle(self) -> bool:
        return self.diff().is_zero()

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
    """Coordinates for a finite-dimensional slice of the complex.

    Basis vectors are (standard monomial, exterior monomial) pairs;
    monomials run largest-first in the ring's order, exterior tuples in
    ascending lexicographic order.
    """

    def __init__(self, ring: QuotientRing, hom_degree: int,
                 coords: list[tuple[Monomial, tuple]]):
        self.ring = ring
        self.hom_degree = hom_degree
        self.coords = coords
        self.index = {c: i for i, c in enumerate(coords)}

    @property
    def dim(self) -> int:
        return len(self.coords)

    def vector_of(self, el: KoszulElement) -> dict:
        vec = {}
        for key, poly in el.terms.items():
            for mono, coeff in poly.terms:
                i = self.index.get((mono, key))
                if i is None:
                    raise ValueError("element does not lie in this piece")
                vec[i] = coeff
        return vec

    def element_of(self, vec: dict) -> KoszulElement:
        ring = self.ring
        acc: dict = {}
        for i, coeff in vec.items():
            mono, key = self.coords[i]
            poly = Polynomial.from_monomial(ring.n, ring.field, ring.order, mono, coeff)
            cur = acc.get(key)
            acc[key] = poly if cur is None else cur + poly
        return KoszulElement(ring, {k: p for k, p in acc.items() if p.terms},
                             normalize=False)


def exterior_monomials(n: int, length: int) -> list[tuple]:
    return list(itertools.combinations(range(n), length))


def component_piece(ring: QuotientRing, i: int, j: int) -> Piece:
    """Basis of the bidegree (i, j) component for a graded ring."""
    if not ring.graded:
        raise PreconditionError("bigraded pieces need a graded ring")
    coords = []
    if 0 <= i <= ring.n and j - i >= 0:
        exts = exterior_monomials(ring.n, i)
        for mono in ring.std_basis(j - i):
            for ext in exts:
                coords.append((mono, ext))
    return Piece(ring, i, coords)


def full_piece(ring: QuotientRing, i: int) -> Piece:
    """Basis of all of K_i for an artinian ring."""
    ring.require_artinian("whole Koszul components")
    coords = []
    if 0 <= i <= ring.n:
        exts = exterior_monomials(ring.n, i)
        for mono in ring.std_monomials:
            for ext in exts:
                coords.append((mono, ext))
    return Piece(ring, i, coords)


def differential_columns(ring: QuotientRing, source: Piece, target: Piece) -> list[dict]:
    """Matrix of the differential, one sparse column per source coordinate."""
    columns = []
    tindex = target.index
    for mono, key in source.coords:
        col: dict = {}
        for pos, idx in enumerate(key):
            prod = ring.mono_product(ring._var_monomial(idx), mono)
            sign = -1 if pos % 2 else 1
            sub = key[:pos] + key[pos + 1:]
            for m, c in prod.terms:
                ti = tindex[(m, sub)]
                v = col.get(ti)
                v = (sign * c) if v is None else v + sign * c
                if v:
                    col[ti] = v
                elif ti in col:
                    del col[ti]
        columns.append(col)
    return columns


class HomologyPiece:
    """Cycles, boundaries and chosen representatives in one bidegree."""

    def __init__(self, piece: Piece, cycles: list[dict], boundary_space: Subspace):
        self.piece = piece
        self.cycle_vectors = cycles
        self.cycle_space = Subspace(piece.ring.field, cycles)
        self.boundary_space = boundary_space
        reps = []
        span = boundary_space.copy()
        for v in cycles:
            if span.extend(v):
                reps.append(v)
        self.rep_vectors = reps
        self.representatives = [piece.element_of(v) for v in reps]

    @property
    def dim(self) -> int:
        return len(self.rep_vectors)

    def class_span(self, extra: Iterable[dict] = ()) -> Subspace:
        """Boundaries plus the given cycle vectors, as a subspace of the piece."""
        span = self.boundary_space.copy()
        span.extend_all(extra)
        return span


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


class HomologyAlgebra:
    """All bidegree components of the homology of the Koszul complex."""

    def __init__(self, ring: QuotientRing):
        if not ring.graded:
            raise PreconditionError("the bigraded homology algebra needs a graded ring")
        self.ring = ring
        self.bounds = internal_degree_bounds(ring)
        self.pieces: dict[tuple[int, int], HomologyPiece] = {}
        self._generators = None
        n = ring.n
        for i in range(n + 1):
            for j in range(i, self.bounds[i] + 1):
                self.pieces[(i, j)] = self._compute_piece(i, j)

    def _compute_piece(self, i: int, j: int) -> HomologyPiece:
        ring = self.ring
        piece = component_piece(ring, i, j)
        below = component_piece(ring, i - 1, j) if i > 0 else Piece(ring, -1, [])
        if i > 0:
            cols = differential_columns(ring, piece, below)
            cycles = kernel_of_columns(cols, ring.field)
        else:
            cycles = [{k: ring.field.one} for k in range(piece.dim)]
        above = component_piece(ring, i + 1, j)
        bcols = differential_columns(ring, above, piece)
        boundary = Subspace(ring.field, bcols)
        return HomologyPiece(piece, cycles, boundary)

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
        basis independent; the chosen cycles follow deterministic pivots.
        """
        if self._generators is not None:
            return list(self._generators)
        gens = []
        order = sorted((k for k, p in self.pieces.items() if p.dim and k != (0, 0)),
                       key=lambda k: (k[1], k[0]))
        for (i, j) in order:
            hp = self.pieces[(i, j)]
            span = hp.class_span()
            for (a, b) in list(self.pieces):
                c, d = i - a, j - b
                if a < 1 or c < 1 or (c, d) not in self.pieces:
                    continue
                for u in self.pieces[(a, b)].representatives:
                    for v in self.pieces[(c, d)].representatives:
                        w = u * v
                        if w.terms:
                            span.extend(hp.piece.vector_of(w))
            for vec in hp.cycle_vectors:
                if span.extend(vec):
                    gens.append(((i, j), hp.piece.element_of(vec)))
        labeled = [("g%d" % (k + 1), bd, el) for k, (bd, el) in enumerate(gens)]
        self._generators = labeled
        return list(labeled)

    def class_of(self, el: KoszulElement) -> tuple[tuple[int, int], dict]:
        """Coordinates of a cycle's class in the representative basis."""
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
        columns = hp.boundary_space.basis_rows() + hp.rep_vectors
        nb = hp.boundary_space.dim
        system = EchelonSolver(self.ring.field, track=True)
        for j, col in enumerate(columns):
            system.add(col, tag=j)
        sol = system.solve(hp.piece.vector_of(el))
        if sol is None:
            raise AssertionError("cycle failed to reduce against its own piece")
        return bd, {k - nb: c for k, c in sol.items() if k >= nb and c}


def homology_algebra(ring: QuotientRing) -> HomologyAlgebra:
    if ring._homology is None:
        ring._homology = HomologyAlgebra(ring)
    return ring._homology


def homology_h_polynomial(ring: QuotientRing) -> list[int]:
    """dim H_i for i = 0..n, for graded or local artinian rings."""
    if ring.graded:
        return homology_algebra(ring).h_polynomial()
    ring.require_artinian("homology of an inhomogeneous quotient")
    dims = []
    pieces = [full_piece(ring, i) for i in range(ring.n + 2)]
    for i in range(ring.n + 1):
        if i > 0:
            cols = differential_columns(ring, pieces[i], pieces[i - 1])
            zdim = len(kernel_of_columns(cols, ring.field))
        else:
            zdim = pieces[0].dim
        bcols = differential_columns(ring, pieces[i + 1], pieces[i])
        bdim = Subspace(ring.field, bcols).dim
        dims.append(zdim - bdim)
    while len(dims) > 1 and dims[-1] == 0:
        dims.pop()
    return dims


# -- m-adic filtration slices (local conditions) ----------------------


def filtered_cycles(ring: QuotientRing, t: int, i: int,
                    _cache: bool = True) -> tuple[Piece, list[dict]]:
    """Cycle space of (m^t K)_i inside the full component K_i."""
    key = ("Z", t, i)
    cache = _filtration_cache(ring)
    if key not in cache:
        piece, basis = filtered_component(ring, t, i)
        if i == 0:
            cycles = basis
        else:
            below = full_piece(ring, i - 1)
            cols = differential_columns(ring, piece, below)
            # restrict the differential to the filtered subspace
            sub_cols = [vec_combine(vec, cols) for vec in basis]
            combos = kernel_of_columns(sub_cols, ring.field)
            cycles = [vec_combine(combo, basis) for combo in combos]
        cache[key] = (piece, cycles)
    return cache[key]


def filtered_component(ring: QuotientRing, t: int, i: int) -> tuple[Piece, list[dict]]:
    """Basis of (m^t K)_i as vectors in the full K_i coordinates."""
    key = ("F", t, i)
    cache = _filtration_cache(ring)
    if key not in cache:
        piece = full_piece(ring, i)
        basis = []
        if 0 <= i <= ring.n:
            rows = ring.power_ideal_subspace(t).basis_rows()
            monos = ring.std_monomials
            for ext in exterior_monomials(ring.n, i):
                for row in rows:
                    vec = {piece.index[(monos[c], ext)]: v for c, v in row.items()}
                    basis.append(vec)
        cache[key] = (piece, basis)
    return cache[key]


def filtered_boundaries(ring: QuotientRing, t: int, i: int) -> Subspace:
    """The subspace d((m^t K)_{i+1}) of K_i."""
    key = ("B", t, i)
    cache = _filtration_cache(ring)
    if key not in cache:
        target = full_piece(ring, i)
        if i + 1 > ring.n:
            cache[key] = Subspace(ring.field)
        else:
            source, basis = filtered_component(ring, t, i + 1)
            cols = differential_columns(ring, source, target)
            cache[key] = Subspace(ring.field, [vec_combine(vec, cols) for vec in basis])
    return cache[key]


def _filtration_cache(ring: QuotientRing) -> dict:
    cache = getattr(ring, "_koszul_filtration", None)
    if cache is None:
        cache = {}
        ring._koszul_filtration = cache
    return cache
