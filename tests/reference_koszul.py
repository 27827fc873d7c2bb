"""Reference coordinates of Koszul differentials and ring subspaces, for
tests only.

The production code reads every product of monomials off the ring's
coordinate layer (`QuotientRing.int_action`) and finds positions by
index arithmetic.  This module keeps the code that layer replaced: Koszul
pieces as explicit (monomial, exterior monomial) coordinate lists with a
dict index, differential entries from `mono_product` per entry, the
socle from a monomial-keyed basis index, and ideal spans saturated with
`Polynomial` products through `ring.multiply`.

It also keeps the spans of products of Koszul cycles as they were built
before products were read off the ring's structure constants: every
product is a `KoszulElement` product, both orders of each pair of
bidegrees are taken, and no loop stops once the span is full.  These
spans, the representatives and `class_of` work in the full coordinates
of each piece, where the production code works in cycle coordinates.

The m-adic filtration slices are kept as they were before one cached
differential served both the filtered cycles and the filtered
boundaries, and before they held int pairs: each of the three functions
keeps its own result per (t, i) and builds its own restricted
differential of field vectors, and the ungraded homology dimensions run
their own kernel and span per degree.

`is_cycle` is the cycle test as it was before it read the int x_l
tables: d of the element through `Polynomial` products, then a zero
test.

Nothing here calls the code it is compared against: differentials come
from `differential_columns` over `piece_coords`, and every kernel, span
and solve is the field-element copy in `reference_linalg`.  Cycles of
the production code, kept as int pairs, are read as field vectors with
`field_vector`.
"""

from __future__ import annotations

import itertools
import weakref

from koszulkit import koszul
from koszulkit.conditions import PieceResult
from koszulkit.errors import NotACycleError, PreconditionError
from koszulkit.koszul import full_piece
from koszulkit.linalg import field_vector
from koszulkit.poly import Monomial, monomials_of_degree

from reference_linalg import EchelonSolver, Subspace, kernel_of_columns, vec_combine


def _var_monomial(ring, i):
    exps = [0] * ring.n
    exps[i] = 1
    return Monomial(exps)


def piece_coords(ring, i, degree=None):
    """(monomial, exterior monomial) coordinates of K_i: over the standard
    monomials of one degree, or of the whole ring for degree None."""
    if not 0 <= i <= ring.n or (degree is not None and degree < 0):
        return []
    monos = ring.std_monomials if degree is None else ring.std_basis(degree)
    exts = list(itertools.combinations(range(ring.n), i))
    return [(mono, ext) for mono in monos for ext in exts]


def differential_columns(ring, source, target):
    """Matrix of the differential between two coordinate lists, one
    sparse column per source coordinate."""
    tindex = {c: i for i, c in enumerate(target)}
    columns = []
    for mono, key in source:
        col: dict = {}
        for pos, idx in enumerate(key):
            prod = ring.mono_product(_var_monomial(ring, idx), mono)
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


def _basis_index(ring):
    return {m: i for i, m in enumerate(ring.std_monomials)}


def poly_to_vec(ring, p):
    index = _basis_index(ring)
    return {index[mono]: coeff for mono, coeff in p.terms}


def socle(ring):
    """Basis of the socle, canonical form."""
    index = _basis_index(ring)
    columns = []
    for b in ring.std_monomials:
        col = {}
        for l in range(ring.n):
            prod = ring.mono_product(_var_monomial(ring, l), b)
            for mono, coeff in prod.terms:
                col[l * ring.dim + index[mono]] = coeff
        columns.append(col)
    space = Subspace(ring.field, kernel_of_columns(columns, ring.field))
    return [ring.vec_to_poly(row) for row in space.reduced_basis_rows()]


def ideal_span(ring, gens):
    """Subspace of R spanned by the ideal the given elements generate,
    saturated newest first."""
    space = Subspace(ring.field)
    queue = [ring.normal_form(g) for g in gens]
    queue = [p for p in queue if p.terms]
    while queue:
        p = queue.pop()
        if not space.extend(poly_to_vec(ring, p)):
            continue
        for i in range(ring.n):
            q = ring.multiply(ring.variable(i), p)
            if q.terms:
                queue.append(q)
    return space


def power_ideal_subspace(ring, t):
    """The image of the t-th power of the maximal ideal in R."""
    space = Subspace(ring.field)
    one = ring.field.one
    if t <= 0:
        for i in range(ring.dim):
            space.extend({i: one})
    elif ring.graded:
        index = _basis_index(ring)
        for d in range(t, ring.top_degree + 1):
            for m in ring.std_basis(d):
                space.extend({index[m]: one})
    else:
        seeds = (ring.reduce_monomial(m) for m in monomials_of_degree(ring.n, t))
        space = ideal_span(ring, [p for p in seeds if p.terms])
    return space


# -- spans of products of Koszul cycles ---------------------------------


def boundary_space(ring, i, j):
    """The boundaries of bidegree (i, j) as a subspace of K_(i,j)."""
    return Subspace(ring.field, differential_columns(
        ring, piece_coords(ring, i + 1, j - i - 1), piece_coords(ring, i, j - i)))


def _boundaries(hp):
    """The boundaries of a homology piece as a fresh subspace."""
    i = hp.piece.hom_degree
    return boundary_space(hp.piece.ring, i, i + hp.piece.ring_piece)


def cycle_vectors(hp):
    """The cycles of a homology piece as field vectors."""
    return [field_vector(hp.piece.ring.field.char, V, S) for V, S in hp.cycles]


def representatives(hp):
    """Cycle vectors of a homology piece that extend its boundaries."""
    span = _boundaries(hp)
    return [v for v in cycle_vectors(hp) if span.extend(v)]


def generators(algebra):
    """Minimal algebra generators as (label, bidegree, element)."""
    gens = []
    order = sorted((k for k, p in algebra.pieces.items() if p.dim and k != (0, 0)),
                   key=lambda k: (k[1], k[0]))
    for (i, j) in order:
        hp = algebra.pieces[(i, j)]
        span = _boundaries(hp)
        for (a, b) in list(algebra.pieces):
            c, d = i - a, j - b
            if a < 1 or c < 1 or (c, d) not in algebra.pieces:
                continue
            for u in algebra.pieces[(a, b)].representatives:
                for v in algebra.pieces[(c, d)].representatives:
                    w = u * v
                    if w.terms:
                        span.extend(hp.piece.vector_of(w))
        for vec in cycle_vectors(hp):
            if span.extend(vec):
                gens.append(((i, j), hp.piece.element_of(vec)))
    return [("g%d" % (k + 1), bd, el) for k, (bd, el) in enumerate(gens)]


def containment(key, hp, span):
    """Are all cycles of the homology piece inside the given span?"""
    cycles = cycle_vectors(hp)
    for vec in cycles:
        if not span.contains(vec):
            return PieceResult(key, False, len(cycles), span.dim, hp.piece.element_of(vec))
    return PieceResult(key, True, len(cycles), span.dim)


def product_span(algebra, i, j, factors, admit):
    """Boundaries of (i, j) plus products z * (admissible classes)."""
    hp = algebra.pieces[(i, j)]
    span = _boundaries(hp)
    for (a, b), el in factors:
        c, d = i - a, j - b
        if (c, d) not in algebra.pieces or not admit(c, d):
            continue
        for rep in algebra.pieces[(c, d)].representatives:
            w = el * rep
            if w.terms:
                span.extend(hp.piece.vector_of(w))
    return hp, span


def check_P_local_pieces(ring, t, r, l):
    """The pieces of `check_P_local` for valid input."""
    pieces = []
    for i in range(ring.n + 1):
        target = full_piece(ring, i)
        span = Subspace(ring.field, filtered_boundaries(ring, t - 1, i).basis_rows())
        if i - r >= 0 and l.terms:
            source_piece, zcycles = filtered_cycles(ring, t - 1, i - r)
            for vec in zcycles:
                w = l * source_piece.element_of(vec)
                if w.terms:
                    span.extend(target.vector_of(w))
        _piece, cycles = filtered_cycles(ring, t, i)
        result = PieceResult(i, True, len(cycles), span.dim)
        for vec in cycles:
            if not span.contains(vec):
                result = PieceResult(i, False, len(cycles), span.dim,
                                     target.element_of(vec))
                break
        pieces.append(result)
    return tuple(pieces)


def class_of(algebra, el):
    """`HomologyAlgebra.class_of` in full coordinates: el solved against
    the boundary basis rows plus the representatives."""
    bd = el.bidegree()
    if bd is None:
        raise PreconditionError("class coordinates need a bihomogeneous element")
    if not el.is_cycle():
        raise NotACycleError("element has nonzero differential")
    hp = algebra.pieces.get(bd)
    if hp is None:
        if el.is_zero():
            return bd, {}
        raise PreconditionError("bidegree %r is outside the certified support" % (bd,))
    boundaries = _boundaries(hp)
    columns = boundaries.basis_rows() + representatives(hp)
    nb = boundaries.dim
    system = EchelonSolver(algebra.ring.field, track=True)
    for j, col in enumerate(columns):
        system.add(col, tag=j)
    sol = system.solve(hp.piece.vector_of(el))
    if sol is None:
        raise AssertionError("cycle failed to reduce against its own piece")
    return bd, {k - nb: c for k, c in sol.items() if k >= nb and c}


# -- m-adic filtration slices --------------------------------------------

_FILTRATION = weakref.WeakKeyDictionary()


def _filtration_cache(ring):
    return _FILTRATION.setdefault(ring, {})


def filtered_cycles(ring, t, i):
    """Cycle space of (m^t K)_i inside the full component K_i."""
    key = ("Z", t, i)
    cache = _filtration_cache(ring)
    if key not in cache:
        piece, basis = filtered_component(ring, t, i)
        if i == 0:
            cycles = basis
        else:
            cols = differential_columns(ring, piece_coords(ring, i), piece_coords(ring, i - 1))
            # restrict the differential to the filtered subspace
            sub_cols = [vec_combine(vec, cols) for vec in basis]
            combos = kernel_of_columns(sub_cols, ring.field)
            cycles = [vec_combine(combo, basis) for combo in combos]
        cache[key] = (piece, cycles)
    return cache[key]


def filtered_component(ring, t, i):
    """Basis of (m^t K)_i as vectors in the full K_i coordinates."""
    key = ("F", t, i)
    cache = _filtration_cache(ring)
    if key not in cache:
        piece = full_piece(ring, i)
        width = len(piece.exts)
        rows = power_ideal_subspace(ring, t).basis_rows() if width else []
        basis = [{c * width + b: v for c, v in row.items()} for b in range(width) for row in rows]
        cache[key] = (piece, basis)
    return cache[key]


def filtered_boundaries(ring, t, i):
    """The subspace d((m^t K)_{i+1}) of K_i; the cached object itself."""
    key = ("B", t, i)
    cache = _filtration_cache(ring)
    if key not in cache:
        if i + 1 > ring.n:
            cache[key] = Subspace(ring.field)
        else:
            _source, basis = filtered_component(ring, t, i + 1)
            cols = differential_columns(ring, piece_coords(ring, i + 1), piece_coords(ring, i))
            cache[key] = Subspace(ring.field, [vec_combine(vec, cols) for vec in basis])
    return cache[key]


def homology_h_polynomial(ring):
    """dim H_i for i = 0..n, for graded or local artinian rings."""
    if ring.graded:
        return koszul.homology_algebra(ring).h_polynomial()
    ring.require_artinian("homology of an inhomogeneous quotient")
    dims = []
    pieces = [piece_coords(ring, i) for i in range(ring.n + 2)]
    for i in range(ring.n + 1):
        if i > 0:
            cols = differential_columns(ring, pieces[i], pieces[i - 1])
            zdim = len(kernel_of_columns(cols, ring.field))
        else:
            zdim = len(pieces[0])
        bcols = differential_columns(ring, pieces[i + 1], pieces[i])
        bdim = Subspace(ring.field, bcols).dim
        dims.append(zdim - bdim)
    while len(dims) > 1 and dims[-1] == 0:
        dims.pop()
    return dims


def is_cycle(el):
    """Is d(el) zero, with d through `Polynomial` products (`diff`)?"""
    return el.diff().is_zero()
