"""Reference extraction of minimal generators, for tests only.

The resolution engine reads each step's minimal generators off the
pivots of an echelon form on the free coordinates of the kernel.  This
module keeps the literal greedy rule that reading replaces: piece by
piece, a span is saturated with x_l times the vectors that grew the
previous piece's span, then extended by the kernel vectors in order; the
kernel vectors that still grow it are the generators.  Everything is
computed from the `differential()` Polynomial columns through
`ring.multiply`, with the field-element solver of `reference_linalg`.
"""

from __future__ import annotations

from koszulkit.poly import Polynomial

from reference_linalg import Subspace, kernel_of_columns


def _piece(ring, e):
    """Standard monomials of piece e, in the engine's order."""
    if ring.graded:
        return ring.std_basis(e) if e >= 0 else ()
    return ring.std_monomials if e == 0 else ()


class _Coordinates:
    """Piece j of a free module: basis (generator, monomial) by index."""

    def __init__(self, ring, degrees, j):
        self.ring = ring
        self.basis = [(g, m) for g, d in enumerate(degrees) for m in _piece(ring, j - d)]
        self.index = {gm: i for i, gm in enumerate(self.basis)}

    def vector(self, column: dict) -> dict:
        """{generator: polynomial} -> coordinate vector."""
        vec: dict = {}
        for g, p in column.items():
            for m, c in p.terms:
                k = self.index[(g, m)]
                v = vec.get(k)
                v = c if v is None else v + c
                if v:
                    vec[k] = v
                else:
                    vec.pop(k, None)
        return vec

    def column(self, vec: dict) -> dict:
        """Coordinate vector -> {generator: polynomial}."""
        ring = self.ring
        out: dict = {}
        for k, c in vec.items():
            g, m = self.basis[k]
            term = Polynomial.from_monomial(ring.n, ring.field, ring.order, m, c)
            out[g] = out[g] + term if g in out else term
        return out


def piece_images(ring, source_degrees, target_degrees, columns, j) -> list[dict]:
    """Images of the piece-j basis of a free module under the map whose
    Polynomial columns are `columns`, as coordinate vectors of piece j
    of the target."""
    source = _Coordinates(ring, source_degrees, j)
    target = _Coordinates(ring, target_degrees, j)
    images = []
    for g, m in source.basis:
        mono = Polynomial.from_monomial(ring.n, ring.field, ring.order, m)
        images.append(target.vector(
            {tg: ring.multiply(mono, p) for tg, p in columns[g].items()}))
    return images


def _shift(ring, here, there, vec, l) -> dict:
    """x_l times a vector of piece `here`, as a vector of piece `there`."""
    x = ring.variable(l)
    return there.vector({g: ring.multiply(x, p) for g, p in here.column(vec).items()})


def _greedy(ring, degrees, jmin, jmax, vectors_at, seed):
    """The greedy sweep: (piece, vector) generators and the per-piece log."""
    gens, log = [], []
    feed, feed_coords = seed, _Coordinates(ring, degrees, jmin)
    for j in range(jmin, jmax + 1):
        here = _Coordinates(ring, degrees, j)
        span = Subspace(ring.field)
        grown = []
        for v in feed:
            for l in range(ring.n):
                w = _shift(ring, feed_coords, here, v, l)
                if w and span.extend(w):
                    grown.append(w)
        saturated = span.dim
        new = [v for v in vectors_at(j) if span.extend(v)]
        gens.extend((j, v) for v in new)
        grown.extend(new)
        log.append((j, saturated, len(new), span.dim))
        feed, feed_coords = grown, here
    return gens, log


def _closure(ring, coords, vectors):
    """Vectors spanning the submodule that `vectors` generate in the
    single piece of an ungraded ring."""
    span = Subspace(ring.field)
    grown = [v for v in vectors if span.extend(v)]
    queue = list(grown)
    while queue:
        v = queue.pop()
        for l in range(ring.n):
            w = _shift(ring, coords, coords, v, l)
            if w and span.extend(w):
                queue.append(w)
                grown.append(w)
    return grown


def reference_resolution(data):
    """(maps, exactness_log) of a cokernel resolution recomputed by the
    greedy rule from the presentation and the `differential()` columns."""
    ring, pres = data.ring, data.presentation
    if pres.mode != "cokernel" or not ring.is_artinian:
        raise ValueError("the reference covers cokernels over artinian rings")
    top = ring.top_degree if ring.graded else 0
    piece_of = (lambda d: d) if ring.graded else (lambda d: 0)

    # step one: the presentation's columns, piece by piece
    ambient = [piece_of(sh) for sh in pres.shifts]
    by_piece: dict = {}
    for col in pres.columns:
        column = {g: ring.normal_form(p) for g, p in enumerate(col)}
        column = {g: p for g, p in column.items() if p.terms}
        if column:
            g, p = next(iter(column.items()))
            j = piece_of(p.terms[0][0].degree + ambient[g])
            by_piece.setdefault(j, []).append(
                _Coordinates(ring, ambient, j).vector(column))
    seed = () if ring.graded else _closure(ring, _Coordinates(ring, ambient, 0),
                                           by_piece.get(0, ()))
    gens, log = ([], []) if not by_piece else _greedy(
        ring, ambient, min(by_piece), max(by_piece), lambda j: by_piece.get(j, ()), seed)
    maps, logs = [[v for _j, v in gens]], [(1, log)]
    degrees = [piece_of(j) for j, _v in gens]

    # later steps: generators of the kernel of the previous differential
    for i in range(1, data.limit):
        outer = data.differential(i)
        target = [piece_of(d) for d in data.module(i - 1).degrees]
        gens, log = [], []
        if degrees:
            def kernel_at(j, degrees=degrees, outer=outer, target=target):
                return kernel_of_columns(piece_images(ring, degrees, target, outer, j),
                                         ring.field)

            jmin, jmax = min(degrees), max(degrees) + top
            seed = () if ring.graded else kernel_at(0)
            gens, log = _greedy(ring, degrees, jmin, jmax,
                                (lambda j: seed) if seed else kernel_at, seed)
            logs.append((i + 1, log))
        maps.append([v for _j, v in gens])
        degrees = [j for j, _v in gens]
    return maps, logs
