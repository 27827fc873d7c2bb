"""Reference resolutions and chain-map lifts, for tests only.

The resolution engine reads each step's minimal generators off the
pivots of an echelon form on the free coordinates of the kernel.  This
module keeps the literal greedy rule that reading replaces: piece by
piece, a span is saturated with x_l times the vectors that grew the
previous piece's span, then extended by the kernel vectors in order; the
kernel vectors that still grow it are the generators.  Everything is
computed from Polynomial columns through `ring.multiply`, with the
field-element solver of `reference_linalg`.

`reference_sweep` keeps the engine's sweep as it was before zero kernel
columns travelled as indices: every kernel vector, the unit ones
included, is an (f, C) pair of `reference_linalg.int_kernel`, the
saturation is restricted by a `keep` dict of the free columns
(`saturated_pivots`), and `int_basis_images` shifts every basis image
through the x_l tables, unit generators included, with its own copy of
the int shift (`_shift_ints`).  `saturation_pivots` keeps the full
echelon saturation whose pivot set both read off.  `unit_images` keeps
the per-(m_i, scale) chain of shifts that gave the image block of a
unit generator before the engine read it off the ring's product pairs.

Over an ungraded ring the engine finds the block of a coordinate f of
its one piece by stride, at f - f % dim R.  `bisect_shift_all`,
`bisect_saturated_pivots` and `bisect_basis_images` keep the engine's
`_shift_all`, `_saturated_pivots` and `_basis_images` as they were
before, finding every block by bisecting the block offsets of
`FreeModule.int_shifts` and `FreeModule.offsets`.

The engine also shifts the basis images of a map as int vectors, each
over its own denominator.  `reference_tor_map_vanishes` keeps the field
path that replaces: the images are field vectors shifted through the
field x_l tables of `reference_quotient.var_action`, and the lift of a
chain map solves on them.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from operator import itemgetter

from koszulkit.linalg import EchelonSolver, vec_add_terms
from koszulkit.poly import Polynomial
from koszulkit.quotient import nonzero_ints, shift_ints
from koszulkit.resolutions import (ModulePresentation, TorMapReport, _unit_coordinate,
                                   minimal_resolution)

import reference_linalg
from reference_linalg import Subspace, int_kernel, kernel_of_columns, vec_combine
from reference_quotient import var_action


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
    """(maps, exactness_log) of a resolution over an artinian ring,
    recomputed by the greedy rule from the presentation; each step's
    Polynomial columns come from the maps found before it."""
    ring, pres = data.ring, data.presentation
    if not ring.is_artinian:
        raise ValueError("the reference covers artinian rings")
    top = ring.top_degree if ring.graded else 0
    piece_of = (lambda d: d) if ring.graded else (lambda d: 0)
    # a submodule resolution has one more step: the evaluation map
    positions = data.limit + (0 if pres.mode == "cokernel" else 1)
    tor_of = (lambda p: p) if pres.mode == "cokernel" else (lambda p: p - 1)

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
    maps, logs = [[v for _j, v in gens]], [(tor_of(1), log)]
    chain = [ambient, [piece_of(j) for j, _v in gens]]

    # later steps: generators of the kernel of the previous differential
    for p in range(1, positions):
        target, degrees = chain[p - 1], chain[p]
        outer = [_Coordinates(ring, target, j).column(v) for j, v in zip(degrees, maps[-1])]
        gens, log = [], []
        if degrees:
            def kernel_at(j, degrees=degrees, outer=outer, target=target):
                return kernel_of_columns(piece_images(ring, degrees, target, outer, j),
                                         ring.field)

            jmin, jmax = min(degrees), max(degrees) + top
            seed = () if ring.graded else kernel_at(0)
            gens, log = _greedy(ring, degrees, jmin, jmax,
                                (lambda j: seed) if seed else kernel_at, seed)
            logs.append((tor_of(p + 1), log))
        maps.append([v for _j, v in gens])
        chain.append([j for j, _v in gens])
    return maps, logs


# -- the sweep on (f, C) pairs and keep dicts ---------------------------


def _nonzero(vec: dict, p: int) -> dict:
    """An int vector without its zero entries, reduced mod p when p."""
    if p:
        return {k: r for k, x in vec.items() if (r := x % p)}
    return {k: x for k, x in vec.items() if x}


def _shift_ints(vec: dict, offsets: tuple, blocks: tuple, l: int, p: int) -> dict:
    """x_l times an int vector, up to the scale of FreeModule.int_shifts."""
    out: dict = {}
    for coord, coeff in vec.items():
        src, tgt, act = blocks[bisect_right(offsets, coord) - 1]
        for x, ti, c in act[coord - src]:
            if x == l:
                k = tgt + ti
                out[k] = out.get(k, 0) + coeff * c
    return _nonzero(out, p)


def shift_all(vec: dict, offsets: tuple, blocks: tuple, p: int, keep=None) -> list[dict]:
    """The nonzero ones among x_1 * vec, ..., x_n * vec; with `keep`,
    only target coordinates k in keep survive, renamed keep[k]."""
    outs: dict = {}
    for coord, coeff in vec.items():
        src, tgt, act = blocks[bisect_right(offsets, coord) - 1]
        for l, ti, c in act[coord - src]:
            out = outs.get(l)
            if out is None:
                out = outs[l] = {}
            k = tgt + ti
            out[k] = out.get(k, 0) + coeff * c
    result = []
    for out in outs.values():
        if keep is not None:
            out = {keep[k]: x for k, x in out.items() if k in keep}
        out = _nonzero(out, p)
        if out:
            result.append(out)
    return result


def _saturation(module, piece, feed, keep) -> EchelonSolver:
    """The full echelon of x_l * v for v in feed and every variable x_l,
    each product restricted by keep."""
    span = EchelonSolver(module.ring.field)
    if feed:
        offsets, _scale, blocks = module.int_shifts(piece)
        for v in feed:
            for w in shift_all(v, offsets, blocks, module.ring.field.char, keep):
                span.add(w)
    return span


def saturation_pivots(module, piece, feed, keep) -> set:
    """The pivots of `_saturation`."""
    span = _saturation(module, piece, feed, keep)
    return {k for k in keep.values() if span.has_pivot(k)}


def saturated_pivots(module, piece, feed, keep) -> set:
    """The pivots of `_saturation`, from the unit products plus an
    echelon of the other products projected off the unit coordinates."""
    units: set = set()
    dense = []
    if feed:
        offsets, _scale, blocks = module.int_shifts(piece)
        p = module.ring.field.char
        for v in feed:
            if len(v) == 1:
                coord = next(iter(v))
                src, tgt, act = blocks[bisect_right(offsets, coord) - 1]
                outs: dict = {}
                for l, ti, c in act[coord - src]:
                    k = keep.get(tgt + ti)
                    if k is not None:
                        outs.setdefault(l, {})[k] = c
                products = outs.values()
            else:
                products = shift_all(v, offsets, blocks, p, keep)
            for w in products:
                if len(w) == 1:
                    units.update(w)
                else:
                    dense.append(w)
    span = EchelonSolver(module.ring.field)
    for w in dense:
        w = {k: x for k, x in w.items() if k not in units}
        if w:
            span.add(w)
    units.update(map(min, span.int_rows()))
    return units


_ZERO = ({}, 1)


def unit_images(ring, i, scale) -> list:
    """The int pairs of m * m_i for the monomials m of an ungraded ring,
    in order, by the chain of shifts from ({i: 1}, 1) through the int x_l
    tables at `scale`: the image block of a generator whose image is the
    unit vector of m_i in a block at offset 0, as the sweep kept it per
    (i, scale) on the ring."""
    rows = []
    offsets, blocks = (0,), ((0, 0, ring.int_action(0, scale)),)
    p = ring.field.char
    for step in ring.divisors(0):
        if step is None:
            rows.append(({i: 1}, 1))
            continue
        l, k = step
        V, S = rows[k]
        W = _shift_ints(V, offsets, blocks, l, p) if V else None
        rows.append((W, S * scale) if W else _ZERO)
    return rows


def int_basis_images(source, target, vectors, j, memo) -> list[tuple]:
    """Int images (V, S) of the piece-j basis of source under the map
    sending generator g to the int pair vectors[g]; the image of
    (g, x_l * m') is x_l times that of (g, m'), for every generator."""
    out = memo.get(j)
    if out is None:
        ring = source.ring
        p = ring.field.char
        out = memo[j] = []
        below = ring.piece_of(j - 1)
        prev = None
        for g, d in enumerate(source.degrees):
            for step in ring.divisors(j - d):
                if step is None:
                    out.append(vectors[g])
                    continue
                if prev is None:  # over an ungraded ring, `out` itself
                    prev = int_basis_images(source, target, vectors, below, memo)
                    prev_offsets = source.offsets(below)
                    offsets, scale, blocks = target.int_shifts(below)
                l, i = step
                V, S = prev[prev_offsets[g] + i]
                W = _shift_ints(V, offsets, blocks, l, p)
                out.append((W, S * scale) if W else _ZERO)
    return out


def reference_sweep(src, jmin, jmax, images):
    """`resolutions._sweep` on (f, C) pairs for every kernel vector; run
    it with `int_basis_images` in place of the engine's `_basis_images`."""
    ring = src.ring
    field = ring.field
    gens = []
    log = []
    below = int_kernel(images(ring.piece_of(jmin - 1)), field)
    for j in range(jmin, jmax + 1):
        kernel = int_kernel(images(j), field) if ring.graded else below
        pivots = saturated_pivots(src, ring.piece_of(j - 1), [C for _f, C in below],
                                  {f: -f for f, _C in kernel})
        new = [(f, C) for f, C in kernel if -f not in pivots]
        log.append((j, len(pivots), len(new), len(kernel)))
        below = kernel if j < jmax else ()
        constants = src.constant_slots(j)
        for f, C in new:
            if any(k in constants for k in C):
                raise AssertionError("resolution lost minimality")
            C[f] = C.pop(f)
            gens.append((j, (C, C[f])))
    return gens, log


# -- the block of a coordinate by bisection ----------------------------


def bisect_shift_all(vec: dict, offsets: tuple, blocks: tuple, p: int, stored=None) -> list:
    """The nonzero ones among x_1 * vec, ..., x_n * vec for an int vector,
    each up to the scale of the tables from FreeModule.int_shifts, with
    one bisect per coordinate.  With `stored`, only target coordinates
    outside stored survive."""
    outs: dict = {}
    for coord, coeff in vec.items():
        src, tgt, act = blocks[bisect_right(offsets, coord) - 1]
        for l, ti, c in act[coord - src]:
            out = outs.get(l)
            if out is None:
                out = outs[l] = {}
            k = tgt + ti
            out[k] = out.get(k, 0) + coeff * c
    result = []
    for out in outs.values():
        if stored:
            out = {k: x for k, x in out.items() if k not in stored}
        out = nonzero_ints(out, p)
        if out:
            result.append(out)
    return result


def bisect_saturated_pivots(module, piece: int, zeros, dense, stored: set) -> set:
    """`resolutions._saturated_pivots` with the block of every coordinate
    found by bisection, over graded and ungraded rings alike."""
    units: set = set()
    rest = []
    if zeros or dense:
        ring = module.ring
        offsets, scale, blocks = module.int_shifts(piece)
        grouped = [ring.grouped_int_action(piece - d, scale) for d in module.degrees]
        for f in zeros:
            g = bisect_right(offsets, f) - 1
            src, tgt, _act = blocks[g]
            for pairs in grouped[g][f - src]:
                if len(pairs) == 1:
                    if (k := tgt + pairs[0][0]) not in stored:
                        units.add(k)
                    continue
                w = {k: c for ti, c in pairs if (k := tgt + ti) not in stored}
                if len(w) == 1:
                    units.update(w)
                elif w:
                    rest.append(w)
        p = ring.field.char
        for v in dense:
            for w in bisect_shift_all(v, offsets, blocks, p, stored):
                if len(w) == 1:
                    units.update(w)
                else:
                    rest.append(w)
    span = EchelonSolver(module.ring.field)
    for w in rest:
        w = {-k: x for k, x in w.items() if k not in units}
        if w:
            span.add(w)
    units.update(-min(row) for row in span.int_rows())
    return units


def bisect_basis_images(source, target, vectors, j: int, memo: dict) -> list[tuple]:
    """`resolutions._basis_images` with the block of every coordinate
    found by bisection: the block of a unit generator over an ungraded
    ring sits at the target offset below its coordinate, and every other
    image is shifted through `FreeModule.int_shifts`."""
    out = memo.get(j)
    if out is None:
        ring = source.ring
        p = ring.field.char
        out = memo[j] = []
        below = ring.piece_of(j - 1)
        prev = None
        for g, d in enumerate(source.degrees):
            if not ring.graded and (f := _unit_coordinate(*vectors[g])) is not None:
                starts = target.offsets(0)
                o = starts[bisect_right(starts, f) - 1]
                column = map(itemgetter(f - o), ring.product_pairs(0, 0))
                out.extend([({k + o: x for k, x in W.items()}, S) if W else _ZERO
                            for W, S in column] if o else column)
                continue
            for step in ring.divisors(j - d):
                if step is None:
                    out.append(vectors[g])
                    continue
                if prev is None:  # over an ungraded ring, `out` itself
                    prev = bisect_basis_images(source, target, vectors, below, memo)
                    prev_offsets = source.offsets(below)
                    offsets, scale, blocks = target.int_shifts(below)
                l, i = step
                V, S = prev[prev_offsets[g] + i]
                W = shift_ints(V, offsets, blocks, l, p) if V else None
                out.append((W, S * scale) if W else _ZERO)
    return out


# -- the field path of chain-map lifts ---------------------------------


def _shift_vector(vec: dict, offsets: tuple, table: tuple) -> dict:
    """x_l times a field vector, given one variable's table from `_shifts`."""
    out: dict = {}
    for coord, coeff in vec.items():
        src, tgt, act = table[bisect_right(offsets, coord) - 1]
        pairs = act[coord - src]
        if pairs:  # x_l kills most monomials
            vec_add_terms(out, ((tgt + ti, coeff * c) for ti, c in pairs))
    return out


def _shifts(module, j):
    """Offsets of piece j of a free module and, for each variable x_l, a
    table of (source offset, target offset, field x_l action) per
    generator."""
    ring = module.ring
    src = module.offsets(j)
    tgt = module.offsets(ring.piece_of(j + 1))
    return src, [tuple((src[g], tgt[g], var_action(ring, l, j - d))
                       for g, d in enumerate(module.degrees))
                 for l in range(ring.n)]


def _basis_images(source, target, vectors, j, memo) -> list[dict]:
    """Field images of the piece-j basis of source under the map sending
    generator g to the field vector vectors[g] of target; the image of
    (g, x_l * m') is x_l times that of (g, m')."""
    out = memo.get(j)
    if out is None:
        ring = source.ring
        out = memo[j] = []
        below = ring.piece_of(j - 1)
        prev = None
        for g, d in enumerate(source.degrees):
            for step in ring.divisors(j - d):
                if step is None:
                    out.append(vectors[g])
                    continue
                if prev is None:  # over an ungraded ring, `out` itself
                    prev = _basis_images(source, target, vectors, below, memo)
                    prev_offsets = source.offsets(below)
                    offsets, tables = _shifts(target, below)
                l, i = step
                out.append(_shift_vector(prev[prev_offsets[g] + i], offsets, tables[l]))
    return out


def reference_lift(ring, res_s, res_b, limit):
    """The chain map over the inclusion, lifts[p][g] a field vector of
    res_b.chain[p], from the field `maps` of the two resolutions."""
    lifts = [[{0: ring.field.one}]]  # the identity of R: 1 is coordinate 0
    for p in range(1, limit + 2):
        composed = partial(_basis_images, res_s.chain[p - 1], res_b.chain[p - 1],
                           lifts[p - 1], memo={})
        images = partial(_basis_images, res_b.chain[p], res_b.chain[p - 1],
                         res_b.maps[p - 1], memo={})
        systems: dict = {}
        cur = []
        for d, v in zip(res_s.chain[p].degrees, res_s.maps[p - 1]):
            tvec = vec_combine(v, composed(d))
            if not tvec:
                cur.append({})
                continue
            system = systems.get(d)
            if system is None:
                system = systems[d] = reference_linalg.EchelonSolver(ring.field, track=True)
                for j, col in enumerate(images(d)):
                    system.add(col, tag=j)
            sol = system.solve(tvec)
            assert sol is not None, "chain map lift failed"
            cur.append(sol)
        lifts.append(cur)
    return lifts


def reference_tor_map_vanishes(ring, s: int, b: int, limit: int) -> TorMapReport:
    """`tor_map_vanishes` with the lift of `reference_lift`."""
    res_s = minimal_resolution(ring, ModulePresentation.power_module(ring, s), limit)
    res_b = minimal_resolution(ring, ModulePresentation.power_module(ring, b), limit)
    lifts = reference_lift(ring, res_s, res_b, limit)
    degrees, witnesses = [], []
    for i in range(limit + 1):
        target = res_b.chain[i + 1]
        ok = True
        for gi, (d, vec) in enumerate(zip(res_s.chain[i + 1].degrees, lifts[i + 1])):
            constants = target.constant_slots(d)
            for k in sorted(k for k in vec if k in constants):
                ok = False
                witnesses.append((i, gi, constants[k], repr(vec[k])))
        degrees.append(ok)
    return TorMapReport(s, b, limit, all(degrees), tuple(degrees), tuple(witnesses))
