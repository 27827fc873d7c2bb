"""Minimal free resolutions by exact linear algebra.

One engine serves every ring.  R splits into finite-dimensional pieces,
with coordinates and x_l tables from the ring (see `quotient`): over a
graded ring piece e is the degree-e component and x_l maps piece e into
piece e+1; an ungraded artinian ring is the single piece 0, which holds
every standard monomial and which each x_l maps into itself.  A
resolution is swept piece by piece: in each piece the kernel K_j of the
current differential is computed, and the minimal generators are the
kernel vectors not reached by the variables times the previous piece
(La Scala-Stillman, J. Symb. Comput. 1998, on sparse spanning sets in a
degree sweep).  The single ungraded piece has no predecessor: there the
kernel itself is the previous piece.

Generators are read off pivots.  `int_kernel` gives the reduced null
basis: vector f has coefficient one at its free column f and zero at the
other free columns, so a vector of K_j is fixed by its free coordinates,
and a column is free exactly when it is not stored as an echelon row.
Most free columns are zero columns, whose null vector is the unit vector
e_f: they come as indices, and only the other null vectors as int
vectors.  The products x_l * k for k in a basis of the previous piece's
kernel are restricted to the free coordinates, and their span is given
the echelon form with the largest free column as pivot; kernel vector f
is a new generator exactly when f is not a pivot, which is the greedy
rule "f lies outside span(m K) plus the span of the kernel vectors
before it".  Only that pivot set is computed, and it depends only on the
span: a product that is a unit vector after the restriction puts its
coordinate in the set, and only the few others, projected off those
coordinates, are echeloned (`_saturated_pivots`).  The products of a
unit e_f are read off the action row of f, grouped by variable, and a
new generator of a zero column gets its pair ({f: 1}, 1) only then.

A differential is kept as the image of each generator: a vector V / S of
the target, as an int vector V over its own denominator S (the
`int_kernel` pair C over C[f] for a kernel vector; S = 1 over GF(p)).
The image of x_l*m times a generator is x_l times the image of m, so the
images of a whole piece's basis follow by shifting int vectors through
int x_l tables, each keeping its own denominator, and `int_kernel` takes
them as they are.  A zero image's multiples are zero.  Over an ungraded
ring most generators are unit vectors e_f with f = (g', m'), and the
images of the whole block of such a generator are the ring's products
m * m' moved to the block of g': a table per m' kept on the ring
(`_unit_images`), built by the same chain of shifts, so that every pair
is literally the chained one.  Field vectors are built only where they
are read: `ResolutionData.maps`, `ResolutionData.differential` and the
solves of a chain-map lift.

Every sweep needs a certified stopping degree.  Over an artinian ring
components vanish above maxgen + top degree.  Over the polynomial ring
the regularity of a finite-length module (its top degree) or the Taylor
bound of a monomial ideal caps generator degrees.  For a non-artinian
graded quotient with finite Koszul homology the coefficientwise bound
P^R_M(z,w) <= P^Q_M(z,w) / (1 - sum h_{i,j} z^{i+1} w^j) turns into a
knapsack over the homology bidegrees, giving a proven cutoff for every
homological degree.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, partial
from math import lcm
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .errors import BudgetError, InputError, NotArtinianError, PreconditionError
# kernel_of_columns is not called here, but stays a name of this module
# for tools that wrap it in every module that imports it
from .linalg import (EchelonSolver, field_vector, int_kernel, int_vector,
                     kernel_of_columns, vec_add_terms, vec_combine)  # noqa: F401
from .poly import Polynomial
from .quotient import QuotientRing
from .tables import BettiTable


# -- module presentations ---------------------------------------------


@dataclass(frozen=True)
class ModulePresentation:
    """A module given by generators: a cokernel or a submodule of R^rank."""

    ring: QuotientRing
    mode: str  # "cokernel" | "submodule"
    rank: int
    shifts: tuple
    columns: tuple  # tuple of columns; column = tuple of rank polynomials
    kind: str = "custom"  # "k" | "power" | "cyclic" | "custom"
    power: int = 0

    def __post_init__(self):
        if self.mode not in ("cokernel", "submodule"):
            raise InputError("mode must be 'cokernel' or 'submodule'")
        if len(self.shifts) != self.rank:
            raise InputError("one degree shift per ambient generator required")
        for col in self.columns:
            if len(col) != self.rank:
                raise InputError("column length does not match ambient rank")

    @classmethod
    def residue_field(cls, ring: QuotientRing) -> "ModulePresentation":
        cols = tuple((ring.variable(i),) for i in range(ring.n))
        return cls(ring, "cokernel", 1, (0,), cols, kind="k")

    @classmethod
    def power_module(cls, ring: QuotientRing, t: int) -> "ModulePresentation":
        """The ideal m^t as a submodule of R."""
        if t < 0:
            raise InputError("power must be nonnegative")
        if t == 0:
            gens = [ring.one_poly()]
        elif ring.graded:
            gens = [Polynomial.from_monomial(ring.n, ring.field, ring.order, m)
                    for m in ring.std_basis(t)]
        else:
            gens = ring.power_ideal_basis(t)
        cols = tuple((g,) for g in gens)
        return cls(ring, "submodule", 1, (0,), cols, kind="power", power=t)

    @classmethod
    def cyclic_quotient(cls, ring: QuotientRing,
                        relations: Sequence[Polynomial]) -> "ModulePresentation":
        cols = tuple((r,) for r in relations)
        return cls(ring, "cokernel", 1, (0,), cols, kind="cyclic")


# Source coordinates one resolution step may hold: the sum over its
# degree window of rank times piece dimension.  A larger step raises
# BudgetError before its kernel is computed.
RESOLUTION_BUDGET = 150000


# -- free modules -----------------------------------------------------


class FreeModule:
    """A free module with one generator degree per basis element.

    Piece j of the module is the direct sum of the pieces j - d of R, one
    block per generator of degree d.  Over an ungraded ring every degree
    is 0 and the module has the single piece 0.
    """

    def __init__(self, ring: QuotientRing, degrees: list):
        self.ring = ring
        self.degrees = list(degrees)
        self._offsets: dict[int, tuple] = {}
        self._int_shifts: dict[int, tuple] = {}
        self._constant_slots: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.degrees)

    def offsets(self, j: int) -> tuple:
        """Where each generator's block starts in piece j."""
        cached = self._offsets.get(j)
        if cached is None:
            offsets = []
            total = 0
            for d in self.degrees:
                offsets.append(total)
                total += len(self.ring.piece(j - d))
            cached = tuple(offsets)
            self._offsets[j] = cached
        return cached

    def dim(self, j: int) -> int:
        """Dimension of piece j."""
        return sum(len(self.ring.piece(j - d)) for d in self.degrees)

    def int_shifts(self, j: int):
        """Offsets of piece j, the scale of its int x_l tables and, per
        generator, (source offset, target offset, their int action).

        Over Q all blocks share one scale, the lcm of the denominators of
        every block's action, so x_l times an int vector is one integer
        multiple of its true value; a scale per block would break that
        proportionality.  Over GF(p) the tables hold residues.  Cached per
        piece: the sweep asks for a piece as source and as target.
        """
        cached = self._int_shifts.get(j)
        if cached is None:
            ring = self.ring
            src = self.offsets(j)
            tgt = self.offsets(ring.piece_of(j + 1))
            scale = lcm(*(ring.action_scale(j - d) for d in self.degrees))
            cached = self._int_shifts[j] = (
                src, scale, tuple((src[g], tgt[g], ring.int_action(j - d, scale))
                                  for g, d in enumerate(self.degrees)))
        return cached

    def constant_slots(self, j: int) -> dict:
        """Coordinate of the constant monomial in piece j -> its generator.

        Only a generator of degree j has 1 in its block of piece j, and 1
        comes first in piece 0 of R."""
        cached = self._constant_slots.get(j)
        if cached is None:
            offsets = self.offsets(j)
            cached = {offsets[g]: g for g, d in enumerate(self.degrees) if d == j}
            self._constant_slots[j] = cached
        return cached


# -- component plumbing -----------------------------------------------


def _nonzero(vec: dict, p: int) -> dict:
    """An int vector without its zero entries, reduced mod p when p."""
    if p:
        return {k: r for k, x in vec.items() if (r := x % p)}
    return vec if all(vec.values()) else {k: x for k, x in vec.items() if x}


def _shift_ints(vec: dict, offsets: tuple, blocks: tuple, l: int, p: int) -> dict:
    """x_l times an int vector, up to the scale of FreeModule.int_shifts."""
    out: dict = {}
    for coord, coeff in vec.items():
        src, tgt, act = blocks[bisect_right(offsets, coord) - 1]
        for x, ti, c in act[coord - src]:
            if x == l:
                k = tgt + ti
                out[k] = out.get(k, 0) + coeff * c
    return _nonzero(out, p) if out else out


def _shift_all(vec: dict, offsets: tuple, blocks: tuple, p: int,
               stored: Optional[set] = None) -> list[dict]:
    """The nonzero ones among x_1 * vec, ..., x_n * vec for an int vector,
    each up to the scale of the tables from FreeModule.int_shifts; one
    pass over vec, with one bisect per coordinate.  With `stored`, only
    target coordinates outside stored survive."""
    outs: dict = {}  # l -> x_l * vec; most products of a sweep are zero
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
        out = _nonzero(out, p)
        if out:
            result.append(out)
    return result


def _saturate(span: EchelonSolver, module: FreeModule, piece: int, feed) -> None:
    """Insert x_l * v into span for every int vector v of feed, a list
    of vectors of the given piece of module, and every variable x_l."""
    if not feed:
        return
    offsets, _scale, blocks = module.int_shifts(piece)
    p = module.ring.field.char
    for v in feed:
        for w in _shift_all(v, offsets, blocks, p):
            span.add_ints(w)


def _saturated_pivots(module: FreeModule, piece: int, zeros, dense, stored: set) -> set:
    """The pivots of an echelon form whose rows pivot on their largest
    coordinate, spanned by the products x_l * v restricted to the
    coordinates outside `stored`, for every variable x_l and every v of
    the feed: the unit vectors e_f for f in zeros and the int vectors of
    dense, all in the given piece of module.  The echelon itself is not
    built.

    The pivot set of an echelon form depends only on the span.  Let U be
    the unit products and D the others, each as restricted.  The span is
    span(U) plus the projection of D off the coordinates of U, whose
    vectors miss those coordinates; so the pivots are the unit
    coordinates plus the pivots of an echelon of the projected D, which
    is small in a resolution sweep.  The products of e_f are read off the
    action row of f, grouped by variable.
    """
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
                if len(pairs) == 1:  # most products of a sweep
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
            for w in _shift_all(v, offsets, blocks, p, stored):
                if len(w) == 1:
                    units.update(w)
                else:
                    rest.append(w)
    span = EchelonSolver(module.ring.field)
    for w in rest:
        # coordinate k is named -k, so a row's pivot, its smallest
        # coordinate, is its largest k
        w = {-k: x for k, x in w.items() if k not in units}
        if w:
            span.add_ints(w)
    units.update(-min(row) for row in span.int_rows())
    return units


_ZERO = ({}, 1)  # shared by the many zero images; no caller changes a pair


def _unit_coordinate(V: dict, S) -> Optional[int]:
    """f when the int pair (V, S) is the unit vector ({f: 1}, 1) with
    int entries, else None; a gmpy2 mpz 1 would give other value types
    down the chain of shifts than the int 1 of `_unit_images`."""
    if S == 1 and len(V) == 1:
        (f, x), = V.items()
        if x == 1 and type(x) is type(S) is int:
            return f
    return None


def _unit_images(ring: QuotientRing, i: int, scale: int) -> list:
    """The int pairs of m * m_i for the monomials m of an ungraded ring,
    in order, by the chain of `_basis_images` from ({i: 1}, 1): the image
    block of a generator whose image is the unit vector of m_i in a block
    at offset 0.  Cached on the ring per (i, scale)."""
    rows = ring._unit_images.get((i, scale))
    if rows is None:
        rows = ring._unit_images[(i, scale)] = []
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


def _basis_images(source: FreeModule, target: FreeModule, vectors, j: int,
                  memo: dict) -> list[tuple]:
    """Images of the piece-j basis of source under the map sending
    generator g to the int pair vectors[g], as int pairs (V, S) for the
    vectors V / S of target; memo maps j -> images.

    The image of (g, m) with m = x_l * m' is x_l times the image of
    (g, m'): one shift of an image found before, since m' precedes m in
    an ungraded piece and lies in the previous piece of a graded ring.
    The shift's int table is `scale` times x_l, and so is S.  A zero
    image's multiples are zero.  Over an ungraded ring, the block of a
    generator whose image is a unit vector is that chain read from the
    ring's `_unit_images`, moved to the block of the unit vector.
    """
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
                rows = _unit_images(ring, f - o, target.int_shifts(0)[1])
                out.extend([({k + o: x for k, x in W.items()}, S) if W else _ZERO
                            for W, S in rows] if o else rows)
                continue
            for step in ring.divisors(j - d):
                if step is None:
                    out.append(vectors[g])
                    continue
                if prev is None:  # over an ungraded ring, `out` itself
                    prev = _basis_images(source, target, vectors, below, memo)
                    prev_offsets = source.offsets(below)
                    offsets, scale, blocks = target.int_shifts(below)
                l, i = step
                V, S = prev[prev_offsets[g] + i]
                W = _shift_ints(V, offsets, blocks, l, p) if V else None
                out.append((W, S * scale) if W else _ZERO)
    return out


def _vector_to_column(ring, source: FreeModule, vec: dict, j: int) -> dict:
    """Piece-j vector -> polynomial column over the source generators."""
    offsets = source.offsets(j)
    per_gen: dict[int, list] = {}
    for coord, coeff in vec.items():
        g = bisect_right(offsets, coord) - 1
        per_gen.setdefault(g, []).append((coord - offsets[g], coeff))
    out = {}
    for g, entries in sorted(per_gen.items()):
        basis = ring.piece(j - source.degrees[g])
        terms = [(basis[local], coeff) for local, coeff in entries]
        out[g] = Polynomial(ring.n, ring.field, ring.order, terms)
    return out


def _column_component(ring, target: FreeModule, column: dict, j: int) -> tuple:
    """Polynomial column -> piece-j vector, as an int pair (V, S)."""
    offsets = target.offsets(j)
    vec: dict = {}
    for tg, p in column.items():
        e = j - target.degrees[tg]
        if e < 0:
            raise AssertionError("column entry below its generator degree")
        index = ring.piece_index(e)
        vec_add_terms(vec, ((offsets[tg] + index[m], c) for m, c in p.terms))
    return int_vector(vec, ring.field.char)


# -- certified sweep windows ------------------------------------------


def _taylor_bounds(degs: list, n: int) -> list:
    """Taylor-complex degree caps for a monomial ideal with those gens."""
    degs = sorted(degs, reverse=True)
    return [sum(degs[:i]) for i in range(n + 2)]


def _serre_window(ring: QuotientRing, pres: ModulePresentation,
                  max_tor: int) -> Callable:
    """Degree cutoffs for Tor^R(M, k) over a non-artinian graded ring."""
    from .koszul import homology_algebra
    n = ring.n
    hdims = homology_algebra(ring).bigraded_dims()
    steps = [(i + 1, j) for (i, j) in hdims]
    hbest: list = [None] * (max_tor + 1)
    hbest[0] = 0
    for m in range(1, max_tor + 1):
        cur = None
        for size, deg in steps:
            if size <= m and hbest[m - size] is not None:
                cand = hbest[m - size] + deg
                if cur is None or cand > cur:
                    cur = cand
        hbest[m] = cur

    if pres.kind == "power":
        if not ring.is_monomial_ideal:
            raise NotArtinianError(
                "power-module resolutions over a non-artinian quotient need "
                "a monomial ideal for a certified degree bound")
        taylor = _taylor_bounds([g.lead_monomial.degree
                                 for g in ring.groebner_basis], n)

        def q_bound(m):
            # m^t sits between R and R/m^t in the ambient Tor long exact
            # sequence; R/m^t has regularity below t
            return max(m + pres.power, taylor[m]) if m <= n else None
    elif pres.kind == "k":
        def q_bound(m):
            return m if m <= n else None
    else:
        raise PreconditionError(
            "no certified degree window for this module over a "
            "non-artinian quotient")

    bounds = []
    for i in range(max_tor + 1):
        best = -1
        for m in range(0, i + 1):
            qb = q_bound(m)
            if qb is None or hbest[i - m] is None:
                continue
            if qb + hbest[i - m] > best:
                best = qb + hbest[i - m]
        bounds.append(best)

    return lambda tor_i, prev_maxgen: bounds[tor_i]


def _q_mode_window(ring: QuotientRing, pres: ModulePresentation) -> Callable:
    """Degree cutoffs for resolutions over the polynomial ring itself."""
    top = None
    taylor = None
    if pres.kind == "k":
        top = 0
    elif pres.kind == "cyclic":
        gens = [c[0] for c in pres.columns if c[0].terms]
        if all(p.is_monomial() for p in gens):
            taylor = _taylor_bounds([p.lead_monomial.degree for p in gens], ring.n)
        probe = QuotientRing(ring.field, ring.var_names, gens, ring.order)
        if probe.is_artinian:
            top = probe.top_degree
    if top is None and taylor is None:
        raise PreconditionError(
            "resolution over the polynomial ring needs a finite-length "
            "module or a monomial ideal for a degree window")

    def window(tor_i, prev_maxgen):
        cands = []
        if top is not None:
            cands.append(tor_i + top)
        if taylor is not None:
            cands.append(taylor[min(tor_i, len(taylor) - 1)])
        return min(cands)

    return window


# -- resolution data --------------------------------------------------


class ResolutionData:
    """A minimal free resolution: modules, differentials, Betti numbers.

    `chain` starts at the ambient free module; `maps[p][g]` is the image
    of generator g of chain[p+1], a coordinate vector of chain[p] in the
    piece of that generator's degree, built on first read from the int
    pair (V, S) = `int_maps[p][g]` of the sweep, the vector V / S.
    `differential` turns maps into polynomial columns when called.  For a
    cokernel the resolved module has chain[0] as its zeroth step; for a
    submodule the chain is shifted by one and maps[0] is the evaluation
    into the ambient module.
    """

    def __init__(self, ring: QuotientRing, pres: ModulePresentation, limit: int):
        self.ring = ring
        self.presentation = pres
        self.limit = limit
        self.chain: list[FreeModule] = []
        self.int_maps: list[list[tuple]] = []
        self.exactness_log: list[tuple] = []

    @cached_property
    def maps(self) -> list[list[dict]]:
        p = self.ring.field.char
        return [[field_vector(p, V, S) for V, S in step] for step in self.int_maps]

    @property
    def graded(self) -> bool:
        return self.ring.graded

    def _tor_offset(self) -> int:
        return 0 if self.presentation.mode == "cokernel" else 1

    def module(self, i: int) -> FreeModule:
        return self.chain[i + self._tor_offset()]

    def differential(self, i: int) -> list[dict]:
        """Polynomial columns of the i-th differential of the resolved
        module, i >= 1: one dict {target generator: entry} per source
        generator."""
        if not 1 <= i <= self.limit:
            raise InputError("differential index must lie in 1..%d" % self.limit)
        p = i - 1 + self._tor_offset()
        return [_vector_to_column(self.ring, self.chain[p], v, d)
                for d, v in zip(self.chain[p + 1].degrees, self.maps[p])]

    def betti_numbers(self) -> list[int]:
        off = self._tor_offset()
        return [m.rank for m in self.chain[off:off + self.limit + 1]]

    def bigraded_betti(self) -> dict:
        if not self.graded:
            raise PreconditionError("bigraded Betti numbers need a grading")
        off = self._tor_offset()
        out: dict = {}
        for i, mod in enumerate(self.chain[off:off + self.limit + 1]):
            for d in mod.degrees:
                out[(i, d)] = out.get((i, d), 0) + 1
        return out

    def table(self, label: str = "") -> BettiTable:
        return BettiTable(self.bigraded_betti(), label=label)

    def is_linear(self) -> bool:
        """True when every i-th step generator sits in internal degree i."""
        if not self.graded:
            raise PreconditionError("linearity needs a grading")
        off = self._tor_offset()
        shift = self.presentation.power if self.presentation.kind == "power" else 0
        for i, mod in enumerate(self.chain[off:off + self.limit + 1]):
            if any(d != i + shift for d in mod.degrees):
                return False
        return True


# -- the engine -------------------------------------------------------


def _extract(module: FreeModule, jmin: int, jmax: int, vectors_at, seed):
    """Step one: sweep pieces jmin..jmax collecting the given vectors not
    absorbed by saturation.

    Piece j is first saturated with x_l times a spanning set of the
    previous piece's span, or for piece jmin with x_l times the int
    vectors of `seed`, which lie in piece jmin itself.  The generators
    are the int pairs (V, S) of vectors_at(j) whose V still grows the
    span.  Returns (piece, pair) pairs plus a per-piece log of (j,
    saturated dim, new, total).
    """
    gens = []
    log = []
    feed, feed_piece = seed, jmin
    for j in range(jmin, jmax + 1):
        span = EchelonSolver(module.ring.field)
        _saturate(span, module, feed_piece, feed)
        sat_dim = span.rank
        new = [v for v in vectors_at(j) if span.add_ints(dict(v[0]))]
        gens.extend((j, v) for v in new)
        log.append((j, sat_dim, len(new), span.rank))
        feed, feed_piece = span.int_rows(), j
    return gens, log


def _closure(module: FreeModule, vectors) -> list[dict]:
    """Independent int vectors spanning the submodule generated by the int
    pairs (V, S) of `vectors` in the single piece 0 of an ungraded ring."""
    span = EchelonSolver(module.ring.field)
    for V, _S in vectors:
        span.add_ints(dict(V))
    done = 0
    while done < span.rank:
        rows = span.int_rows()
        _saturate(span, module, 0, rows[done:])
        done = len(rows)
    return span.int_rows()


def _sweep(src: FreeModule, jmin: int, jmax: int, images):
    """Every step after the first: the minimal generators of the kernel
    of the map whose piece-j basis images are images(j).

    Kernel vector f of piece j (free column f, see `int_kernel`) is a new
    generator iff it lies outside span(m K_j) + span(kernel vectors
    before f).  A kernel vector is fixed by its free coordinates, so
    restrict x_l times a basis of the previous piece's kernel to them: an
    echelon of their span that pivots on the largest free column has f
    among the pivots that `_saturated_pivots` returns iff f is not a new
    generator.
    Returns (piece, int pair) pairs plus the per-piece log; the pair of
    kernel vector f is (C, C[f]), with f moved last as in `kernel_vector`,
    and ({f: 1}, 1) for a zero column f.
    """
    ring = src.ring
    field = ring.field
    gens = []
    log = []
    below = int_kernel(images(ring.piece_of(jmin - 1)), field)
    for j in range(jmin, jmax + 1):
        # an ungraded ring's single piece feeds itself
        zeros, kernel, stored = int_kernel(images(j), field) if ring.graded else below
        pivots = _saturated_pivots(src, ring.piece_of(j - 1), below[0],
                                   [C for _f, C in below[1]], stored)
        # each list is ascending in f, so the sort merges two runs
        new = sorted([(f, None) for f in zeros if f not in pivots] +
                     [(f, C) for f, C in kernel if f not in pivots], key=itemgetter(0))
        log.append((j, len(pivots), len(new), len(zeros) + len(kernel)))
        # free all but the next feed before storing
        below = (zeros, kernel, stored) if j < jmax else ()
        del zeros, kernel, stored
        constants = src.constant_slots(j)
        for f, C in new:
            if C is None:  # the unit vector e_f of a zero column
                if f in constants:
                    raise AssertionError("resolution lost minimality")
                gens.append((j, ({f: 1}, 1)))
                continue
            if any(k in constants for k in C):
                raise AssertionError("resolution lost minimality")
            C[f] = C.pop(f)
            gens.append((j, (C, C[f])))
    return gens, log


def _resolve(ring: QuotientRing, pres: ModulePresentation, limit: int,
             window: Callable) -> ResolutionData:
    data = ResolutionData(ring, pres, limit)
    ambient = FreeModule(ring, [ring.piece_of(sh) for sh in pres.shifts])

    by_piece: dict[int, list] = {}
    for col in pres.columns:
        column = {}
        pieces = set()
        for tg, p in enumerate(col):
            p = ring.normal_form(p)
            if p.terms:
                column[tg] = p
                pieces.update(ring.piece_of(m.degree + ambient.degrees[tg])
                              for m, _c in p.terms)
        if len(pieces) > 1:
            raise PreconditionError("graded resolutions need homogeneous columns")
        if pres.mode == "cokernel" and any(p.constant_term() for p in column.values()):
            raise PreconditionError("cokernel columns must lie in the maximal ideal")
        if column:
            j = pieces.pop()
            by_piece.setdefault(j, []).append(_column_component(ring, ambient, column, j))

    # chain positions to build: limit for a cokernel, one extra shifted
    positions = limit + (0 if pres.mode == "cokernel" else 1)
    tor_of = (lambda p: p) if pres.mode == "cokernel" else (lambda p: p - 1)

    data.chain = [ambient]
    if positions >= 1:
        # step one: minimal generators of the span of the given columns;
        # the one piece of an ungraded ring starts from their closure
        gens, log = [], []
        if by_piece:
            seed = () if ring.graded else _closure(ambient, by_piece[0])
            gens, log = _extract(ambient, min(by_piece), max(by_piece),
                                 lambda j: by_piece.get(j, ()), seed)
            if seed and log[-1][3] != len(seed):
                raise AssertionError("given columns fail to generate their span")
        data.chain.append(FreeModule(ring, [d for d, _v in gens]))
        data.int_maps.append([v for _d, v in gens])
        data.exactness_log.append((tor_of(1), log))

    while len(data.chain) - 1 < positions:
        src = data.chain[-1]
        pos = len(data.chain)
        if src.rank == 0:
            data.chain.append(FreeModule(ring, []))
            data.int_maps.append([])
            continue
        jmin = min(src.degrees)
        jmax = window(tor_of(pos), max(src.degrees))
        source_dim = sum(src.dim(j) for j in range(jmin, jmax + 1))
        if source_dim > RESOLUTION_BUDGET:
            raise BudgetError(
                "resolution budget of %d source coordinates per step exceeded: "
                "step %d needs %d" % (RESOLUTION_BUDGET, tor_of(pos), source_dim))
        images = partial(_basis_images, src, data.chain[-2], data.int_maps[-1], memo={})
        gens, log = _sweep(src, jmin, jmax, images)
        data.exactness_log.append((tor_of(pos), log))
        data.chain.append(FreeModule(ring, [d for d, _v in gens]))
        data.int_maps.append([v for _d, v in gens])
    return data


# -- public operations ------------------------------------------------


def polynomial_ambient(ring: QuotientRing) -> QuotientRing:
    """The ambient polynomial ring of a presented quotient, relation free."""
    if ring._ambient_ring is None:
        ring._ambient_ring = QuotientRing(ring.field, ring.var_names, [], ring.order,
                                          label="ambient polynomial ring")
    return ring._ambient_ring


def minimal_resolution(ring: QuotientRing, pres: ModulePresentation,
                       limit: int) -> ResolutionData:
    """Minimal free resolution of the presented module out to step `limit`."""
    if limit < 0:
        raise InputError("resolution limit must be nonnegative")
    if pres.ring is not ring:
        raise InputError("presentation belongs to a different ring")
    if not ring.graded:
        ring.require_artinian("a resolution without a grading")
        window = lambda tor_i, prev_maxgen: 0  # sweep the single piece 0
    elif not ring.relations:
        window = _q_mode_window(ring, pres)
    elif ring.is_artinian:
        top = ring.top_degree
        window = lambda tor_i, prev_maxgen: prev_maxgen + top
    else:
        max_tor = limit + (0 if pres.mode == "cokernel" else 1)
        window = _serre_window(ring, pres, max_tor)
    return _resolve(ring, pres, limit, window)


def betti_numbers_k(ring: QuotientRing, limit: int) -> ResolutionData:
    """Resolution of the residue field over R out to step `limit`."""
    return minimal_resolution(ring, ModulePresentation.residue_field(ring), limit)


def betti_table_R_over_Q(ring: QuotientRing, via: str = "homology") -> BettiTable:
    """Betti table of R over its polynomial ring, by either route."""
    from .koszul import homology_algebra
    label = ring.label or "R"
    if via == "homology":
        entries = dict(homology_algebra(ring).bigraded_dims())
        entries[(0, 0)] = 1
        return BettiTable(entries, label=label)
    if via == "resolution":
        ambient = polynomial_ambient(ring)
        pres = ModulePresentation.cyclic_quotient(ambient, ring.relations)
        data = minimal_resolution(ambient, pres, ambient.n + 1)
        return BettiTable(data.bigraded_betti(), label=label)
    raise InputError("via must be 'homology' or 'resolution'")


# -- comparison maps between power ideals -----------------------------


@dataclass(frozen=True)
class TorMapReport:
    """Outcome of reducing a lifted inclusion m^s -> m^b modulo m."""

    s: int
    b: int
    limit: int
    vanishes: bool
    degrees: tuple  # per homological degree: True if the reduced map is zero
    witnesses: tuple  # (degree, source gen, target gen, coefficient repr)


def tor_map_vanishes(ring: QuotientRing, s: int, b: int, limit: int) -> TorMapReport:
    """Whether Tor of the inclusion m^s -> m^b vanishes up to `limit`.

    The inclusion is lifted to a chain map between the minimal
    resolutions; the induced map on Tor is the lift reduced modulo the
    maximal ideal, read off from the constant coefficients.
    """
    if s < b:
        raise InputError("the inclusion of m^s into m^b needs s >= b")
    if limit < 0:
        raise InputError("limit must be nonnegative")
    res_s = minimal_resolution(ring, ModulePresentation.power_module(ring, s), limit)
    res_b = minimal_resolution(ring, ModulePresentation.power_module(ring, b), limit)
    lifts = _lift(ring, res_s, res_b, limit)

    degrees = []
    witnesses = []
    for i in range(limit + 1):
        target = res_b.chain[i + 1]
        ok = True
        for gi, (d, vec) in enumerate(zip(res_s.chain[i + 1].degrees, lifts[i])):
            constants = target.constant_slots(d)
            for k in sorted(k for k in vec if k in constants):
                ok = False
                witnesses.append((i, gi, constants[k], repr(vec[k])))
        degrees.append(ok)
    return TorMapReport(s, b, limit, all(degrees), tuple(degrees), tuple(witnesses))


def _lift(ring, res_s, res_b, limit):
    """Chain map between the two resolutions over the inclusion, as the
    field vectors lifts[p - 1][g] of res_b.chain[p], one per generator g
    of res_s.chain[p], p >= 1.  Basis images are shifted as int pairs and
    turn into field vectors only for the solves."""
    p = ring.field.char
    # position 0 is the shared ambient copy of R; the lift starts as
    # the identity and is pushed up the two chains one step at a time
    prev = [_column_component(ring, res_b.chain[0], {0: ring.one_poly()}, 0)]
    lifts = []
    for q in range(1, limit + 2):
        # lift_{q-1} of the piece-d basis, and the differential of res_b
        composed = partial(_basis_images, res_s.chain[q - 1], res_b.chain[q - 1],
                           prev, memo={})
        images = partial(_basis_images, res_b.chain[q], res_b.chain[q - 1],
                         res_b.int_maps[q - 1], memo={})
        systems: dict = {}
        cur = []
        for d, v in zip(res_s.chain[q].degrees, res_s.maps[q - 1]):
            basis = composed(d)
            tvec = vec_combine(v, {k: field_vector(p, *basis[k]) for k in v})
            if not tvec:
                cur.append({})
                continue
            system = systems.get(d)
            if system is None:
                system = systems[d] = EchelonSolver(ring.field, track=True)
                for j, (V, S) in enumerate(images(d)):
                    system.add(field_vector(p, V, S), tag=j)
            sol = system.solve(tvec)
            if sol is None:
                raise AssertionError("chain map lift failed; resolution not exact")
            cur.append(sol)
        lifts.append(cur)
        prev = [int_vector(v, p) for v in cur]
    return lifts
