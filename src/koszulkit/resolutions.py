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

Generators are read off pivots.  `kernel_of_columns` gives the reduced
null basis: vector f has coefficient one at its free column f and zero at the
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

Over a graded ring the columns of piece j come generator by generator,
in ascending degree, so the generators of degree j own its last
columns, whose images are the generators themselves.  Those are minimal
generators of the kernel the previous sweep resolved: independent
modulo the span of the other columns, which is m times that kernel in
degree j.  So they add no null vector, only echelon rows that no later
column of the piece reads, and `kernel_of_columns` runs on the other
columns alone (`_piece_kernel`; Schreyer's observation that the
syzygies fall out of the reductions, Eisenbud, Commutative Algebra,
Thm 15.10).  The rank that piece then has must be the dimension the
step before found in degree j (`_check_spans`), or that step took a
generator too many or too few.  The single piece of an ungraded ring
interleaves each generator's column with its multiples and is
eliminated whole.

A differential is kept as the image of each generator: a vector V / S of
the target, as an int vector V over its own denominator S (the kernel
pair C over C[f] for a kernel vector; S = 1 over GF(p)).  The image of
x_l*m times a generator is x_l times the image of m, so the images of a
whole piece's basis follow by shifting int vectors through the ring's
int x_l tables (`quotient.shift_ints`), each keeping its own
denominator, and `kernel_of_columns` takes them as they are.  A zero
image's multiples are zero.  A graded piece finds the block of a
coordinate by bisecting its block offsets.  The one piece of an ungraded
ring needs no search: every block is the whole ring, so block g starts
at g * dim R, coordinate f is row f % dim R of the block at
f - f % dim R, and every block shares the ring's one x_l table
(`_stride_all`, `_stride_shift`).  The layout is chosen once per piece
(`_layout`).  Over an ungraded ring most generators are
unit vectors e_f with f = (g', m'), and the images of the whole block
of such a generator are the ring's products m * m' moved to the block
of g': column m' of the ring's one product table
(`QuotientRing.product_pairs`), built by the same chain of shifts, so
that every pair is literally the chained one.  Field vectors are built
only where they are read: `ResolutionData.maps`,
`ResolutionData.differential` and the solutions of a chain-map lift,
whose systems and targets stay int pairs.

The pairs of the last step are built only where they are read, too.
The Betti numbers need only the count of its new generators, the free
columns that are not pivots, and no later sweep shifts its images; so
its sweep keeps each piece's kernel and pivots (a step split into
components below keeps the pairs of its kinds), and
`ResolutionData.int_maps` builds that step's pairs on first read, by
the same code that builds the other steps' pairs at once.

An ungraded step is swept a component at a time.  The columns of the
block of generator g, the images m times the image of g, touch only
the target blocks k // dim R that the image of g touches; generators
whose images share a block, or are linked by a chain of such images,
form a component (`_components`, a union-find over blocks), and the
step's matrix is the direct sum of its components'.  Over a stretched
ring most components are copies of a few kinds.  `_split_sweep`
relabels each component onto a local free module, its generators and
target blocks becoming blocks 0, 1, ... in order, keys it by those
local images with their value types (the output's int types follow
the input's), and sweeps each kind once per `_resolve` call; `_place`
moves every copy back to its own blocks and merges the pairs by
ascending free column, and the log entries add up.  That is literally
the whole step's sweep.  Elimination on disjoint coordinate supports
never mixes rows or tags: a column only meets rows whose pivots lie in
its own blocks.  The smallest-coordinate pivot, the heap order of
`kernel_of_columns` and the order in which tags enter a combination
are settled by comparisons that an order-preserving relabelling keeps.
And the pivot set of an echelon of a direct sum is the union of its
parts' pivot sets, so `_saturated_pivots` splits too.  A step with one
component, every graded step and each step over the stretched rings
with r = 1 that were measured, is swept whole.

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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, partial
from math import lcm
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .errors import BudgetError, InputError, NotArtinianError, PreconditionError
from .linalg import (EchelonSolver, combine_ints, field_vector, int_vector,
                     kernel_of_columns, vec_add_terms)
from .poly import Polynomial
from .quotient import ZERO, QuotientRing, nonzero_ints, shift_ints
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


def _shift_all(vec: dict, offsets: tuple, blocks: tuple, p: int,
               stored: Optional[set] = None) -> list[dict]:
    """The nonzero ones among x_1 * vec, ..., x_n * vec for an int vector
    of a graded piece, each up to the scale of the tables from
    FreeModule.int_shifts; one pass over vec, which finds the block of
    each coordinate among the block offsets of the piece.  With `stored`,
    only target coordinates outside stored survive."""
    outs: dict = {}  # l -> x_l * vec; most products of a sweep are zero
    for coord, coeff in vec.items():
        src, tgt, act = blocks[bisect_right(offsets, coord) - 1]
        for l, ti, c in act[coord - src]:
            out = outs.get(l)
            if out is None:
                out = outs[l] = {}
            k = tgt + ti
            out[k] = out.get(k, 0) + coeff * c
    return _products(outs, p, stored)


def _stride_all(vec: dict, d: int, act: tuple, p: int, stored: Optional[set] = None) -> list[dict]:
    """`_shift_all` on the one piece of an ungraded ring, where block g
    starts at g * d, d = dim R, and every block has the ring's one
    `int_action` table act: coordinate f is row f % d of the block at
    f - f % d, which x_l maps into itself."""
    outs: dict = {}
    for coord, coeff in vec.items():
        base = coord - (i := coord % d)
        for l, ti, c in act[i]:
            out = outs.get(l)
            if out is None:
                out = outs[l] = {}
            k = base + ti
            out[k] = out.get(k, 0) + coeff * c
    return _products(outs, p, stored)


def _stride_shift(vec: dict, d: int, act: tuple, l: int, p: int) -> dict:
    """`quotient.shift_ints` on the one piece of an ungraded ring, by the
    stride of `_stride_all`."""
    out: dict = {}
    for coord, coeff in vec.items():
        base = coord - (i := coord % d)
        for x, ti, c in act[i]:
            if x == l:
                k = base + ti
                out[k] = out.get(k, 0) + coeff * c
    return nonzero_ints(out, p) if out else out


def _products(outs: dict, p: int, stored: Optional[set]) -> list[dict]:
    """The nonzero products x_l * vec of `outs`, off `stored` if given."""
    result = []
    for out in outs.values():
        if stored:
            out = {k: x for k, x in out.items() if k not in stored}
        out = nonzero_ints(out, p)
        if out:
            result.append(out)
    return result


def _layout(module: FreeModule, piece: int) -> tuple:
    """(shift_all, shift, a, scale, b) for the given piece of module,
    chosen once per piece: shift_all(v, a, b, p, stored) gives every
    x_l * v and shift(v, a, b, l, p) one of them, each up to `scale`.
    Over a graded ring they are `_shift_all` and `quotient.shift_ints` on
    the offsets a and blocks b of `FreeModule.int_shifts`; over an
    ungraded ring, `_stride_all` and `_stride_shift` on a = dim R and the
    ring's one table b."""
    ring = module.ring
    if ring.graded:
        return (_shift_all, shift_ints, *module.int_shifts(piece))
    scale = ring.action_scale(0)
    return _stride_all, _stride_shift, ring.dim, scale, ring.int_action(0, scale)


def _saturate(span: EchelonSolver, module: FreeModule, piece: int, feed) -> None:
    """Insert x_l * v into span for every int vector v of feed, a list
    of vectors of the given piece of module, and every variable x_l."""
    shift_all, _shift, a, _scale, b = _layout(module, piece)
    p = module.ring.field.char
    for v in feed:
        for w in shift_all(v, a, b, p):
            span.add(w)


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
    action row of f, grouped by variable; over an ungraded ring that is
    row f % d of the ring's one grouped table, d = dim R, moved to the
    block at f - f % d (see `_stride_all`).  A product of e_f with more
    than one term goes to D even if the restriction leaves it one entry:
    the pivots are those of the same span.
    """
    units: set = set()
    rest = []
    if zeros or dense:
        ring = module.ring
        shift_all, _shift, a, scale, b = _layout(module, piece)
        if ring.graded:
            grouped = [ring.grouped_int_action(piece - d, scale) for d in module.degrees]
            for f in zeros:
                g = bisect_right(a, f) - 1
                src, tgt, _act = b[g]
                for pairs in grouped[g][f - src]:
                    if len(pairs) == 1:  # most products of a sweep
                        if (k := tgt + pairs[0][0]) not in stored:
                            units.add(k)
                    elif w := {k: c for ti, c in pairs if (k := tgt + ti) not in stored}:
                        rest.append(w)
        else:
            grouped = ring.grouped_int_action(0, scale)
            for f in zeros:
                tgt = f - (i := f % a)
                for pairs in grouped[i]:
                    if len(pairs) == 1:
                        if (k := tgt + pairs[0][0]) not in stored:
                            units.add(k)
                    elif w := {k: c for ti, c in pairs if (k := tgt + ti) not in stored}:
                        rest.append(w)
        p = ring.field.char
        for v in dense:
            for w in shift_all(v, a, b, p, stored):
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
            span.add(w)
    units.update(-min(row) for row in span.int_rows())
    return units


def _unit_coordinate(V: dict, S) -> Optional[int]:
    """f when the int pair (V, S) is the unit vector ({f: 1}, 1) with
    int entries, else None; a gmpy2 mpz 1 would give other value types
    down the chain of shifts than the int 1 of the ring's product pairs."""
    if S == 1 and len(V) == 1:
        (f, x), = V.items()
        if x == 1 and type(x) is type(S) is int:
            return f
    return None


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
    generator whose image is the unit vector of m_i is that chain read
    from the ring's products m * m_i (column m_i of `product_pairs` of
    the whole ring, whose shifts are those of the target's one piece),
    moved to the block of the unit vector, at the stride of `_stride_all`.
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
                o = f - (i := f % ring.dim)
                column = map(itemgetter(i), ring.product_pairs(0, 0))
                out.extend([({k + o: x for k, x in W.items()}, S) if W else ZERO
                            for W, S in column] if o else column)
                continue
            for step in ring.divisors(j - d):
                if step is None:
                    out.append(vectors[g])
                    continue
                if prev is None:  # over an ungraded ring, `out` itself
                    prev = _basis_images(source, target, vectors, below, memo)
                    prev_offsets = source.offsets(below)
                    _all, shift, a, scale, b = _layout(target, below)
                l, i = step
                V, S = prev[prev_offsets[g] + i]
                W = shift(V, a, b, l, p) if V else None
                out.append((W, S * scale) if W else ZERO)
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

    The sweep of the last step only counts its generators, which is all
    that `betti_numbers`, `bigraded_betti` and `exactness_log` read; the
    pairs of that step are built on the first read of `int_maps` (and so
    of `maps`, `differential` and a chain-map lift), and every later read
    returns the same list.
    """

    def __init__(self, ring: QuotientRing, pres: ModulePresentation, limit: int):
        self.ring = ring
        self.presentation = pres
        self.limit = limit
        self.chain: list[FreeModule] = []
        # one list of int pairs per step; the last may still be the
        # function that builds it (see `_sweep`)
        self._int_maps: list = []
        self.exactness_log: list[tuple] = []

    @property
    def int_maps(self) -> list[list[tuple]]:
        steps = self._int_maps
        if steps and callable(steps[-1]):
            steps[-1] = steps[-1]()
        return steps

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
        new = [v for v in vectors_at(j) if span.add(dict(v[0]))]
        gens.extend((j, v) for v in new)
        log.append((j, sat_dim, len(new), span.rank))
        feed, feed_piece = span.int_rows(), j
    return gens, log


def _closure(module: FreeModule, vectors) -> list[dict]:
    """Independent int vectors spanning the submodule generated by the int
    pairs (V, S) of `vectors` in the single piece 0 of an ungraded ring."""
    span = EchelonSolver(module.ring.field)
    for V, _S in vectors:
        span.add(dict(V))
    done = 0
    while done < span.rank:
        rows = span.int_rows()
        _saturate(span, module, 0, rows[done:])
        done = len(rows)
    return span.int_rows()


def _sweep(src: FreeModule, target: FreeModule, vectors: list, jmin: int, jmax: int,
           kinds: dict, last: bool = False):
    """Every step after the first: the minimal generators of the kernel
    of the map sending generator g of src to the int pair vectors[g] of
    target, as `_sweep_pieces` gives them.  An ungraded step whose
    generators fall into more than one component (`_components`) is
    swept a component at a time (`_split_sweep`), with `kinds` as the
    memo of the components swept so far."""
    if not src.ring.graded and len(groups := _components(vectors, src.ring.dim)) > 1:
        return _split_sweep(src, vectors, groups, kinds, last)
    images = partial(_basis_images, src, target, vectors, memo={})
    return _sweep_pieces(src, jmin, jmax, images, last)


def _sweep_pieces(src: FreeModule, jmin: int, jmax: int, images, last: bool = False):
    """The sweep of a step whose piece-j basis images are images(j).

    Kernel vector f of piece j (free column f, see `kernel_of_columns`) is
    a new generator iff it lies outside span(m K_j) + span(kernel vectors
    before f).  A kernel vector is fixed by its free coordinates, so
    restrict x_l times a basis of the previous piece's kernel to them: an
    echelon of their span that pivots on the largest free column has f
    among the pivots that `_saturated_pivots` returns iff f is not a new
    generator.  Every pivot is a free column, so piece j has
    len(zeros) + len(kernel) - len(pivots) new generators.  Over a graded
    ring the kernel of piece j skips the elimination of its last columns,
    those of src's own generators of degree j (`_piece_kernel`).
    Returns the generator degrees, the per-piece log and the generators'
    int pairs (`_new_pairs`); for the `last` step of a resolution, which
    no later sweep reads, a function that builds those pairs from the
    kept (zeros, kernel, pivots) of each piece when called.
    """
    ring = src.ring
    degrees = []
    log = []
    pieces = []
    below = _piece_kernel(src, images, ring.piece_of(jmin - 1))
    for j in range(jmin, jmax + 1):
        # an ungraded ring's single piece feeds itself
        zeros, kernel, stored = _piece_kernel(src, images, j) if ring.graded else below
        pivots = _saturated_pivots(src, ring.piece_of(j - 1), below[0],
                                   [C for _f, C in below[1]], stored)
        count = len(zeros) + len(kernel) - len(pivots)
        log.append((j, len(pivots), count, len(zeros) + len(kernel)))
        degrees += [j] * count
        if not ring.graded:
            _check_minimal(src.constant_slots(j), zeros, kernel, pivots)
        # free all but the next feed before storing
        below = (zeros, kernel, stored) if j < jmax else ()
        pieces.append((zeros, kernel, pivots) if last else _new_pairs(zeros, kernel, pivots))
        del zeros, kernel, stored
    if last:
        return degrees, log, lambda: [v for found in pieces for v in _new_pairs(*found)]
    return degrees, log, [v for pairs in pieces for v in pairs]


def _components(vectors: list, d: int) -> list[list]:
    """The generators g of an ungraded step, grouped into components:
    g and g' share one when their images vectors[g] and vectors[g'], or
    a chain of images between them, touch a common target block k // d
    (d = dim R).  Each component lists its generators in ascending
    order, in the order of its first generator; a union-find over the
    blocks."""
    root: dict = {}

    def find(b):
        root.setdefault(b, b)
        while (up := root[b]) != b:
            root[b] = b = root[up]  # halve the path
        return b

    for V, _S in vectors:
        first = None
        for k in V:
            b = find(k // d)
            if first is None:
                first = b
            elif b != first:
                root[b] = first
    gens: dict = {}
    for g, (V, _S) in enumerate(vectors):
        gens.setdefault(find(next(iter(V)) // d), []).append(g)
    return list(gens.values())


def _split_sweep(src: FreeModule, vectors: list, groups: list, kinds: dict, last: bool):
    """`_sweep_pieces` of an ungraded step, one component at a time.

    The columns of a component's generators touch only its target
    blocks, so the step's matrix is the direct sum of its components'.
    Each component is relabelled onto a local free module: its
    generators and target blocks, in order, become blocks 0, 1, ...  Its
    key is those relabelled images with their value types, and `kinds`
    maps a key to the log entry and pairs of the local sweep, which runs
    once per kind.  The result is literally the whole step's (see the
    module docstring); `_place` moves each copy back to its own blocks.
    """
    ring = src.ring
    d = ring.dim
    found = []
    pivots = count = nullity = 0
    for gens in groups:
        blocks = sorted({k // d for g in gens for k in vectors[g][0]})
        at = {b: i * d for i, b in enumerate(blocks)}
        images = [({at[k // d] + k % d: x for k, x in V.items()}, S)
                  for V, S in map(vectors.__getitem__, gens)]
        key = tuple((tuple((k, type(x), x) for k, x in V.items()), type(S), S)
                    for V, S in images)
        kind = kinds.get(key)
        if kind is None:
            module = FreeModule(ring, [0] * len(gens))
            local = partial(_basis_images, module, FreeModule(ring, [0] * len(blocks)),
                            images, memo={})
            _degrees, (entry,), pairs = _sweep_pieces(module, 0, 0, local)
            kind = kinds[key] = entry, pairs
        (_j, p, c, z), pairs = kind
        pivots, count, nullity = pivots + p, count + c, nullity + z
        found.append(([(g - i) * d for i, g in enumerate(gens)], pairs))
    log = [(0, pivots, count, nullity)]
    if last:
        return [0] * count, log, partial(_place, found, d)
    return [0] * count, log, _place(found, d)


def _place(found: list, d: int) -> list[tuple]:
    """The int pairs of a split step's new generators, ascending in their
    free column, from (moves, local pairs) per component: local
    coordinate k goes to k + moves[k // d].  A pair's free column is its
    last coordinate (`_new_pairs`)."""
    placed = []
    for moves, pairs in found:
        for C, S in pairs:
            f = next(reversed(C))
            placed.append((f + moves[f // d],
                           ({k + moves[k // d]: x for k, x in C.items()}, S)))
    placed.sort(key=itemgetter(0))
    return [pair for _f, pair in placed]


def _piece_kernel(src: FreeModule, images, j: int) -> tuple:
    """`kernel_of_columns` of images(j).  Over a graded ring the last
    columns of piece j, those of src's generators of degree j, add no
    null vector (see the module docstring): they go into `stored`
    without elimination, and the result is literally that of the whole
    piece.  `_check_spans` checks that they are independent."""
    columns = images(j)
    if not src.ring.graded:
        return kernel_of_columns(columns, src.ring.field)
    first = len(columns) - len(src.constant_slots(j))
    zeros, kernel, stored = kernel_of_columns(columns[:first], src.ring.field)
    stored.update(range(first, len(columns)))
    return zeros, kernel, stored


def _check_minimal(constants: dict, zeros: list, kernel: list, pivots: set) -> None:
    """A new generator of a minimal resolution has no entry at a constant
    slot (`FreeModule.constant_slots`): neither a zero column's unit
    vector nor a kernel vector may hold one.  Over an ungraded ring;
    a graded one never eliminates those columns (`_check_spans`)."""
    for f in constants:
        if f not in pivots and (i := bisect_left(zeros, f)) < len(zeros) and zeros[i] == f:
            raise AssertionError("resolution lost minimality")
    for f, C in kernel:
        if f not in pivots and any(k in constants for k in C):
            raise AssertionError("resolution lost minimality")


def _check_spans(src: FreeModule, log: list, below: list) -> None:
    """Over a graded ring, the columns of src's piece j span the space
    that the step before resolved in degree j (its kernel, or the given
    submodule's piece), whose dimension ends that step's log entry for j
    in `below`.  `_piece_kernel` takes the columns of src's generators
    of degree j as independent of the others, so a generator the step
    before took in excess of a minimal set shows here as a larger rank,
    and a missing one as a smaller one."""
    spans = {j: dim for j, _sat, _new, dim in below}
    for j, _pivots, _count, nullity in log:
        if j in spans and src.dim(j) - nullity != spans[j]:
            raise AssertionError("resolution lost minimality or exactness")


def _new_pairs(zeros: list, kernel: list, pivots: set) -> list[tuple]:
    """The int pairs of one piece's new generators, ascending in their
    free column f: ({f: 1}, 1) for a zero column f, and (C, C[f]) with f
    moved last, as in `null_pairs`, for kernel vector f."""
    # each list is ascending in f, so the sort merges two runs
    new = sorted([(f, None) for f in zeros if f not in pivots] +
                 [(f, C) for f, C in kernel if f not in pivots], key=itemgetter(0))
    pairs = []
    for f, C in new:
        if C is None:  # the unit vector e_f of a zero column
            pairs.append(({f: 1}, 1))
            continue
        C[f] = C.pop(f)
        pairs.append((C, C[f]))
    return pairs


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
    kinds: dict = {}  # the components swept so far (`_split_sweep`)

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
        data._int_maps.append([v for _d, v in gens])
        data.exactness_log.append((tor_of(1), log))

    while len(data.chain) - 1 < positions:
        src = data.chain[-1]
        pos = len(data.chain)
        if src.rank == 0:
            data.chain.append(FreeModule(ring, []))
            data._int_maps.append([])
            continue
        jmin = min(src.degrees)
        jmax = window(tor_of(pos), max(src.degrees))
        source_dim = sum(src.dim(j) for j in range(jmin, jmax + 1))
        if source_dim > RESOLUTION_BUDGET:
            raise BudgetError(
                "resolution budget of %d source coordinates per step exceeded: "
                "step %d needs %d" % (RESOLUTION_BUDGET, tor_of(pos), source_dim))
        degrees, log, pairs = _sweep(src, data.chain[-2], data._int_maps[-1], jmin, jmax,
                                     kinds, last=pos == positions)
        if ring.graded:
            _check_spans(src, log, data.exactness_log[-1][1])
        data.exactness_log.append((tor_of(pos), log))
        data.chain.append(FreeModule(ring, degrees))
        data._int_maps.append(pairs)
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
    of res_s.chain[p], p >= 1.  Basis images, targets, the systems solved
    and their solutions stay int pairs; each solution becomes a field
    vector once, for the lifts returned."""
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
        for d, v in zip(res_s.chain[q].degrees, res_s.int_maps[q - 1]):
            T, D = combine_ints(v, composed(d), p)
            if not T:
                cur.append(({}, 1))
                continue
            system = systems.get(d)
            if system is None:
                # the columns of the images, tagged by position
                system = systems[d] = EchelonSolver(ring.field, track=True)
                kernel_of_columns(images(d), ring.field, system)
            sol = system.solve(T, D)
            if sol is None:
                raise AssertionError("chain map lift failed; resolution not exact")
            cur.append(sol)
        lifts.append([field_vector(p, X, E) for X, E in cur])
        prev = cur
    return lifts
