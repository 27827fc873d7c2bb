"""Quotient rings R = k[x1..xn]/I with finite-dimensional tooling.

A QuotientRing owns the reduced Groebner basis of its defining ideal,
the standard-monomial basis (for artinian quotients, enumerated on
first read), normal forms with memoized monomial reduction, power-ideal
subspaces and the socle.

It also owns the one coordinate layer that the exact linear algebra of
every module reads.  R splits into finite-dimensional pieces: over a
graded ring piece e is the degree-e component and x_l maps it into
piece e + 1; an ungraded ring is the single piece 0.  One more key,
`whole_piece`, stands for all of an artinian R (piece 0 itself when R
is ungraded), which x_l maps into itself.  A vector of a piece is a
dict from the position of a standard monomial to its coefficient; per
piece the ring keeps the positions (`piece_index`) and, per variable,
the table of multiplication by x_l as position pairs (`var_action`,
with `int_action`, `grouped_int_action` and `divisors` for the
resolution sweep).  These tables are the only place where products of
monomials turn into coordinates: Koszul differentials, resolutions, the
socle and ideal spans all shift vectors through them, and the structure
constants of a pair of pieces (`int_mul_table`), which products of
Koszul cycles read, are built from them by the same recursion.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from typing import Optional, Sequence

from .errors import InputError, NotArtinianError
from .groebner import buchberger, normal_form
from .linalg import Subspace, kernel_of_columns, vec_add_terms
from .poly import Monomial, MonomialOrder, Polynomial, monomials_of_degree


class QuotientRing:
    """k[x1..xn]/I for an ideal I contained in the square of the maximal ideal."""

    def __init__(self, field, var_names: Sequence[str], relations: Sequence[Polynomial],
                 order: MonomialOrder = MonomialOrder.GREVLEX, label: Optional[str] = None):
        names = tuple(var_names)
        if len(set(names)) != len(names):
            raise InputError("duplicate variable names in %r" % (names,))
        if not names:
            raise InputError("a ring needs at least one variable")
        self.field = field
        self.var_names = names
        self.n = len(names)
        self.order = order
        self.label = label
        rels = []
        for rel in relations:
            if rel.arity != self.n:
                raise InputError("relation arity %d does not match %d variables"
                                 % (rel.arity, self.n))
            rel = rel.with_order(order)
            if rel.is_zero():
                continue
            if rel.min_term_degree() < 2:
                raise InputError("relation %r has a term of degree < 2; "
                                 "the ideal must sit inside the square of the maximal ideal"
                                 % (rel,))
            rels.append(rel)
        self.relations = tuple(rels)
        self.graded = all(r.is_homogeneous() for r in rels)
        self.groebner_basis = tuple(buchberger(list(rels), order))
        self.lead_monomials = tuple(g.lead_monomial for g in self.groebner_basis)
        self.is_monomial_ideal = all(g.is_monomial() for g in self.groebner_basis)
        # standard monomials and power layers by degree, from degree 0 up;
        # the monomial 1 is position 0 of an artinian ring
        one = Monomial((0,) * self.n)
        self._std_layers: list[tuple[Monomial, ...]] = [(one,)]
        self._power_layers: list[dict] = [{one: {0: field.one}}]
        self._mono_nf: dict[Monomial, Polynomial] = {}
        self._power_subspaces: dict[int, Subspace] = {}
        self._socle = None
        self._homology = None
        # the coordinate layer, filled per piece on first use
        self.whole_piece = None if self.graded else 0
        self._indexes: dict = {}
        self._actions: dict = {}
        self._int_actions: dict = {}
        self._grouped_actions: dict = {}
        self._action_scales: dict = {}
        self._divisors: dict = {}
        self._products: dict = {}
        self._int_products: dict = {}
        # caches that koszul and resolutions keep on the ring
        self._koszul_filtration: dict = {}
        self._unit_images: dict = {}
        self._ambient_ring: Optional[QuotientRing] = None
        self._artinian = all(
            any(lm.exponents[i] and lm.degree == lm.exponents[i] for lm in self.lead_monomials)
            for i in range(self.n))

    # -- basics -------------------------------------------------------

    def __repr__(self):
        tag = self.label or ",".join(self.var_names)
        return "<QuotientRing %s (%d relations)>" % (tag, len(self.relations))

    @property
    def is_artinian(self) -> bool:
        return self._artinian

    def require_artinian(self, what: str = "this operation"):
        if not self._artinian:
            raise NotArtinianError(
                "%s needs a finite-dimensional quotient; no pure variable power "
                "appears among the leading monomials" % what)

    def zero_poly(self) -> Polynomial:
        return Polynomial.zero(self.n, self.field, self.order)

    def one_poly(self) -> Polynomial:
        return Polynomial.constant(self.n, self.field, self.order, 1)

    def variable(self, i: int) -> Polynomial:
        return Polynomial.variable(self.n, self.field, self.order, i)

    # -- standard monomials -------------------------------------------

    def std_basis(self, degree: int) -> tuple[Monomial, ...]:
        """Standard monomials of the given total degree, largest first.

        They form an order ideal, so degree d is walked out of degree
        d - 1 rather than filtered from all monomials of degree d: the
        candidates are the `_later_multiples` of the standard monomials
        one degree down, each monomial once, less the multiples of a
        lead monomial."""
        layers = self._std_layers
        while len(layers) <= degree:
            monos = [m for prev in layers[-1] for _l, m in _later_multiples(prev)
                     if not any(lm.divides(m) for lm in self.lead_monomials)]
            monos.sort(key=self.order.key, reverse=True)
            layers.append(tuple(monos))
        return layers[degree] if degree >= 0 else ()

    @cached_property
    def std_monomials(self) -> tuple[Monomial, ...]:
        """All standard monomials of an artinian ring, by ascending
        degree, enumerated on first read."""
        self.require_artinian("`std_monomials`")
        monos = []
        degree = 0
        while layer := self.std_basis(degree):
            monos.extend(layer)
            degree += 1
        return tuple(monos)

    @cached_property
    def dim(self) -> int:
        self.require_artinian("`dim`")
        return len(self.std_monomials)

    @cached_property
    def top_degree(self) -> int:
        self.require_artinian("`top_degree`")
        return self.std_monomials[-1].degree

    def hilbert_coefficients(self) -> list[int]:
        self.require_artinian("the Hilbert function table")
        return [len(self.std_basis(d)) for d in range(self.top_degree + 1)]

    # -- normal forms -------------------------------------------------

    def reduce_monomial(self, mono: Monomial) -> Polynomial:
        nf = self._mono_nf.get(mono)
        if nf is None:
            p = Polynomial.from_monomial(self.n, self.field, self.order, mono)
            nf = normal_form(p, list(self.groebner_basis))
            self._mono_nf[mono] = nf
        return nf

    def normal_form(self, p: Polynomial) -> Polynomial:
        p = p.with_order(self.order)
        return Polynomial(self.n, self.field, self.order,
                          ((m, c * coeff) for mono, coeff in p.terms
                           for m, c in self.reduce_monomial(mono).terms))

    def mono_product(self, a: Monomial, b: Monomial) -> Polynomial:
        """Normal form of the product of two monomials, memoized."""
        return self.reduce_monomial(a * b)

    def multiply(self, p: Polynomial, q: Polynomial) -> Polynomial:
        """Product in R of two normal forms."""
        return Polynomial(self.n, self.field, self.order,
                          ((m, c * (ca * cb)) for ma, ca in p.terms for mb, cb in q.terms
                           for m, c in self.mono_product(ma, mb).terms))

    # -- the coordinate layer -----------------------------------------

    def piece_of(self, degree: int) -> int:
        """The piece holding the monomials of the given degree."""
        return degree if self.graded else 0

    def piece(self, e) -> tuple[Monomial, ...]:
        """Standard monomials of piece e: largest first in a degree, and
        by ascending degree in the whole ring."""
        if e == self.whole_piece:
            return self.std_monomials
        return self.std_basis(e) if self.graded and e >= 0 else ()

    def _piece_after(self, e, step: int):
        """Piece e moved by `step` degrees: x_l maps piece e into the
        piece after it (step 1); the whole ring maps into itself."""
        return e if e == self.whole_piece else self.piece_of(e + step)

    def piece_index(self, e) -> dict[Monomial, int]:
        """Monomial -> position in piece e."""
        index = self._indexes.get(e)
        if index is None:
            index = self._indexes[e] = {m: i for i, m in enumerate(self.piece(e))}
        return index

    def var_action(self, l: int, e) -> tuple:
        """Multiplication by x_l out of piece e: per monomial of the
        piece, the (position, coefficient) pairs of its product with x_l
        in the next piece, in the product's term order."""
        act = self._actions.get((l, e))
        if act is None:
            x = self.variable(l).lead_monomial
            index = self.piece_index(self._piece_after(e, 1))
            act = self._actions[(l, e)] = tuple(
                tuple((index[m], c) for m, c in self.mono_product(x, b).terms)
                for b in self.piece(e))
        return act

    def int_action(self, e, scale: int) -> tuple:
        """Per monomial of piece e, the (l, position, coefficient)
        triples of x_1 .. x_n times it: coefficients are residues over
        GF(p) and `scale` times their value over Q."""
        act = self._int_actions.get((e, scale))
        if act is None:
            p = self.field.char
            out = [[] for _m in self.piece(e)]
            for l in range(self.n):
                for entries, pairs in zip(out, self.var_action(l, e)):
                    entries.extend((l, ti, c.v if p else c.numerator * (scale // c.denominator))
                                   for ti, c in pairs)
            act = self._int_actions[(e, scale)] = tuple(map(tuple, out))
        return act

    def grouped_int_action(self, e, scale: int) -> tuple:
        """`int_action` grouped by variable: per monomial of piece e, one
        tuple of (position, coefficient) pairs for each nonzero product
        x_l times it, in ascending l."""
        act = self._grouped_actions.get((e, scale))
        if act is None:
            out = []
            for entries in self.int_action(e, scale):
                groups: dict = {}
                for l, ti, c in entries:
                    groups.setdefault(l, []).append((ti, c))
                out.append(tuple(map(tuple, groups.values())))
            act = self._grouped_actions[(e, scale)] = tuple(out)
        return act

    def action_scale(self, e) -> int:
        """The lcm of the denominators in the x_l tables out of piece e
        over Q; 1 over GF(p)."""
        scale = self._action_scales.get(e)
        if scale is None:
            scale = self._action_scales[e] = 1 if self.field.char else lcm(
                *(c.denominator for l in range(self.n) for act in self.var_action(l, e)
                  for _ti, c in act))
        return scale

    def divisors(self, e) -> tuple:
        """Per monomial m of piece e: None for m = 1, else (l, position of
        m / x_l in the piece before) for the first variable x_l dividing
        m.  Standard monomials are closed under division, so m / x_l is
        standard."""
        table = self._divisors.get(e)
        if table is None:
            index = self.piece_index(self._piece_after(e, -1))
            out = []
            for m in self.piece(e):
                l = next((l for l, a in enumerate(m.exponents) if a), None)
                out.append(None if l is None else
                           (l, index[m.quotient_by(self.variable(l).lead_monomial)]))
            table = self._divisors[e] = tuple(out)
        return table

    def _product_rows(self, e, f) -> list:
        """Per monomial m_a of piece e, per monomial m_b of piece f, the
        field vector of m_a * m_b in the product piece.  The row of 1 is
        the identity; for m_a = x_l * m_a' (see `divisors`) it is the row
        of m_a' shifted through the table of x_l, and m_a' lies in the
        piece before e, or precedes m_a in the whole ring."""
        rows = self._products.get((e, f))
        if rows is None:
            rows = self._products[(e, f)] = []
            whole = e == self.whole_piece
            below = self._piece_after(e, -1)
            prev = None
            for step in self.divisors(e):
                if step is None:
                    rows.append([{b: self.field.one} for b in range(len(self.piece(f)))])
                    continue
                if prev is None:
                    prev = rows if whole else self._product_rows(below, f)
                    after = e if whole else below + f  # the piece of prev's vectors
                l, i = step
                act = self.var_action(l, after)
                rows.append([vec_add_terms({}, ((ti, c * x) for k, c in vec.items()
                                                for ti, x in act[k]))
                             for vec in prev[i]])
        return rows

    def int_mul_table(self, e, f) -> tuple:
        """Structure constants of pieces e and f: (scale, table) with
        table[a][b] the (position, coefficient) pairs of m_a * m_b in
        piece e + f, or in the whole ring when e and f are `whole_piece`.
        Coefficients are residues over GF(p) (scale 1) and `scale` times
        their value over Q, one lcm of denominators for the whole table,
        so a product read off the table is one multiple of its value."""
        out = self._int_products.get((e, f))
        if out is None:
            rows = self._product_rows(e, f)
            p = self.field.char
            scale = 1
            if not p:
                scale = lcm(*(c.denominator for row in rows for vec in row
                              for c in vec.values()))
            out = self._int_products[(e, f)] = (scale, tuple(
                tuple(tuple((k, c.v if p else c.numerator * (scale // c.denominator))
                            for k, c in vec.items()) for vec in row)
                for row in rows))
        return out

    # -- vectors over the whole ring ----------------------------------

    def poly_to_vec(self, p: Polynomial) -> dict[int, object]:
        self.require_artinian("coordinate vectors over the standard basis")
        idx = self.piece_index(self.whole_piece)
        vec = {}
        for mono, coeff in p.terms:
            i = idx.get(mono)
            if i is None:
                raise ValueError("monomial %r is not in normal form" % (mono,))
            vec[i] = coeff
        return vec

    def vec_to_poly(self, vec: dict) -> Polynomial:
        monos = self.std_monomials
        return Polynomial(self.n, self.field, self.order,
                          [(monos[i], c) for i, c in vec.items()])

    # -- invariants ---------------------------------------------------

    def v_invariant(self) -> int:
        """Largest j with I inside the j-th power of the maximal ideal.

        Equals the minimum over the presented generators of their minimum
        term degree, since membership in a monomial-span ideal is
        term-by-term.
        """
        if not self.relations:
            raise InputError("v is undefined for the zero ideal")
        return min(r.min_term_degree() for r in self.relations)

    def power_ideal_subspace(self, t: int) -> Subspace:
        """The image of the t-th power of the maximal ideal, as a subspace of R.

        Over a graded ring it is spanned by the standard monomials of
        degree t and up.  Otherwise the nonzero normal forms of the
        degree-t monomials (`_power_layer`, no Groebner reduction) seed
        the ideal span in `monomials_of_degree` order (ascending
        exponent vectors)."""
        self.require_artinian("powers of the maximal ideal")
        if t <= 0:
            space = Subspace(self.field)
            for i in range(self.dim):
                space.extend({i: self.field.one})
            return space
        cached = self._power_subspaces.get(t)
        if cached is not None:
            return cached
        if self.graded:
            space = Subspace(self.field)
            one = self.field.one
            idx = self.piece_index(self.whole_piece)
            for d in range(t, self.top_degree + 1):
                for m in self.std_basis(d):
                    space.extend({idx[m]: one})
        else:
            layer = self._power_layer(t)
            space = self._span([layer[m] for m in sorted(layer, key=lambda m: m.exponents)])
        self._power_subspaces[t] = space
        return space

    def _power_layer(self, t: int) -> dict:
        """Each degree-t monomial that is nonzero in R -> the vector of
        its normal form, entries in descending term order.

        Layer t is built from layer t - 1: the vector of x_l * m' is the
        vector of m' shifted through the table of x_l, and a monomial with
        normal form 0 has only zero multiples, so the nonzero entries of
        layer t - 1 generate all of layer t (`_later_multiples`, each
        monomial once)."""
        layers = self._power_layers
        acts = [self.var_action(l, self.whole_piece) for l in range(self.n)]
        while len(layers) <= t:
            layer = {}
            for prev, v in layers[-1].items():
                for l, m in _later_multiples(prev):
                    q = self._shift(v, acts[l])
                    if q:
                        layer[m] = q
            layers.append(layer)
        return layers[t]

    def power_ideal_basis(self, t: int) -> list[Polynomial]:
        space = self.power_ideal_subspace(t)
        return [self.vec_to_poly(row) for row in space.reduced_basis_rows()]

    def ideal_span(self, gens: Sequence[Polynomial]) -> Subspace:
        """Subspace of R spanned by the ideal the given elements generate."""
        self.require_artinian("ideal spans")
        return self._span([self.poly_to_vec(self.normal_form(g)) for g in gens])

    def _shift(self, vec: dict, act) -> dict:
        """x_l * vec for a vector of the whole ring and the table `act` of
        x_l, entries in descending term order as a polynomial's terms are."""
        q = vec_add_terms({}, ((ti, a * c) for k, a in vec.items() for ti, c in act[k]))
        key, monos = self.order.key, self.std_monomials
        return {k: q[k] for k in sorted(q, key=lambda k: key(monos[k]), reverse=True)}

    def _span(self, queue: list) -> Subspace:
        """Subspace of R spanned by the ideal the given vectors generate.

        The newest vector is multiplied out first; each product keeps its
        entries in descending term order.
        """
        acts = [self.var_action(l, self.whole_piece) for l in range(self.n)]
        space = Subspace(self.field)
        queue = [v for v in queue if v]
        while queue:
            v = queue.pop()
            if not space.extend(v):
                continue
            for act in acts:
                q = self._shift(v, act)
                if q:
                    queue.append(q)
        return space

    def socle(self) -> list[Polynomial]:
        """Basis of the annihilator of the maximal ideal, canonical form."""
        if self._socle is not None:
            return list(self._socle)
        self.require_artinian("the socle")
        acts = [self.var_action(l, self.whole_piece) for l in range(self.n)]
        columns = [{l * self.dim + ti: c for l, act in enumerate(acts) for ti, c in act[k]}
                   for k in range(self.dim)]
        kernel = kernel_of_columns(columns, self.field)
        space = Subspace(self.field, kernel)
        self._socle = [self.vec_to_poly(row) for row in space.reduced_basis_rows()]
        return list(self._socle)

    def socle_dim(self) -> int:
        return len(self.socle())

    def embedding_dimension(self) -> int:
        """dim of m/m^2; equals n because I sits inside n^2."""
        return self.n


def _later_multiples(m: Monomial):
    """(l, x_l * m) for x_l the last variable of m and every later one
    (every variable when m = 1): each monomial of the next degree arises
    this way from exactly one monomial, its quotient by its last
    variable."""
    e = m.exponents
    last = max((l for l, a in enumerate(e) if a), default=0)
    for l in range(last, len(e)):
        yield l, Monomial(e[:l] + (e[l] + 1,) + e[l + 1:])


def truncated_ring(ring: QuotientRing, s: int) -> QuotientRing:
    """R/m^s presented over the same variables: add every degree-s monomial."""
    if s < 1:
        raise InputError("truncation power must be positive")
    extra = [Polynomial.from_monomial(ring.n, ring.field, ring.order, m)
             for m in monomials_of_degree(ring.n, s)]
    label = "%s mod m^%d" % (ring.label or "R", s)
    return QuotientRing(ring.field, ring.var_names, list(ring.relations) + extra,
                        ring.order, label=label)
