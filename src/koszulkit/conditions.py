"""Deciders for multiplicative structure in Koszul homology.

Each checker reduces a containment statement about homology classes or
filtered cycle spaces to echelon membership, piece by piece, and returns
a report separating hypothesis failures from genuine counterexamples.
A failing piece carries a witness cycle that survives reduction against
the target span, so every negative verdict can be replayed.

The stretched-ring builder lives here too: it assembles the artinian
local rings with principal m^2 together with the distinguished Koszul
one-cycle F whose multiples absorb the deep part of the filtration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Optional, Sequence

from .errors import InputError, NotACycleError, PreconditionError
from .fields import QQ
from .koszul import (KoszulElement, component_piece, filtered_boundaries, filtered_cycles,
                     full_piece, homology_algebra, product_ints)
from .linalg import Subspace, int_vector
from .poly import Monomial, MonomialOrder, Polynomial, monomials_of_degree
from .quotient import QuotientRing


# -- reports ----------------------------------------------------------


@dataclass(frozen=True)
class PieceResult:
    """One piece of a condition check: a containment verdict plus data.

    On failure `witness` is a cycle from the source space whose
    reduction against the target span leaves a nonzero remainder.
    """

    key: object
    passed: bool
    source_dim: int = 0
    target_rank: int = 0
    witness: Optional[KoszulElement] = None


@dataclass(frozen=True)
class ConditionReport:
    name: str
    hypothesis_checks: tuple = ()
    pieces: tuple = ()

    @property
    def hypotheses_met(self) -> bool:
        return all(ok for _name, ok in self.hypothesis_checks)

    @property
    def conclusion(self) -> bool:
        return all(p.passed for p in self.pieces)

    @property
    def verdict(self) -> bool:
        return self.hypotheses_met and self.conclusion

    def failing_pieces(self) -> list[PieceResult]:
        return [p for p in self.pieces if not p.passed]

    def __repr__(self):
        return "<ConditionReport %s verdict=%s pieces=%d>" % (
            self.name, self.verdict, len(self.pieces))


@dataclass(frozen=True)
class CycleSet:
    """Labelled cycles in the Koszul complex, checked at construction."""

    ring: QuotientRing
    cycles: tuple  # ordered (label, KoszulElement) pairs

    def __post_init__(self):
        seen = set()
        for label, el in self.cycles:
            if label in seen:
                raise InputError("duplicate cycle label %r" % label)
            seen.add(label)
            if el.ring is not self.ring:
                raise InputError("cycle %r lives over a different ring" % label)
            if not el.is_cycle():
                raise NotACycleError("element %r has nonzero differential" % label)

    @classmethod
    def of(cls, ring, elements: Sequence[KoszulElement],
           labels: Optional[Sequence[str]] = None) -> "CycleSet":
        if labels is None:
            labels = ["z%d" % (i + 1) for i in range(len(elements))]
        return cls(ring, tuple(zip(labels, elements)))

    def elements(self) -> list[KoszulElement]:
        return [el for _l, el in self.cycles]

    def __len__(self):
        return len(self.cycles)

    def __iter__(self):
        return iter(self.cycles)


# -- shared helpers ---------------------------------------------------


def _require_bigraded_cycle(el: KoszulElement, what: str) -> tuple[int, int]:
    if not el.is_cycle():
        raise NotACycleError("%s has nonzero differential" % what)
    bd = el.bidegree()
    if bd is None:
        raise InputError("%s must be homogeneous in both gradings" % what)
    return bd


def _containment(key, hp, span) -> PieceResult:
    """Are all cycles of the homology piece inside the given span, an
    echelon in its cycle coordinates?  A span of cycles as large as the
    cycle space is all of it; otherwise the witness is the first cycle
    z_f whose unit vector the span misses."""
    full = len(hp.cycles)
    if span.rank < full:
        for f, pair in zip(hp.free, hp.cycles):
            if not span.contains({-f: 1}):
                return PieceResult(key, False, full, span.rank, hp.piece.element_of_ints(*pair))
    return PieceResult(key, True, full, span.rank)


def _product_span(algebra, i, j, factors, admit):
    """Boundaries of (i, j) plus products z * (admissible classes), in
    the cycle coordinates of (i, j).

    factors: [(bidegree, element)] with cycles as elements; admit decides
    which complementary bidegrees may supply cofactors.  The span lies
    in the cycle space, so it stops growing at its dimension.
    """
    hp = algebra.pieces[(i, j)]
    span = hp.boundary_span.copy()
    full = len(hp.cycles)
    p = algebra.ring.field.char
    for (a, b), el in factors:
        cofactor = algebra.pieces.get((i - a, j - b))
        if cofactor is None or not admit(i - a, j - b) or span.rank == full:
            continue
        left = component_piece(algebra.ring, a, b)
        u = int_vector(left.vector_of(el), p)[0]
        for rep, _S in cofactor.rep_pairs:
            w = hp.restrict(product_ints(left, u, cofactor.piece, rep, hp.piece))
            if w and span.add(w) and span.rank == full:
                break
    return hp, span


# -- condition checkers -----------------------------------------------


def check_trivial_products(Z: CycleSet) -> ConditionReport:
    """Do all pairwise products (including squares) vanish in K itself?"""
    pieces = []
    for (la, ea), (lb, eb) in iter_product(Z, Z):
        prod = ea * eb
        ok = prod.is_zero()
        pieces.append(PieceResult("%s*%s" % (la, lb), ok,
                                  witness=None if ok else prod))
    return ConditionReport("trivial-products", (), tuple(pieces))


def check_nonlinear_generated_by(ring: QuotientRing,
                                 classes: Sequence[KoszulElement]) -> ConditionReport:
    """Is every strand of slope above one inside the ideal of the classes?"""
    if not ring.graded:
        raise PreconditionError("nonlinear-strand generation needs a graded ring")
    factors = [(_require_bigraded_cycle(el, "generator class"), el)
               for el in classes]
    algebra = homology_algebra(ring)
    pieces = []
    for (i, j) in algebra.support():
        if j - i <= 1:
            continue
        hp, span = _product_span(algebra, i, j, factors, lambda c, d: True)
        pieces.append(_containment((i, j), hp, span))
    return ConditionReport("nonlinear-strands-generated", (), tuple(pieces))


def check_Z_graded(ring: QuotientRing, t: int, b: int, s: int,
                   Z: CycleSet) -> ConditionReport:
    """Graded absorption of the slope-s strand by a trivial-product set.

    Every class of strand degree s must be a combination of products
    z * c with z in Z and c a class of strand degree at least b.
    """
    ring.require_artinian("the graded absorption condition")
    if not ring.graded:
        raise PreconditionError("the graded absorption condition needs a grading")
    if Z.ring is not ring:
        raise InputError("cycle set belongs to a different ring")
    factors = []
    for label, el in Z:
        bd = _require_bigraded_cycle(el, "cycle %r" % label)
        if bd[1] - bd[0] < t:
            raise PreconditionError(
                "cycle %r has strand degree %d below t = %d"
                % (label, bd[1] - bd[0], t))
        factors.append((bd, el))
    hypotheses = (
        ("m^(s+1) = 0", ring.top_degree <= s),
        ("s-t <= b <= s-1", s - t <= b <= s - 1),
        ("v(R) >= t+1 >= 2", t + 1 >= 2 and ring.v_invariant() >= t + 1),
    )
    pieces = list(check_trivial_products(Z).pieces)
    algebra = homology_algebra(ring)
    for (i, j) in algebra.support():
        if j - i != s:
            continue
        hp, span = _product_span(algebra, i, j, factors,
                                 lambda c, d: d - c >= b)
        pieces.append(_containment((i, j), hp, span))
    return ConditionReport("Z(%d,%d,%d)" % (t, b, s), hypotheses, tuple(pieces))


def check_P_graded(ring: QuotientRing, t: int, r: int,
                   l: KoszulElement) -> ConditionReport:
    """Graded absorption of all strands >= t by one class of degree r."""
    if not ring.graded:
        raise PreconditionError("the graded absorption condition needs a grading")
    bd = _require_bigraded_cycle(l, "the class l")
    if bd[0] != r:
        raise InputError("l has homological degree %d, expected %d" % (bd[0], r))
    factors = [(bd, l)]
    algebra = homology_algebra(ring)
    pieces = []
    for (i, j) in algebra.support():
        if j - i < t:
            continue
        hp, span = _product_span(algebra, i, j, factors,
                                 lambda c, d: d - c >= t - 1)
        pieces.append(_containment((i, j), hp, span))
    return ConditionReport("P(%d,%d)" % (t, r), (), tuple(pieces))


def check_P_local(ring: QuotientRing, t: int, r: int,
                  l: KoszulElement) -> ConditionReport:
    """Filtration-level absorption: Z(m^t K) into l*Z(m^(t-1)K) + dB.

    Works without a grading; every homological degree is one piece.
    """
    ring.require_artinian("the filtered absorption condition")
    if t < 1:
        raise InputError("the filtration level t must be at least 1")
    if not l.is_cycle():
        raise NotACycleError("the element l has nonzero differential")
    hd = l.homological_degree()
    if l.terms and hd != r:
        raise InputError("l has homological degree %s, expected %d" % (hd, r))
    pieces = []
    p = ring.field.char
    if l.terms:
        lpiece = full_piece(ring, r)
        lvec = int_vector(lpiece.vector_of(l), p)[0]
    for i in range(ring.n + 1):
        target = full_piece(ring, i)
        span = filtered_boundaries(ring, t - 1, i)
        if i - r >= 0 and l.terms:
            # the span need not lie in Z(m^t K), so no early stop here
            source_piece, zcycles = filtered_cycles(ring, t - 1, i - r)
            for V, _S in zcycles:
                w = product_ints(lpiece, lvec, source_piece, V, target)
                if w:
                    span.add(w)
        _piece, cycles = filtered_cycles(ring, t, i)
        result = PieceResult(i, True, len(cycles), span.rank)
        for V, S in cycles:
            if not span.contains(dict(V)):
                result = PieceResult(i, False, len(cycles), span.rank,
                                     target.element_of_ints(V, S))
                break
        pieces.append(result)
    return ConditionReport("P(%d,%d) local" % (t, r), (), tuple(pieces))


def lofwall_golod_test(ring: QuotientRing, t: int) -> bool:
    """Degree-bound Golod test: n^2t inside I inside n^(t+1)."""
    if t < 1:
        raise InputError("the degree bound t must be at least 1")
    for rel in ring.relations:
        if rel.terms and rel.min_term_degree() < t + 1:
            return False
    for m in monomials_of_degree(ring.n, 2 * t):
        if ring.reduce_monomial(m).terms:
            return False
    return True


# -- stretched artinian rings -----------------------------------------


@dataclass(frozen=True)
class StretchedSpec:
    """Numerical data of a stretched local ring plus F coefficients.

    v is the embedding dimension, r the socle rank, h the top power
    with m^h nonzero.  The symmetric p x p matrix a (p = v - r) carries
    the coefficients tying t^h to the products z_i z_j; it must be
    invertible whenever p > 0.  The optional coefficient maps feed the
    distinguished one-cycle F; by default eta is 1 on the support of a
    and every other family is zero.
    """

    v: int
    r: int
    h: int
    a: Optional[tuple] = None
    field: object = QQ
    alpha: Optional[dict] = None
    beta: Optional[dict] = None
    gamma: Optional[dict] = None
    delta: Optional[dict] = None
    eta: Optional[dict] = None
    theta: Optional[dict] = None

    def __post_init__(self):
        if self.h < 3:
            raise InputError("stretched rings need h >= 3")
        if not 1 <= self.r <= self.v:
            raise InputError("socle rank must satisfy 1 <= r <= v")
        p = self.p
        if p == 0:
            if self.a:
                raise InputError("no matrix entries allowed when r = v")
            object.__setattr__(self, "a", ())
            return
        a = self.a
        if a is None:
            a = tuple(tuple(1 if i == j else 0 for j in range(p))
                      for i in range(p))
        else:
            a = tuple(tuple(row) for row in a)
            if len(a) != p or any(len(row) != p for row in a):
                raise InputError("matrix a must be %d x %d" % (p, p))
        object.__setattr__(self, "a", a)
        of = self.field.of
        for i in range(p):
            for j in range(p):
                if of(a[i][j]) != of(a[j][i]):
                    raise InputError("matrix a must be symmetric")
        span = Subspace(self.field)
        for i in range(p):
            row = {j: of(a[i][j]) for j in range(p) if of(a[i][j])}
            span.extend(int_vector(row, self.field.char)[0])
        if span.dim != p:
            raise InputError("matrix a must be invertible when r < v")

    @property
    def p(self) -> int:
        return self.v - self.r

    @property
    def q(self) -> int:
        return self.r - 1

    def support_pairs(self):
        """(J1, J2): index pairs i <= j with a_ij nonzero resp. zero."""
        of = self.field.of
        j1, j2 = [], []
        for i in range(1, self.p + 1):
            for j in range(i, self.p + 1):
                (j1 if of(self.a[i - 1][j - 1]) else j2).append((i, j))
        return j1, j2

    def var_names(self) -> tuple:
        return tuple(["t"] + ["z%d" % i for i in range(1, self.p + 1)]
                     + ["w%d" % j for j in range(1, self.q + 1)])


def build_stretched_ring(spec: StretchedSpec,
                         order: MonomialOrder = MonomialOrder.GREVLEX) -> QuotientRing:
    """The local ring of the spec, with its defining axioms re-verified."""
    p, q, h = spec.p, spec.q, spec.h
    names = spec.var_names()
    n = len(names)
    fld = spec.field

    def mono(**exps) -> Monomial:
        vec = [0] * n
        for name, e in exps.items():
            vec[names.index(name)] = e
        return Monomial(vec)

    def mpoly(pairs) -> Polynomial:
        return Polynomial(n, fld, order, pairs)

    t1 = mono(t=1)
    zs = [mono(**{"z%d" % i: 1}) for i in range(1, p + 1)]
    ws = [mono(**{"w%d" % j: 1}) for j in range(1, q + 1)]
    rels = []
    one = fld.one
    for j in range(q):
        for l in range(j, q):
            rels.append(mpoly([(ws[j] * ws[l], one)]))
    for j in range(q):
        for i in range(p):
            rels.append(mpoly([(ws[j] * zs[i], one)]))
    for j in range(q):
        rels.append(mpoly([(ws[j] * t1, one)]))
    if p == 0:
        rels.append(mpoly([(mono(t=h + 1), one)]))
    else:
        for i in range(p):
            rels.append(mpoly([(zs[i] * t1, one)]))
        j1, j2 = spec.support_pairs()
        th = mono(t=h)
        for (i, j) in j1:
            inv = one / fld.of(spec.a[i - 1][j - 1])
            rels.append(mpoly([(th, one), (zs[i - 1] * zs[j - 1], -inv)]))
        for (i, j) in j2:
            rels.append(mpoly([(zs[i - 1] * zs[j - 1], one)]))

    ring = QuotientRing(fld, names, rels, order,
                        label="stretched(v=%d,r=%d,h=%d)" % (spec.v, spec.r, h))

    # re-verify the defining axioms on the finished ring
    ring.require_artinian("a stretched ring")
    if ring.dim != spec.v + h:
        raise AssertionError("stretched ring length is off")
    if ring.embedding_dimension() != spec.v:
        raise AssertionError("stretched ring embedding dimension is off")
    if ring.socle_dim() != spec.r:
        raise AssertionError("stretched ring socle rank is off")
    for i in range(2, h + 1):
        power = ring.power_ideal_subspace(i)
        principal = ring.ideal_span([mpoly([(mono(t=i), one)])])
        if power.dim != principal.dim or not power.contains_subspace(principal):
            raise AssertionError("m^%d is not generated by t^%d" % (i, i))
    if ring.power_ideal_subspace(h).dim != 1 or ring.power_ideal_subspace(h + 1).dim != 0:
        raise AssertionError("top power of the maximal ideal is off")
    return ring


def stretched_F_cycle(spec: StretchedSpec, ring: QuotientRing) -> KoszulElement:
    """The distinguished one-cycle F assembled from the spec coefficients."""
    if spec.p == 0:
        raise PreconditionError("the cycle F needs r < v")
    p, q, h = spec.p, spec.q, spec.h
    fld = spec.field
    of = fld.of
    j1, j2 = spec.support_pairs()
    alpha = spec.alpha or {}
    beta = spec.beta or {}
    gamma = spec.gamma or {}
    delta = spec.delta or {}
    eta = {pair: 1 for pair in j1} if spec.eta is None else spec.eta
    theta = spec.theta or {}
    for pair in eta:
        if pair not in j1:
            raise InputError("eta index %r outside the support of a" % (pair,))
    for pair in theta:
        if pair not in j2:
            raise InputError("theta index %r outside the zero set of a" % (pair,))
    if not any(of(c) for c in list(delta.values()) + list(eta.values())
               + list(theta.values())):
        raise PreconditionError(
            "at least one of the delta, eta, theta coefficients must be a unit")

    # exterior generator indices: T is 0, Z_i is i, W_j is p + j
    n = ring.n

    def coeff_poly(var_idx: int, coeff, power: int = 1) -> Polynomial:
        vec = [0] * n
        vec[var_idx] = power
        return Polynomial(n, fld, ring.order, [(Monomial(vec), of(coeff))])

    terms = []
    for (i, j), c in alpha.items():
        terms.append(KoszulElement.term(ring, coeff_poly(p + i, c), (p + j,)))
    for (i, j), c in beta.items():
        terms.append(KoszulElement.term(ring, coeff_poly(p + j, c), (i,)))
    for i, c in gamma.items():
        terms.append(KoszulElement.term(ring, coeff_poly(p + i, c), (0,)))
    for i, c in delta.items():
        terms.append(KoszulElement.term(ring, coeff_poly(0, c), (i,)))
    for (i, j), c in eta.items():
        cf = of(c)
        if not cf:
            continue
        terms.append(KoszulElement.term(ring, coeff_poly(0, cf, power=h - 1), (0,)))
        inv = cf / of(spec.a[i - 1][j - 1])
        terms.append(KoszulElement.term(ring, coeff_poly(i, -inv), (j,)))
    for (i, j), c in theta.items():
        terms.append(KoszulElement.term(ring, coeff_poly(i, c), (j,)))

    F = KoszulElement.zero(ring)
    for el in terms:
        F = F + el
    if not F.is_cycle():
        raise AssertionError("the assembled element F is not a cycle")
    return F
