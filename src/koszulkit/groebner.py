"""Buchberger's algorithm and normal forms.

Produces the reduced Groebner basis, which is the unique canonical basis
for an ideal under a fixed monomial order: leading coefficients one, no
term of any element divisible by the leading monomial of another.

Pairs are handled by the Gebauer-Moller update (Gebauer and Moller, "On
an installation of Buchberger's algorithm", J. Symb. Comput. 1988).  When
a new element h joins the basis:

- criterion B drops each queued pair (i, j) whose lcm lm(h) divides
  strictly, that is, when lcm(i, j) equals neither lcm(i, h) nor
  lcm(j, h);
- criterion M drops a new pair (i, h) whose lcm is a proper multiple of
  the lcm of another new pair;
- criterion F keeps one new pair per lcm value, and none if one of the
  pairs sharing that lcm has coprime leading monomials;
- the coprime test drops the remaining new pairs with coprime leading
  monomials, since their S-polynomials reduce to zero;
- an element whose leading monomial lm(h) divides leaves the reducing
  set: it forms no new pairs and reduces nothing, though its queued
  pairs stay queued.

Pairs are taken smallest lcm first (the normal strategy).  The input
generators are reduced and inserted sparsest first, and `normal_form`
reduces by the sparsest basis element that applies.  None of these
choices changes the result, since the reduced basis is unique.
"""

from __future__ import annotations

import heapq
from operator import le

from .errors import BudgetError
from .poly import Monomial, MonomialOrder, Polynomial

# S-pairs `buchberger` may reduce before it gives up with BudgetError
PAIR_BUDGET = 100000


def _divides(a: tuple, b: tuple) -> bool:
    """Whether the monomial with exponents `a` divides the one with `b`."""
    return all(map(le, a, b))


def _lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def normal_form(p: Polynomial, basis: list[Polynomial]) -> Polynomial:
    """Remainder of multivariate division of p by the given basis.

    Deterministic: always cancels the largest reducible term, using the
    basis element with the fewest terms among those whose leading
    monomial divides it; ties keep list order.  The remainder is unique
    independent of these choices when `basis` is a Groebner basis.
    """
    if not basis:
        return p
    arity, field, order = p.arity, p.field, p.order
    # sorted() is stable, so elements with equal term counts keep list order
    reducers = [(g.lead_monomial.exponents, g)
                for g in sorted((g for g in basis if g.terms), key=lambda g: len(g.terms))]
    remainder_terms = []
    terms = p.terms
    i = 0
    while i < len(terms):
        mono, coeff = terms[i]
        exps = mono.exponents
        for lead, g in reducers:
            if _divides(lead, exps):
                break
        else:
            remainder_terms.append(terms[i])
            i += 1
            continue
        work = Polynomial(arity, field, order, terms[i:], _sorted=True)
        factor = mono.quotient_by(g.lead_monomial)
        terms = (work + g.mul_monomial(factor, -(coeff / g.lead_coefficient))).terms
        i = 0
    return Polynomial(arity, field, order, remainder_terms, _sorted=True)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lcm = f.lead_monomial.lcm(g.lead_monomial)
    mf = lcm.quotient_by(f.lead_monomial)
    mg = lcm.quotient_by(g.lead_monomial)
    return (f.mul_monomial(mf, f.field.one / f.lead_coefficient)
            + g.mul_monomial(mg, -(g.field.one / g.lead_coefficient)))


def buchberger(generators: list[Polynomial], order: MonomialOrder = None) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal spanned by `generators`.

    The generators are reduced and inserted in order of term count,
    fewest first (a stable sort, so ties keep input order), which puts
    monomial relations ahead of dense ones.  Each insertion runs the
    Gebauer-Moller update described in the module docstring: criteria M
    and F and the coprime test on the new pairs, criterion B on the
    queued ones.  Pair selection follows the normal strategy (smallest
    lcm in the active order first, ties by basis index).  Raises
    BudgetError when it needs more than PAIR_BUDGET S-pair reductions.
    """
    gens = [g for g in generators if g and g.terms]
    if not gens:
        return []
    if order is None:
        order = gens[0].order
    gens = [g.with_order(order).monic() for g in gens]
    gens.sort(key=lambda g: len(g.terms))
    key = order.key

    basis: list[Polynomial] = []
    leads: list[tuple] = []  # exponent tuple of each basis element's lead
    active: list[int] = []  # basis indices that form pairs and reduce
    pairs: list = []  # heap of (lcm order key, i, j, lcm exponents)

    def insert(h: Polynomial):
        nonlocal pairs
        j = len(basis)
        lh = h.lead_monomial.exponents
        deg_h = sum(lh)
        basis.append(h)
        leads.append(lh)

        # criterion B on the queued pairs
        kept = [pair for pair in pairs
                if not _divides(lh, pair[3])
                or _lcm(leads[pair[1]], lh) == pair[3]
                or _lcm(leads[pair[2]], lh) == pair[3]]
        if len(kept) != len(pairs):
            heapq.heapify(kept)
            pairs = kept

        # criterion F: one candidate per lcm, remembering coprime ones
        candidates: dict[tuple, list] = {}
        for i in active:
            li = leads[i]
            lcm = _lcm(li, lh)
            coprime = sum(lcm) == sum(li) + deg_h
            entry = candidates.get(lcm)
            if entry is None:
                candidates[lcm] = [i, coprime]
            elif coprime:
                entry[1] = True
        # criterion M: a proper divisor of an lcm has smaller degree
        by_degree = sorted(candidates, key=sum)
        degrees = [sum(lcm) for lcm in by_degree]
        for a, lcm in enumerate(by_degree):
            i, coprime = candidates[lcm]
            if coprime:
                continue
            d = degrees[a]
            if any(degrees[b] < d and _divides(by_degree[b], lcm) for b in range(a)):
                continue
            heapq.heappush(pairs, (key(Monomial(lcm)), i, j, lcm))

        active[:] = [i for i in active if not _divides(lh, leads[i])]
        active.append(j)

    for g in gens:
        r = normal_form(g, [basis[i] for i in active])
        if r.terms:
            insert(r.monic())

    counter = 0
    while pairs:
        i, j = heapq.heappop(pairs)[1:3]
        s = s_polynomial(basis[i], basis[j])
        r = normal_form(s, [basis[i] for i in active])
        if r.terms:
            insert(r.monic())
        counter += 1
        if counter > PAIR_BUDGET:
            raise BudgetError("Buchberger pair budget of %d S-pair reductions exceeded"
                              % PAIR_BUDGET)

    # the reducing set is a minimal Groebner basis by now
    return reduce_basis([basis[i] for i in active], order)


def reduce_basis(basis: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    """Tail-reduce a minimal Groebner basis (no leading monomial divides
    another); sort ascending by LM."""
    reduced = []
    for i, g in enumerate(basis):
        reduced.append(normal_form(g, basis[:i] + basis[i + 1:]).monic())
    reduced.sort(key=lambda g: order.key(g.lead_monomial))
    return reduced
