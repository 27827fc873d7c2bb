"""Reference Buchberger algorithms and normal form, for tests only.

`buchberger` is the `koszulkit.groebner` that ran before the
Gebauer-Moller pair criteria: every non-coprime S-pair is reduced,
generators are inserted in input order, and `normal_form` reduces by the
first basis element (in list order) whose leading monomial divides the
term.  It is slow but obviously right.

`buchberger_pairs` is the production pair loop as it ran before the
degree phase and before the matrix engine replaced both: Gebauer-Moller
criteria and the Hilbert cutoff, one S-polynomial reduction at a time,
on the production `normal_form`.

`tests/test_groebner.py` checks that the production code returns
literally equal reduced bases.
"""

from __future__ import annotations

import heapq

from koszulkit import groebner
from koszulkit.errors import BudgetError
from koszulkit.poly import Monomial, MonomialOrder, Polynomial

# S-pairs `buchberger_pairs` may reduce before it gives up with BudgetError
PAIR_BUDGET = 100000


def normal_form(p: Polynomial, basis: list[Polynomial]) -> Polynomial:
    """Remainder of multivariate division of p by the given basis.

    Deterministic: always cancels the largest reducible term using the
    first basis element (in list order) whose leading monomial divides it.
    Unique independent of these choices when `basis` is a Groebner basis.
    """
    if not basis:
        return p
    order = p.order
    key = order.key
    leads = [(g.lead_monomial, g) for g in basis if g]
    remainder_terms = []
    work = p
    while work.terms:
        mono, coeff = work.terms[0]
        reducer = None
        for lm, g in leads:
            if lm.divides(mono):
                reducer = (lm, g)
                break
        if reducer is None:
            remainder_terms.append((mono, coeff))
            work = Polynomial(p.arity, p.field, order, work.terms[1:], _sorted=True)
            continue
        lm, g = reducer
        factor = mono.quotient_by(lm)
        work = work - g.mul_monomial(factor, coeff / g.lead_coefficient)
    return Polynomial(p.arity, p.field, order, remainder_terms, _sorted=True)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lcm = f.lead_monomial.lcm(g.lead_monomial)
    mf = lcm.quotient_by(f.lead_monomial)
    mg = lcm.quotient_by(g.lead_monomial)
    return (f.mul_monomial(mf, f.field.one / f.lead_coefficient)
            - g.mul_monomial(mg, g.field.one / g.lead_coefficient))


def buchberger(generators: list[Polynomial], order: MonomialOrder = None) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal spanned by `generators`.

    Pair selection follows the normal strategy (smallest lcm in the
    active order first); pairs with coprime leading monomials are
    discarded outright since their S-polynomials reduce to zero.
    """
    gens = [g for g in generators if g and g.terms]
    if not gens:
        return []
    if order is None:
        order = gens[0].order
    gens = [g.with_order(order).monic() for g in gens]
    arity, field = gens[0].arity, gens[0].field

    basis: list[Polynomial] = []
    pairs: list = []  # heap of (lcm order key, i, j)
    counter = 0

    def push_pairs(new_index: int):
        lm_new = basis[new_index].lead_monomial
        for i in range(new_index):
            lm_i = basis[i].lead_monomial
            if lm_i.is_coprime(lm_new):
                continue
            lcm = lm_i.lcm(lm_new)
            heapq.heappush(pairs, (order.key(lcm), i, new_index))

    for g in gens:
        r = normal_form(g, basis)
        if r.terms:
            basis.append(r.monic())
            push_pairs(len(basis) - 1)

    while pairs:
        _, i, j = heapq.heappop(pairs)
        s = s_polynomial(basis[i], basis[j])
        r = normal_form(s, basis)
        if r.terms:
            basis.append(r.monic())
            push_pairs(len(basis) - 1)
        counter += 1
        if counter > 100000:
            raise RuntimeError("Buchberger pair budget exceeded")

    return reduce_basis(basis, order)


def reduce_basis(basis: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    """Minimalize and tail-reduce a Groebner basis; sort ascending by LM."""
    # drop elements whose leading monomial another one divides
    minimal = []
    for i, g in enumerate(basis):
        lm = g.lead_monomial
        redundant = False
        for j, h in enumerate(basis):
            if i == j:
                continue
            lmh = h.lead_monomial
            if lmh.divides(lm) and (lmh != lm or j < i):
                redundant = True
                break
        if not redundant:
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = normal_form(g, others)
        if r.terms:
            reduced.append(r.monic())
    reduced.sort(key=lambda g: order.key(g.lead_monomial))
    return reduced


def buchberger_pairs(generators: list[Polynomial], order: MonomialOrder = None) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal spanned by `generators`.

    The generators are reduced and inserted in order of term count,
    fewest first (a stable sort, so ties keep input order), which puts
    monomial relations ahead of dense ones.  Each insertion runs the
    Gebauer-Moller update described in the `koszulkit.groebner`
    docstring: criteria M and F and the coprime test on the new pairs,
    criterion B on the queued ones.  Pair selection follows the normal
    strategy (smallest lcm in the active order first, ties by basis
    index).

    When every generator is homogeneous, so is every basis element and
    every S-polynomial.  A popped pair whose lcm has a degree D in which
    the Hilbert function of the reducing set's leads vanishes is then
    dropped unreduced: each term of its S-polynomial has degree D, hence
    is a multiple of a lead, and the S-polynomial reduces to zero.  The
    Hilbert-series numerator is recomputed only when a pair is popped
    after the reducing set changed.  A vanishing degree stays one for
    every larger degree and every larger reducing set, so pairs at or
    above it are dropped without recomputation.  Inhomogeneous input
    never takes this cutoff.

    Raises BudgetError when it needs more than PAIR_BUDGET S-pair
    reductions; pairs dropped unreduced do not count.
    """
    gens = [g for g in generators if g and g.terms]
    if not gens:
        return []
    if order is None:
        order = gens[0].order
    gens = [g.with_order(order).monic() for g in gens]
    gens.sort(key=lambda g: len(g.terms))
    key = order.key
    homogeneous = all(g.is_homogeneous() for g in gens)

    basis: list[Polynomial] = []
    leads: list[tuple] = []  # exponent tuple of each basis element's lead
    active: list[int] = []  # basis indices that form pairs and reduce
    pairs: list = []  # heap of (lcm order key, i, j, lcm exponents)
    numerator = None  # Hilbert numerator of the active leads; None when stale
    cutoff = None  # a degree in which that Hilbert function vanishes

    def insert(h: Polynomial):
        nonlocal pairs, numerator
        j = len(basis)
        lh = h.lead_monomial.exponents
        deg_h = sum(lh)
        basis.append(h)
        leads.append(lh)
        numerator = None

        # criterion B on the queued pairs
        kept = [pair for pair in pairs
                if not groebner._divides(lh, pair[3])
                or groebner._lcm(leads[pair[1]], lh) == pair[3]
                or groebner._lcm(leads[pair[2]], lh) == pair[3]]
        if len(kept) != len(pairs):
            heapq.heapify(kept)
            pairs = kept

        # criterion F: one candidate per lcm, remembering coprime ones
        candidates: dict[tuple, list] = {}
        for i in active:
            li = leads[i]
            lcm = groebner._lcm(li, lh)
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
            if any(degrees[b] < d and groebner._divides(by_degree[b], lcm) for b in range(a)):
                continue
            heapq.heappush(pairs, (key(Monomial(lcm)), i, j, lcm))

        active[:] = [i for i in active if not groebner._divides(lh, leads[i])]
        active.append(j)

    for g in gens:
        r = groebner.normal_form(g, [basis[i] for i in active])
        if r.terms:
            insert(r.monic())

    counter = 0
    while pairs:
        i, j, lcm = heapq.heappop(pairs)[1:]
        if homogeneous:
            degree = sum(lcm)
            if cutoff is None or degree < cutoff:
                if numerator is None:
                    numerator = groebner.hilbert_numerator(leads[a] for a in active)
                if groebner.hilbert_function(numerator, len(lcm), degree) == 0:
                    cutoff = degree
            if cutoff is not None and degree >= cutoff:
                continue
        s = s_polynomial(basis[i], basis[j])
        r = groebner.normal_form(s, [basis[i] for i in active])
        if r.terms:
            insert(r.monic())
        counter += 1
        if counter > PAIR_BUDGET:
            raise BudgetError("Buchberger pair budget of %d S-pair reductions exceeded"
                              % PAIR_BUDGET)

    # the reducing set is a minimal Groebner basis by now
    minimal = [basis[i] for i in active]
    reduced = [groebner.normal_form(g, minimal[:i] + minimal[i + 1:]).monic()
               for i, g in enumerate(minimal)]
    reduced.sort(key=lambda g: key(g.lead_monomial))
    return reduced
