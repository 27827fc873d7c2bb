"""Reference Buchberger algorithm and normal form, for tests only.

This is the `koszulkit.groebner` that ran before the Gebauer-Moller pair
criteria: every non-coprime S-pair is reduced, generators are inserted in
input order, and `normal_form` reduces by the first basis element (in
list order) whose leading monomial divides the term.  It is slow but
obviously right.  `tests/test_groebner.py` checks that the production
code returns literally equal reduced bases.
"""

from __future__ import annotations

import heapq

from koszulkit.poly import MonomialOrder, Polynomial


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
