"""Groebner bases: a degree phase for homogeneous input, Buchberger's
pair loop for the rest, and normal forms.

Produces the reduced Groebner basis, which is the unique canonical basis
for an ideal under a fixed monomial order: leading coefficients one, no
term of any element divisible by the leading monomial of another.

The degree phase (Lazard, "Groebner bases, Gaussian elimination and
resolution of systems of algebraic equations", EUROCAL 1983) runs when
every generator is homogeneous.  From the lowest generator degree up it
builds I_d = x * I_{d-1} + span(generators of degree d) on the int
`EchelonSolver`, in coordinates the monomials of degree d sorted
descending in the order, so a row's pivot is its leading monomial.  The
generators go in first, then the products x_l * row of the rows of
I_{d-1}, and the products stop once I_d is all of degree d.  The pivots
are the leading monomials of I_d.  A pivot no lead of degree d - 1 times
a variable reaches is not a multiple of an earlier lead, so it is the
lead of a new basis element: its row, reduced against the other pivot
rows of the degree, is that element, since every other term then sits
on a standard monomial.  Its value is the reduced-echelon row of I_d,
which is unique, so it is the element of the unique reduced basis.

After degree d the elements found so far form a d-truncated Groebner
basis: every S-pair of degree at most d reduces to zero by them.  The
phase stops with the whole basis when
- I_d is all of degree d, so every larger degree is full too;
- d is at least the largest generator degree and the largest lcm degree
  of a non-coprime pair of leads: every generator and every S-pair then
  reduces to zero (Buchberger's criterion, by degree, as in Faugere's
  F4, J. Pure Appl. Algebra 1999);
- the leads found so far already fill degree d + 1.
It builds degree d + 1 only if that degree holds a generator, or lies
within both that pair bound and the largest generator degree, or the
leads are artinian and their Hilbert function vanishes by a degree whose
monomial count fits DEGREE_BUDGET; and never if degree d + 1 has more
than DEGREE_BUDGET monomials.  Otherwise it hands off: the pair loop
starts from the d-truncated basis and the generators above degree d,
and drops every popped pair of lcm degree at most d unreduced.  Without
the hand-off a non-artinian lex ideal would climb degree after degree.

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

When every input generator is homogeneous, a popped pair is also dropped
without reduction when the Hilbert function of the reducing set's leads
vanishes in the degree D of its lcm: every monomial of degree D is then a
multiple of a lead, so the S-polynomial, homogeneous of degree D, reduces
to zero.  This is the simplest case of the Hilbert-driven Buchberger of
Traverso ("Hilbert functions and the Buchberger algorithm", J. Symb.
Comput. 1996).  The Hilbert series of the leads comes from the pivot
recursion of Bayer and Stillman ("Computing the Hilbert function",
J. Symb. Comput. 1992) and Bigatti (1997), not from enumerating monomials.
"""

from __future__ import annotations

import heapq
from math import comb
from operator import le
from typing import Optional

from .errors import BudgetError
from .linalg import EchelonSolver, field_vector, int_vector
from .poly import Monomial, MonomialOrder, Polynomial, monomials_of_degree

# S-pairs `buchberger` may reduce before it gives up with BudgetError
PAIR_BUDGET = 100000
# monomials a degree of the degree phase may have; a larger degree is left
# to the pair loop
DEGREE_BUDGET = 3000


def _divides(a: tuple, b: tuple) -> bool:
    """Whether the monomial with exponents `a` divides the one with `b`."""
    return all(map(le, a, b))


def _lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def _minimalise(monomials) -> list[tuple]:
    """The minimal generators of the monomial ideal the exponent tuples
    generate, in ascending degree."""
    kept: list[tuple] = []
    for m in sorted(set(monomials), key=sum):
        if not any(_divides(k, m) for k in kept):
            kept.append(m)
    return kept


def _add_shifted(a: list[int], b: list[int], shift: int, sign: int) -> list[int]:
    """a + sign * z^shift * b on coefficient lists."""
    out = a + [0] * max(0, shift + len(b) - len(a))
    for k, c in enumerate(b):
        out[shift + k] += sign * c
    return out


def _numerator(gens: list[tuple]) -> list[int]:
    # a generator coprime to all others is a nonzerodivisor modulo the
    # rest and contributes a factor 1 - z^deg; the others are split by a
    # pivot x_i^e, the smallest positive power of the variable most of
    # them share: K(I) = K(I + x_i^e) + z^e K(I : x_i^e), where
    # K(I + x_i^e) = (1 - z^e) K(J) and J holds the generators free of x_i
    counts = [sum(map(bool, column)) for column in zip(*gens)]
    isolated, shared = [], []
    for g in gens:
        coprime = all(counts[i] == 1 for i, e in enumerate(g) if e)
        (isolated if coprime else shared).append(g)
    numerator = [1]
    if shared:
        i = max(range(len(counts)), key=counts.__getitem__)
        e = min(g[i] for g in shared if g[i])
        free = _numerator([g for g in shared if not g[i]])
        colon = _numerator(_minimalise(
            g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in shared))
        numerator = _add_shifted(_add_shifted(free, free, e, -1), colon, e, 1)
    for g in isolated:
        numerator = _add_shifted(numerator, numerator, sum(g), -1)
    return numerator


def hilbert_numerator(leads) -> list[int]:
    """Coefficients of K(z), the numerator of the Hilbert series
    K(z) / (1 - z)^n of k[x_1..x_n]/L, where L is the monomial ideal the
    exponent tuples `leads` generate.  Nothing is enumerated."""
    return _numerator(_minimalise(leads))


def hilbert_function(numerator: list[int], n: int, degree: int) -> int:
    """The number of standard monomials of the given degree, in n
    variables, from the Hilbert-series numerator."""
    return sum(c * comb(degree - k + n - 1, n - 1)
               for k, c in enumerate(numerator[:degree + 1]))


def artinian_dim(numerator: list[int], n: int) -> int:
    """The number of standard monomials of an artinian quotient in n
    variables, H(1) for its Hilbert series H = K / (1 - z)^n, from the
    numerator K: the n-th derivative of K = (1 - z)^n H at z = 1 is
    (-1)^n n! H(1)."""
    return (-1) ** n * sum(c * comb(k, n) for k, c in enumerate(numerator) if c)


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

    All-homogeneous input first goes through the degree phase
    (`_by_degree`, see the module docstring).  It either returns the
    whole basis or hands the pair loop a d-truncated basis and the
    generators above degree d.

    The pair loop reduces the generators and inserts them in order of
    term count, fewest first (a stable sort, so ties keep input order),
    which puts monomial relations ahead of dense ones.  Each insertion
    runs the Gebauer-Moller update described in the module docstring:
    criteria M and F and the coprime test on the new pairs, criterion B
    on the queued ones.  Pair selection follows the normal strategy
    (smallest lcm in the active order first, ties by basis index).
    After a hand-off at degree d a popped pair of lcm degree at most d
    is dropped unreduced: the truncated basis already reduces it to zero.

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
    truncated, done = [], -1
    if homogeneous:
        truncated, done = _by_degree(gens, order)
        if done is None:
            return sorted(truncated, key=lambda g: key(g.lead_monomial))
        gens = [g for g in gens if g.lead_monomial.degree > done]

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

    for h in truncated:
        insert(h)
    for g in gens:
        r = normal_form(g, [basis[i] for i in active])
        if r.terms:
            insert(r.monic())

    counter = 0
    while pairs:
        i, j, lcm = heapq.heappop(pairs)[1:]
        if homogeneous:
            degree = sum(lcm)
            if degree <= done:
                continue
            if cutoff is None or degree < cutoff:
                if numerator is None:
                    numerator = hilbert_numerator(leads[a] for a in active)
                if hilbert_function(numerator, len(lcm), degree) == 0:
                    cutoff = degree
            if cutoff is not None and degree >= cutoff:
                continue
        s = s_polynomial(basis[i], basis[j])
        r = normal_form(s, [basis[i] for i in active])
        if r.terms:
            insert(r.monic())
        counter += 1
        if counter > PAIR_BUDGET:
            raise BudgetError("Buchberger pair budget of %d S-pair reductions exceeded"
                              % PAIR_BUDGET)

    # the reducing set is a minimal Groebner basis by now
    return reduce_basis([basis[i] for i in active], order, done)


def _by_degree(gens: list[Polynomial],
               order: MonomialOrder) -> tuple[list[Polynomial], Optional[int]]:
    """The degree phase on homogeneous monic generators.

    Returns the reduced-basis elements it found, in no particular order,
    and the degree d up to which they form a d-truncated Groebner basis,
    or None when they are the whole reduced basis.
    """
    n, field = gens[0].arity, gens[0].field
    p = field.char
    key = order.key
    by_degree: dict[int, list[Polynomial]] = {}
    for g in gens:
        by_degree.setdefault(g.lead_monomial.degree, []).append(g)
    top = max(by_degree)
    d = min(by_degree)
    basis: list[Polynomial] = []
    leads: list[tuple] = []
    pure = set()  # the variables with a pure power among the leads
    pair_bound = -1  # largest lcm degree of a non-coprime pair of leads
    horizon = -1  # once the leads are artinian, the degree where their
    # Hilbert function vanishes, if that degree fits DEGREE_BUDGET
    below = None  # (exponents of the monomials, int rows, pivots) of I_{d-1}
    while comb(d + n - 1, n - 1) <= DEGREE_BUDGET:
        monos = sorted(monomials_of_degree(n, d), key=key, reverse=True)
        index = {m.exponents: c for c, m in enumerate(monos)}
        full = len(monos)
        solver = EchelonSolver(field)
        for g in by_degree.get(d, ()):
            solver.add_ints(int_vector({index[m.exponents]: c for m, c in g.terms}, p)[0])
        covered = set()  # x * the leads of degree d - 1
        if below is not None:
            old_monos, old_rows, old_pivots = below
            ups = [[index[e[:i] + (e[i] + 1,) + e[i + 1:]] for e in old_monos]
                   for i in range(n)]
            for up in ups:
                covered.update(up[q] for q in old_pivots)
            for row in old_rows:
                for up in ups:
                    if solver.rank == full:
                        break
                    solver.add_ints({up[c]: x for c, x in row.items()})
        rows = solver.int_rows()
        pivots = [min(row) for row in rows]
        for q in sorted(pivots):
            if q in covered:
                continue
            V = solver.reduced_ints(q)
            coeffs = field_vector(p, V, V[q])
            basis.append(Polynomial(n, field, order, [(monos[c], coeffs[c]) for c in sorted(V)],
                                    _sorted=True))
            lead = monos[q].exponents
            for u in leads:
                if any(map(min, u, lead)):
                    pair_bound = max(pair_bound, sum(map(max, u, lead)))
            leads.append(lead)
            if sum(map(bool, lead)) == 1:
                pure.add(lead.index(d))
        if len(pivots) == full or (d >= top and d >= pair_bound):
            return basis, None
        d += 1
        if len(pure) == n and horizon < d:
            horizon = _vanishing_degree(hilbert_numerator(leads), n, d)
        if horizon == d:  # every monomial of degree d is a multiple of a lead
            return basis, None
        if not (d in by_degree or d <= min(pair_bound, top) or d <= horizon):
            break
        below = ([m.exponents for m in monos], rows, pivots)
    return basis, d - 1


def _vanishing_degree(numerator: list[int], n: int, d: int) -> int:
    """The first degree from d on in which the Hilbert function vanishes,
    or -1 if it does not vanish before the monomials of a degree exceed
    DEGREE_BUDGET."""
    while comb(d + n - 1, n - 1) <= DEGREE_BUDGET:
        if not hilbert_function(numerator, n, d):
            return d
        d += 1
    return -1


def reduce_basis(basis: list[Polynomial], order: MonomialOrder,
                 done: int) -> list[Polynomial]:
    """Tail-reduce a minimal Groebner basis (no leading monomial divides
    another); sort ascending by LM.

    Elements of degree at most `done` are taken as reduced already, as
    those of a reduced d-truncated basis are: a lead of larger degree
    divides no term of theirs."""
    reduced = []
    for i, g in enumerate(basis):
        if g.lead_monomial.degree > done:
            g = normal_form(g, basis[:i] + basis[i + 1:]).monic()
        reduced.append(g)
    reduced.sort(key=lambda g: order.key(g.lead_monomial))
    return reduced
