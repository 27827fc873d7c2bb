"""Groebner bases by critical pairs on the int echelon, and normal forms.

`buchberger` returns the reduced Groebner basis, which is the unique
canonical basis for an ideal under a fixed monomial order: leading
coefficients one, no term of any element divisible by the leading
monomial of another.

The engine is Faugere's F4 (J. Pure Appl. Algebra 1999) with the normal
strategy.  Each step takes the critical pairs of least rank and the input
generators of that rank and builds one matrix:
- the two multiples u * g of each pair, which both lead with its lcm;
- each generator as it is;
- by symbolic preprocessing, a row u * g for every other monomial of the
  matrix that the lead of an element g of the reducing set divides.
The columns are the matrix's own monomials, sorted descending in the
order, so a row's pivot on the int `EchelonSolver` is its leading
monomial.  Every monomial of the matrix that a lead divides leads a row
u * g, so a pivot that no row u * g leads is divisible by no lead: it is
the lead of a new basis element, whose value is its reduced-echelon row.
Each S-polynomial and generator of the step lies in the span of the
rows, so it reduces to zero by the basis and the new elements.

The rank of a pair is the degree of its lcm, and that of a generator the
degree of its lead, when the order refines the degree on the input:
grevlex, or any order on homogeneous input.  Otherwise, lex on
inhomogeneous input, the rank is the lcm or the lead itself, so that the
smallest is taken first, as Buchberger's normal strategy does.  The sugar
strategy (Giovini, Mora, Niesi, Robbiano and Traverso, ISSAC 1991) is not
used: on lex inhomogeneous input it builds elements of high degree with
huge coefficients.  On x^3 - y*z + z^4, y^3 - x*z^2, z^3 - x*y + x^2 it
runs for more than a minute, the normal strategy a fraction of a second.

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
The new elements of a step join largest lead first, so one whose lead
another new lead divides leaves the reducing set again.

The basis is complete once no pair and no generator is left, and the
reducing set is then a minimal Groebner basis.  On inhomogeneous input a
later lead may divide the tail of an earlier element, so one more
matrix, the reducing set with its reducers, reduces every element
against the others.  On homogeneous input no such lead exists: every
lead of a smaller degree was known when an element's matrix was built.
None of the choices above changes the result, since the reduced basis
is unique.

When every input generator is homogeneous, so is every basis element,
and no step is built from the degree D on where the Hilbert function of
the reducing set's leads vanishes: every monomial of degree D or more is
then a multiple of a lead, so every pair and generator left reduces to
zero.  This is the simplest case of the Hilbert-driven Buchberger of
Traverso ("Hilbert functions and the Buchberger algorithm", J. Symb.
Comput. 1996).  The Hilbert series of the leads comes from the pivot
recursion of Bayer and Stillman ("Computing the Hilbert function",
J. Symb. Comput. 1992) and Bigatti (1997), not from enumerating monomials.
"""

from __future__ import annotations

from math import comb
from operator import add, le, lshift, sub

from .errors import BudgetError
from .linalg import EchelonSolver, field_vector, int_vector
from .poly import Monomial, MonomialOrder, Polynomial

# nonzero matrix entries, counted over a whole run, that `buchberger` may
# eliminate before it gives up with BudgetError; rows alone do not bound
# the work, since they grow denser as the basis grows
ENTRY_BUDGET = 65000


def _divides(a: tuple, b: tuple) -> bool:
    """Whether the monomial with exponents `a` divides the one with `b`."""
    return all(map(le, a, b))


def _lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def _minimalise(monomials) -> list[tuple]:
    """The minimal generators of the monomial ideal the exponent tuples
    generate, in ascending degree.

    Each exponent tuple is packed into one int, a field of w bits per
    variable whose top bit, the guard, is set in the packed form of m:
    k divides m iff subtracting k from it borrows from no guard bit.  One
    int subtraction per test keeps the quadratic loop cheap on the
    thousand leads of a large basis.  The guard bits of n fields are the
    base-2^w repunit (2^(wn) - 1) / (2^w - 1) shifted by w - 1."""
    monos = sorted(set(monomials), key=sum)
    w = max(map(max, monos), default=0).bit_length() + 1
    guard = ((1 << w * len(monos[0])) - 1) // ((1 << w) - 1) << w - 1 if monos else 0
    kept: dict = {}  # m -> its packed form
    for m in monos:
        q = sum(map(lshift, m, range(0, w * len(m), w))) + guard
        if all((q - k) & guard != guard for k in kept.values()):
            kept[m] = q - guard
    return list(kept)


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


def _fills(leads: list[tuple], n: int, degree: int) -> bool:
    """Whether the monomial ideal the exponent tuples `leads` generate
    holds every monomial of the degree in n variables.  Only artinian
    leads, with a pure power of every variable, can; only then is their
    Hilbert numerator computed."""
    pure = {i for lead in leads for i, e in enumerate(lead) if e == sum(lead)}
    return len(pure) == n and not hilbert_function(hilbert_numerator(leads), n, degree)


def _times(u: tuple, row: list) -> list:
    """The row of u * g from the row of g."""
    return [(tuple(map(add, u, e)), c) for e, c in row]


def _preprocess(multiples: list, rows: list, reducers: list):
    """Symbolic preprocessing of one matrix.

    A row is a list of (exponents, int coefficient) terms, lead first,
    known up to scale.  `multiples` are the rows u * g as pairs (u, row of
    g), `rows` the other rows, and `reducers` the reducing set as pairs
    (lead, row), sparsest first.  Returns the rows u * g by the monomial
    each leads, one per monomial, the other rows, and the monomials of
    the matrix.  Every monomial of the matrix that a reducer's lead
    divides leads a row u * g; a repeated multiple is left out.
    """
    leading: dict = {}
    rest = list(rows)
    for u, row in multiples:
        row = _times(u, row)
        lead = row[0][0]
        if lead not in leading:
            leading[lead] = row
        elif leading[lead] != row:
            rest.append(row)
    monomials = {e for row in (*leading.values(), *rest) for e, _c in row}
    todo = list(monomials)
    while todo:
        m = todo.pop()
        if m in leading:
            continue
        for lead, row in reducers:
            if _divides(lead, m):
                leading[m] = row = _times(tuple(map(sub, m, lead)), row)
                for e, _c in row:
                    if e not in monomials:
                        monomials.add(e)
                        todo.append(e)
                break
    return leading, rest, monomials


def buchberger(generators: list[Polynomial], order: MonomialOrder = None) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal spanned by `generators`, sorted
    ascending by leading monomial.

    Runs the engine of the module docstring: steps by least rank, each
    one matrix of critical-pair multiples, generators and reducers on the
    int echelon, with the Gebauer-Moller update as each new element
    joins, and on homogeneous input the Hilbert cutoff.

    Raises BudgetError when its matrices hold more than ENTRY_BUDGET
    nonzero entries in all; the count is checked after each symbolic
    preprocessing, before that matrix is eliminated.
    """
    gens = [g for g in generators if g and g.terms]
    if not gens:
        return []
    if order is None:
        order = gens[0].order
    gens = [g.with_order(order) for g in gens]
    n, field = gens[0].arity, gens[0].field
    p = field.char
    key = order.key
    homogeneous = all(g.is_homogeneous() for g in gens)
    # the rank of a pair's lcm or a generator's lead (see the module
    # docstring); lex compares the exponent tuples themselves
    rank = sum if homogeneous or order is MonomialOrder.GREVLEX else tuple
    # each generator's rank and row, the least rank last
    waiting = sorted(((rank(g.lead_monomial.exponents),
                       list(int_vector({m.exponents: c for m, c in g.terms}, p)[0].items()))
                      for g in gens), key=lambda t: t[0], reverse=True)

    basis: list[Polynomial] = []
    rows: list[list] = []  # each basis element's row
    leads: list[tuple] = []  # exponent tuple of each basis element's lead
    active: list[int] = []  # basis indices that form pairs and reduce
    pairs: list = []  # (rank, i, j, lcm exponents)
    used = 0  # matrix entries so far

    def insert(h: Polynomial, row: list):
        nonlocal pairs
        j = len(basis)
        lh = row[0][0]
        deg_h = sum(lh)
        basis.append(h)
        rows.append(row)
        leads.append(lh)

        # criterion B on the queued pairs
        pairs = [pair for pair in pairs
                 if not _divides(lh, pair[3])
                 or _lcm(leads[pair[1]], lh) == pair[3]
                 or _lcm(leads[pair[2]], lh) == pair[3]]

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
            pairs.append((rank(lcm), i, j, lcm))

        active[:] = [i for i in active if not _divides(lh, leads[i])]
        active.append(j)

    def eliminate(multiples: list, extra: list):
        """Preprocess and eliminate one matrix; returns its columns, their
        index, the solver and the monomials that rows u * g lead."""
        nonlocal used
        reducers = [(leads[k], rows[k]) for k in sorted(active, key=lambda k: len(rows[k]))]
        leading, rest, monomials = _preprocess(multiples, extra, reducers)
        used += sum(map(len, leading.values())) + sum(map(len, rest))
        if used > ENTRY_BUDGET:
            raise BudgetError("Groebner budget of %d matrix entries exceeded" % ENTRY_BUDGET)
        monos = sorted(map(Monomial, monomials), key=key, reverse=True)
        index = {m.exponents: c for c, m in enumerate(monos)}
        solver = EchelonSolver(field)
        # by ascending pivot, so these rows eliminate nothing
        for lead in sorted(leading, key=index.__getitem__):
            solver.add({index[e]: c for e, c in leading[lead]})
        for row in rest:
            solver.add({index[e]: c for e, c in row})
        return monos, index, solver, leading

    def read(monos: list, solver: EchelonSolver, q: int):
        """The element whose lead is column q, and its row."""
        V = solver.reduced_ints(q)
        coeffs = field_vector(p, V, V[q])
        cols = sorted(V)
        return (Polynomial(n, field, order, [(monos[c], coeffs[c]) for c in cols], _sorted=True),
                [(monos[c].exponents, V[c]) for c in cols])

    while pairs or waiting:
        s = min([pair[0] for pair in pairs] + [d for d, _row in waiting[-1:]])
        multiples = [(tuple(map(sub, lcm, leads[k])), rows[k])
                     for r, i, j, lcm in pairs if r == s for k in (i, j)]
        pairs = [pair for pair in pairs if pair[0] != s]
        extra = []
        while waiting and waiting[-1][0] == s:
            extra.append(waiting.pop()[1])
        monos, _index, solver, leading = eliminate(multiples, extra)
        found = [read(monos, solver, q) for q, m in enumerate(monos)
                 if m.exponents not in leading and solver.has_pivot(q)]
        if homogeneous and _fills([leads[k] for k in active] + [row[0][0] for _h, row in found],
                                  n, s + 1):
            # every pair and generator left has a degree above s
            return sorted([basis[k] for k in active] + [h for h, _row in found],
                          key=lambda g: key(g.lead_monomial))
        for h, row in found:
            insert(h, row)

    if homogeneous:
        return sorted((basis[k] for k in active), key=lambda g: key(g.lead_monomial))
    monos, index, solver, _leading = eliminate([((0,) * n, rows[k]) for k in active], [])
    return [read(monos, solver, q)[0]
            for q in sorted((index[leads[k]] for k in active), reverse=True)]
