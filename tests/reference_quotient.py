"""Reference standard monomials and normal forms, for tests only.

`QuotientRing.std_basis` walks the order ideal of standard monomials
one degree up from the last.  This module keeps what that walk replaced:
every monomial of the degree, filtered against the lead monomials.

`QuotientRing.normal_form` and `multiply` build one `Polynomial` from
all their scaled monomial normal forms.  The versions here merge them
into an accumulator one at a time, as those methods did before.

The ring keeps one multiplication table, in ints: `int_action` reads
the memoized normal forms, and the products of two pieces are chains of
int pairs through it (`product_pairs`).  The builders here keep the
field tables that replaced: `var_action` caches the x_l tables as field
elements, `int_action` and `action_scale` convert them, `product_rows`
chains field vectors through them, and `int_mul_table` converts those
rows to one lcm scale.  The power-ideal and ideal spans shift field
vectors through the same field tables, into the field echelon of
`reference_linalg`.
"""

from __future__ import annotations

import weakref
from math import lcm

from koszulkit.linalg import vec_add_terms
from koszulkit.poly import Monomial, Polynomial, monomials_of_degree

from reference_linalg import Subspace


def std_basis(ring, degree):
    """Standard monomials of the given total degree, largest first."""
    monos = [m for m in monomials_of_degree(ring.n, degree)
             if not any(lm.divides(m) for lm in ring.lead_monomials)]
    monos.sort(key=ring.order.key, reverse=True)
    return tuple(monos)


def normal_form(ring, p):
    """Normal form of p in the ring, one merge per term of p."""
    p = p.with_order(ring.order)
    acc = Polynomial.zero(ring.n, ring.field, ring.order)
    for mono, coeff in p.terms:
        acc = acc + ring.reduce_monomial(mono) * coeff
    return acc


def multiply(ring, p, q):
    """Product in the ring of two normal forms, one merge per pair of terms."""
    acc = Polynomial.zero(ring.n, ring.field, ring.order)
    for ma, ca in p.terms:
        for mb, cb in q.terms:
            acc = acc + ring.mono_product(ma, mb) * (ca * cb)
    return acc


# -- the field multiplication tables ------------------------------------

_TABLES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _cached(ring, key, build):
    cache = _TABLES.setdefault(ring, {})
    if key not in cache:
        cache[key] = build()
    return cache[key]


def var_action(ring, l, e):
    """Multiplication by x_l out of piece e: per monomial of the piece,
    the (position, field coefficient) pairs of its product with x_l in
    the next piece, in the product's term order."""
    def build():
        x = ring.variable(l).lead_monomial
        index = ring.piece_index(ring._piece_after(e, 1))
        return tuple(tuple((index[m], c) for m, c in ring.mono_product(x, b).terms)
                     for b in ring.piece(e))
    return _cached(ring, ("act", l, e), build)


def int_action(ring, e, scale):
    """`var_action` of every x_l as (l, position, int coefficient)
    triples per monomial of piece e."""
    p = ring.field.char
    out = [[] for _m in ring.piece(e)]
    for l in range(ring.n):
        for entries, pairs in zip(out, var_action(ring, l, e)):
            entries.extend((l, ti, c.v if p else c.numerator * (scale // c.denominator))
                           for ti, c in pairs)
    return tuple(map(tuple, out))


def action_scale(ring, e):
    """The lcm of the denominators in the field x_l tables out of piece e."""
    return 1 if ring.field.char else lcm(
        *(c.denominator for l in range(ring.n) for act in var_action(ring, l, e)
          for _ti, c in act))


def product_rows(ring, e, f):
    """Per monomial m_a of piece e, per monomial m_b of piece f, the field
    vector of m_a * m_b, chained through the field x_l tables."""
    def build():
        rows = []
        whole = e == ring.whole_piece
        below = ring._piece_after(e, -1)
        prev = None
        for step in ring.divisors(e):
            if step is None:
                rows.append([{b: ring.field.one} for b in range(len(ring.piece(f)))])
                continue
            if prev is None:
                prev = rows if whole else product_rows(ring, below, f)
                after = e if whole else below + f
            l, i = step
            act = var_action(ring, l, after)
            rows.append([vec_add_terms({}, ((ti, c * x) for k, c in vec.items()
                                            for ti, x in act[k]))
                         for vec in prev[i]])
        return rows
    return _cached(ring, ("rows", e, f), build)


def int_mul_table(ring, e, f):
    """`product_rows` as ints over one lcm of their denominators."""
    rows = product_rows(ring, e, f)
    p = ring.field.char
    scale = 1
    if not p:
        scale = lcm(*(c.denominator for row in rows for vec in row for c in vec.values()))
    return scale, tuple(
        tuple(tuple((k, c.v if p else c.numerator * (scale // c.denominator))
                    for k, c in vec.items()) for vec in row)
        for row in rows)


def _shift(ring, vec, l):
    """x_l * vec for a field vector of the whole ring, entries in
    descending term order."""
    act = var_action(ring, l, ring.whole_piece)
    q = vec_add_terms({}, ((ti, a * c) for k, a in vec.items() for ti, c in act[k]))
    key, monos = ring.order.key, ring.std_monomials
    return {k: q[k] for k in sorted(q, key=lambda k: key(monos[k]), reverse=True)}


def _span(ring, queue):
    """The field subspace the ideal of the given field vectors spans,
    newest vector multiplied out first."""
    space = Subspace(ring.field)
    queue = [v for v in queue if v]
    while queue:
        v = queue.pop()
        if not space.extend(v):
            continue
        for l in range(ring.n):
            q = _shift(ring, v, l)
            if q:
                queue.append(q)
    return space


def power_layer(ring, t):
    """Each degree-t monomial nonzero in R -> the field vector of its
    normal form, shifted up from the layer below."""
    def build():
        if t == 0:
            return {Monomial((0,) * ring.n): {0: ring.field.one}}
        layer = {}
        for prev, v in power_layer(ring, t - 1).items():
            e = prev.exponents
            last = max((l for l, a in enumerate(e) if a), default=0)
            for l in range(last, ring.n):
                q = _shift(ring, v, l)
                if q:
                    layer[Monomial(e[:l] + (e[l] + 1,) + e[l + 1:])] = q
        return layer
    return _cached(ring, ("layer", t), build)


def power_ideal_subspace(ring, t):
    """The image of m^t in R as a field `Subspace`."""
    one = ring.field.one
    if t <= 0:
        return Subspace(ring.field, ({i: one} for i in range(ring.dim)))
    if ring.graded:
        idx = ring.piece_index(ring.whole_piece)
        return Subspace(ring.field, ({idx[m]: one} for d in range(t, ring.top_degree + 1)
                                     for m in ring.std_basis(d)))
    layer = power_layer(ring, t)
    return _span(ring, [layer[m] for m in sorted(layer, key=lambda m: m.exponents)])


def ideal_span(ring, gens):
    """The field subspace of R that the ideal of the given elements spans."""
    return _span(ring, [ring.poly_to_vec(ring.normal_form(g)) for g in gens])
