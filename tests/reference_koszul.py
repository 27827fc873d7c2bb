"""Reference coordinates of Koszul differentials and ring subspaces, for
tests only.

The production code reads every product of monomials off the ring's
coordinate layer (`QuotientRing.var_action`) and finds positions by
index arithmetic.  This module keeps the code that layer replaced: Koszul
pieces as explicit (monomial, exterior monomial) coordinate lists with a
dict index, differential entries from `mono_product` per entry, the
socle from a monomial-keyed basis index, and ideal spans saturated with
`Polynomial` products through `ring.multiply`.
"""

from __future__ import annotations

import itertools

from koszulkit.linalg import Subspace, kernel_of_columns
from koszulkit.poly import Monomial, monomials_of_degree


def _var_monomial(ring, i):
    exps = [0] * ring.n
    exps[i] = 1
    return Monomial(exps)


def piece_coords(ring, i, degree=None):
    """(monomial, exterior monomial) coordinates of K_i: over the standard
    monomials of one degree, or of the whole ring for degree None."""
    if not 0 <= i <= ring.n or (degree is not None and degree < 0):
        return []
    monos = ring.std_monomials if degree is None else ring.std_basis(degree)
    exts = list(itertools.combinations(range(ring.n), i))
    return [(mono, ext) for mono in monos for ext in exts]


def differential_columns(ring, source, target):
    """Matrix of the differential between two coordinate lists, one
    sparse column per source coordinate."""
    tindex = {c: i for i, c in enumerate(target)}
    columns = []
    for mono, key in source:
        col: dict = {}
        for pos, idx in enumerate(key):
            prod = ring.mono_product(_var_monomial(ring, idx), mono)
            sign = -1 if pos % 2 else 1
            sub = key[:pos] + key[pos + 1:]
            for m, c in prod.terms:
                ti = tindex[(m, sub)]
                v = col.get(ti)
                v = (sign * c) if v is None else v + sign * c
                if v:
                    col[ti] = v
                elif ti in col:
                    del col[ti]
        columns.append(col)
    return columns


def _basis_index(ring):
    return {m: i for i, m in enumerate(ring.std_monomials)}


def poly_to_vec(ring, p):
    index = _basis_index(ring)
    return {index[mono]: coeff for mono, coeff in p.terms}


def socle(ring):
    """Basis of the socle, canonical form."""
    index = _basis_index(ring)
    columns = []
    for b in ring.std_monomials:
        col = {}
        for l in range(ring.n):
            prod = ring.mono_product(_var_monomial(ring, l), b)
            for mono, coeff in prod.terms:
                col[l * ring.dim + index[mono]] = coeff
        columns.append(col)
    space = Subspace(ring.field, kernel_of_columns(columns, ring.field))
    return [ring.vec_to_poly(row) for row in space.reduced_basis_rows()]


def ideal_span(ring, gens):
    """Subspace of R spanned by the ideal the given elements generate,
    saturated newest first."""
    space = Subspace(ring.field)
    queue = [ring.normal_form(g) for g in gens]
    queue = [p for p in queue if p.terms]
    while queue:
        p = queue.pop()
        if not space.extend(poly_to_vec(ring, p)):
            continue
        for i in range(ring.n):
            q = ring.multiply(ring.variable(i), p)
            if q.terms:
                queue.append(q)
    return space


def power_ideal_subspace(ring, t):
    """The image of the t-th power of the maximal ideal in R."""
    space = Subspace(ring.field)
    one = ring.field.one
    if t <= 0:
        for i in range(ring.dim):
            space.extend({i: one})
    elif ring.graded:
        index = _basis_index(ring)
        for d in range(t, ring.top_degree + 1):
            for m in ring.std_basis(d):
                space.extend({index[m]: one})
    else:
        seeds = (ring.reduce_monomial(m) for m in monomials_of_degree(ring.n, t))
        space = ideal_span(ring, [p for p in seeds if p.terms])
    return space
