"""Reference standard monomials and normal forms, for tests only.

`QuotientRing.std_basis` walks the order ideal of standard monomials
one degree up from the last.  This module keeps what that walk replaced:
every monomial of the degree, filtered against the lead monomials.

`QuotientRing.normal_form` and `multiply` build one `Polynomial` from
all their scaled monomial normal forms.  The versions here merge them
into an accumulator one at a time, as those methods did before.
"""

from __future__ import annotations

from koszulkit.poly import Polynomial, monomials_of_degree


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
