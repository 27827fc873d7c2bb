"""Reference standard monomials, for tests only.

`QuotientRing.std_basis` walks the order ideal of standard monomials
one degree up from the last.  This module keeps what that walk replaced:
every monomial of the degree, filtered against the lead monomials.
"""

from __future__ import annotations

from koszulkit.poly import monomials_of_degree


def std_basis(ring, degree):
    """Standard monomials of the given total degree, largest first."""
    monos = [m for m in monomials_of_degree(ring.n, degree)
             if not any(lm.divides(m) for lm in ring.lead_monomials)]
    monos.sort(key=ring.order.key, reverse=True)
    return tuple(monos)
