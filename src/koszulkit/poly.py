"""Multivariate monomials and polynomials with a fixed term order.

Polynomials store their terms as a tuple sorted strictly descending in
the active monomial order, so the internal form doubles as the canonical
display form.  Coefficients live in one of the fields from
:mod:`koszulkit.fields` and zero coefficients are never kept.
"""

from __future__ import annotations

import itertools
import operator
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .linalg import vec_add_terms


class Monomial:
    """An exponent vector with its total degree cached."""

    __slots__ = ("exponents", "degree")

    def __init__(self, exponents: Iterable[int]):
        exps = tuple(exponents)
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent in %r" % (exps,))
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "degree", sum(exps))

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @property
    def arity(self) -> int:
        return len(self.exponents)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(a + b for a, b in zip(self.exponents, other.exponents, strict=True))

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents, strict=True))

    def quotient_by(self, other: "Monomial") -> "Monomial":
        """Exact quotient self / other; other must divide self."""
        return Monomial(a - b for a, b in zip(self.exponents, other.exponents, strict=True))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(max(a, b) for a, b in zip(self.exponents, other.exponents, strict=True))

    def is_coprime(self, other: "Monomial") -> bool:
        return all(a == 0 or b == 0 for a, b in zip(self.exponents, other.exponents, strict=True))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self):
        return hash(self.exponents)

    def __repr__(self):
        return "Monomial%r" % (self.exponents,)


class MonomialOrder(Enum):
    LEX = "lex"
    GREVLEX = "grevlex"

    def key(self, m: Monomial):
        """Sort key; larger key means larger monomial."""
        if self is MonomialOrder.LEX:
            return m.exponents
        # grevlex: compare total degree, then the rightmost nonzero entry
        # of the difference must be negative for the larger monomial.
        return (m.degree, tuple(-e for e in reversed(m.exponents)))

    def greater(self, a: Monomial, b: Monomial) -> bool:
        return self.key(a) > self.key(b)


def monomials_of_degree(arity: int, degree: int) -> Iterator[Monomial]:
    """All monomials in `arity` variables of total degree `degree`."""
    if arity == 0:
        if degree == 0:
            yield Monomial(())
        return
    for cut in itertools.combinations(range(degree + arity - 1), arity - 1):
        prev = -1
        exps = []
        for c in cut:
            exps.append(c - prev - 1)
            prev = c
        exps.append(degree + arity - 2 - prev)
        yield Monomial(exps)


def power(one, base, exponent: int, times=operator.mul):
    """base ** exponent by repeated squaring from `one`, for any
    associative product `times`: about log2(exponent) products, not
    exponent."""
    if exponent < 0:
        raise ValueError("negative exponent")
    result = one
    while exponent:
        if exponent & 1:
            result = times(result, base)
        exponent >>= 1
        if exponent:
            base = times(base, base)
    return result


class Polynomial:
    """A polynomial with terms sorted descending in the active order.

    Immutable.  Operations require both operands to share arity, field
    and order.
    """

    __slots__ = ("arity", "field", "order", "terms")

    def __init__(self, arity, field, order, terms, _sorted=False):
        """`terms` is an iterable of (Monomial, coefficient) pairs."""
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "order", order)
        if not _sorted:
            terms = tuple(terms)
            for mono, _coeff in terms:
                if mono.arity != arity:
                    raise ValueError("arity mismatch: %d-variable term in %d-variable polynomial"
                                     % (mono.arity, arity))
            terms = sorted(vec_add_terms({}, terms).items(), key=lambda t: order.key(t[0]),
                           reverse=True)
        object.__setattr__(self, "terms", tuple(terms))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, arity, field, order) -> "Polynomial":
        return cls(arity, field, order, (), _sorted=True)

    @classmethod
    def constant(cls, arity, field, order, value) -> "Polynomial":
        c = field.of(value) if isinstance(value, int) else value
        if not c:
            return cls.zero(arity, field, order)
        return cls(arity, field, order, ((Monomial((0,) * arity), c),), _sorted=True)

    @classmethod
    def variable(cls, arity, field, order, index) -> "Polynomial":
        exps = [0] * arity
        exps[index] = 1
        return cls(arity, field, order, ((Monomial(exps), field.one),), _sorted=True)

    @classmethod
    def from_monomial(cls, arity, field, order, mono, coeff=None) -> "Polynomial":
        c = field.one if coeff is None else coeff
        if not c:
            return cls.zero(arity, field, order)
        return cls(arity, field, order, ((mono, c),), _sorted=True)

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def lead_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    @property
    def lead_coefficient(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def coefficient(self, mono: Monomial):
        for m, c in self.terms:
            if m == mono:
                return c
        return self.field.zero

    def min_term_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no term degrees")
        return min(m.degree for m, _ in self.terms)

    def max_term_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no term degrees")
        return max(m.degree for m, _ in self.terms)

    def is_homogeneous(self) -> bool:
        return len({m.degree for m, _ in self.terms}) <= 1

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_term(self):
        if self.terms and self.terms[-1][0].degree == 0:
            return self.terms[-1][1]
        return self.field.zero

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.arity != other.arity:
            raise ValueError("arity mismatch (%d vs %d)" % (self.arity, other.arity))
        if self.order is not other.order and self.order != other.order:
            raise ValueError("monomial order mismatch (%s vs %s)" % (self.order, other.order))
        if self.field != other.field:
            raise ValueError("coefficient field mismatch")

    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.arity, self.field, self.order, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        # merge of two descending term lists
        key = self.order.key
        out = []
        i = j = 0
        a, b = self.terms, other.terms
        while i < len(a) and j < len(b):
            ma, ca = a[i]
            mb, cb = b[j]
            if ma == mb:
                c = ca + cb
                if c:
                    out.append((ma, c))
                i += 1
                j += 1
            elif key(ma) > key(mb):
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return Polynomial(self.arity, self.field, self.order, out, _sorted=True)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.arity, self.field, self.order,
                          tuple((m, -c) for m, c in self.terms), _sorted=True)

    def __sub__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.arity, self.field, self.order, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.field.of(other)
        if not isinstance(other, Polynomial):
            # scalar from the coefficient field
            if not other:
                return Polynomial.zero(self.arity, self.field, self.order)
            return Polynomial(self.arity, self.field, self.order,
                              tuple((m, c * other) for m, c in self.terms), _sorted=True)
        self._check_compatible(other)
        acc = vec_add_terms({}, ((ma * mb, ca * cb) for ma, ca in self.terms
                                 for mb, cb in other.terms))
        terms = sorted(acc.items(), key=lambda t: self.order.key(t[0]), reverse=True)
        return Polynomial(self.arity, self.field, self.order, terms, _sorted=True)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        return power(Polynomial.constant(self.arity, self.field, self.order, 1), self, exponent)

    def mul_monomial(self, mono: Monomial, coeff=None) -> "Polynomial":
        """Multiply by coeff * mono.

        Both supported orders are multiplicative, so the descending term
        sort survives and no re-sort is needed.
        """
        c = self.field.one if coeff is None else coeff
        if not c:
            return Polynomial.zero(self.arity, self.field, self.order)
        terms = tuple((m * mono, cf * c) for m, cf in self.terms)
        return Polynomial(self.arity, self.field, self.order, terms, _sorted=True)

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.lead_coefficient
        if lc == self.field.one:
            return self
        return self * (self.field.one / lc)

    def with_order(self, order: MonomialOrder) -> "Polynomial":
        if order is self.order:
            return self
        terms = sorted(self.terms, key=lambda t: order.key(t[0]), reverse=True)
        return Polynomial(self.arity, self.field, order, terms, _sorted=True)

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            if other == 0:
                return not self.terms
            other = Polynomial.constant(self.arity, self.field, self.order, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.arity != other.arity or self.field != other.field:
            return False
        return dict(self.terms) == dict(other.terms)

    __hash__ = None

    def __repr__(self):
        from .ringdef import format_polynomial
        names = tuple("x%d" % (i + 1) for i in range(self.arity))
        return "<poly %s>" % format_polynomial(self, names)
