"""Parsing and printing of ring definitions and element expressions.

Ring definition files look like::

    field Q
    vars x,y,z,u
    order grevlex
    ideal:
    x*z
    y^2 + z*u

Expressions use explicit ``*`` for every product, ``^`` for powers,
integer literals and declared variable names.  Inside cycle expressions
the reserved identifiers ``T1..Tn`` denote the Koszul exterior
generators, as in ``z*T1 + (y+u)*T2`` or ``c^2*T1*T4``.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .errors import InputError, ParseError
from .fields import PrimeField, QQ, RationalField
from .linalg import vec_add_terms
from .poly import Monomial, MonomialOrder, Polynomial, power
from .quotient import QuotientRing

_TOKEN_RE = re.compile(r"(?P<nat>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
                       r"|(?P<op>[-+*^()])")

_KOSZUL_RE = re.compile(r"^T(\d+)$")


def _tokenize(text: str, line_no: int = 1):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], line_no, pos + 1)
        col = pos + 1
        if m.lastgroup == "nat":
            tokens.append(("nat", int(m.group("nat")), col))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), col))
        else:
            tokens.append(("op", m.group("op"), col))
        pos = m.end()
    tokens.append(("end", None, len(text) + 1))
    return tokens


class _ExprParser:
    """Recursive descent for  expr := ['-'] term (('+'|'-') term)*."""

    def __init__(self, text: str, line_no: int = 1):
        self.tokens = _tokenize(text, line_no)
        self.line_no = line_no
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, col = self.next()
        if kind != "op" or val != op:
            raise ParseError("expected %r" % op, self.line_no, col)

    def parse(self):
        node = self.expr()
        kind, val, col = self.peek()
        if kind != "end":
            raise ParseError("unexpected token %r" % (val,), self.line_no, col)
        return node

    def expr(self):
        kind, val, col = self.peek()
        if kind == "op" and val == "-":
            self.next()
            node = ("neg", self.term())
        else:
            node = self.term()
        while True:
            kind, val, col = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = ("add" if val == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, col = self.peek()
            if kind == "op" and val == "*":
                self.next()
                node = ("mul", node, self.factor())
            else:
                return node

    def factor(self):
        node = self.atom()
        kind, val, col = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, exp, col = self.next()
            if kind != "nat":
                raise ParseError("exponent must be a positive integer", self.line_no, col)
            node = ("pow", node, exp)
        return node

    def atom(self):
        kind, val, col = self.next()
        if kind == "nat":
            return ("num", val)
        if kind == "ident":
            return ("var", val, col)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a number, name or parenthesis", self.line_no, col)


_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def _evaluate(node, leaf):
    """The value of a parsed expression: `leaf` builds the value of each
    ("num", value) and ("var", name, column) node, and the operators of
    those values do the rest."""
    kind = node[0]
    if kind in ("num", "var"):
        return leaf(node)
    if kind == "neg":
        return -_evaluate(node[1], leaf)
    if kind == "pow":
        return _evaluate(node[1], leaf) ** node[2]
    return _BINARY[kind](_evaluate(node[1], leaf), _evaluate(node[2], leaf))


def _unknown_variable(node, line_no):
    return ParseError("unknown variable %r" % node[1], line_no, node[2])


def parse_polynomial(text: str, var_names: Sequence[str], field=QQ,
                     order: MonomialOrder = MonomialOrder.GREVLEX,
                     line_no: int = 1) -> Polynomial:
    """Evaluate the expression to a term dict {exponent tuple:
    coefficient}, zero coefficients dropped, and sort it once into a
    Polynomial: the terms and coefficients that Polynomial arithmetic on
    the leaves would give, since field arithmetic is exact."""
    node = _ExprParser(text, line_no).parse()
    name_index = {name: i for i, name in enumerate(var_names)}
    arity = len(var_names)
    one = {(0,) * arity: field.one}

    def times(a: dict, b: dict) -> dict:
        return vec_add_terms({}, ((tuple(map(operator.add, ea, eb)), ca * cb)
                                  for ea, ca in a.items() for eb, cb in b.items()))

    def value(nd) -> dict:
        kind = nd[0]
        if kind == "num":
            c = field.of(nd[1])
            return {(0,) * arity: c} if c else {}
        if kind == "var":
            idx = name_index.get(nd[1])
            if idx is None:
                raise _unknown_variable(nd, line_no)
            e = [0] * arity
            e[idx] = 1
            return {tuple(e): field.one}
        if kind == "neg":
            return {e: -c for e, c in value(nd[1]).items()}
        if kind == "pow":
            return power(one, value(nd[1]), nd[2], times)
        a, b = value(nd[1]), value(nd[2])
        if kind == "mul":
            return times(a, b)
        return vec_add_terms(dict(a), b.items() if kind == "add"
                             else ((e, -c) for e, c in b.items()))

    terms = sorted(((Monomial(e), c) for e, c in value(node).items()),
                   key=lambda t: order.key(t[0]), reverse=True)
    return Polynomial(arity, field, order, terms, _sorted=True)


def parse_koszul_element(text: str, ring: QuotientRing, line_no: int = 1):
    """Parse an expression with T<i> factors into a Koszul algebra element."""
    from .koszul import KoszulElement

    node = _ExprParser(text, line_no).parse()
    name_index = {name: i for i, name in enumerate(ring.var_names)}

    def leaf(nd) -> KoszulElement:
        if nd[0] == "num":
            return KoszulElement.scalar(ring, nd[1])
        m = _KOSZUL_RE.match(nd[1])
        if m:
            k = int(m.group(1))
            if not 1 <= k <= ring.n:
                raise ParseError("T%d is out of range; the ring has %d variables"
                                 % (k, ring.n), line_no, nd[2])
            return KoszulElement.generator(ring, k - 1)
        idx = name_index.get(nd[1])
        if idx is None:
            raise _unknown_variable(nd, line_no)
        return KoszulElement.from_polynomial(ring, ring.variable(idx))

    return _evaluate(node, leaf)


# -- ring definitions ------------------------------------------------


@dataclass(frozen=True)
class RingDefinition:
    field: object
    var_names: tuple[str, ...]
    order: MonomialOrder
    relations: tuple[Polynomial, ...]
    label: Optional[str] = None

    def build(self, order: Optional[MonomialOrder] = None,
              label: Optional[str] = None) -> QuotientRing:
        order = order or self.order
        return QuotientRing(self.field, self.var_names,
                            [r.with_order(order) for r in self.relations],
                            order=order, label=label or self.label)

    def with_order(self, order: MonomialOrder) -> "RingDefinition":
        return replace(self, order=order,
                       relations=tuple(r.with_order(order) for r in self.relations))


def parse_ring_definition(text: str, label: Optional[str] = None) -> RingDefinition:
    field = None
    var_names = None
    order = None
    relations = []
    in_ideal = False
    header_seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if in_ideal:
            relations.append((line, line_no))
            continue
        head, _, rest = line.partition(" ")
        if head == "ideal:" and not rest:
            in_ideal = True
            continue
        if head in header_seen:
            raise ParseError("duplicate %r line" % head, line_no, 1)
        header_seen.add(head)
        rest = rest.strip()
        if head == "field":
            field = _parse_field(rest, line_no)
        elif head == "vars":
            var_names = tuple(v.strip() for v in rest.split(","))
            if any(not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", v) for v in var_names):
                raise ParseError("bad variable list %r" % rest, line_no, 1)
        elif head == "order":
            if rest == "lex":
                order = MonomialOrder.LEX
            elif rest == "grevlex":
                order = MonomialOrder.GREVLEX
            else:
                raise ParseError("order must be 'lex' or 'grevlex', got %r" % rest,
                                 line_no, 1)
        else:
            raise ParseError("expected 'field', 'vars', 'order' or 'ideal:'", line_no, 1)
    if var_names is None:
        raise InputError("ring definition is missing a 'vars' line")
    if not in_ideal:
        raise InputError("ring definition is missing the 'ideal:' section")
    field = field if field is not None else QQ
    order = order if order is not None else MonomialOrder.GREVLEX
    polys = tuple(parse_polynomial(src, var_names, field, order, line_no)
                  for src, line_no in relations)
    return RingDefinition(field, var_names, order, polys, label=label)


def _parse_field(spec: str, line_no: int):
    if spec == "Q":
        return QQ
    m = re.fullmatch(r"GF\((\d+)\)", spec)
    if m:
        return PrimeField(int(m.group(1)))
    raise ParseError("field must be 'Q' or 'GF(p)', got %r" % spec, line_no, 1)


# -- formatting ------------------------------------------------------


def _is_negative(coeff) -> bool:
    try:
        return coeff < 0
    except TypeError:
        return False


def _format_term(coeff_abs, mono: Monomial, names: Sequence[str]) -> str:
    parts = []
    one = coeff_abs == 1
    if not one or mono.degree == 0:
        parts.append(str(coeff_abs))
    for name, exp in zip(names, mono.exponents):
        if exp == 1:
            parts.append(name)
        elif exp > 1:
            parts.append("%s^%d" % (name, exp))
    return "*".join(parts)


def format_polynomial(p: Polynomial, names: Optional[Sequence[str]] = None) -> str:
    if names is None:
        names = tuple("x%d" % (i + 1) for i in range(p.arity))
    if not p.terms:
        return "0"
    chunks = []
    for i, (mono, coeff) in enumerate(p.terms):
        neg = _is_negative(coeff)
        mag = -coeff if neg else coeff
        body = _format_term(mag, mono, names)
        if i == 0:
            chunks.append("-" + body if neg else body)
        else:
            chunks.append((" - " if neg else " + ") + body)
    return "".join(chunks)


def format_field(field) -> str:
    if isinstance(field, RationalField):
        return "Q"
    return "GF(%d)" % field.p


def format_ring_definition(defn: RingDefinition) -> str:
    lines = ["field %s" % format_field(defn.field),
             "vars %s" % ",".join(defn.var_names),
             "order %s" % defn.order.value,
             "ideal:"]
    lines.extend(format_polynomial(r, defn.var_names) for r in defn.relations)
    return "\n".join(lines) + "\n"


def definition_of_ring(ring: QuotientRing) -> RingDefinition:
    return RingDefinition(ring.field, ring.var_names, ring.order,
                          tuple(ring.relations), label=ring.label)


def format_koszul_element(el, names: Optional[Sequence[str]] = None) -> str:
    """Canonical text for a Koszul algebra element.

    Terms are listed by exterior monomial, ascending in (length, indices);
    multi-term coefficients are parenthesized so output reparses exactly.
    """
    ring = el.ring
    if names is None:
        names = ring.var_names
    if not el.terms:
        return "0"
    chunks = []
    for key in sorted(el.terms, key=lambda s: (len(s), s)):
        poly = el.terms[key]
        ext = "*".join("T%d" % (i + 1) for i in key)
        body = format_polynomial(poly, names)
        neg = False
        if len(poly.terms) > 1:
            body = "(%s)" % body
        else:
            if body.startswith("-"):
                neg = True
                body = body[1:]
        if key:
            if body == "1":
                body = ext
            else:
                body = body + "*" + ext
        if not chunks:
            chunks.append("-" + body if neg else body)
        else:
            chunks.append((" - " if neg else " + ") + body)
    return "".join(chunks)
