"""Reference expression evaluation for ring relations, for tests only.

`parse_polynomial` is `koszulkit.ringdef.parse_polynomial` as it was
before it evaluated to a term dict: every leaf is a `Polynomial` and the
operators of `Polynomial` do the rest, so every sum is a merge of two
sorted term lists and every product is sorted on its own.
`tests/test_ringdef.py` checks that the term-dict evaluator returns
literally the same terms, in the same order, with the same coefficient
types, and raises the same `ParseError`s.
"""

from __future__ import annotations

import operator
from typing import Sequence

from koszulkit.fields import QQ
from koszulkit.poly import MonomialOrder, Polynomial
from koszulkit.ringdef import _ExprParser, _unknown_variable

_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def _evaluate(node, leaf):
    kind = node[0]
    if kind in ("num", "var"):
        return leaf(node)
    if kind == "neg":
        return -_evaluate(node[1], leaf)
    if kind == "pow":
        return _evaluate(node[1], leaf) ** node[2]
    return _BINARY[kind](_evaluate(node[1], leaf), _evaluate(node[2], leaf))


def parse_polynomial(text: str, var_names: Sequence[str], field=QQ,
                     order: MonomialOrder = MonomialOrder.GREVLEX,
                     line_no: int = 1) -> Polynomial:
    node = _ExprParser(text, line_no).parse()
    name_index = {name: i for i, name in enumerate(var_names)}
    arity = len(var_names)

    def leaf(nd) -> Polynomial:
        if nd[0] == "num":
            return Polynomial.constant(arity, field, order, nd[1])
        idx = name_index.get(nd[1])
        if idx is None:
            raise _unknown_variable(nd, line_no)
        return Polynomial.variable(arity, field, order, idx)

    return _evaluate(node, leaf)
