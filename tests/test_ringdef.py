import pytest

from koszulkit import corpus
from koszulkit.errors import InputError, ParseError
from koszulkit.fields import PrimeField, QQ
from koszulkit.poly import MonomialOrder
from koszulkit.ringdef import (format_koszul_element, format_polynomial,
                               format_ring_definition, parse_koszul_element,
                               parse_polynomial, parse_ring_definition)

import reference_ringdef

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # only the reference comparison needs it; it skips
    pass


def test_case66_definition_shape():
    defn = corpus.get_definition("case66")
    assert defn.var_names == ("x", "y", "z", "u")
    assert len(defn.relations) == 6
    assert defn.order is MonomialOrder.GREVLEX


def test_polynomial_round_trip():
    names = ("x", "y")
    for text in ("x^2 + x*y", "-x + 2*y^2", "x*y - 1", "3"):
        p = parse_polynomial(text, names)
        assert parse_polynomial(format_polynomial(p, names), names) == p


def test_format_is_canonical():
    names = ("x", "y")
    a = parse_polynomial("x*y + x^2", names)
    b = parse_polynomial("x^2 + x*y", names)
    assert format_polynomial(a, names) == format_polynomial(b, names)


def test_definition_print_parse_fixed_point():
    for name in corpus.names():
        printed = format_ring_definition(corpus.get_definition(name))
        assert format_ring_definition(parse_ring_definition(printed)) == printed


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^2 +* y", ("x", "y"))
    assert err.value.line == 1 and err.value.column == 6
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + w", ("x", "y"))
    assert err.value.column == 5


def test_ring_definition_errors():
    with pytest.raises(InputError):
        parse_ring_definition("field GF(4)\nvars x\nideal:\nx^2\n")
    with pytest.raises(InputError):
        parse_ring_definition("field Q\nvars x\n")  # no ideal section
    with pytest.raises(ParseError):
        parse_ring_definition("field Q\nvars x\norder weird\nideal:\nx^2\n")
    with pytest.raises(ParseError):
        parse_ring_definition("field Q\nfield Q\nvars x\nideal:\nx^2\n")


def test_exponent_must_be_positive_integer():
    with pytest.raises(ParseError):
        parse_polynomial("x^y", ("x", "y"))


def test_koszul_element_parsing():
    R = corpus.get_ring("case54")
    el = parse_koszul_element("z*T1*T3", R)
    assert el.bidegree() == (2, 3)
    both = parse_koszul_element("z*T1 + (y+u)*T2", R)
    assert both.homological_degree() == 1
    assert both.bidegree() == (1, 2)


def test_koszul_exterior_relations():
    R = corpus.get_ring("case54")
    t1 = parse_koszul_element("T1", R)
    t2 = parse_koszul_element("T2", R)
    assert (t1 * t1).is_zero()
    assert t1 * t2 == -(t2 * t1)


def test_koszul_powers_are_repeated_products():
    R = corpus.get_ring("case54")
    assert parse_koszul_element("T1^2", R).is_zero()
    for base in ("x*T1 + y*T2", "x + y*T1*T2", "z - 2*u*T3"):
        square = parse_koszul_element("(%s)^2" % base, R)
        assert square == parse_koszul_element("(%s)*(%s)" % (base, base), R)
    assert parse_koszul_element("(x*T1)^0", R) == parse_koszul_element("1", R)


def test_koszul_index_out_of_range():
    R = corpus.get_ring("case54")
    with pytest.raises(ParseError):
        parse_koszul_element("x*T9", R)


def test_koszul_element_round_trip():
    R = corpus.get_ring("socle4")
    for text in ("(a*c-b*d)*T1 + c^2*T3", "c^2*T1*T2*T4",
                 "(b*c + d^2)*T2*T3*T4 - b^2*T1*T2*T4", "-c^4*T1*T3*T4"):
        el = parse_koszul_element(text, R)
        assert parse_koszul_element(format_koszul_element(el), R) == el


PARSE_FIELDS = {"Q": QQ, "GF32003": PrimeField(32003), "GF2": PrimeField(2)}
PARSE_NAMES = ("x", "y", "z")


def _expressions():
    """Hypothesis strategy: expression texts over x, y, z, valid or not:
    sums, differences and products, powers of names and of parenthesized
    groups, unary minus where the grammar allows it and where it does
    not, large literals, an unknown name, and stray characters."""
    leaf = st.one_of(st.integers(0, 7).map(str),
                     st.sampled_from(["32003", "32005", "100000000000000000003"]),
                     st.sampled_from(PARSE_NAMES + ("w",)))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from([" + ", "-", " - ", "*"]), inner).map("".join),
            st.tuples(inner, st.integers(0, 3)).map(lambda t: "%s^%d" % t),
            st.tuples(inner, st.integers(0, 3)).map(lambda t: "(%s)^%d" % t),
            inner.map("(%s)".format),
            inner.map("-{}".format))

    @st.composite
    def build(draw):
        text = draw(st.recursive(leaf, extend, max_leaves=7))
        if draw(st.integers(0, 5)) == 0:
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(list("+*^()$ "))) + text[at:]
        return text

    return build()


def _parsed(parse, text, field, order):
    try:
        p = parse(text, PARSE_NAMES, field, order, line_no=3)
    except ParseError as err:
        return ("ParseError", str(err), err.line, err.column)
    return (p.arity, p.field, p.order, [(m.exponents, type(c), c) for m, c in p.terms])


@pytest.mark.parametrize("name", sorted(PARSE_FIELDS))
def test_term_dict_parse_matches_the_polynomial_evaluator(name):
    # terms, their order and coefficient types, or the ParseError with
    # its line and column, as the evaluator on Polynomial leaves gives
    pytest.importorskip("hypothesis")
    field = PARSE_FIELDS[name]
    seen = set()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_expressions(), st.sampled_from([MonomialOrder.GREVLEX, MonomialOrder.LEX]))
    def check(text, order):
        got = _parsed(parse_polynomial, text, field, order)
        assert got == _parsed(reference_ringdef.parse_polynomial, text, field, order), text
        seen.update(k for k in ("^", "-", "(") if k in text)
        seen.add("error" if got[0] == "ParseError" else "zero" if not got[3] else "poly")

    check()
    assert seen == {"^", "-", "(", "error", "zero", "poly"}
