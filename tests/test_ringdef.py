import pytest

from koszulkit import corpus
from koszulkit.errors import InputError, ParseError
from koszulkit.fields import QQ
from koszulkit.poly import MonomialOrder
from koszulkit.ringdef import (format_koszul_element, format_polynomial,
                               format_ring_definition, parse_koszul_element,
                               parse_polynomial, parse_ring_definition)


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
