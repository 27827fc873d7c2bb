import random

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # only the reference comparisons need it; they skip
    pass

from koszulkit import corpus
from koszulkit.conditions import build_stretched_ring
from koszulkit.errors import InputError, NotArtinianError
from koszulkit.fields import QQ
from koszulkit.groebner import artinian_dim, hilbert_numerator
from koszulkit.poly import MonomialOrder, Polynomial, monomials_of_degree
from koszulkit.quotient import QuotientRing, truncated_ring
from koszulkit.ringdef import parse_polynomial, parse_ring_definition

import reference_koszul
import reference_quotient
from reference_resolutions import unit_images
from support import (RANDOM_RING_FIELDS, artinian_rings, basis_rows, random_stretched_spec,
                     span_of, stretched_specs)


def ring_of(text):
    return parse_ring_definition(text).build()


def test_hilbert_functions_of_corpus():
    assert corpus.get_ring("case54").hilbert_coefficients() == [1, 4, 4]
    assert corpus.get_ring("case55").hilbert_coefficients() == [1, 4, 4]
    assert corpus.get_ring("case71v16").hilbert_coefficients() == [1, 4, 3]
    assert corpus.get_ring("socle4").hilbert_coefficients() == [1, 4, 10, 7, 2]


def test_non_artinian_detection():
    R = corpus.get_ring("case66")
    assert not R.is_artinian
    with pytest.raises(NotArtinianError):
        R.require_artinian()
    # graded slices still work without a finite basis
    assert len(R.std_basis(0)) == 1
    assert len(R.std_basis(1)) == 4
    assert len(R.std_basis(2)) == 4


def test_non_artinian_ring_has_no_finite_basis_attributes():
    R = ring_of("field Q\nvars x,y\nideal:\nx^2\n")
    assert not R.is_artinian
    for name in ("dim", "top_degree", "std_monomials"):
        with pytest.raises(NotArtinianError, match=name):
            getattr(R, name)
    with pytest.raises(AttributeError):
        R.no_such_attribute
    assert getattr(R, "no_such_attribute", None) is None
    S = ring_of("field Q\nvars x,y\nideal:\nx^2\ny^2\n")
    assert (S.dim, S.top_degree, len(S.std_monomials)) == (4, 2, 4)


def test_normal_form_properties():
    R = corpus.get_ring("socle4")
    f = parse_polynomial("a*b*d + c^3 + a^2*b", R.var_names, R.field, R.order)
    nf = R.normal_form(f)
    assert R.normal_form(nf) == nf
    # a*b*d reduces to c^3 in the quotient, so f - nf is in the ideal
    assert R.normal_form(f - nf).is_zero()


def test_multiply_reduces():
    R = corpus.get_ring("socle4")
    a = R.variable(0)
    d = R.variable(3)
    prod = R.multiply(a * d, a)
    assert prod.is_zero()  # a^2*d is a relation


def test_vec_round_trip():
    R = corpus.get_ring("case54")
    p = R.normal_form(parse_polynomial("x*y - 2*u^2 + x", R.var_names, R.field,
                                       R.order))
    assert R.vec_to_poly(R.poly_to_vec(p)) == p


def test_power_ideal_dims_socle4():
    R = corpus.get_ring("socle4")
    dims = [R.power_ideal_subspace(t).dim for t in range(6)]
    # m^0 = R, then strictly decreasing to zero
    assert dims == [24, 23, 19, 9, 2, 0]


def test_socle_of_socle4_matches_presentation():
    R = corpus.get_ring("socle4")
    basis = R.socle()
    assert len(basis) == R.socle_dim() == 2
    claimed = [parse_polynomial(t, R.var_names, R.field, R.order)
               for t in ("c^4", "a*c*d^2")]
    got = span_of(R.field, [R.poly_to_vec(p) for p in basis])
    want = span_of(R.field, [R.poly_to_vec(R.normal_form(p)) for p in claimed])
    assert got.contains_subspace(want) and want.contains_subspace(got)


def test_v_invariant():
    assert corpus.get_ring("case54").v_invariant() == 2
    assert corpus.get_ring("socle4").v_invariant() == 3
    assert corpus.get_ring("stretched32").v_invariant() == 2


def test_truncated_ring():
    R = corpus.get_ring("socle4")
    T = truncated_ring(R, 4)
    assert T.hilbert_coefficients() == [1, 4, 10, 7]
    assert T.top_degree == 3
    deeper = truncated_ring(R, 2)
    assert deeper.hilbert_coefficients() == [1, 4]
    with pytest.raises(InputError):
        truncated_ring(R, 0)


def test_ideal_span_dimension():
    R = corpus.get_ring("socle4")
    t4 = R.ideal_span([R.normal_form(parse_polynomial("c^4", R.var_names,
                                                      R.field, R.order))])
    # c^4 spans a one-dimensional ideal: it is a socle element
    assert t4.dim == 1


def test_relations_below_square_rejected():
    with pytest.raises(InputError):
        QuotientRing(QQ, ("x", "y"), [parse_polynomial("x", ("x", "y"))])


def test_stretched_corpus_rings_are_inhomogeneous():
    R = corpus.get_ring("stretched32")
    assert not R.graded
    assert R.is_artinian
    assert R.dim == 6
    # m-adic layers: m^2 = (t^2) has dimension 2, m^3 = (t^3) dimension 1
    assert [R.power_ideal_subspace(t).dim for t in range(5)] == [6, 5, 2, 1, 0]


def test_embedding_dimension():
    assert corpus.get_ring("socle4").embedding_dimension() == 4
    assert corpus.get_ring("stretched22").embedding_dimension() == 2


def _assert_std_basis_matches_reference(ring, top):
    for d in range(top + 1):
        assert ring.std_basis(d) == reference_quotient.std_basis(ring, d), (ring, d)


@pytest.mark.parametrize("name", corpus.names())
def test_std_basis_walk_matches_filter_of_all_monomials(name):
    for order in (MonomialOrder.GREVLEX, MonomialOrder.LEX):
        ring = corpus.get_definition(name).build(order=order)
        _assert_std_basis_matches_reference(ring, ring.top_degree + 1 if ring.is_artinian else 8)


@pytest.mark.parametrize("name", sorted(RANDOM_RING_FIELDS))
def test_std_basis_walk_matches_filter_on_random_rings(name):
    pytest.importorskip("hypothesis")
    field, coefficients = RANDOM_RING_FIELDS[name]

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(artinian_rings(field, coefficients, (MonomialOrder.GREVLEX, MonomialOrder.LEX)))
    def check(rings):
        for ring in rings:  # graded and ungraded
            _assert_std_basis_matches_reference(ring, ring.top_degree + 1)

    check()


@pytest.mark.parametrize("name", sorted(RANDOM_RING_FIELDS))
def test_stretched_powers_match_normal_form_seeds(name):
    # the m-adic layers come from shifting the layer below; the reference
    # seeds the same span with the normal form of every degree-t monomial,
    # so basis rows, entry order included, must agree literally up to
    # m^(h+2), past m^(h+1) = 0
    pytest.importorskip("hypothesis")
    field = RANDOM_RING_FIELDS[name][0]

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32))
    def check(seed):
        spec = random_stretched_spec(random.Random(seed), field)
        ring = build_stretched_ring(spec)
        for t in range(spec.h + 3):
            ref = reference_koszul.power_ideal_subspace(ring, t)
            rows = basis_rows(field, ring.power_ideal_subspace(t))
            assert [list(v.items()) for v in rows] == [list(v.items()) for v in ref.basis_rows()]
            assert [p.terms for p in ring.power_ideal_basis(t)] == [
                ring.vec_to_poly(row).terms for row in ref.reduced_basis_rows()]

    check()


def _literal_terms(p):
    return [(m, c, type(c)) for m, c in p.terms]


@pytest.mark.parametrize("name", sorted(RANDOM_RING_FIELDS))
def test_normal_forms_and_products_match_reference(name):
    # normal_form and multiply build one Polynomial from all their scaled
    # monomial normal forms; the reference merges them one at a time, so
    # terms, their order and the coefficient types must agree
    pytest.importorskip("hypothesis")
    field, coefficients = RANDOM_RING_FIELDS[name]

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(artinian_rings(field, coefficients, (MonomialOrder.GREVLEX, MonomialOrder.LEX)),
           st.randoms(use_true_random=False))
    def check(rings, rnd):
        for ring in rings:
            # every monomial of degree <= 3 may appear, so that several of
            # them reduce onto the same standard monomials
            monos = [m for d in range(4) for m in monomials_of_degree(ring.n, d)]
            polys = []
            for _ in range(4):
                terms = [(m, field.of(rnd.choice(coefficients))) for m in monos]
                p = Polynomial(ring.n, field, ring.order, [(m, c) for m, c in terms if c])
                nf = ring.normal_form(p)
                assert _literal_terms(nf) == _literal_terms(reference_quotient.normal_form(ring, p))
                polys.append(nf)
            for p in polys:
                for q in polys:
                    assert _literal_terms(ring.multiply(p, q)) == _literal_terms(
                        reference_quotient.multiply(ring, p, q))

    check()


def _typed(x):
    """Ints as (type, value) inside nested tuples, lists and dicts."""
    if isinstance(x, dict):
        return [(k, _typed(v)) for k, v in x.items()]
    if isinstance(x, (tuple, list)):
        return [_typed(v) for v in x]
    return type(x), x


def _pieces(ring):
    if ring.graded:
        return list(range(ring.top_degree + 1)) + [ring.whole_piece]
    return [0]


@pytest.mark.parametrize("name", sorted(RANDOM_RING_FIELDS))
def test_int_tables_match_the_field_builders(name):
    # the ring keeps one multiplication table, in ints; the field x_l
    # tables and product rows it replaced give literally the same x_l
    # tables, structure constants and spans: values, types, entry order.
    # Over an ungraded ring column m_i of the products is the chain of
    # shifts that the sweep kept per m_i for a unit generator
    pytest.importorskip("hypothesis")
    field, coefficients = RANDOM_RING_FIELDS[name]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(artinian_rings(field, coefficients, (MonomialOrder.GREVLEX, MonomialOrder.LEX)),
           stretched_specs(field), st.randoms(use_true_random=False))
    def check(rings, spec, rnd):
        for ring in rings + (build_stretched_ring(spec),):
            pieces = _pieces(ring)
            for e in pieces:
                scale = ring.action_scale(e)
                assert scale == reference_quotient.action_scale(ring, e)
                for k in (1, 6):  # the piece's own scale and a multiple of it
                    assert _typed(ring.int_action(e, k * scale)) == _typed(
                        reference_quotient.int_action(ring, e, k * scale))
            for e in pieces:
                for f in pieces:
                    if (e == ring.whole_piece) == (f == ring.whole_piece):
                        assert _typed(ring.int_mul_table(e, f)) == _typed(
                            reference_quotient.int_mul_table(ring, e, f))
            for t in range(ring.top_degree + 2):
                assert _typed(basis_rows(field, ring.power_ideal_subspace(t))) == _typed(
                    reference_quotient.power_ideal_subspace(ring, t).basis_rows())
            gens = [ring.vec_to_poly({k: field.of(rnd.choice(coefficients))
                                      for k in rnd.sample(range(ring.dim), 2)})
                    for _ in range(2)]
            for some in ([g] for g in gens + [ring.variable(ring.n - 1)]):
                assert _typed(basis_rows(field, ring.ideal_span(some))) == _typed(
                    reference_quotient.ideal_span(ring, some).basis_rows())
            if not ring.graded:
                scale = ring.action_scale(0)
                products = ring.product_pairs(0, 0)
                for i in range(ring.dim):
                    assert _typed([row[i] for row in products]) == _typed(
                        unit_images(ring, i, scale))

    check()


def _assert_numerator_matches_enumeration(ring):
    # the dimension budget, dim and top_degree read the Hilbert series of
    # the lead monomials before std_monomials enumerates them; the
    # reference filter, degree by degree until a degree has no standard
    # monomial, gives the dimension and the top degree again
    leads = (lm.exponents for lm in ring.lead_monomials)
    sizes = []
    while size := len(reference_quotient.std_basis(ring, len(sizes))):
        sizes.append(size)
    dim = artinian_dim(hilbert_numerator(leads), ring.n)
    assert (dim, ring.dim, ring.top_degree) == (sum(sizes), sum(sizes), len(sizes) - 1)
    assert len(ring.std_monomials) == ring.dim


def test_numerator_dimension_counts_corpus_standard_monomials():
    for name in corpus.names():
        for order in (MonomialOrder.GREVLEX, MonomialOrder.LEX):
            ring = corpus.get_definition(name).build(order=order)
            if ring.is_artinian:
                _assert_numerator_matches_enumeration(ring)


@pytest.mark.parametrize("name", sorted(RANDOM_RING_FIELDS))
def test_numerator_dimension_counts_random_standard_monomials(name):
    pytest.importorskip("hypothesis")
    field, coefficients = RANDOM_RING_FIELDS[name]

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(artinian_rings(field, coefficients, (MonomialOrder.GREVLEX, MonomialOrder.LEX)))
    def check(rings):
        for ring in rings:  # graded and ungraded
            _assert_numerator_matches_enumeration(ring)

    check()
