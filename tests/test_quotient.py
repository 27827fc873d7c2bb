import pytest

from koszulkit import corpus
from koszulkit.errors import InputError, NotArtinianError
from koszulkit.fields import QQ
from koszulkit.linalg import Subspace
from koszulkit.quotient import QuotientRing, truncated_ring
from koszulkit.ringdef import parse_polynomial, parse_ring_definition


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
    got = Subspace(R.field, [R.poly_to_vec(p) for p in basis])
    want = Subspace(R.field, [R.poly_to_vec(R.normal_form(p)) for p in claimed])
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
