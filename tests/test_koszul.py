from collections import Counter

import pytest

try:
    from hypothesis import given, settings
except ImportError:  # only the reference comparison needs it; it skips
    pass

from koszulkit import corpus
from koszulkit.errors import NotACycleError, PreconditionError
from koszulkit.koszul import (KoszulElement, component_piece, differential_columns,
                              filtered_boundaries, filtered_cycles, full_piece,
                              homology_algebra, homology_h_polynomial,
                              internal_degree_bounds)
from koszulkit.linalg import Subspace
from koszulkit.poly import MonomialOrder
from koszulkit.ringdef import parse_koszul_element

import reference_koszul as reference
from support import RANDOM_RING_FIELDS, artinian_rings

# Nonzero bigraded dimensions of the Koszul homology of each corpus ring.
DIMS = {
    "case66": {(0, 0): 1, (1, 2): 6, (2, 3): 7, (2, 4): 2, (3, 4): 2,
               (3, 5): 3, (4, 6): 1},
    "case54": {(0, 0): 1, (1, 2): 6, (2, 3): 4, (2, 4): 9, (3, 5): 12,
               (4, 6): 4},
    "case55": {(0, 0): 1, (1, 2): 6, (2, 3): 4, (2, 4): 9, (3, 5): 12,
               (4, 6): 4},
    "case71v16": {(0, 0): 1, (1, 2): 7, (2, 3): 8, (2, 4): 5, (3, 4): 2,
                  (3, 5): 8, (4, 6): 3},
    "socle4": {(0, 0): 1, (1, 3): 13, (2, 4): 19, (2, 5): 3, (3, 5): 5,
               (3, 6): 6, (3, 7): 1, (4, 8): 2},
}

H_POLYS = {
    "case66": [1, 6, 9, 5, 1],
    "case54": [1, 6, 13, 12, 4],
    "case55": [1, 6, 13, 12, 4],
    "case71v16": [1, 7, 13, 10, 3],
    "socle4": [1, 13, 22, 12, 2],
}

GENERATOR_COUNTS = {"case66": 15, "case54": 10, "case55": 10,
                    "case71v16": 17, "socle4": 46}


@pytest.mark.parametrize("name", sorted(DIMS))
def test_bigraded_dimensions(name):
    alg = homology_algebra(corpus.get_ring(name))
    got = {key: piece.dim for key, piece in alg.pieces.items() if piece.dim}
    assert got == DIMS[name]


@pytest.mark.parametrize("name", sorted(H_POLYS))
def test_h_polynomials(name):
    assert homology_h_polynomial(corpus.get_ring(name)) == H_POLYS[name]


@pytest.mark.parametrize("name", sorted(GENERATOR_COUNTS))
def test_generator_counts(name):
    gens = homology_algebra(corpus.get_ring(name)).generators()
    assert len(gens) == GENERATOR_COUNTS[name]
    labels = [label for label, _bd, _el in gens]
    assert labels == ["g%d" % (i + 1) for i in range(len(gens))]
    for _label, bd, el in gens:
        assert el.is_cycle()
        assert el.bidegree() == bd


def test_case55_generators_sit_in_linear_strand():
    gens = homology_algebra(corpus.get_ring("case55")).generators()
    by_bidegree = Counter(bd for _l, bd, _e in gens)
    assert by_bidegree == {(1, 2): 6, (2, 3): 4}


def test_differential_and_cycle_basics():
    R = corpus.get_ring("case54")
    t1 = parse_koszul_element("T1", R)
    assert t1.diff() == parse_koszul_element("x", R)
    xt1 = parse_koszul_element("x*T1", R)
    assert xt1.is_cycle()  # x^2 = 0 in R
    yt1 = parse_koszul_element("y*T1", R)
    assert not yt1.is_cycle()


def test_homology_piece_round_trip():
    alg = homology_algebra(corpus.get_ring("case54"))
    piece = alg.pieces[(2, 4)]
    for vec in piece.rep_vectors:
        el = piece.piece.element_of(vec)
        assert piece.piece.vector_of(el) == vec


def test_socle_cycles_span_top_homology():
    R = corpus.get_ring("socle4")
    alg = homology_algebra(R)
    top = alg.pieces[(4, 8)]
    vecs = [top.piece.vector_of(parse_koszul_element(t, R))
            for t in ("c^4*T1*T2*T3*T4", "a*c*d^2*T1*T2*T3*T4")]
    span = top.boundary_space.sum(type(top.boundary_space)(R.field, vecs))
    assert span.dim == top.boundary_space.dim + top.dim


def test_internal_degree_bounds_certify_support():
    R = corpus.get_ring("case66")
    bounds = internal_degree_bounds(R)
    assert len(bounds) == R.n + 1
    for (i, j), d in DIMS["case66"].items():
        assert j <= bounds[i]


def test_filtered_spaces_nest():
    R = corpus.get_ring("socle4")
    for i in (1, 2):
        _piece, deep = filtered_cycles(R, 2, i)
        _piece, shallow = filtered_cycles(R, 1, i)
        outer = Subspace(R.field, shallow)
        for vec in deep:
            assert outer.contains(vec)
        assert outer.contains_subspace(filtered_boundaries(R, 1, i))


def test_ungraded_rings_reject_bigraded_algebra():
    with pytest.raises(PreconditionError):
        homology_algebra(corpus.get_ring("stretched32"))
    assert homology_h_polynomial(corpus.get_ring("stretched32")) == [1, 5, 6, 2]
    assert homology_h_polynomial(corpus.get_ring("stretched22")) == [1, 3, 2]


def test_scalar_and_term_constructors():
    R = corpus.get_ring("case54")
    one = KoszulElement.scalar(R, 1)
    el = parse_koszul_element("z*T1*T3", R)
    assert one * el == el
    assert KoszulElement.zero(R).is_zero()
    built = KoszulElement.term(R, R.variable(2), (0, 2))
    assert built == el


def test_class_of_reads_representative_coordinates():
    R = corpus.get_ring("case54")
    alg = homology_algebra(R)
    one = R.field.one
    checked = 0
    for (i, j), hp in sorted(alg.pieces.items()):
        above = component_piece(R, i + 1, j)
        boundaries = [above.element_of({k: one}).diff() for k in range(above.dim)]
        boundary = next((b for b in boundaries if b.terms), None)
        for k, rep in enumerate(hp.representatives):
            assert alg.class_of(rep) == ((i, j), {k: one})
            if boundary is not None:
                assert alg.class_of(rep + boundary) == ((i, j), {k: one})
                checked += 1
    assert checked
    with pytest.raises(NotACycleError):
        alg.class_of(parse_koszul_element("y*T1", R))


def test_vector_of_rejects_elements_outside_the_piece():
    R = corpus.get_ring("case54")
    piece = homology_algebra(R).pieces[(2, 4)].piece
    # right degree and wrong length, wrong degree and right length, both wrong
    for text in ("y*z*T1", "x*T1*T2", "x*T1"):
        with pytest.raises(ValueError):
            piece.vector_of(parse_koszul_element(text, R))


def _literal(vectors):
    return [list(v.items()) for v in vectors]


def _assert_coordinates_match_reference(ring):
    n = ring.n
    degrees = [None]
    if ring.graded:
        degrees += range(-1, ring.top_degree + 2)
    for d in degrees:
        for i in range(1, n + 2):
            if d is None:
                source, target = full_piece(ring, i), full_piece(ring, i - 1)
            else:
                source, target = component_piece(ring, i, i + d), component_piece(ring, i - 1, i + d)
            below = None if d is None else d + 1
            assert source.dim == len(reference.piece_coords(ring, i, d))
            assert _literal(differential_columns(ring, source, target)) == _literal(
                reference.differential_columns(ring, reference.piece_coords(ring, i, d),
                                               reference.piece_coords(ring, i - 1, below)))
    assert [p.terms for p in ring.socle()] == [p.terms for p in reference.socle(ring)]
    x = [ring.variable(l) for l in range(n)]
    c = ring.field.of(2)
    for gens in ([x[0]], [x[0] + x[n - 1] * c], [x[1] + x[0] * x[n - 1] * c, x[n - 1] * x[n - 1]],
                 x):
        assert _literal(ring.ideal_span(gens).basis_rows()) == _literal(
            reference.ideal_span(ring, gens).basis_rows())
    for t in range(ring.top_degree + 2):
        assert _literal(ring.power_ideal_subspace(t).basis_rows()) == _literal(
            reference.power_ideal_subspace(ring, t).basis_rows())


@pytest.mark.parametrize("name", sorted(RANDOM_RING_FIELDS))
def test_coordinate_layer_matches_reference(name):
    # differential columns, socles and ring subspaces read the ring's x_l
    # tables; the reference builds them from Polynomial products, so values
    # and entry order must agree literally
    pytest.importorskip("hypothesis")
    field, coefficients = RANDOM_RING_FIELDS[name]

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(artinian_rings(field, coefficients, (MonomialOrder.GREVLEX, MonomialOrder.LEX)))
    def check(rings):
        for ring in rings:
            _assert_coordinates_match_reference(ring)

    check()
