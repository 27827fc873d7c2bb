import itertools
import random
from collections import Counter

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # only the reference comparisons need it; they skip
    pass

from koszulkit import conditions, corpus
from koszulkit.conditions import (CycleSet, build_stretched_ring, check_nonlinear_generated_by,
                                  check_P_graded, check_P_local, check_Z_graded,
                                  stretched_F_cycle)
from koszulkit.errors import NotACycleError, PreconditionError
from koszulkit.fields import PrimeField
from koszulkit.koszul import (KoszulElement, component_piece, differential_columns,
                              filtered_boundaries, filtered_cycles, full_piece,
                              homology_algebra, homology_h_polynomial,
                              internal_degree_bounds, product_ints)
from koszulkit.linalg import field_vector, int_vector
from koszulkit.poly import MonomialOrder, Polynomial
from koszulkit.ringdef import format_koszul_element, parse_koszul_element

import reference_koszul as reference
from reference_linalg import vec_combine
from support import (SEED, RANDOM_RING_FIELDS, artinian_rings, basis_rows, random_stretched_spec,
                     span_of, stretched_specs)

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


def _vectors(ring, pairs):
    """Int pairs (V, S) as the field vectors V / S."""
    return [field_vector(ring.field.char, V, S) for V, S in pairs]


def _rows(ring, span):
    """The rows of an int echelon as field vectors with pivot coefficient
    one, ordered by pivot, as `support.basis_rows` gives a subspace's."""
    return [field_vector(ring.field.char, r, r[min(r)]) for r in sorted(span.int_rows(), key=min)]


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
    for vec in _vectors(alg.ring, piece.rep_pairs):
        el = piece.piece.element_of(vec)
        assert piece.piece.vector_of(el) == vec


def test_socle_cycles_span_top_homology():
    R = corpus.get_ring("socle4")
    alg = homology_algebra(R)
    top = alg.pieces[(4, 8)]
    vecs = [top.piece.vector_of(parse_koszul_element(t, R))
            for t in ("c^4*T1*T2*T3*T4", "a*c*d^2*T1*T2*T3*T4")]
    span = reference.boundary_space(R, 4, 8)
    boundaries = span.dim
    for vec in vecs:
        span.extend(vec)
    assert span.dim == boundaries + top.dim


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
        outer = span_of(R.field, _vectors(R, shallow))
        assert outer.contains_subspace(span_of(R.field, _vectors(R, deep)))
        assert outer.contains_subspace(span_of(R.field, _rows(R, filtered_boundaries(R, 1, i))))


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
            assert _literal(_vectors(ring, differential_columns(ring, source, target))) == _literal(
                reference.differential_columns(ring, reference.piece_coords(ring, i, d),
                                               reference.piece_coords(ring, i - 1, below)))
    assert [p.terms for p in ring.socle()] == [p.terms for p in reference.socle(ring)]
    x = [ring.variable(l) for l in range(n)]
    c = ring.field.of(2)
    for gens in ([x[0]], [x[0] + x[n - 1] * c], [x[1] + x[0] * x[n - 1] * c, x[n - 1] * x[n - 1]],
                 x):
        assert _literal(basis_rows(ring.field, ring.ideal_span(gens))) == _literal(
            reference.ideal_span(ring, gens).basis_rows())
    for t in range(ring.top_degree + 2):
        assert _literal(basis_rows(ring.field, ring.power_ideal_subspace(t))) == _literal(
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


def _ring_pieces(ring):
    """The keys of the ring pieces: every degree and the whole ring of a
    graded ring, the single piece of an ungraded one."""
    return list(range(ring.top_degree + 1)) + [ring.whole_piece] if ring.graded else [0]


def _product_piece(ring, e, f):
    return ring.whole_piece if e == ring.whole_piece else e + f


def _koszul_piece(ring, i, e):
    return full_piece(ring, i) if e == ring.whole_piece else component_piece(ring, i, i + e)


def _random_vector(rnd, piece, coefficients):
    of = piece.ring.field.of
    vec = {}
    for k in range(piece.dim):
        c = of(rnd.choice(coefficients))
        if c and rnd.random() < 0.5:
            vec[k] = c
    return vec


@pytest.mark.parametrize("name", sorted(RANDOM_RING_FIELDS))
def test_structure_constants_and_products_match_polynomial_products(name):
    # int_mul_table is built from the x_l tables; each row must be the
    # coordinates of mono_product, and product_ints a multiple of the
    # KoszulElement product
    pytest.importorskip("hypothesis")
    field, coefficients = RANDOM_RING_FIELDS[name]
    of = field.of

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(artinian_rings(field, coefficients, (MonomialOrder.GREVLEX, MonomialOrder.LEX)),
           st.randoms(use_true_random=False))
    def check(rings, rnd):
        for ring in rings:
            keys = _ring_pieces(ring)
            pairs = [(e, f) for e in keys for f in keys
                     if (e == ring.whole_piece) == (f == ring.whole_piece)]
            for e, f in pairs:
                scale, table = ring.int_mul_table(e, f)
                index = ring.piece_index(_product_piece(ring, e, f))
                for a, ma in enumerate(ring.piece(e)):
                    for b, mb in enumerate(ring.piece(f)):
                        row = {k: of(c) / scale for k, c in table[a][b]}
                        assert row == {index[m]: c for m, c in ring.mono_product(ma, mb).terms}
            for _ in range(6):
                e, f = rnd.choice(pairs)
                i, k = rnd.randint(0, ring.n), rnd.randint(0, ring.n)
                left, right = _koszul_piece(ring, i, e), _koszul_piece(ring, k, f)
                target = _koszul_piece(ring, i + k, _product_piece(ring, e, f))
                u = _random_vector(rnd, left, coefficients)
                v = _random_vector(rnd, right, coefficients)
                p = ring.field.char
                w = product_ints(left, int_vector(u, p)[0], right, int_vector(v, p)[0], target)
                ref = target.vector_of(left.element_of(u) * right.element_of(v))
                assert set(w) == set(ref)
                if ref:
                    k0 = next(iter(ref))
                    ratio = ref[k0] / of(w[k0])
                    assert {k: of(c) * ratio for k, c in w.items()} == ref

    check()


def _pieces(report):
    return [(p.key, p.passed, p.source_dim, p.target_rank,
             None if p.witness is None else format_koszul_element(p.witness))
            for p in report.pieces]


def _assert_local_matches_reference(ring, t, r, l):
    assert _pieces(check_P_local(ring, t, r, l)) == _pieces(
        conditions.ConditionReport("", (), reference.check_P_local_pieces(ring, t, r, l)))


def _assert_classes_match_reference(algebra):
    # class coordinates of sum c_k rep_k + a boundary are the c_k, in
    # cycle coordinates and in the full-coordinate reference alike
    ring = algebra.ring
    rnd = random.Random(SEED)
    of = ring.field.of
    for (i, j), hp in algebra.pieces.items():
        assert hp.boundary_span.rank == reference.boundary_space(ring, i, j).dim
        boundaries = _vectors(ring, differential_columns(ring, component_piece(ring, i + 1, j),
                                                         hp.piece))
        for _ in range(3):
            coeffs = {k: of(rnd.randint(-3, 3)) for k in range(hp.dim)}
            mixed = dict(coeffs)
            mixed.update((hp.dim + k, of(rnd.randint(-3, 3))) for k in range(len(boundaries)))
            vec = vec_combine(mixed, _vectors(ring, hp.rep_pairs) + boundaries)
            if not vec:
                continue
            el = hp.piece.element_of(vec)
            bd, got = algebra.class_of(el)
            ref_bd, ref = reference.class_of(algebra, el)
            assert bd == ref_bd == (i, j)
            assert got == ref == {k: c for k, c in coeffs.items() if c}
            assert {k: type(c) for k, c in got.items()} == {k: type(c) for k, c in ref.items()}


def _assert_spans_match_reference(ring, monkeypatch):
    algebra = homology_algebra(ring)
    for hp in algebra.pieces.values():
        assert _vectors(ring, hp.rep_pairs) == reference.representatives(hp)
    _assert_classes_match_reference(algebra)
    gens = algebra.generators()
    assert [(lab, bd, format_koszul_element(el)) for lab, bd, el in gens] == [
        (lab, bd, format_koszul_element(el)) for lab, bd, el in reference.generators(algebra)]
    classes = [el for _lab, _bd, el in gens]
    checks = [lambda: check_nonlinear_generated_by(ring, classes),
              lambda: check_nonlinear_generated_by(ring, classes[:len(classes) // 2])]
    for _lab, bd, el in gens[:3]:
        checks += [lambda t=t, bd=bd, el=el: check_P_graded(ring, t, bd[0], el) for t in (1, 2)]
    if ring.is_artinian:
        Z = CycleSet(ring, tuple((lab, el) for lab, bd, el in gens if bd[1] - bd[0] >= 1)[:4])
        checks += [lambda b=b: check_Z_graded(ring, 1, b, 2, Z) for b in (0, 1)]
    reports = [_pieces(check()) for check in checks]
    with monkeypatch.context() as patched:
        patched.setattr(conditions, "_product_span", reference.product_span)
        patched.setattr(conditions, "_containment", reference.containment)
        assert reports == [_pieces(check()) for check in checks]
    if ring.is_artinian:
        for _lab, bd, el in gens[:3]:
            for t in (1, 2, 3):
                _assert_local_matches_reference(ring, t, bd[0], el)


def _local_cycles(ring):
    """(r, cycle of degree r) on an ungraded ring: socle elements times
    exterior monomials, and a boundary."""
    T = [KoszulElement.generator(ring, l) for l in range(ring.n)]
    socle = [KoszulElement.from_polynomial(ring, s) for s in ring.socle()]
    x0 = KoszulElement.from_polynomial(ring, ring.variable(0))
    return ([(1, s * T[-1]) for s in socle[:2]] + [(2, s * T[0] * T[1]) for s in socle[:1]]
            + [(1, (x0 * T[0] * T[1]).diff())])


@pytest.mark.parametrize("name", sorted(RANDOM_RING_FIELDS))
def test_product_spans_match_reference(name, monkeypatch):
    # generators, representatives and every condition report built from
    # structure constants, one order per pair and early stops must equal
    # the KoszulElement-product code literally, witnesses included
    pytest.importorskip("hypothesis")
    field, coefficients = RANDOM_RING_FIELDS[name]

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(artinian_rings(field, coefficients, (MonomialOrder.GREVLEX, MonomialOrder.LEX)))
    def check(rings):
        ring, twin = rings
        _assert_spans_match_reference(ring, monkeypatch)
        for r, l in _local_cycles(twin):
            for t in (1, 2):
                _assert_local_matches_reference(twin, t, r, l)

    check()


@pytest.mark.parametrize("name", ["case54", "case66", "case71v16", "socle4"])
def test_corpus_product_spans_match_reference(name, monkeypatch):
    # four variables, so squares of classes of degree two can be nonzero
    _assert_spans_match_reference(corpus.get_definition(name).build(), monkeypatch)


def test_stretched_p_local_matches_reference():
    rng = random.Random(SEED)
    for _ in range(6):
        spec = random_stretched_spec(rng)
        ring = build_stretched_ring(spec)
        F = stretched_F_cycle(spec, ring)
        for t in (1, 2, 3):
            _assert_local_matches_reference(ring, t, 1, F)


def _literal_rows(rows):
    return [[(k, c, type(c)) for k, c in row.items()] for row in rows]


def _assert_filtration_matches_reference(ring):
    # one cached differential per (t, i) serves the filtered cycles and
    # boundaries; the reference builds and caches each of them on its
    # own, so bases, entry order and value types must agree literally,
    # on the first read and on a second one
    for t in range(4):
        for i in range(ring.n + 1):
            for _read in range(2):
                piece, cycles = filtered_cycles(ring, t, i)
                ref_piece, ref_cycles = reference.filtered_cycles(ring, t, i)
                assert (piece.hom_degree, piece.dim) == (ref_piece.hom_degree, ref_piece.dim)
                assert _literal_rows(_vectors(ring, cycles)) == _literal_rows(ref_cycles)
                assert _literal_rows(_rows(ring, filtered_boundaries(ring, t, i))) == (
                    _literal_rows(reference.filtered_boundaries(ring, t, i).basis_rows()))
    assert homology_h_polynomial(ring) == reference.homology_h_polynomial(ring)


@pytest.mark.parametrize("name", ["stretched22", "stretched32", "case54", "socle4"])
def test_corpus_filtration_matches_reference(name):
    _assert_filtration_matches_reference(corpus.get_definition(name).build())


@pytest.mark.parametrize("name", sorted(RANDOM_RING_FIELDS))
def test_stretched_filtration_matches_reference(name):
    field = RANDOM_RING_FIELDS[name][0]
    rng = random.Random(SEED)
    for _ in range(4):
        ring = build_stretched_ring(random_stretched_spec(rng, field))
        _assert_filtration_matches_reference(ring)


CYCLE_FIELDS = dict(RANDOM_RING_FIELDS, GF2=(PrimeField(2), [0, 0, 1]))


def _cycles(ring):
    """Cycles of every kind the callers test: over a graded ring the
    algebra generators and every representative, else the cycles of each
    whole K_i (the filtration at t = 0), K_0 included."""
    if ring.graded:
        alg = homology_algebra(ring)
        return [el for _label, _bd, el in alg.generators()] + [
            el for (i, j) in sorted(alg.pieces) for el in alg.representatives(i, j)]
    out = []
    for i in range(ring.n + 1):
        piece, cycles = filtered_cycles(ring, 0, i)
        out += [piece.element_of_ints(V, S) for V, S in cycles]
    return out


def _term(draw, ring):
    """A drawn element c * m * T_s: a standard monomial m, an exterior
    monomial s and a nonzero c."""
    mono = draw(st.sampled_from(ring.std_monomials))
    key = draw(st.sampled_from([s for i in range(ring.n + 1)
                                for s in itertools.combinations(range(ring.n), i)]))
    c = ring.field.of(draw(st.integers(1, 6)))
    p = Polynomial.from_monomial(ring.n, ring.field, ring.order, mono, c)
    return KoszulElement.term(ring, p, key)


@pytest.mark.parametrize("name", sorted(CYCLE_FIELDS))
def test_is_cycle_matches_polynomial_differential(name):
    # the int-table cycle test agrees with d through Polynomial products on
    # cycles, on cycles plus a drawn term (mostly not cycles), on zero and
    # K_0 elements, and on sums of two elements in different bidegrees
    pytest.importorskip("hypothesis")
    field, coefficients = CYCLE_FIELDS[name]
    seen = set()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(artinian_rings(field, coefficients), stretched_specs(field), st.data())
    def check(rings, spec, data):
        stretched = build_stretched_ring(spec)
        for ring in rings + (stretched,):
            cycles = _cycles(ring) + [KoszulElement.zero(ring)]
            if ring is stretched:
                cycles.append(stretched_F_cycle(spec, ring))
            draw = data.draw
            elements = cycles + [el + _term(draw, ring) for el in cycles]
            elements += [draw(st.sampled_from(elements)) + draw(st.sampled_from(elements))
                         for _ in range(4)]
            for el in elements:
                got = el.is_cycle()
                assert got == reference.is_cycle(el), (ring, el)
                seen.add(("graded" if ring.graded else "ungraded", got))
                if el.terms and el.bidegree() is None:
                    seen.add("mixed")
                if el.homological_degree() == 0:
                    seen.add("K_0")

    check()
    assert seen >= {("graded", True), ("graded", False), ("ungraded", True),
                    ("ungraded", False), "mixed", "K_0"}
