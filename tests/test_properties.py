import random

import pytest

try:
    from hypothesis import assume, event, given, settings, strategies as st
except ImportError:  # only the oracle over random rings needs it; it skips
    pass

from koszulkit import corpus
from koszulkit.ringdef import parse_ring_definition
from koszulkit.conditions import build_stretched_ring, lofwall_golod_test
from koszulkit.koszul import homology_algebra, homology_h_polynomial
from koszulkit.poly import Monomial, MonomialOrder, Polynomial, monomials_of_degree
from koszulkit.quotient import QuotientRing
from koszulkit.resolutions import ModulePresentation, betti_numbers_k, minimal_resolution
from koszulkit.series import (RationalFunctionZ, expand, golod_formula_series,
                              golod_quotient_series, rf_equal, stretched_series)

from support import (GRADED_CORPUS, RANDOM_RING_FIELDS, SEED, SWEEP_FIELDS,
                     artinian_rings, assert_dg_identities, assert_euler_identity,
                     assert_gb_permutation_invariant, bench_workloads,
                     homology_dims_in_order, stretched_specs)


hilbert_betti_identity = bench_workloads().hilbert_betti_identity


def seeded(tag):
    return random.Random("%d:%s" % (SEED, tag))


@pytest.mark.parametrize("name", corpus.names())
def test_dg_identities(name):
    assert_dg_identities(seeded(name), corpus.get_ring(name))


@pytest.mark.parametrize("name", GRADED_CORPUS)
def test_euler_identity(name):
    assert_euler_identity(corpus.get_ring(name))


@pytest.mark.parametrize("name", ["case54", "case71v16", "socle4"])
def test_groebner_basis_ignores_generator_order(name):
    assert_gb_permutation_invariant(seeded("gb:" + name), name)


@pytest.mark.parametrize("name", ["case54", "case66"])
def test_homology_dims_match_across_orders(name):
    lex = homology_dims_in_order(name, MonomialOrder("lex"))
    grevlex = homology_dims_in_order(name, MonomialOrder("grevlex"))
    assert lex == grevlex


def random_rf(rng):
    num = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
    # constant term 1 keeps the fraction inside the integer-coefficient domain
    den = [rng.choice((1, -1))] + [rng.randint(-3, 3)
                                   for _ in range(rng.randint(0, 3))]
    return RationalFunctionZ.make(num, den)


def test_rational_function_ring_identities():
    rng = seeded("rf")
    for _ in range(25):
        a, b, c = (random_rf(rng) for _ in range(3))
        assert rf_equal((a * b) * c, a * (b * c))
        assert rf_equal(a * (b + c), a * b + a * c)
        d = a + b
        assert d.num == (b + a).num and d.den == (b + a).den


def test_series_coefficients_stay_nonnegative():
    for v in range(1, 5):
        for r in range(1, v + 1):
            assert all(x >= 0 for x in expand(stretched_series(v, r), 12))
    golod = golod_formula_series(4, 2, [1, 15, 30, 23, 7])
    coeffs = expand(golod, 10)
    assert all(x > 0 for x in coeffs)
    assert coeffs == sorted(coeffs)


@pytest.mark.parametrize("name", sorted(RANDOM_RING_FIELDS))
def test_homology_engines_agree_and_serre_bound_holds(name):
    # the ungraded twin's h-polynomial comes from the filtered slices and
    # the ring's from HomologyAlgebra, two int paths that check each other.
    # Serre's inequality bounds the Betti numbers of k by the series
    # (1+z)^n / (1 - sum h_i z^(i+1)), with equality for a Golod ring
    # (Avramov, "Infinite free resolutions", 1998); m^2 = 0 is Golod
    pytest.importorskip("hypothesis")
    field, coefficients = RANDOM_RING_FIELDS[name]

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(artinian_rings(field, coefficients, (MonomialOrder.GREVLEX, MonomialOrder.LEX)))
    def check(rings):
        ring = rings[0]
        betti, bound = _betti_and_serre_bound(*rings)
        assert len(betti) == len(bound) and all(b <= c for b, c in zip(betti, bound))
        if lofwall_golod_test(ring, 1):
            assert betti == bound

    check()


@pytest.mark.parametrize("name", sorted(RANDOM_RING_FIELDS))
def test_golod_rings_meet_the_serre_bound(name):
    # random cubics plus every quartic monomial in 3 variables: I lies in
    # m^3 and contains m^4, so Lofwall's test holds with t = 2, the ring is
    # Golod, and Serre's bound is met on every draw
    pytest.importorskip("hypothesis")
    field, coefficients = RANDOM_RING_FIELDS[name]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(artinian_rings(field, coefficients, (MonomialOrder.GREVLEX, MonomialOrder.LEX),
                          degree=3, variables=(3, 3)))
    def check(rings):
        assert lofwall_golod_test(rings[0], 2)
        betti, bound = _betti_and_serre_bound(*rings)
        assert betti == bound

    check()


def _betti_and_serre_bound(ring, twin):
    """The Betti numbers of k up to degree 5 and Serre's bound from the
    homology, after checking that the twin's homology is the ring's."""
    h = homology_h_polynomial(ring)
    assert homology_h_polynomial(twin) == h
    betti = betti_numbers_k(ring, 5).betti_numbers()
    return betti, expand(golod_quotient_series(ring.n, h), 5)


def _recursion_start(betti: list, den: tuple) -> int:
    """The least index s from which sum_k den[k] b_(i-k) = 0 for every
    i = s..len(betti) - 1, with s >= deg den."""
    s = len(betti)
    while s > len(den) - 1 and not sum(c * betti[s - 1 - k] for k, c in enumerate(den)):
        s -= 1
    return s


@pytest.mark.parametrize("name", sorted(RANDOM_RING_FIELDS))
def test_cyclic_modules_share_the_stretched_denominator(name):
    # the paper's theorem on random input: over a stretched ring every
    # finitely generated module M has P_M(z) with the denominator of
    # P_k(z) (`series.stretched_series`), so the Betti numbers of R/(f),
    # f in m, satisfy its recursion from some index on, recorded as an
    # event; the recursion must have started by limit - 2.  These are
    # ungraded resolutions, so their last step is counted, not built
    pytest.importorskip("hypothesis")
    field, coefficients = RANDOM_RING_FIELDS[name]
    limit = 6

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(stretched_specs(field), st.data())
    def check(spec, data):
        ring = build_stretched_ring(spec)
        basis = ring.piece(0)[1:]  # the standard monomials in m
        chosen = data.draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3,
                                    unique=True))
        f = Polynomial(ring.n, field, ring.order,
                       [(m, field.of(data.draw(st.sampled_from(coefficients))))
                        for m in chosen])
        f = ring.normal_form(f)
        assume(f.terms)
        pres = ModulePresentation.cyclic_quotient(ring, [f])
        betti = minimal_resolution(ring, pres, limit).betti_numbers()
        den = stretched_series(spec.v, spec.r).den
        start = _recursion_start(betti, den)
        event("recursion from b_%d" % start)
        assert start <= limit - 2, (spec, f, betti)

    check()


@pytest.mark.parametrize("name", sorted(RANDOM_RING_FIELDS))
def test_two_generator_modules_share_the_stretched_denominator(name):
    # the theorem of the test above on modules with two generators: the
    # cokernel of 1-3 random columns in m R^2, whose resolutions split
    # into components as soon as a step's images miss a common block
    pytest.importorskip("hypothesis")
    field, coefficients = RANDOM_RING_FIELDS[name]
    limit = 6

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(stretched_specs(field), st.data())
    def check(spec, data):
        ring = build_stretched_ring(spec)
        basis = ring.piece(0)[1:]  # the standard monomials in m

        def entry():
            chosen = data.draw(st.lists(st.sampled_from(basis), max_size=2, unique=True))
            return ring.normal_form(Polynomial(
                ring.n, field, ring.order,
                [(m, field.of(data.draw(st.sampled_from(coefficients)))) for m in chosen]))

        columns = tuple((entry(), entry()) for _ in range(data.draw(st.integers(1, 3))))
        assume(any(p.terms for column in columns for p in column))
        pres = ModulePresentation(ring, "cokernel", 2, (0, 0), columns)
        betti = minimal_resolution(ring, pres, limit).betti_numbers()
        den = stretched_series(spec.v, spec.r).den
        start = _recursion_start(betti, den)
        event("recursion from b_%d" % start)
        assert start <= limit - 2, (spec, columns, betti)

    check()


@pytest.mark.parametrize("name", sorted(SWEEP_FIELDS))
def test_hilbert_betti_identity_on_random_rings(name):
    # the minimal resolution F of k is exact, so sum_i (-1)^i H_(F_i)(w) =
    # H_k(w) = 1, and H_(F_i)(w) = H_R(w) * sum_j beta_ij w^j; a generator
    # the sweep drops or adds in any bidegree breaks the identity
    pytest.importorskip("hypothesis")
    field, coefficients = SWEEP_FIELDS[name]
    limit = 5

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(artinian_rings(field, coefficients))
    def check(rings):
        ring = rings[0]
        data = betti_numbers_k(ring, limit)
        assert hilbert_betti_identity(ring, data, limit)

    check()


def _quadrics_and_squares(rng, field, coefficients):
    """2-4 variables, 1-3 random quadrics plus every x_i^2: a graded
    artinian ring."""
    n = rng.randint(2, 4)
    order = MonomialOrder.GREVLEX
    monos = list(monomials_of_degree(n, 2))
    rels = []
    for _ in range(rng.randint(1, 3)):
        terms = [(m, field.of(c)) for m in monos if (c := rng.choice(coefficients))]
        rels.append(Polynomial(n, field, order, terms))
    for l in range(n):
        rels.append(Polynomial.from_monomial(
            n, field, order, Monomial(tuple(2 * (k == l) for k in range(n)))))
    return QuotientRing(field, tuple("xyzw"[:n]), rels, order)


@pytest.mark.parametrize("name", sorted(SWEEP_FIELDS))
def test_quadratic_groebner_bases_give_linear_resolutions(name):
    # Froberg (Math. Scand. 1975): a quadratic Groebner basis makes R
    # Koszul, so the resolution of k is linear and P_k(z) H_R(-z) = 1,
    # which for a linear table is the Hilbert-Betti identity
    field, coefficients = SWEEP_FIELDS[name]
    rng = seeded("froberg:" + name)
    limit = 5
    quadratic = 0
    for _ in range(40):
        ring = _quadrics_and_squares(rng, field, coefficients)
        if any(m.degree != 2 for m in ring.lead_monomials):
            continue
        quadratic += 1
        data = betti_numbers_k(ring, limit)
        assert data.is_linear(), ring.relations
        assert hilbert_betti_identity(ring, data, limit)
    assert quadratic >= 20


@pytest.mark.parametrize("name", GRADED_CORPUS)
def test_betti_tables_agree_over_q_and_gf32003(name):
    # the corpus rings have the same Betti table of k, the same bigraded
    # Koszul homology and generators in the same bidegrees over Q and
    # over GF(32003): the two fields run the sweep and the homology on
    # different int paths (fraction-free elimination against residues)
    text = corpus.get_text(name)
    assert "field Q\n" in text
    ring_p = parse_ring_definition(text.replace("field Q\n", "field GF(32003)\n")).build()
    ring_q = corpus.get_ring(name)
    limit = 5
    data = betti_numbers_k(ring_q, limit)
    assert betti_numbers_k(ring_p, limit).bigraded_betti() == data.bigraded_betti()
    assert hilbert_betti_identity(ring_q, data, limit)
    alg_q, alg_p = homology_algebra(ring_q), homology_algebra(ring_p)
    assert alg_p.bigraded_dims() == alg_q.bigraded_dims()
    assert [bd for _l, bd, _e in alg_p.generators()] == [bd for _l, bd, _e in alg_q.generators()]
