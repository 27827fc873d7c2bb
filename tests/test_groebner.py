import random
from operator import le

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # only the reference comparison needs it; it skips
    pass

from koszulkit import corpus, groebner
from koszulkit.conditions import build_stretched_ring
from koszulkit.errors import BudgetError
from koszulkit.fields import PrimeField, QQ
from koszulkit.groebner import buchberger, hilbert_function, hilbert_numerator, normal_form
from koszulkit.poly import Monomial, MonomialOrder, Polynomial, monomials_of_degree
from koszulkit.ringdef import format_polynomial, parse_polynomial

import reference_groebner as ref
from support import RANDOM_RING_FIELDS, artinian_rings, bench_workloads, stretched_specs

LEX = MonomialOrder.LEX
GRL = MonomialOrder.GREVLEX


def polys(texts, names, order):
    return [parse_polynomial(t, names, QQ, order) for t in texts]


def _quadric_ideal(rng, field, n, count, power, coeff, order):
    """`count` random quadrics, each drawing `coeff(rng)` for every
    monomial of degree 2, plus every monomial of degree `power`: the ring
    shapes of the benchmark's homology and resolve workloads."""
    quads = list(monomials_of_degree(n, 2))
    gens = []
    while len(gens) < count:
        g = Polynomial(n, field, order, [(m, field.of(c)) for m in quads
                                         if (c := coeff(rng))])
        if g:
            gens.append(g)
    return gens + [Polynomial.from_monomial(n, field, order, m)
                   for m in monomials_of_degree(n, power)]


def _small(rng):
    return rng.randint(-3, 3)


def _residue(rng):
    return rng.randint(1, 32002)


def _bench_ideal(order):
    """Five quadrics plus m^3 in five variables over Q."""
    return _quadric_ideal(random.Random(5), QQ, 5, 5, 3, _small, order)


def test_two_generator_elimination():
    names = ("x", "y")
    basis = buchberger(polys(["x^2 - y^2", "x^2 + y^2"], names, GRL), GRL)
    assert sorted(format_polynomial(g, names) for g in basis) == ["x^2", "y^2"]


def test_basis_is_reduced_and_sorted():
    names = ("x", "y", "z")
    gens = polys(["x*y - z^2", "y^2 - z^2", "x*z - y*z"], names, GRL)
    basis = buchberger(gens, GRL)
    leads = [g.lead_monomial for g in basis]
    # ascending in the order, monic, no lead divides another
    for a, b in zip(leads, leads[1:]):
        assert GRL.greater(b, a)
    for g in basis:
        assert g.lead_coefficient == QQ.one
        for other in basis:
            if other is g:
                continue
            assert not other.lead_monomial.divides(g.lead_monomial)
            for mono, _c in g.terms[1:]:
                assert not other.lead_monomial.divides(mono)


def test_normal_form_is_idempotent_and_linear():
    names = ("x", "y")
    basis = buchberger(polys(["x^2 - y", "y^2 - 1"], names, LEX), LEX)
    f = parse_polynomial("x^4 + x^2*y + y^3", names, QQ, LEX)
    g = parse_polynomial("x^3", names, QQ, LEX)
    nf = lambda p: normal_form(p, basis)
    assert nf(nf(f)) == nf(f)
    assert nf(f + g) == nf(f) + nf(g)
    assert nf(f * g) == nf(nf(f) * nf(g))


def test_ideal_membership_via_normal_form():
    names = ("x", "y")
    basis = buchberger(polys(["x^2 - y", "y^2 - 1"], names, LEX), LEX)
    # x^4 - 1 = (x^2+y)(x^2-y) + (y^2-1)
    member = parse_polynomial("x^4 - 1", names, QQ, LEX)
    assert normal_form(member, basis).is_zero()
    assert not normal_form(parse_polynomial("x^4", names, QQ, LEX), basis).is_zero()


def test_socle4_lex_basis_matches_sympy_oracle():
    """Reduced lex basis of the socle-degree-4 ideal, checked against sympy."""
    names = ("a", "b", "c", "d")
    rels = ["a^3", "a^2*c", "a^2*d", "a*c^2", "b^3", "b^2*c", "b^2*d", "b*c^2",
            "b*d^2", "c^2*d", "a*b^2 + c*d^2", "a*b*d - c^3", "b*c*d + d^3"]
    basis = buchberger(polys(rels, names, LEX), LEX)
    got = sorted(format_polynomial(g, names) for g in basis)
    expected = sorted([
        "a^3", "a^2*c", "a^2*d", "a*c^2", "b^3", "b^2*c", "b^2*d", "b*c^2",
        "b*d^2", "c^2*d", "a*b^2 + c*d^2", "a*b*d - c^3", "b*c*d + d^3",
        "a*d^3 + c^4", "d^4", "c*d^3", "c^5",
    ])
    assert got == expected


def test_entry_budget_raises_budget_error(monkeypatch):
    """The basis x*y, x^2 + y^2, y^3 takes two matrices of three entries:
    the generators, then the multiples of their pair, whose lcm is x^2*y,
    y*(x^2 + y^2) and x*(x*y).  The budget counts the nonzero entries of
    every matrix of the run."""
    names = ("x", "y")
    gens = polys(["x^2 + y^2", "x*y"], names, GRL)
    monkeypatch.setattr(groebner, "ENTRY_BUDGET", 6)
    assert [format_polynomial(g, names) for g in buchberger(gens, GRL)] == \
        ["x*y", "x^2 + y^2", "y^3"]
    monkeypatch.setattr(groebner, "ENTRY_BUDGET", 5)
    with pytest.raises(BudgetError, match="budget of 5 matrix entries"):
        buchberger(gens, GRL)


@pytest.mark.parametrize("order", [LEX, GRL], ids=["lex", "grevlex"])
def test_hilbert_cutoff_waits_for_the_next_degree(order):
    """After degree 2 the leads x^2, y^2, z^2 leave only x*y*z in degree
    3 and nothing in degree 4; the generator of degree 3 must still join."""
    names = ("x", "y", "z")
    gens = polys(["x^2", "y^2", "z^2", "x*y*z - y^3"], names, order)
    assert sorted(format_polynomial(g, names) for g in buchberger(gens, order)) == \
        ["x*y*z", "x^2", "y^2", "z^2"]


# -- the pair criteria against the reference Buchberger ------------------

FIELDS = {"Q": QQ, "GF(32003)": PrimeField(32003), "GF(2)": PrimeField(2)}


def _literal(basis):
    """Each element as its order and terms, every coefficient with its type."""
    return [(g.order, [(m.exponents, type(c), c) for m, c in g.terms]) for g in basis]


def _ideals(field):
    """Generator lists in 2-4 variables: homogeneous or not, with monomials,
    zero polynomials and duplicates mixed in, plus an order and probes.
    Some lists also get every monomial of degree 2 or 3, so that the leads
    fill a degree and the Hilbert cutoff drops pairs.

    Inhomogeneous lex ideals stay in 2-3 variables: in 4 their bases grow
    large enough to take seconds per example.
    """

    @st.composite
    def build(draw):
        homogeneous = draw(st.booleans())
        order = draw(st.sampled_from([LEX, GRL]))
        n = draw(st.integers(2, 4 if homogeneous or order is GRL else 3))
        coeff = st.integers(-4, 4).filter(bool).map(field.of)

        def term(degree):
            exps = [0] * n
            for i in draw(st.lists(st.integers(0, n - 1), min_size=degree,
                                   max_size=degree)):
                exps[i] += 1
            return Monomial(exps), draw(coeff)

        def poly():
            kind = draw(st.sampled_from(["dense", "dense", "monomial", "zero"]))
            if kind == "zero":
                return Polynomial.zero(n, field, order)
            size = 1 if kind == "monomial" else draw(st.integers(2, 4))
            degree = draw(st.integers(1, 3))
            degrees = [degree if homogeneous else draw(st.integers(1, 3))
                       for _ in range(size)]
            return Polynomial(n, field, order, [term(d) for d in degrees])

        gens = draw(st.lists(st.builds(poly), min_size=1, max_size=4))
        if draw(st.booleans()):
            gens.append(gens[draw(st.integers(0, len(gens) - 1))])
        probes = draw(st.lists(st.builds(poly), max_size=3))
        if draw(st.booleans()):
            gens += [Polynomial.from_monomial(n, field, order, m)
                     for m in monomials_of_degree(n, draw(st.integers(2, 3)))]
        return gens, order, probes

    return build()


@pytest.mark.parametrize("name", FIELDS)
def test_criteria_match_reference_buchberger(name):
    pytest.importorskip("hypothesis")
    field = FIELDS[name]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_ideals(field))
    def check(case):
        gens, order, probes = case
        got, want = buchberger(gens, order), ref.buchberger(gens, order)
        assert _literal(got) == _literal(want)
        for p in probes + [a * b for a, b in zip(gens, gens[1:])]:
            assert _literal([normal_form(p, got)]) == _literal([ref.normal_form(p, want)])

    check()


def test_criterion_b_keeps_pairs_sharing_the_new_lcm():
    """Criterion B must keep (i, j) when lcm(i, j) = lcm(i, h) or lcm(j, h);
    without that exception this basis loses y*z^2 + ... and z^4."""
    names = ("x", "y", "z")
    gens = polys(["x^2 - 3*x*y", "2*x - 3*y - 2*z", "x^3 + y^2*z"], names, GRL)
    got = buchberger(gens, GRL)
    assert _literal(got) == _literal(ref.buchberger(gens, GRL))
    assert [format_polynomial(g, names) for g in got] == \
        ["x - 3/2*y - z", "y^2 - 4/9*z^2", "y*z^2 + 20/27*z^3", "z^4"]


def _pair_degrees(monkeypatch):
    """The degree of every critical-pair multiple that `buchberger` puts
    into a matrix, in the order it does."""
    degrees = []
    original = groebner._preprocess

    def recording(multiples, rows, reducers):
        degrees.extend(sum(u) + sum(row[0][0]) for u, row in multiples)
        return original(multiples, rows, reducers)

    monkeypatch.setattr(groebner, "_preprocess", recording)
    return degrees


@pytest.mark.parametrize("order", [LEX, GRL], ids=["lex", "grevlex"])
def test_criteria_skip_s_pair_reductions(monkeypatch, order):
    """Five random quadrics plus m^3 in five variables over Q.  After
    degree 3 the leads hold every monomial of degree 4, so the Hilbert
    cutoff ends the engine: no pair above degree 3 goes into a matrix.
    q + x_1^3 in place of a quadric q generates the same ideal, but the
    input is no longer homogeneous, so the cutoff does not apply and
    pairs above degree 3 are still processed."""
    gens = _bench_ideal(order)
    want = ref.buchberger_pairs(gens, order)
    degrees = _pair_degrees(monkeypatch)
    assert _literal(buchberger(gens, order)) == _literal(want)
    assert degrees and max(degrees) == 3
    degrees.clear()
    cube = Polynomial.from_monomial(5, QQ, order, Monomial((3, 0, 0, 0, 0)))
    assert _literal(buchberger([gens[0] + cube] + gens[1:], order)) == _literal(want)
    assert max(degrees) > 3


# -- the Hilbert function of the leads against counted standard monomials

def _assert_hilbert_counts(ring, top):
    numerator = hilbert_numerator(lm.exponents for lm in ring.lead_monomials)
    for d in range(top + 1):
        assert hilbert_function(numerator, ring.n, d) == len(ring.std_basis(d)), d


@pytest.mark.parametrize("name", corpus.names())
def test_hilbert_function_counts_corpus_standard_monomials(name):
    ring = corpus.get_ring(name)
    _assert_hilbert_counts(ring, ring.top_degree + 2 if ring.is_artinian else 8)


@pytest.mark.parametrize("name", sorted(RANDOM_RING_FIELDS))
def test_hilbert_function_counts_random_ring_standard_monomials(name):
    pytest.importorskip("hypothesis")
    field, coefficients = RANDOM_RING_FIELDS[name]

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(artinian_rings(field, coefficients, (GRL, LEX)))
    def check(rings):
        for ring in rings:
            _assert_hilbert_counts(ring, ring.top_degree + 2)

    check()


def test_hilbert_function_counts_random_monomial_ideals():
    pytest.importorskip("hypothesis")

    @st.composite
    def ideals(draw):
        n = draw(st.integers(1, 5))
        exponents = st.lists(st.integers(0, 4), min_size=n, max_size=n).map(tuple)
        return n, draw(st.lists(exponents, max_size=8))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ideals())
    def check(case):
        n, gens = case
        numerator = hilbert_numerator(gens)
        for d in range(11):
            count = sum(1 for m in monomials_of_degree(n, d)
                        if not any(all(map(le, g, m.exponents)) for g in gens))
            assert hilbert_function(numerator, n, d) == count, d

    check()


# -- the engine against the reference pair loop ----------------------------

ORDERS = {"lex": LEX, "grevlex": GRL}


def _assert_matches_pair_loop(gens, order):
    want = ref.buchberger_pairs(gens, order)
    got = buchberger(gens, order)
    assert _literal(got) == _literal(want)


BENCH_SHAPES = {  # field, variables, quadrics, power of m, coefficient draw
    "Q_n5_q5_m3": (QQ, 5, 5, 3, _small),
    "Q_n4_q5_m4": (QQ, 4, 5, 4, _small),
    "GF32003_n4_q6_m3": (PrimeField(32003), 4, 6, 3, _residue),
    "GF32003_n4_q9_m3": (PrimeField(32003), 4, 9, 3, _residue),
}


@pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS)
@pytest.mark.parametrize("name", corpus.names())
def test_degree_phase_matches_pair_loop_on_corpus(name, order):
    defn = corpus.get_definition(name)
    _assert_matches_pair_loop([r.with_order(order) for r in defn.relations], order)


@pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS)
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("shape", BENCH_SHAPES)
def test_degree_phase_matches_pair_loop_on_bench_shapes(shape, seed, order):
    rng = random.Random("%s:%d" % (shape, seed))
    _assert_matches_pair_loop(_quadric_ideal(rng, *BENCH_SHAPES[shape], order), order)


@pytest.mark.parametrize("name", sorted(RANDOM_RING_FIELDS))
def test_degree_phase_matches_pair_loop_on_random_rings(name):
    pytest.importorskip("hypothesis")
    field, coefficients = RANDOM_RING_FIELDS[name]

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(artinian_rings(field, coefficients, (GRL, LEX)))
    def check(rings):
        for ring in rings:
            want = ref.buchberger_pairs(list(ring.relations), ring.order)
            assert _literal(ring.groebner_basis) == _literal(want)

    check()


# -- inhomogeneous input: the stretched rings against the pair loop -------

def _assert_stretched_matches_pair_loop(spec, order):
    ring = build_stretched_ring(spec, order)
    want = ref.buchberger_pairs(list(ring.relations), order)
    assert _literal(ring.groebner_basis) == _literal(want)


@pytest.mark.parametrize("name", ["Q", "GF(32003)"])
def test_stretched_rings_match_pair_loop(name):
    pytest.importorskip("hypothesis")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(stretched_specs(FIELDS[name]), st.sampled_from([GRL, LEX]))
    def check(spec, order):
        _assert_stretched_matches_pair_loop(spec, order)

    check()


@pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_local_bench_rings_match_pair_loop(seed, order):
    for task in bench_workloads().make_tasks("local", seed):
        _assert_stretched_matches_pair_loop(task.data["spec"], order)
