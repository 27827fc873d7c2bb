"""End-to-end acceptance checks, one test per shipped guarantee.

Each test re-derives its expected values independently: from the corpus
presentations, hand-checked socle and product identities, and
closed-form series.  Everything is exact arithmetic; all comparisons
are equality.
"""

import random
import time

from koszulkit import corpus
from koszulkit.conditions import (CycleSet, StretchedSpec, build_stretched_ring,
                                  check_nonlinear_generated_by, check_P_graded,
                                  check_P_local, check_trivial_products,
                                  check_Z_graded, stretched_F_cycle)
from koszulkit.fields import QQ
from koszulkit.groebner import buchberger, normal_form
from koszulkit.koszul import homology_algebra, homology_h_polynomial
from koszulkit.poly import MonomialOrder
from koszulkit.quotient import truncated_ring
from koszulkit.resolutions import (betti_numbers_k, betti_table_R_over_Q,
                                   tor_map_vanishes)
from koszulkit.ringdef import (format_koszul_element, parse_koszul_element,
                               parse_polynomial)
from koszulkit.series import (RationalFunctionZ, expand, golod_formula_series,
                              golod_quotient_series, rf_equal)
from koszulkit.tables import emit_betti_table

from support import (GRADED_CORPUS, SEED, assert_dg_identities,
                     assert_euler_identity, assert_gb_permutation_invariant,
                     homology_dims_in_order, random_stretched_spec, span_of)

SOCLE4_LEX_SOURCE = [
    "a^3", "a^2*c", "a^2*d", "a*c^2", "b^3", "b^2*c", "b^2*d", "b*c^2",
    "b*d^2", "c^2*d", "a*b^2 + c*d^2", "a*b*d - c^3", "b*c*d + d^3",
    "b*c^3", "a*d^3 + c^4", "d^4", "c*d^3", "c^5",
]

CASE54_TABLE = ("            0 1  2  3 4\n"
                "     total: 1 6 13 12 4\n"
                "         0: 1 .  .  . .\n"
                "         1: . 6  4  . .\n"
                "         2: . .  9 12 4\n")

SOCLE4_TABLE = ("            0  1  2  3 4\n"
                "     total: 1 13 22 12 2\n"
                "         0: 1  .  .  . .\n"
                "         1: .  .  .  . .\n"
                "         2: . 13 19  5 .\n"
                "         3: .  .  3  6 .\n"
                "         4: .  .  .  1 2\n")

FIVE_CYCLES = ("x*T1", "z*T3", "z*T1", "z*T1*T3", "x*T1*T3")


def koszul(ring, text):
    return parse_koszul_element(text, ring)


def test_criterion_01_socle4_lex_groebner_basis():
    """An 18-element lex generating list, one redundancy accounted for.

    The source list contains b*c^3, whose lead is divisible by the lead
    of b*c^2 from the same list; no monomial order admits both in a
    reduced basis.  The computed reduced basis is the other 17 elements
    exactly, and all 18 listed polynomials lie in the ideal.
    """
    names = ("a", "b", "c", "d")
    lex = MonomialOrder.LEX
    source = [parse_polynomial(t, names, QQ, lex) for t in SOCLE4_LEX_SOURCE]
    redundant = parse_polynomial("b*c^3", names, QQ, lex)
    smaller = parse_polynomial("b*c^2", names, QQ, lex)
    assert smaller.lead_monomial.divides(redundant.lead_monomial)

    start = time.perf_counter()
    ring = corpus.get_definition("socle4").build(order=lex)
    basis = ring.groebner_basis
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0

    canon = lambda ps: sorted(repr(p) for p in ps)
    expected = [p for p in source if repr(p) != repr(redundant)]
    assert len(source) == 18 and len(expected) == 17
    assert canon(basis) == canon(expected)
    for p in source:
        assert normal_form(p, list(basis)).is_zero()


def test_criterion_02_socle4_socle():
    ring = corpus.get_ring("socle4")
    assert ring.socle_dim() == 2
    got = span_of(ring.field, [ring.poly_to_vec(p) for p in ring.socle()])
    names = ring.var_names
    want = span_of(ring.field, [
        ring.poly_to_vec(ring.normal_form(parse_polynomial("c^4", names, QQ,
                                                           ring.order))),
        ring.poly_to_vec(ring.normal_form(parse_polynomial("a*c*d^2", names,
                                                           QQ, ring.order))),
    ])
    assert got.dim == 2 == want.dim
    assert got.contains_subspace(want) and want.contains_subspace(got)


def test_criterion_03_betti_tables_both_routes():
    for name, block in (("case54", CASE54_TABLE), ("socle4", SOCLE4_TABLE)):
        ring = corpus.get_ring(name)
        for via in ("homology", "resolution"):
            table = betti_table_R_over_Q(ring, via=via)
            assert emit_betti_table(table) == block


def test_criterion_04_case66_koszul_conclusion(betti_k):
    ring = corpus.get_ring("case66")
    el = koszul(ring, "z*T1+(y+u)*T2+(z+u)*T3+u*T4")
    assert el.is_cycle()
    assert check_nonlinear_generated_by(ring, [el]).verdict
    assert betti_k("case66", 6).is_linear()


def test_criterion_05_case54_z_condition(betti_k):
    ring = corpus.get_ring("case54")
    Z = CycleSet.of(ring, [koszul(ring, s) for s in FIVE_CYCLES])
    assert check_trivial_products(Z).verdict
    assert check_Z_graded(ring, 1, 1, 2, Z).verdict
    assert betti_k("case54", 6).is_linear()
    linear = [el for _lab, bd, el in homology_algebra(ring).generators()
              if bd == (1, 2)]
    assert len(linear) == 6
    for g in linear:
        assert not check_P_graded(ring, 2, 1, g).verdict


def test_criterion_06_case55_negative_control(betti_k):
    ring = corpus.get_ring("case55")
    gens = homology_algebra(ring).generators()
    counts = {}
    for _lab, bd, _el in gens:
        counts[bd] = counts.get(bd, 0) + 1
    assert counts == {(1, 2): 6, (2, 3): 4}
    assert check_nonlinear_generated_by(ring, [el for _l, _b, el in gens]).verdict
    assert not betti_k("case55", 7).is_linear()


def test_criterion_07_71v16_square_obstruction():
    ring = corpus.get_ring("case71v16")
    assert ring.top_degree == 2  # m^3 = 0
    algebra = homology_algebra(ring)
    gens = algebra.generators()
    squares = []
    for label, (i, j), el in gens:
        if j - i != 1 or i % 2:
            continue
        w = el * el
        if w.is_zero():
            continue
        if (2 * i, 2 * j) not in algebra.pieces:
            continue
        if algebra.class_of(w)[1]:  # [w] has a nonzero coordinate
            squares.append(label)
    assert squares  # some linear-strand class of even degree with [g]^2 != 0
    everything = [el for _l, _b, el in gens]
    assert check_nonlinear_generated_by(ring, everything).verdict
    for label in squares:
        rest = [el for l, _b, el in gens if l != label]
        assert not check_nonlinear_generated_by(ring, rest).verdict


def test_criterion_08_socle4_products_and_z224():
    ring = corpus.get_ring("socle4")
    k1 = koszul(ring, "(a*c-b*d)*T1 + c^2*T3")
    k2 = koszul(ring, "c^2*T1*T2*T4")
    k3 = koszul(ring, "(b*c+d^2)*T2*T3*T4 - b^2*T1*T2*T4")
    k4 = koszul(ring, "c^2*T1*T4")
    assert k1 * k2 == koszul(ring, "c^4*T1*T2*T3*T4")
    assert k1 * k3 == koszul(ring, "a*c*d^2*T1*T2*T3*T4")
    assert k1 * k4 == koszul(ring, "-c^4*T1*T3*T4")

    assert ring.v_invariant() == 3
    assert ring.top_degree == 4  # m^5 = 0
    report = check_Z_graded(ring, 2, 2, 4, CycleSet.of(ring, [k1]))
    checks = dict(report.hypothesis_checks)
    assert checks["v(R) >= t+1 >= 2"] and checks["m^(s+1) = 0"]
    assert report.verdict


def test_criterion_09_golod_series_formula(betti_k):
    ring = corpus.get_ring("socle4")
    top_rank = ring.power_ideal_subspace(4).dim
    assert top_rank == 2
    h = homology_h_polynomial(truncated_ring(ring, 4))
    series = golod_formula_series(ring.n, top_rank, h)
    closed = RationalFunctionZ.make((1, 3, 3, 1), (1, -1, -12, -10, -1, 2))
    assert rf_equal(series, closed)
    assert expand(series, 5) == betti_k("socle4", 5).betti_numbers()


def test_criterion_10_stretched_rings():
    spec = StretchedSpec(3, 2, 3, a=((1,),))
    ring = build_stretched_ring(spec)
    t2 = ring.normal_form(parse_polynomial("t^2", ring.var_names, QQ, ring.order))
    principal = ring.ideal_span([t2])
    square = ring.power_ideal_subspace(2)
    assert square.dim == principal.dim and square.contains_subspace(principal)
    assert ring.socle_dim() == 2
    assert ring.dim == 6
    F = stretched_F_cycle(spec, ring)
    assert F.is_cycle()
    assert format_koszul_element(F, ring.var_names) == "t^2*T1 - z1*T2"
    assert check_P_local(ring, 2, 1, F).verdict
    eq51 = RationalFunctionZ.make((1,), (1, -3, 1))
    assert betti_numbers_k(ring, 4).betti_numbers() == expand(eq51, 4) == \
        [1, 3, 8, 21, 55]

    flat = build_stretched_ring(StretchedSpec(2, 2, 3))
    golod = RationalFunctionZ.make((1,), (1, -2))
    assert betti_numbers_k(flat, 4).betti_numbers() == expand(golod, 4) == \
        [1, 2, 4, 8, 16]
    own = golod_quotient_series(flat.n, homology_h_polynomial(flat))
    assert rf_equal(own, golod)

    rng = random.Random(SEED)
    for _ in range(20):
        rspec = random_stretched_spec(rng)
        rring = build_stretched_ring(rspec)
        rF = stretched_F_cycle(rspec, rring)
        assert check_P_local(rring, 2, 1, rF).verdict, rspec


def test_criterion_11_tor_map_vanishing():
    assert tor_map_vanishes(corpus.get_ring("case66"), 2, 1, 4).vanishes
    assert tor_map_vanishes(corpus.get_ring("socle4"), 4, 2, 3).vanishes
    s22 = corpus.get_ring("stretched22")
    for t in (1, 2, 3):
        assert s22.power_ideal_subspace(t).dim > 0
        assert not tor_map_vanishes(s22, t, t, 2).vanishes
    assert not tor_map_vanishes(corpus.get_ring("socle4"), 4, 4, 2).vanishes


def test_criterion_12_property_suite():
    for name in corpus.names():
        assert_dg_identities(random.Random("%d:acc:%s" % (SEED, name)),
                             corpus.get_ring(name), rounds=2)
    for name in GRADED_CORPUS:
        assert_euler_identity(corpus.get_ring(name))
    rng = random.Random(SEED)
    assert_gb_permutation_invariant(rng, "case54")
    assert_gb_permutation_invariant(rng, "socle4")
    for name in ("case54", "case66"):
        assert homology_dims_in_order(name, MonomialOrder.LEX) == \
            homology_dims_in_order(name, MonomialOrder.GREVLEX)
