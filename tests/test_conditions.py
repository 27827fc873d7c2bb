import gc
import weakref

import pytest

from koszulkit import corpus
from koszulkit.conditions import (CycleSet, StretchedSpec, build_stretched_ring,
                                  check_nonlinear_generated_by, check_P_graded,
                                  check_P_local, check_trivial_products,
                                  check_Z_graded, lofwall_golod_test,
                                  stretched_F_cycle)
from koszulkit.errors import (InputError, NotACycleError, NotArtinianError,
                              PreconditionError)
from koszulkit.fields import QQ
from koszulkit.koszul import homology_algebra
from koszulkit.poly import MonomialOrder
from koszulkit.quotient import QuotientRing, truncated_ring
from koszulkit.ringdef import (definition_of_ring, format_koszul_element,
                               format_ring_definition, parse_koszul_element,
                               parse_polynomial)

FIVE_CYCLES = ("x*T1", "z*T3", "z*T1", "z*T1*T3", "x*T1*T3")


def cycles(ring, *specs):
    return CycleSet.of(ring, [parse_koszul_element(s, ring) for s in specs])


def test_cycle_set_validation():
    ring = corpus.get_ring("case54")
    ok = cycles(ring, "x*T1", "z*T3")
    assert [label for label, _el in ok] == ["z1", "z2"]
    with pytest.raises(NotACycleError):
        cycles(ring, "y*T1")
    with pytest.raises(InputError):
        CycleSet(ring, (("a", parse_koszul_element("x*T1", ring)),
                        ("a", parse_koszul_element("z*T3", ring))))
    other = corpus.get_ring("socle4")
    with pytest.raises(InputError):
        CycleSet(ring, (("a", parse_koszul_element("c^2*T1", other)),))


def test_trivial_products_positive():
    ring = corpus.get_ring("case54")
    report = check_trivial_products(cycles(ring, *FIVE_CYCLES))
    assert report.verdict
    assert len(report.pieces) == 25
    assert report.name == "trivial-products"


def test_trivial_products_negative_with_witness():
    ring = corpus.get_ring("case54")
    report = check_trivial_products(cycles(ring, "x*T1", "y*T2"))
    assert not report.verdict
    bad = {p.key: p for p in report.failing_pieces()}
    assert set(bad) == {"z1*z2", "z2*z1"}
    w = bad["z1*z2"].witness
    assert not w.is_zero()
    assert format_koszul_element(w, ring.var_names) == "x*y*T1*T2"


def test_z_condition_case54():
    ring = corpus.get_ring("case54")
    report = check_Z_graded(ring, 1, 1, 2, cycles(ring, *FIVE_CYCLES))
    assert report.verdict
    assert report.hypotheses_met
    strand_keys = [p.key for p in report.pieces if isinstance(p.key, tuple)]
    assert strand_keys == [(2, 4), (3, 5), (4, 6)]


def test_z_condition_unmet_hypothesis():
    # socle4 has m^3 != 0, so s = 2 puts the first hypothesis out of reach
    ring = corpus.get_ring("socle4")
    report = check_Z_graded(ring, 1, 1, 2, cycles(ring, "c^2*T1*T4"))
    assert not report.hypotheses_met
    assert dict(report.hypothesis_checks)["m^(s+1) = 0"] is False
    assert not report.verdict


def test_z_condition_cycle_strand_too_low():
    ring = corpus.get_ring("socle4")
    with pytest.raises(PreconditionError):
        check_Z_graded(ring, 3, 3, 4, cycles(ring, "c^2*T1*T4"))


def test_z_condition_wrong_ring():
    ring = corpus.get_ring("socle4")
    foreign = cycles(corpus.get_ring("case54"), "x*T1")
    with pytest.raises(InputError):
        check_Z_graded(ring, 1, 1, 2, foreign)


def test_p_graded_fails_for_every_linear_class():
    ring = corpus.get_ring("case54")
    algebra = homology_algebra(ring)
    linear = [el for _label, bd, el in algebra.generators() if bd == (1, 2)]
    assert len(linear) == 6
    for g in linear:
        report = check_P_graded(ring, 2, 1, g)
        assert not report.verdict
        assert report.failing_pieces()


def test_p_graded_ignores_boundary_perturbation():
    ring = corpus.get_ring("case66")
    l = parse_koszul_element("z*T1+(y+u)*T2+(z+u)*T3+u*T4", ring)
    base = check_P_graded(ring, 2, 1, l)
    moved = check_P_graded(ring, 2, 1,
                           l + parse_koszul_element("T1*T2", ring).diff())
    assert base.verdict and moved.verdict
    assert [(p.key, p.passed) for p in base.pieces] == \
        [(p.key, p.passed) for p in moved.pieces]


def test_p_graded_degree_mismatch():
    ring = corpus.get_ring("case54")
    with pytest.raises(InputError):
        check_P_graded(ring, 2, 2, parse_koszul_element("x*T1", ring))


def test_p_local_stretched():
    spec = StretchedSpec(3, 2, 3, a=((1,),))
    ring = build_stretched_ring(spec)
    F = stretched_F_cycle(spec, ring)
    assert format_koszul_element(F, ring.var_names) == "t^2*T1 - z1*T2"
    assert check_P_local(ring, 2, 1, F).verdict
    shallow = check_P_local(ring, 1, 1, F)
    assert not shallow.verdict
    assert [(p.key, p.passed) for p in shallow.pieces] == \
        [(0, True), (1, False), (2, False), (3, False)]


def test_stretched_ring_is_freed_without_the_cycle_collector():
    # the m-adic filtration cache holds int bases only: a cached `Piece`
    # points back to its ring, which only the cyclic collector then frees
    spec = StretchedSpec(3, 2, 3, a=((1,),))
    enabled = gc.isenabled()
    gc.disable()
    try:
        ring = build_stretched_ring(spec)
        assert check_P_local(ring, 2, 1, stretched_F_cycle(spec, ring)).verdict
        alive = weakref.ref(ring)
        del ring
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def test_p_local_input_errors():
    spec = StretchedSpec(3, 2, 3, a=((1,),))
    ring = build_stretched_ring(spec)
    F = stretched_F_cycle(spec, ring)
    with pytest.raises(InputError):
        check_P_local(ring, 0, 1, F)
    with pytest.raises(InputError):
        check_P_local(ring, 2, 2, F)
    with pytest.raises(NotACycleError):
        check_P_local(ring, 2, 1, parse_koszul_element("T1", ring))
    with pytest.raises(NotArtinianError):
        check_P_local(corpus.get_ring("case66"), 2, 1,
                      parse_koszul_element("z*T1", corpus.get_ring("case66")))


def test_nonlinear_generation_preconditions():
    with pytest.raises(PreconditionError):
        check_nonlinear_generated_by(corpus.get_ring("stretched32"), [])
    ring = corpus.get_ring("case54")
    with pytest.raises(NotACycleError):
        check_nonlinear_generated_by(ring, [parse_koszul_element("T1", ring)])
    mixed = parse_koszul_element("x*T1", ring) + \
        parse_koszul_element("x*y*T1*T2", ring)
    assert mixed.is_cycle() and mixed.bidegree() is None
    with pytest.raises(InputError):
        check_nonlinear_generated_by(ring, [mixed])
    # neither a cycle nor bihomogeneous: the cycle test comes first
    broken = mixed + parse_koszul_element("T1", ring)
    assert not broken.is_cycle() and broken.bidegree() is None
    with pytest.raises(NotACycleError):
        check_nonlinear_generated_by(ring, [broken])


def test_lofwall_bound():
    trunc = truncated_ring(corpus.get_ring("socle4"), 4)
    assert lofwall_golod_test(trunc, 2)
    assert not lofwall_golod_test(corpus.get_ring("case54"), 2)
    one = QuotientRing(QQ, ("x",), [parse_polynomial("x^2", ("x",))],
                       MonomialOrder("grevlex"))
    assert lofwall_golod_test(one, 1)
    with pytest.raises(InputError):
        lofwall_golod_test(one, 0)


def test_stretched_spec_validation():
    with pytest.raises(InputError):
        StretchedSpec(3, 2, 2)
    with pytest.raises(InputError):
        StretchedSpec(3, 4, 3)
    with pytest.raises(InputError):
        StretchedSpec(3, 3, 3, a=((1,),))
    with pytest.raises(InputError):
        StretchedSpec(3, 1, 3, a=((1,),))
    with pytest.raises(InputError):
        StretchedSpec(3, 1, 3, a=((1, 2), (3, 4)))
    with pytest.raises(InputError):
        StretchedSpec(3, 1, 3, a=((1, 1), (1, 1)))
    spec = StretchedSpec(4, 2, 3)
    assert spec.p == 2 and spec.q == 1
    assert spec.a == ((1, 0), (0, 1))
    assert spec.support_pairs() == ([(1, 1), (2, 2)], [(1, 2)])
    assert spec.var_names() == ("t", "z1", "z2", "w1")


def test_build_matches_corpus_definitions():
    for name, spec in [("stretched32", StretchedSpec(3, 2, 3, a=((1,),))),
                       ("stretched22", StretchedSpec(2, 2, 3))]:
        built = format_ring_definition(definition_of_ring(build_stretched_ring(spec)))
        stored = format_ring_definition(corpus.get_definition(name))
        assert built == stored


def test_build_degenerate_and_wide():
    line = build_stretched_ring(StretchedSpec(1, 1, 4))
    assert line.dim == 5 and line.socle_dim() == 1
    wide = build_stretched_ring(StretchedSpec(4, 2, 3))
    assert wide.dim == 7
    assert wide.embedding_dimension() == 4
    assert wide.socle_dim() == 2


def test_f_cycle_coefficient_errors():
    flat = StretchedSpec(2, 2, 3)
    ring22 = build_stretched_ring(flat)
    with pytest.raises(PreconditionError):
        stretched_F_cycle(flat, ring22)
    spec = StretchedSpec(4, 2, 3)
    ring = build_stretched_ring(spec)
    with pytest.raises(InputError):
        stretched_F_cycle(StretchedSpec(4, 2, 3, eta={(1, 2): 1}), ring)
    with pytest.raises(InputError):
        stretched_F_cycle(StretchedSpec(4, 2, 3, theta={(1, 1): 1}), ring)
    with pytest.raises(PreconditionError):
        stretched_F_cycle(StretchedSpec(4, 2, 3, eta={}), ring)
