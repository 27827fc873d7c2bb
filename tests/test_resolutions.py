import pytest

from koszulkit import corpus
from koszulkit.errors import InputError, PreconditionError
from koszulkit.fields import QQ
from koszulkit.poly import MonomialOrder
from koszulkit.quotient import QuotientRing
from koszulkit.resolutions import (ModulePresentation, betti_numbers_k,
                                   betti_table_R_over_Q, minimal_resolution,
                                   tor_map_vanishes)
from koszulkit.ringdef import format_polynomial, parse_polynomial
from koszulkit.series import poly_mul

from support import GRADED_CORPUS

BETTI_K = {
    # ring name -> (limit, betti numbers of k, resolution is linear)
    "case54": (6, [1, 4, 12, 32, 80, 192, 448], True),
    "case66": (6, [1, 4, 12, 35, 101, 291, 838], True),
    "case55": (7, [1, 4, 12, 32, 80, 193, 459, 1091], False),
    "socle4": (5, [1, 4, 19, 78, 347, 1475], None),
    "stretched32": (4, [1, 3, 8, 21, 55], None),
    "stretched22": (4, [1, 2, 4, 8, 16], None),
}


@pytest.mark.parametrize("name", sorted(BETTI_K))
def test_betti_numbers_of_k(name, betti_k):
    limit, numbers, linear = BETTI_K[name]
    data = betti_k(name, limit)
    assert data.betti_numbers() == numbers
    if linear is not None:
        assert data.is_linear() is linear


def test_linearity_breaks_in_degree_five(betti_k):
    data = betti_k("case55", 7)
    bigraded = data.bigraded_betti()
    off_strand = {k: v for k, v in bigraded.items() if k[1] != k[0]}
    assert off_strand == {(5, 6): 1, (6, 7): 10, (7, 8): 57}


def test_one_variable_hypersurface():
    ring = QuotientRing(QQ, ("x",), [parse_polynomial("x^2", ("x",))],
                        MonomialOrder("grevlex"))
    data = minimal_resolution(ring, ModulePresentation.residue_field(ring), 5)
    assert data.betti_numbers() == [1, 1, 1, 1, 1, 1]
    assert data.is_linear()
    assert data.bigraded_betti() == {(i, i): 1 for i in range(6)}
    # the differential is multiplication by x throughout
    col = data.differential(2)[0]
    assert list(col) == [0]
    assert format_polynomial(col[0], ring.var_names) == "x"


def test_resolution_accessors(betti_k):
    data = betti_k("case54", 6)
    assert data.module(0).rank == 1
    assert data.module(1).rank == 4
    assert len(data.differential(1)) == 4
    for _i, log in data.exactness_log:
        for _j, saturated, new, total in log:
            assert total == saturated + new


@pytest.mark.parametrize("name", GRADED_CORPUS)
def test_betti_over_poly_routes_agree(name):
    ring = corpus.get_ring(name)
    assert betti_table_R_over_Q(ring, via="homology") == \
        betti_table_R_over_Q(ring, via="resolution")


@pytest.mark.parametrize("name", ["case54", "case55", "socle4"])
def test_betti_over_poly_euler_identity(name):
    # (1-z)^n * H_R(z) equals the alternating sum of the strands.
    ring = corpus.get_ring(name)
    table = betti_table_R_over_Q(ring)
    jmax = max(j for _i, j in table.entries)
    signed = [0] * (jmax + 1)
    for (i, j), b in table.entries.items():
        signed[j] += b if i % 2 == 0 else -b
    lhs = tuple(ring.hilbert_coefficients())
    for _ in range(ring.n):
        lhs = poly_mul(lhs, (1, -1))
    assert list(lhs) + [0] * (len(signed) - len(lhs)) == signed


def test_ungraded_resolution_has_no_bigrading(betti_k):
    data = betti_k("stretched32", 4)
    assert not data.graded
    with pytest.raises(PreconditionError):
        data.bigraded_betti()
    with pytest.raises(PreconditionError):
        data.is_linear()


@pytest.mark.parametrize("name", ["case54", "case55", "socle4", "case71v16"])
def test_graded_and_ungraded_engines_agree(name):
    # r0 + r1*x_n generates the same ideal with the same reduced Groebner
    # basis, but is not homogeneous, so the twin resolves as one piece
    ring = corpus.get_ring(name)
    r0, r1 = ring.relations[:2]
    twin = QuotientRing(ring.field, ring.var_names,
                        (r0 + r1 * ring.variable(ring.n - 1),) + ring.relations[1:],
                        ring.order)
    assert ring.graded and not twin.graded
    assert twin.groebner_basis == ring.groebner_basis
    assert betti_numbers_k(twin, 5).betti_numbers() == \
        betti_numbers_k(ring, 5).betti_numbers()
    # witnesses name basis vectors, which the two gradings choose differently
    assert tor_map_vanishes(twin, 3, 2, 2).degrees == \
        tor_map_vanishes(ring, 3, 2, 2).degrees


def test_power_module_resolution():
    ring = corpus.get_ring("socle4")
    pres = ModulePresentation.power_module(ring, 2)
    data = minimal_resolution(ring, pres, 2)
    assert data.betti_numbers() == [10, 33, 167]
    assert data.module(0).degrees == [2] * 10


def test_presentation_validation():
    ring = corpus.get_ring("stretched22")
    with pytest.raises(InputError):
        ModulePresentation(ring, "span", 1, (0,), ())
    with pytest.raises(InputError):
        ModulePresentation(ring, "cokernel", 2, (0,), ())
    with pytest.raises(InputError):
        ModulePresentation(ring, "cokernel", 2, (0, 0),
                           ((ring.variable(0),),))
    with pytest.raises(InputError):
        ModulePresentation.power_module(ring, -1)


def test_resolution_input_errors():
    ring = corpus.get_ring("stretched22")
    other = corpus.get_ring("stretched32")
    with pytest.raises(InputError):
        minimal_resolution(ring, ModulePresentation.residue_field(ring), -1)
    with pytest.raises(InputError):
        minimal_resolution(ring, ModulePresentation.residue_field(other), 2)


def test_tor_map_between_power_ideals():
    s22 = corpus.get_ring("stretched22")
    report = tor_map_vanishes(s22, 3, 1, 2)
    assert not report.vanishes
    assert report.degrees == (True, False, False)
    assert report.witnesses[0][0] == 1

    s32 = corpus.get_ring("stretched32")
    assert tor_map_vanishes(s32, 2, 1, 2).vanishes
    # the identity inclusion never induces the zero map
    assert not tor_map_vanishes(s32, 2, 2, 1).vanishes
    assert not tor_map_vanishes(corpus.get_ring("socle4"), 2, 2, 2).vanishes


def test_tor_map_input_errors():
    ring = corpus.get_ring("stretched22")
    with pytest.raises(InputError):
        tor_map_vanishes(ring, 1, 2, 2)
    with pytest.raises(InputError):
        tor_map_vanishes(ring, 2, 1, -1)
