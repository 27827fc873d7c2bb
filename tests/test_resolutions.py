import itertools
import random
from functools import partial
from types import SimpleNamespace

import pytest

try:
    from hypothesis import given, settings
except ImportError:  # only the reference comparison needs it; it skips
    pass

from koszulkit import corpus, resolutions
from koszulkit.conditions import StretchedSpec, build_stretched_ring
from koszulkit.errors import InputError, PreconditionError
from koszulkit.fields import PrimeField, QQ, rational
from koszulkit.linalg import int_vector, kernel_of_columns
from koszulkit.poly import MonomialOrder
from koszulkit.quotient import QuotientRing
from koszulkit.resolutions import (ModulePresentation, betti_numbers_k,
                                   betti_table_R_over_Q, minimal_resolution,
                                   TorMapReport, _saturated_pivots, tor_map_vanishes)
from koszulkit.ringdef import (format_field, format_polynomial, parse_polynomial,
                               parse_ring_definition)
from koszulkit.series import poly_mul

import reference_resolutions
from reference_linalg import Subspace
from reference_resolutions import (bisect_basis_images, bisect_saturated_pivots,
                                   int_basis_images, piece_images, reference_lift,
                                   reference_resolution,
                                   reference_sweep, reference_tor_map_vanishes,
                                   saturated_pivots, saturation_pivots, shift_all)
from support import (GRADED_CORPUS, RANDOM_RING_FIELDS, SEED, SWEEP_FIELDS,
                     artinian_rings, random_symmetric_spec, stretched_specs)

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
    for i in (0, 7):
        with pytest.raises(InputError):
            data.differential(i)
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


_ORACLE_RNG = random.Random(SEED)
STRETCHED_ORACLE_SPECS = [StretchedSpec(3, 2, 3), StretchedSpec(3, 1, 4),
                          StretchedSpec(4, 2, 3),
                          random_symmetric_spec(_ORACLE_RNG, 3, 1, 3),
                          random_symmetric_spec(_ORACLE_RNG, 4, 2, 4)]


@pytest.mark.parametrize("spec", STRETCHED_ORACLE_SPECS,
                         ids=lambda s: "v%d_r%d_h%d" % (s.v, s.r, s.h))
def test_stretched_modules_share_one_denominator(spec):
    # the paper's theorem: over a stretched ring every finitely generated
    # module has a rational Poincare series with the denominator
    # 1 - v z + z^2 of the residue field's
    ring = build_stretched_ring(spec)
    x1 = ring.variable(0)
    modules = {
        "k": ModulePresentation.residue_field(ring),
        "m": ModulePresentation.power_module(ring, 1),
        "m^2": ModulePresentation.power_module(ring, 2),
        "m^(h-1)": ModulePresentation.power_module(ring, spec.h - 1),
        "R/(x1)": ModulePresentation.cyclic_quotient(ring, [x1]),
        "R/(x1^2)": ModulePresentation.cyclic_quotient(ring, [x1 * x1]),
    }
    for name, pres in modules.items():
        b = minimal_resolution(ring, pres, 5).betti_numbers()
        residues = [b[i] - spec.v * b[i - 1] + b[i - 2] for i in range(2, 6)]
        assert residues == [1 if name == "R/(x1^2)" else 0, 0, 0, 0], (name, b)


def _compose(ring, outer: list, column: dict) -> dict:
    """The map with columns `outer` applied to one polynomial column."""
    acc: dict = {}
    for g, p in column.items():
        for tg, q in outer[g].items():
            acc[tg] = acc.get(tg, ring.zero_poly()) + ring.multiply(p, q)
    return {tg: p for tg, p in acc.items() if p.terms}


@pytest.mark.parametrize("name", ["case54", "socle4", "stretched22", "stretched32"])
@pytest.mark.parametrize("module", ["k", "m^2"])
def test_differentials_compose_to_zero(name, module):
    # d_i d_{i+1} = 0 from the Polynomial columns alone, through
    # ring.multiply; minimality: no column entry has a constant term
    ring = corpus.get_ring(name)
    pres = (ModulePresentation.residue_field(ring) if module == "k"
            else ModulePresentation.power_module(ring, 2))
    data = minimal_resolution(ring, pres, 3)
    for i in range(1, 4):
        cols = data.differential(i)
        assert len(cols) == data.module(i).rank
        assert all(tg < data.module(i - 1).rank and p.terms and not p.constant_term()
                   for col in cols for tg, p in col.items())
    for i in range(1, 3):
        outer = data.differential(i)
        assert all(not _compose(ring, outer, col) for col in data.differential(i + 1))


def test_tor_map_reports_pinned():
    # the identity m^2 -> m^2 over socle4 reduces to the identity matrix
    ranks = (10, 33, 167)
    one = repr(rational(1))
    assert tor_map_vanishes(corpus.get_ring("socle4"), 2, 2, 2) == TorMapReport(
        2, 2, 2, False, (False, False, False),
        tuple((i, g, g, one) for i, rank in enumerate(ranks) for g in range(rank)))
    ring = build_stretched_ring(StretchedSpec(3, 1, 3, a=((1, -1), (-1, 0))))
    minus = repr(rational(-1))
    assert tor_map_vanishes(ring, 3, 2, 2) == TorMapReport(
        3, 2, 2, False, (True, False, False),
        ((1, 0, 2, minus), (2, 0, 6, minus), (2, 1, 7, minus)))


def _literal(vectors):
    return [[[(k, type(c), c) for k, c in v.items()] for v in step] for step in vectors]


@pytest.mark.parametrize("name", sorted(RANDOM_RING_FIELDS))
def test_pivot_read_off_matches_greedy_reference(name):
    # the engine reads minimal generators off pivots; the reference applies
    # the greedy rule to Polynomial columns, so maps (values and entry
    # order) and the exactness logs must agree literally
    pytest.importorskip("hypothesis")
    field, coefficients = RANDOM_RING_FIELDS[name]

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(artinian_rings(field, coefficients))
    def check(rings):
        for ring in rings:
            for pres in (ModulePresentation.residue_field(ring),
                         ModulePresentation.cyclic_quotient(ring, [ring.variable(0)])):
                data = minimal_resolution(ring, pres, 3)
                maps, log = reference_resolution(data)
                assert _literal(data.maps) == _literal(maps)
                assert data.exactness_log == log

    check()


# x*y, y^2 - x*z and m^4 in x, y, z; the ungraded twin puts
# x*y + (y^2 - x*z)*z in place of x*y, which keeps the ideal
STEP_ONE_RING = "vars x,y,z\nideal:\n%s\ny^2 - x*z\n" + "\n".join(
    "*".join(m) for m in itertools.combinations_with_replacement("xyz", 4))


@pytest.mark.parametrize("graded", [True, False], ids=["graded", "twin"])
@pytest.mark.parametrize("name", sorted(SWEEP_FIELDS))
def test_step_one_matches_greedy_reference(name, graded):
    # step one keeps the given columns that the greedy rule keeps, piece
    # by piece and in the given order within a piece.  Graded, the
    # columns lie in pieces 1 and 3 and none in piece 2; r = x^2 * a + b
    # comes before b, so r is kept and b is not; (y^3, x^2*z) is zero
    # only modulo the ideal.  The twin has every column in its one piece
    field = SWEEP_FIELDS[name][0]
    first = "x*y" if graded else "x*y + y^2*z - x*z^2"
    ring = parse_ring_definition("field %s\n%s" % (format_field(field),
                                                    STEP_ONE_RING % first)).build()
    assert ring.graded == graded

    def column(*texts):
        return tuple(parse_polynomial(t, ring.var_names, field, ring.order) for t in texts)

    a, a2, b = column("x", "y"), column("z", "x"), column("0", "z^3")
    r = tuple(ring.normal_form(column("x^2")[0] * u + v) for u, v in zip(a, b))
    pres = ModulePresentation(ring, "cokernel", 2, (0, 0), (r, column("y^3", "x^2*z"), a, b, a2))
    data = minimal_resolution(ring, pres, 3)
    maps, log = reference_resolution(data)
    assert _literal(data.maps) == _literal(maps)
    assert data.exactness_log == log
    kept = [a, a2, r] if graded else [r, a, a2]
    assert data.differential(1) == [{g: p for g, p in enumerate(col) if p} for col in kept]
    if graded:
        assert [(j, new) for j, _mn, new, _dim in log[0][1]] == [(1, 2), (2, 0), (3, 1)]


@pytest.mark.parametrize("k", [19, 20])
def test_step_one_of_a_large_ungraded_ring(k):
    # x^k + y^(k+1) leaves R = Q[x,y]/(x^k, y^k), of dim k^2, ungraded.
    # Step one works in the ambient R; a free module with one generator
    # per column of m^2 would have (k^2 - 3) * k^2 source coordinates,
    # 129,238 at k = 19 and 158,800 at k = 20, past the resolution budget
    def ring(first):
        return parse_ring_definition("field Q\nvars x,y\nideal:\n%s\ny^%d\n"
                                     % (first, k)).build()

    ungraded, graded = ring("x^%d + y^%d" % (k, k + 1)), ring("x^%d" % k)
    assert not ungraded.graded and ungraded.dim == k * k
    assert ((k * k - 3) * k * k > resolutions.RESOLUTION_BUDGET) == (k == 20)
    report = tor_map_vanishes(ungraded, 2, 1, 2)
    assert report.degrees == tor_map_vanishes(graded, 2, 1, 2).degrees == (True, False, True)


@pytest.mark.parametrize("name", sorted(RANDOM_RING_FIELDS))
def test_int_images_match_field_reference(name):
    # the engine shifts basis images as int vectors over per-column
    # denominators; the references work on field vectors: the greedy rule
    # for a submodule resolution, and the field path of the chain-map lift
    # for Tor reports, whose witnesses are reprs of lift coefficients
    pytest.importorskip("hypothesis")
    field, coefficients = RANDOM_RING_FIELDS[name]

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(artinian_rings(field, coefficients))
    def check(rings):
        for ring in rings:
            data = minimal_resolution(ring, ModulePresentation.power_module(ring, 2), 3)
            maps, log = reference_resolution(data)
            assert _literal(data.maps) == _literal(maps)
            assert data.exactness_log == log
            # m^3 = 0 in these rings, so only m^2 -> m has witnesses
            for s, b in ((3, 2), (2, 1)):
                assert tor_map_vanishes(ring, s, b, 2) == \
                    reference_tor_map_vanishes(ring, s, b, 2)

    check()


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "GF32003"])
def test_unit_images_match_the_chain(field):
    # over an ungraded ring the block of a generator whose image is a
    # unit vector, ({f: 1}, 1) or one of another scale or coefficient, in
    # either block of the target, holds literally the pairs of the chain
    # of shifts
    text = corpus.get_text("case54").replace("field Q", "field %s" % format_field(field))
    ring = parse_ring_definition(text).build()
    r0, r1 = ring.relations[:2]
    twin = QuotientRing(field, ring.var_names,
                        (r0 + r1 * ring.variable(ring.n - 1),) + ring.relations[1:], ring.order)
    f, g = 1, twin.dim + 2  # positions in the first and the second block
    vectors = [({f: 1}, 1), ({g: 1}, 1), ({g: 3}, 1), ({f: 1, g: 2}, 1), ({g: 1}, 1)]
    if not field.char:
        vectors += [({g: 1}, 2), ({f: -1}, 1), ({g: 3}, 5)]
    source = resolutions.FreeModule(twin, [0] * len(vectors))
    target = resolutions.FreeModule(twin, [0, 0])
    got = resolutions._basis_images(source, target, vectors, 0, {})
    want = int_basis_images(source, target, vectors, 0, {})
    assert _literal_ints([got]) == _literal_ints([want])


@pytest.mark.parametrize("name", sorted(SWEEP_FIELDS))
def test_stride_images_match_the_bisect_images(name):
    # the engine finds the block of a coordinate in the owner list of
    # `FreeModule.layout`; over an ungraded ring the images of every
    # step's piece basis, and of the chain map that `_lift` composes, are
    # literally those of the bisection, unit generators included
    pytest.importorskip("hypothesis")
    field = SWEEP_FIELDS[name][0]

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(stretched_specs(field))
    def check(spec):
        ring = build_stretched_ring(spec)
        res_s, res_b = (minimal_resolution(ring, ModulePresentation.power_module(ring, t), 3)
                        for t in (2, 1))
        cases = [(res_b.chain[p + 1], res_b.chain[p], V) for p, V in enumerate(res_b.int_maps)]
        cases += [(res_s.chain[q], res_b.chain[q], [int_vector(v, field.char) for v in lift])
                  for q, lift in enumerate(resolutions._lift(ring, res_s, res_b, 3), 1)]
        for source, target, vectors in cases:
            got = resolutions._basis_images(source, target, vectors, 0, {})
            want = bisect_basis_images(source, target, vectors, 0, {})
            assert _literal_ints([got]) == _literal_ints([want])

    check()


def _piece_rank(ring, source_degrees, target_degrees, columns, j):
    """Rank and source dimension of one differential on piece j."""
    images = piece_images(ring, source_degrees, target_degrees, columns, j)
    return Subspace(ring.field, images).dim, len(images)


EXACTNESS_CASES = [(name, module, 3) for name in ("case54", "socle4", "stretched22",
                                                  "stretched32")
                   for module in ("k", "m^2")] + [("case66", "k", 3)]


@pytest.mark.parametrize("name,module,limit", EXACTNESS_CASES)
def test_resolutions_are_exact(name, module, limit):
    # exactness beyond d d = 0: on every piece, rank d_{i+1} equals the
    # nullity of d_i, both from the Polynomial columns of differential()
    ring = corpus.get_ring(name)
    pres = (ModulePresentation.residue_field(ring) if module == "k"
            else ModulePresentation.power_module(ring, 2))
    data = minimal_resolution(ring, pres, limit)
    for i in range(1, limit):
        degrees = [data.module(k).degrees for k in (i - 1, i, i + 1)]
        if not ring.graded:
            pieces = [0]
        elif ring.is_artinian:
            pieces = range(min(degrees[1], default=0), max(degrees[1], default=0)
                           + ring.top_degree + 1)
        else:  # two pieces past the last generator of step i + 1
            pieces = range(min(degrees[1], default=0), max(degrees[2], default=0) + 3)
        for j in pieces:
            rank_i, dim = _piece_rank(ring, degrees[1], degrees[0], data.differential(i), j)
            rank_next, _ = _piece_rank(ring, degrees[2], degrees[1],
                                       data.differential(i + 1), j)
            assert rank_next == dim - rank_i, (i, j)


class _Table:
    """Blocks of a free module with one hand-written int x_l table:
    rows[k] lists the (l, target, coefficient) triples of x_l * e_k.
    Graded, the module is one block; its ungraded twin has `blocks`
    blocks of the table at the stride dim = len(rows), as over an
    ungraded ring.  `layout` gives the engine the owner of every
    coordinate with the rows by variable, and `int_shifts`, which the
    references read in place of their own, the offsets and flat rows."""

    def __init__(self, field, rows, blocks=None):
        self.ring = SimpleNamespace(field=field)
        self.degrees = [0] * (blocks or 1)
        self.rows = rows
        act = tuple({l: tuple((t, c) for x, t, c in row if x == l)
                     for l in sorted({x for x, _t, _c in row})} for row in rows)
        self.owner = tuple((o, o, act) for o in self.int_shifts(0)[0] for _row in rows)

    def layout(self, piece):
        return 1, self.owner

    def int_shifts(self, piece):
        offsets = tuple(range(0, len(self.degrees) * len(self.rows), len(self.rows)))
        return offsets, 1, tuple((o, o, self.rows) for o in offsets)


# x_0 and x_1 on six source and six target coordinates; e_1, e_2 and e_3
# have a product with two terms
_ROWS = (
    ((0, 0, 1), (1, 1, 1)),
    ((0, 1, 1), (0, 2, 1), (1, 3, 1)),
    ((1, 2, 1), (1, 4, 1)),
    ((0, 0, 1), (0, 5, 1)),
    ((0, 5, 1),),
    ((1, 4, 1),),
)
_ALL = {t: -t for t in range(6)}  # the sweep's naming: largest first

PIVOT_FEEDS = {
    # name -> (feed, keep, products of a unit after keep, of more terms)
    "all_units": ([{0: 1}, {4: 1}, {5: 1}], _ALL, 4, 0),
    "dense_only": ([{3: 1}, {1: 1}], _ALL, 1, 2),
    "projection_vanishes": ([{3: 1}, {0: 1}, {4: 1}], _ALL, 3, 1),
    "projection_pivots_below_a_unit": ([{2: 1}, {5: 1}], _ALL, 1, 1),
    "keep_cuts_to_one_coordinate": ([{3: 1}, {2: 1}], {5: -5, 2: -2}, 2, 0),
    "dense_feed_vectors": ([{0: 1, 3: 1}, {1: 2, 2: 1}, {4: 1}], _ALL, None, None),
}


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=["Q", "GF2"])
@pytest.mark.parametrize("case", sorted(PIVOT_FEEDS))
def test_saturated_pivots_match_the_echelon(case, field, monkeypatch):
    # the pivot set of the sweep's saturation equals the pivots of an
    # echelon form fed the same products; each feed is ordered so that a
    # product with more terms comes before the unit products it meets.
    # The engine takes the unit feed vectors as indices, the others as
    # vectors, and the stored columns in place of keep; it names a
    # coordinate k where the references name it keep[k] = -k.  The
    # engine finds a coordinate's block in the owner list of `layout`,
    # while the references bisect the offsets of the table's own
    # `int_shifts`.  Over the ungraded twin entry k of feed vector i goes
    # to block (i + k) % 3, so the feed meets every block and a vector
    # spans two
    monkeypatch.setattr(reference_resolutions, "int_shifts", _Table.int_shifts)
    for blocks in (None, 3):
        table = _Table(field, _ROWS, blocks)
        count = len(table.degrees)
        feed = [{k + (i + k) % count * 6: x for k, x in v.items()}
                for i, v in enumerate(PIVOT_FEEDS[case][0])]
        keep = {k + g * 6: -k - g * 6 for k in PIVOT_FEEDS[case][1] for g in range(count)}
        units, dense = PIVOT_FEEDS[case][2:]
        offsets, _scale, shifts = table.int_shifts(0)
        products = [w for v in feed for w in shift_all(v, offsets, shifts, field.char, keep)]
        if units is not None:
            assert [len(w) == 1 for w in products].count(True) == units
            assert len(products) - units == dense
        zeros = [k for v in feed for k in v if v == {k: 1}]
        vectors = [dict(v) for v in feed if len(v) > 1 or 1 not in v.values()]
        stored = set(range(6 * count)) - set(keep)
        got = _saturated_pivots(table, 0, zeros, vectors, stored)
        assert got == bisect_saturated_pivots(table, 0, zeros, vectors, stored)
        pivots = {-k for k in got}
        assert pivots == saturation_pivots(table, 0, [dict(v) for v in feed], keep)
        assert pivots == saturated_pivots(table, 0, [dict(v) for v in feed], keep)
        assert _saturated_pivots(table, 0, [], [], stored) == set()


def _literal_ints(int_maps):
    return [[([(k, type(x), x) for k, x in V.items()], S) for V, S in step]
            for step in int_maps]


def _eager_sweep(src, target, vectors, jmin, jmax, kinds, last=False):
    # the reference under the engine's call: the whole step at once, never
    # split into components, and every step's pairs, the last step's too,
    # come built as a list
    images = partial(resolutions._basis_images, src, target, vectors, memo={})
    gens, log = reference_sweep(src, jmin, jmax, images)
    return [d for d, _v in gens], log, [v for _d, v in gens]


def _literal_columns(columns):
    return [[(g, [(m.exponents, type(c), c) for m, c in p.terms]) for g, p in col.items()]
            for col in columns]


def _assert_sweep_matches_reference(ring, modules, limit, monkeypatch, tor=()):
    # against the eager full echelon saturation: the Betti numbers, the
    # bigraded ones and the exactness log, read while the last step is
    # only counted; then int_maps read after the fact (values, entry
    # order and types), maps and the last differential, where a second
    # read returns the same lists; and the Tor reports of `tor`
    for pres in modules:
        data = minimal_resolution(ring, pres, limit)
        with monkeypatch.context() as patched:
            patched.setattr(resolutions, "_sweep", _eager_sweep)
            patched.setattr(resolutions, "_basis_images", int_basis_images)
            ref = minimal_resolution(ring, pres, limit)
        assert data.betti_numbers() == ref.betti_numbers()
        assert data.exactness_log == ref.exactness_log
        if ring.graded:
            assert data.bigraded_betti() == ref.bigraded_betti()
        # a last step that ran a sweep is still counted, not built
        assert callable(data._int_maps[-1]) == (data.chain[-2].rank > 0)
        int_maps = data.int_maps
        last = int_maps[-1]
        assert _literal_ints(int_maps) == _literal_ints(ref.int_maps)
        assert data.int_maps is int_maps and data.int_maps[-1] is last
        assert _literal(data.maps) == _literal(ref.maps)
        assert _literal_columns(data.differential(limit)) == \
            _literal_columns(ref.differential(limit))
    for s, b, tor_limit in tor:
        report = tor_map_vanishes(ring, s, b, tor_limit)
        with monkeypatch.context() as patched:
            patched.setattr(resolutions, "_sweep", _eager_sweep)
            assert report == tor_map_vanishes(ring, s, b, tor_limit)


@pytest.mark.parametrize("name", sorted(SWEEP_FIELDS))
def test_sweep_matches_reference_on_stretched_rings(name, monkeypatch):
    pytest.importorskip("hypothesis")
    field = SWEEP_FIELDS[name][0]

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(stretched_specs(field))
    def check(spec):
        ring = build_stretched_ring(spec)
        modules = (ModulePresentation.residue_field(ring),
                   ModulePresentation.power_module(ring, 2),
                   ModulePresentation.cyclic_quotient(ring, [ring.variable(0)]))
        _assert_sweep_matches_reference(ring, modules, 4, monkeypatch, tor=((2, 1, 2),))

    check()


@pytest.mark.parametrize("name", sorted(SWEEP_FIELDS))
def test_sweep_matches_reference_on_ungraded_twins(name, monkeypatch):
    # unlike the stretched rings, the twins have products that are not
    # unit vectors and are not spanned by the unit ones, so the dense
    # pass of the saturation and the shifted images of dense generators
    # both count
    pytest.importorskip("hypothesis")
    field, coefficients = SWEEP_FIELDS[name]

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(artinian_rings(field, coefficients))
    def check(rings):
        twin = rings[1]
        modules = (ModulePresentation.residue_field(twin),
                   ModulePresentation.power_module(twin, 2),
                   ModulePresentation.cyclic_quotient(twin, [twin.variable(0)]))
        _assert_sweep_matches_reference(twin, modules, 4, monkeypatch, tor=((2, 1, 2),))

    check()


@pytest.mark.parametrize("name", sorted(SWEEP_FIELDS))
def test_sweep_matches_reference_on_graded_artinian_rings(name, monkeypatch):
    # the graded rings of `support.artinian_rings`, whose last step is
    # counted over a window of pieces
    pytest.importorskip("hypothesis")
    field, coefficients = SWEEP_FIELDS[name]

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(artinian_rings(field, coefficients))
    def check(rings):
        ring = rings[0]
        modules = (ModulePresentation.residue_field(ring),
                   ModulePresentation.power_module(ring, 2),
                   ModulePresentation.cyclic_quotient(ring, [ring.variable(0) ** 2]))
        _assert_sweep_matches_reference(ring, modules, 4, monkeypatch, tor=((2, 1, 2),))

    check()


@pytest.mark.parametrize("name", corpus.names())
def test_sweep_matches_reference_on_corpus(name, monkeypatch):
    # each graded artinian corpus ring also through the ungraded engine,
    # by the twin of test_graded_and_ungraded_engines_agree
    ring = corpus.get_ring(name)
    rings = [ring]
    if ring.graded and ring.is_artinian:
        r0, r1 = ring.relations[:2]
        rings.append(QuotientRing(ring.field, ring.var_names,
                                  (r0 + r1 * ring.variable(ring.n - 1),) + ring.relations[1:],
                                  ring.order))
    for r in rings:
        modules = [ModulePresentation.residue_field(r)]
        if r.is_artinian:
            modules += [ModulePresentation.power_module(r, 2),
                        ModulePresentation.cyclic_quotient(r, [r.variable(0)])]
        _assert_sweep_matches_reference(r, modules, 3, monkeypatch)


def _component_count(vectors, d):
    """The number of groups of generators linked by images that touch a
    common target block k // d, by merging block sets."""
    groups = []
    for V, _S in vectors:
        blocks = {k // d for k in V}
        for group in [g for g in groups if g & blocks]:
            groups.remove(group)
            blocks |= group
        groups.append(blocks)
    return len(groups)


_SPLIT_RNG = random.Random(SEED)
SPLIT_SPECS = [StretchedSpec(5, 3, 3), random_symmetric_spec(_SPLIT_RNG, 6, 4, 3)]


@pytest.mark.parametrize("spec", SPLIT_SPECS, ids=lambda s: "v%d_r%d_h%d" % (s.v, s.r, s.h))
def test_split_sweep_matches_reference(spec, monkeypatch):
    # over a stretched ring with r >= 2 the generators of an ungraded step
    # fall into components, and the engine sweeps each distinct one once
    # and moves its copies back to their own blocks; the kernels it
    # computes show that the split ran (some step with more than one
    # component swept fewer distinct ones than it has, each on fewer
    # columns than the step), and the results must be literally the
    # whole-step reference's, on a two-generator cokernel too
    ring = build_stretched_ring(spec)
    x1, x2 = ring.variable(0), ring.variable(1)
    modules = (ModulePresentation.residue_field(ring),
               ModulePresentation.power_module(ring, 2),
               ModulePresentation.cyclic_quotient(ring, [x1]),
               ModulePresentation(ring, "cokernel", 2, (0, 0),
                                  ((x1, x2), (x2 * x2, ring.zero_poly()))))
    widths, steps = [], []
    sweep = resolutions._sweep

    def counted(columns, field, solver=None):
        widths.append(len(columns))
        return kernel_of_columns(columns, field, solver)

    def marked(src, target, vectors, *args, **kwargs):
        before = len(widths)
        out = sweep(src, target, vectors, *args, **kwargs)
        steps.append((src.rank * ring.dim, _component_count(vectors, ring.dim),
                      widths[before:]))
        return out

    with monkeypatch.context() as patched:
        patched.setattr(resolutions, "kernel_of_columns", counted)
        patched.setattr(resolutions, "_sweep", marked)
        for pres in modules:
            minimal_resolution(ring, pres, 5)
    assert any(count > 1 and len(swept) < count and all(w < width for w in swept)
               for width, count, swept in steps), steps
    _assert_sweep_matches_reference(ring, modules, 5, monkeypatch, tor=((2, 1, 2),))


@pytest.mark.parametrize("first", ["int", "numerator"])
def test_split_sweep_keeps_value_types(first, monkeypatch):
    # two components of one step, equal in value: one image pair is plain
    # ints, the other has the type of a rational's numerator (gmpy2's mpz
    # under gmpy2), and the sweep of each gives its own value types, so
    # neither may reuse the other's
    ring = build_stretched_ring(StretchedSpec(3, 2, 3))
    d = ring.dim
    types = [int, type(rational(1).numerator)]
    if first == "numerator":
        types.reverse()
    vectors = [({g * d + 4: t(1), g * d + 2: t(2)}, t(2)) for g, t in enumerate(types)]
    src, target = resolutions.FreeModule(ring, [0, 0]), resolutions.FreeModule(ring, [0, 0])
    got = resolutions._sweep(src, target, vectors, 0, 0, {})
    with monkeypatch.context() as patched:
        patched.setattr(resolutions, "_basis_images", int_basis_images)
        want = _eager_sweep(src, target, vectors, 0, 0, {})
    assert len(resolutions._components(vectors, d)) == 2
    assert got[:2] == want[:2]
    assert _literal_ints([got[2]]) == _literal_ints([want[2]])


def _literal_kernel(null_space):
    zeros, kernel, stored = null_space
    return zeros, [(f, [(k, type(x), x) for k, x in C.items()]) for f, C in kernel], stored


@pytest.mark.parametrize("name", sorted(SWEEP_FIELDS))
def test_generator_columns_are_stored_unreduced(name):
    # in piece j of a graded step, the columns of the generators of
    # degree j come last and add no null vector, so `_piece_kernel`
    # stores them without elimination; its (zeros, kernel, stored) must
    # be literally those of `kernel_of_columns` on every column (ints,
    # entry order, value types), in every piece of every sweep window
    pytest.importorskip("hypothesis")
    field, coefficients = SWEEP_FIELDS[name]
    seen = {"mixed": 0, "generators only": 0, "no generators": 0,
            "kernel beside generators": 0, "cokernel": 0, "submodule": 0}

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(artinian_rings(field, coefficients))
    def check(rings):
        ring = rings[0]
        for pres in (ModulePresentation.residue_field(ring),
                     ModulePresentation.power_module(ring, 2),
                     ModulePresentation.cyclic_quotient(ring, [ring.variable(0) ** 2])):
            data = minimal_resolution(ring, pres, 4)
            chain, int_maps = data.chain, data.int_maps
            for p in range(1, len(chain) - 1):
                src = chain[p]
                if not src.rank:
                    continue
                seen[pres.mode] += 1
                images = partial(resolutions._basis_images, src, chain[p - 1],
                                 int_maps[p - 1], memo={})
                for j in range(min(src.degrees) - 1, max(src.degrees) + ring.top_degree + 1):
                    got = resolutions._piece_kernel(src, images, j)
                    want = kernel_of_columns(images(j), field)
                    assert _literal_kernel(got) == _literal_kernel(want)
                    gens, width = len(src.constant_slots(j)), len(images(j))
                    if not gens:
                        seen["no generators"] += 1
                    elif gens == width:
                        seen["generators only"] += 1
                    else:
                        seen["mixed"] += 1
                        seen["kernel beside generators"] += bool(want[1])

    check()
    assert all(seen.values()), seen


@pytest.mark.parametrize("fault", ["dropped pivot", "added pivot"])
@pytest.mark.parametrize("field", ["Q", "GF(32003)", "GF(2)"])
def test_span_check_finds_a_wrong_generator_count(field, fault, monkeypatch):
    # `_piece_kernel` takes the generator columns as independent, so a
    # step that takes a generator too many (a saturation pivot dropped)
    # or too few (a free column taken for a pivot) must stop the next
    # step, on every graded corpus ring (the last step has no next one:
    # limit 4 puts a faulty step before it on each)
    piece_kernel, saturated = resolutions._piece_kernel, resolutions._saturated_pivots
    last = {}

    def recorded(*args):
        last["piece"] = piece_kernel(*args)
        return last["piece"]

    def planted(*args):
        pivots = saturated(*args)
        if fault == "dropped pivot":
            return pivots - {max(pivots)} if pivots else pivots
        zeros, kernel, _stored = last["piece"]
        free = [f for f in zeros + [f for f, _C in kernel] if f not in pivots]
        return pivots | {min(free)} if free else pivots

    monkeypatch.setattr(resolutions, "_piece_kernel", recorded)
    monkeypatch.setattr(resolutions, "_saturated_pivots", planted)
    for name in GRADED_CORPUS:
        text = corpus.get_text(name).replace("field Q\n", "field %s\n" % field)
        ring = parse_ring_definition(text).build()
        with pytest.raises(AssertionError, match="resolution lost minimality or exactness"):
            betti_numbers_k(ring, 4)


@pytest.mark.parametrize("name", sorted(SWEEP_FIELDS))
def test_int_lift_matches_the_field_lift(name):
    # `_lift` builds its systems and targets from int pairs and turns
    # only the solutions into field values; the reference solves on field
    # vectors shifted through field tables, so the lifts must agree
    # literally (entry order and value types), graded and ungraded
    pytest.importorskip("hypothesis")
    field, coefficients = SWEEP_FIELDS[name]

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(artinian_rings(field, coefficients))
    def check(rings):
        for ring in rings:
            for s, b in ((3, 2), (2, 1), (2, 2)):
                res_s = minimal_resolution(ring, ModulePresentation.power_module(ring, s), 2)
                res_b = minimal_resolution(ring, ModulePresentation.power_module(ring, b), 2)
                got = resolutions._lift(ring, res_s, res_b, 2)
                assert _literal(got) == _literal(reference_lift(ring, res_s, res_b, 2)[1:])
                assert tor_map_vanishes(ring, s, b, 2) == \
                    reference_tor_map_vanishes(ring, s, b, 2)

    check()
