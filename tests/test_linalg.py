import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # only the reference comparison needs it; it skips
    pass

from koszulkit import linalg
from koszulkit.fields import PrimeField, QQ, rational
from koszulkit.linalg import (EchelonSolver, Subspace, field_vector, int_vector,
                              kernel_of_columns, null_pairs)

import reference_linalg as ref
from support import basis_rows, span_of
from reference_linalg import vec_add_scaled, vec_combine


def q(v):
    return QQ.of(v)


def test_vec_helpers_drop_zeros():
    dst = {0: q(1), 1: q(2)}
    vec_add_scaled(dst, q(-1), {1: q(2), 2: q(3)})
    assert dst == {0: q(1), 2: q(-3)}
    assert vec_combine({0: q(1), 2: q(-1)}, [{0: q(1), 1: q(1)}, None, {1: q(1)}]) == \
        {0: q(1)}


def _has(s, field, vec):
    """Is the field vector vec in the subspace s?"""
    return s.contains_subspace(span_of(field, [vec]))


def test_subspace_dim_and_membership():
    s = span_of(QQ, [{0: q(1), 1: q(1)}, {1: q(1), 2: q(1)}])
    assert s.dim == 2
    assert _has(s, QQ, {0: q(1), 2: q(-1)})
    assert not _has(s, QQ, {0: q(1)})
    assert not s.extend({0: 2, 1: 2})
    assert s.extend({0: 1})
    assert s.dim == 3


def test_subspace_sum_and_containment():
    a = span_of(QQ, [{0: q(1)}])
    b = span_of(QQ, [{1: q(1)}])
    both = Subspace(QQ)
    for V, _S in a.basis_pairs() + b.basis_pairs():
        both.extend(dict(V))
    assert both.dim == 2
    assert both.contains_subspace(a) and both.contains_subspace(b)
    assert not a.contains_subspace(both)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF(7)"])
def test_solver_copy_and_int_membership(field):
    s = EchelonSolver(field)
    assert s.add({0: 2, 3: 4}) and s.add({1: 3, 2: 5})
    assert s.contains({0: 2, 1: 3, 2: 5, 3: 4}) and not s.contains({0: 1})
    c = s.copy()
    assert c.add({0: 1}) and (c.rank, s.rank) == (3, 2)
    assert c.contains({0: 1}) and not s.contains({0: 1})
    with pytest.raises(ValueError):
        EchelonSolver(field, track=True).copy()


def _remainder(solver, vec):
    """The remainder of a field vector as a field vector."""
    p = solver.field.char
    V, _C, D = solver.reduce(*int_vector(vec, p))
    return field_vector(p, V, D)


def test_reduce_returns_canonical_remainder():
    s = EchelonSolver(QQ)
    s.add({0: 1, 1: 1})
    rem = _remainder(s, {0: q(1), 1: q(3)})
    assert rem and 0 not in rem
    s.add(int_vector(rem, 0)[0])
    assert s.contains({0: 1, 1: 3})


def test_reduced_basis_rows_are_self_reduced():
    s = span_of(QQ, [{0: q(1), 1: q(2)}, {0: q(1), 1: q(1), 2: q(1)}])
    rows = s.reduced_basis_rows()
    pivots = [min(r) for r in rows]
    for r in rows:
        for other_pivot in pivots:
            if other_pivot != min(r):
                assert other_pivot not in r


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF(7)"])
def test_reduced_ints_are_the_reduced_echelon_rows(field):
    f = field.of
    s = span_of(field, [{2: f(3), 4: f(1)}, {0: f(2), 1: f(4), 2: f(1), 4: f(5)},
                        {1: f(3), 3: f(-1), 4: f(2)}])
    solver = s._solver
    stored = repr(solver._rows)
    for want in s.reduced_basis_rows():
        pivot = min(want)
        got = solver.reduced_ints(pivot)
        assert min(got) == pivot and {c: f(x) / f(got[pivot]) for c, x in got.items()} == want
    assert repr(solver._rows) == stored  # the stored rows are left as they were


def _null_vectors(cols, field):
    """The field null vectors of field columns, by `kernel_of_columns`."""
    pairs = [int_vector(col, field.char) for col in cols]
    return [field_vector(field.char, V, S)
            for _f, (V, S) in null_pairs(kernel_of_columns(pairs, field))]


def test_kernel_of_columns():
    # columns c0 = e0, c1 = e0 (duplicate), c2 = e1
    cols = [{0: q(1)}, {0: q(1)}, {1: q(1)}]
    ker = _null_vectors(cols, QQ)
    assert len(ker) == 1
    v = ker[0]
    assert 2 not in v
    assert v[0] * cols[0][0] + v[1] * cols[1][0] == QQ.zero


def test_kernel_rank_nullity():
    cols = [{0: q(1), 1: q(2)}, {0: q(2), 1: q(4)}, {0: q(1)}, {1: q(1)}, {}]
    ker = _null_vectors(cols, QQ)
    rank = span_of(QQ, cols).dim
    assert rank + len(ker) == len(cols) == 5
    for v in ker:
        acc = {}
        for idx, c in v.items():
            vec_add_scaled(acc, c, cols[idx])
        assert acc == {}


def _column_solver(cols, field):
    """A tracked solver holding the field columns, each tagged by its
    position."""
    solver = EchelonSolver(field, track=True)
    kernel_of_columns([int_vector(col, field.char) for col in cols], field, solver)
    return solver


def _solution(solver, vec):
    """`solve` of a field vector, the solution as a field vector."""
    p = solver.field.char
    sol = solver.solve(*int_vector(vec, p))
    return None if sol is None else field_vector(p, *sol)


def test_linear_system_solve():
    cols = [{0: q(1), 1: q(1)}, {1: q(1)}]
    sol = _solution(_column_solver(cols, QQ), {0: q(2), 1: q(5)})
    assert sol is not None
    acc = {}
    for idx, c in sol.items():
        vec_add_scaled(acc, c, cols[idx])
    assert acc == {0: q(2), 1: q(5)}
    assert _solution(_column_solver(cols, QQ), {2: q(1)}) is None


def test_prime_field_subspace():
    gf = PrimeField(5)
    s = span_of(gf, [{0: gf.of(2), 1: gf.of(4)}])
    assert _has(s, gf, {0: gf.of(1), 1: gf.of(2)})
    assert not _has(s, gf, {0: gf.of(1), 1: gf.of(3)})


# -- the int-backed solver against the field-element reference ---------

FIELDS = {"Q": QQ, "GF(32003)": PrimeField(32003), "GF(2)": PrimeField(2)}
NCOORDS = 7


def _entries(field):
    if field.char:
        return st.integers(1, field.char - 1).map(field.of)
    small = st.integers(-3, 3).filter(bool).map(rational)
    large = st.builds(rational, st.integers(-10 ** 30, 10 ** 30).filter(bool),
                      st.integers(1, 10 ** 20))
    return st.one_of(small, st.builds(rational, st.integers(-9, 9).filter(bool),
                                      st.integers(1, 12)), large)


def _matrices(field):
    """Sparse vectors (empty ones included), some of them combinations of
    earlier ones so that dependencies occur, plus probe vectors."""
    entry = _entries(field)
    vector = st.dictionaries(st.integers(0, NCOORDS - 1), entry, max_size=5)

    @st.composite
    def build(draw):
        vecs = draw(st.lists(vector, max_size=8))
        for _ in range(draw(st.integers(0, 3))):
            if not vecs:
                break
            i, j = (draw(st.integers(0, len(vecs) - 1)) for _ in range(2))
            w = {}
            vec_add_scaled(w, draw(entry), vecs[i])
            vec_add_scaled(w, draw(entry), vecs[j])
            vecs.insert(draw(st.integers(0, len(vecs))), w)
        return vecs, draw(st.lists(vector, max_size=4))

    return build()


def _literal(vec):
    """A dict as its items in order, each value with its type."""
    if vec is None:
        return None
    return [(c, type(v), v) for c, v in vec.items()]


@pytest.mark.parametrize("name", FIELDS)
def test_int_backed_solver_matches_reference(name):
    pytest.importorskip("hypothesis")
    field = FIELDS[name]

    @settings(max_examples=100, deadline=None)
    @given(_matrices(field))
    def check(case):
        vecs, probes = case
        got, want = span_of(field, vecs), ref.Subspace(field, vecs)
        assert got.dim == want.dim
        rows = basis_rows(field, got)
        assert [min(r) for r in rows] == [min(r) for r in want.basis_rows()]
        assert [_literal(r) for r in rows] == [_literal(r) for r in want.basis_rows()]
        assert [_literal(r) for r in got.reduced_basis_rows()] == \
            [_literal(r) for r in want.reduced_basis_rows()]
        for v in vecs + probes:
            assert _literal(_remainder(got._solver, v)) == _literal(want.reduce(v))
        assert [_literal(k) for k in _null_vectors(vecs, field)] == \
            [_literal(k) for k in ref.kernel_of_columns(vecs, field)]

        solver, ref_solver = _column_solver(vecs, field), ref.EchelonSolver(field, True)
        for j, v in enumerate(vecs):
            ref_solver.add(v, tag=j)
        assert solver.rank == ref_solver.rank
        for v in vecs + probes:
            assert _literal(_solution(solver, v)) == _literal(ref_solver.solve(v))

    check()


def _columns(field):
    """Int column pairs (V, S), many of them zero or unit vectors, on few
    coordinates so that a unit column often meets a pivot; over Q each
    pair is scaled by a random factor, so S need not be the lcm of the
    denominators."""
    entry = _entries(field)
    vector = st.one_of(st.just({}),
                       st.dictionaries(st.integers(0, 3), entry, min_size=1, max_size=1),
                       st.dictionaries(st.integers(0, 3), entry, max_size=3))

    @st.composite
    def build(draw):
        columns = []
        for vec in draw(st.lists(vector, max_size=10)):
            V, S = int_vector(vec, field.char)
            k = 1 if field.char else draw(st.integers(1, 6))
            columns.append(({c: x * k for c, x in V.items()}, S * k))
        return columns

    return build()


@pytest.mark.parametrize("name", FIELDS)
def test_int_kernel_matches_reference(name):
    # zero columns come back as indices and the other free columns as the
    # reference's pairs, literally; every other column is stored.  The
    # tracked solver, which `_lift` solves on, holds literally the rows
    # and combinations of the reference, which stores every row through
    # `_store`, also where a column with one entry meets no pivot
    pytest.importorskip("hypothesis")
    field = FIELDS[name]

    def state(rows):
        return [(q, [(c, type(x), x) for c, x in row.items()]) for q, row in rows.items()]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_columns(field))
    def check(columns):
        solver, ref_solver = (EchelonSolver(field, track=True) for _ in range(2))
        zeros, kernel, stored = kernel_of_columns(columns, field, solver)
        want = ref.int_kernel(columns, field, ref_solver)
        assert state(solver._rows) == state(ref_solver._rows)
        assert state(solver._combos) == state(ref_solver._combos)
        assert zeros == [f for f, (V, _S) in enumerate(columns) if not V]
        literal = [(f, [(c, type(x), x) for c, x in C.items()]) for f, C in want
                   if columns[f][0]]
        assert [(f, [(c, type(x), x) for c, x in C.items()]) for f, C in kernel] == literal
        assert stored == set(range(len(columns))) - {f for f, _C in want}

    check()


def _eliminations():
    """An echelon over Q with tracked combinations, built from drawn
    vectors, and calls (V, C, D) of `_eliminate_q` on it: V / D a drawn
    vector or an int vector known up to scale (D = 1), C None or a drawn
    combination over D, and every part scaled by a drawn factor, so that
    the input need not be in lowest terms.  Every input int has the type
    of a rational's numerator (the type of each output int follows the
    operands it met, which differ between the two eliminations)."""
    entry = _entries(QQ)
    vector = st.dictionaries(st.integers(0, NCOORDS - 1), entry, max_size=5)
    one = rational(1).numerator

    @st.composite
    def build(draw):
        solver = _column_solver(draw(st.lists(vector, max_size=8)), QQ)
        calls = []
        for vec in draw(st.lists(vector, min_size=1, max_size=4)):
            V, D = int_vector(vec, 0)
            if draw(st.booleans()):
                D = 1  # an int vector known up to scale, as `add` takes
            k = one * draw(st.integers(1, 6))
            C = None
            if draw(st.booleans()):
                C = {t: draw(st.integers(-3, 3)) * D * k
                     for t in draw(st.lists(st.integers(0, 9), max_size=3))}
            calls.append(({c: x * k for c, x in V.items()}, C, D * k))
        return solver, calls

    return build()


def test_one_content_gcd_matches_a_gcd_per_row_operation():
    # the elimination over Q with one content gcd per reduced vector gives
    # literally what a content gcd after every row operation gave
    pytest.importorskip("hypothesis")
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_eliminations())
    def check(case):
        solver, calls = case
        rows, combos = solver._rows, solver._combos
        for V, C, D in calls:
            copy = None if C is None else dict(C)
            got = linalg._eliminate_q(dict(V), copy, D, rows, combos)
            want = ref.eliminate_q(dict(V), None if C is None else dict(C), D, rows, combos)
            assert [_literal(got[0]), _literal(got[1]), (type(got[2]), got[2])] == \
                [_literal(want[0]), _literal(want[1]), (type(want[2]), want[2])]
            if not set(V) & set(rows):  # nothing to eliminate: the input comes back
                assert got[0] == V and got[1] is copy and got[2] == D
                seen.add("nothing")
            seen.add("tracked" if C is not None else "untracked")
            seen.add("D = 1" if D == 1 else "D > 1")
            if any(abs(x) > 10 ** 20 for x in V.values()):
                seen.add("large")

    check()
    assert seen == {"nothing", "tracked", "untracked", "D = 1", "D > 1", "large"}
