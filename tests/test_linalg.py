from fractions import Fraction

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # only the reference comparison needs it; it skips
    pass

from koszulkit.fields import PrimeField, QQ
from koszulkit.linalg import (EchelonSolver, Subspace, int_kernel, int_vector,
                              kernel_of_columns, vec_add_scaled, vec_combine)

import reference_linalg as ref


def q(v):
    return QQ.of(v)


def test_vec_helpers_drop_zeros():
    dst = {0: q(1), 1: q(2)}
    vec_add_scaled(dst, q(-1), {1: q(2), 2: q(3)})
    assert dst == {0: q(1), 2: q(-3)}
    assert vec_combine({0: q(1), 2: q(-1)}, [{0: q(1), 1: q(1)}, None, {1: q(1)}]) == \
        {0: q(1)}


def test_subspace_dim_and_membership():
    s = Subspace(QQ, [{0: q(1), 1: q(1)}, {1: q(1), 2: q(1)}])
    assert s.dim == 2
    assert s.contains({0: q(1), 2: q(-1)})
    assert not s.contains({0: q(1)})
    assert not s.extend({0: q(2), 1: q(2)})
    assert s.extend({0: q(1)})
    assert s.dim == 3


def test_subspace_sum_and_containment():
    a = Subspace(QQ, [{0: q(1)}])
    b = Subspace(QQ, [{1: q(1)}])
    both = a.sum(b)
    assert both.dim == 2
    assert both.contains_subspace(a) and both.contains_subspace(b)
    assert not a.contains_subspace(both)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF(7)"])
def test_subspace_copy_equals_rebuilt_subspace(field):
    f = field.of
    s = Subspace(field, [{0: f(2), 3: f(4)}, {1: f(3), 2: f(-5)}, {0: f(1), 2: f(1), 3: f(6)}])
    if field is QQ:
        s.extend({2: QQ.of(1) / 3, 4: QQ.of(5) / 2})
    c = s.copy()
    rebuilt = Subspace(field, s.basis_rows())
    # identical rows, entry order included
    assert repr(c._solver._rows) == repr(rebuilt._solver._rows) == repr(s._solver._rows)
    assert c.extend({4: f(1), 5: f(1)})
    assert (c.dim, s.dim) == (s.dim + 1, rebuilt.dim)
    assert not s.contains({5: f(1), 4: f(1)})


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF(7)"])
def test_solver_copy_and_int_membership(field):
    s = EchelonSolver(field)
    assert s.add_ints({0: 2, 3: 4}) and s.add_ints({1: 3, 2: 5})
    assert s.contains_ints({0: 2, 1: 3, 2: 5, 3: 4}) and not s.contains_ints({0: 1})
    c = s.copy()
    assert c.add_ints({0: 1}) and (c.rank, s.rank) == (3, 2)
    assert c.contains_ints({0: 1}) and not s.contains_ints({0: 1})
    with pytest.raises(ValueError):
        EchelonSolver(field, track=True).copy()


def test_reduce_returns_canonical_remainder():
    s = Subspace(QQ, [{0: q(1), 1: q(1)}])
    rem = s.reduce({0: q(1), 1: q(3)})
    assert rem and 0 not in rem
    assert s.sum(Subspace(QQ, [rem])).contains({0: q(1), 1: q(3)})


def test_reduced_basis_rows_are_self_reduced():
    s = Subspace(QQ, [{0: q(1), 1: q(2)}, {0: q(1), 1: q(1), 2: q(1)}])
    rows = s.reduced_basis_rows()
    pivots = [min(r) for r in rows]
    for r in rows:
        for other_pivot in pivots:
            if other_pivot != min(r):
                assert other_pivot not in r


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF(7)"])
def test_reduced_ints_are_the_reduced_echelon_rows(field):
    f = field.of
    s = Subspace(field, [{2: f(3), 4: f(1)}, {0: f(2), 1: f(4), 2: f(1), 4: f(5)},
                         {1: f(3), 3: f(-1), 4: f(2)}])
    solver = s._solver
    stored = repr(solver._rows)
    for want in s.reduced_basis_rows():
        pivot = min(want)
        got = solver.reduced_ints(pivot)
        assert min(got) == pivot and {c: f(x) / f(got[pivot]) for c, x in got.items()} == want
    assert repr(solver._rows) == stored  # the stored rows are left as they were


def test_kernel_of_columns():
    # columns c0 = e0, c1 = e0 (duplicate), c2 = e1
    cols = [{0: q(1)}, {0: q(1)}, {1: q(1)}]
    ker = kernel_of_columns(cols, QQ)
    assert len(ker) == 1
    v = ker[0]
    assert 2 not in v
    assert v[0] * cols[0][0] + v[1] * cols[1][0] == QQ.zero


def test_kernel_rank_nullity():
    cols = [{0: q(1), 1: q(2)}, {0: q(2), 1: q(4)}, {0: q(1)}, {1: q(1)}]
    ker = kernel_of_columns(cols, QQ)
    rank = Subspace(QQ, cols).dim
    assert rank + len(ker) == len(cols) == 4
    for v in ker:
        acc = {}
        for idx, c in v.items():
            vec_add_scaled(acc, c, cols[idx])
        assert acc == {}


def _column_solver(cols, field):
    solver = EchelonSolver(field, track=True)
    for j, col in enumerate(cols):
        solver.add(col, tag=j)
    return solver


def test_linear_system_solve():
    cols = [{0: q(1), 1: q(1)}, {1: q(1)}]
    sol = _column_solver(cols, QQ).solve({0: q(2), 1: q(5)})
    assert sol is not None
    acc = {}
    for idx, c in sol.items():
        vec_add_scaled(acc, c, cols[idx])
    assert acc == {0: q(2), 1: q(5)}
    assert _column_solver(cols, QQ).solve({2: q(1)}) is None


def test_prime_field_subspace():
    gf = PrimeField(5)
    s = Subspace(gf, [{0: gf.of(2), 1: gf.of(4)}])
    assert s.contains({0: gf.of(1), 1: gf.of(2)})
    assert not s.contains({0: gf.of(1), 1: gf.of(3)})


# -- the int-backed solver against the field-element reference ---------

FIELDS = {"Q": QQ, "GF(32003)": PrimeField(32003), "GF(2)": PrimeField(2)}
NCOORDS = 7


def _entries(field):
    if field.char:
        return st.integers(1, field.char - 1).map(field.of)
    small = st.integers(-3, 3).filter(bool).map(Fraction)
    large = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30).filter(bool),
                      st.integers(1, 10 ** 20))
    return st.one_of(small, st.builds(Fraction, st.integers(-9, 9).filter(bool),
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
        got, want = Subspace(field, vecs), ref.Subspace(field, vecs)
        assert got.dim == want.dim
        assert [min(r) for r in got.basis_rows()] == [min(r) for r in want.basis_rows()]
        assert [_literal(r) for r in got.basis_rows()] == \
            [_literal(r) for r in want.basis_rows()]
        assert [_literal(r) for r in got.reduced_basis_rows()] == \
            [_literal(r) for r in want.reduced_basis_rows()]
        for v in vecs + probes:
            assert _literal(got.reduce(v)) == _literal(want.reduce(v))
        assert [_literal(k) for k in kernel_of_columns(vecs, field)] == \
            [_literal(k) for k in ref.kernel_of_columns(vecs, field)]

        solver, ref_solver = EchelonSolver(field, track=True), ref.EchelonSolver(field, True)
        for j, v in enumerate(vecs):
            assert _literal(solver.add(v, tag=j)) == _literal(ref_solver.add(v, tag=j))
        assert solver.rank == ref_solver.rank
        for v in vecs + probes:
            assert _literal(solver.solve(v)) == _literal(ref_solver.solve(v))

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
    # reference's pairs, literally; every other column is stored
    pytest.importorskip("hypothesis")
    field = FIELDS[name]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_columns(field))
    def check(columns):
        zeros, kernel, stored = int_kernel(columns, field)
        want = ref.int_kernel(columns, field)
        assert zeros == [f for f, (V, _S) in enumerate(columns) if not V]
        literal = [(f, [(c, type(x), x) for c, x in C.items()]) for f, C in want
                   if columns[f][0]]
        assert [(f, [(c, type(x), x) for c, x in C.items()]) for f, C in kernel] == literal
        assert stored == set(range(len(columns))) - {f for f, _C in want}

    check()
