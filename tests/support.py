"""Shared helpers for the randomized property checks.

Kept outside conftest so both the property suite and the acceptance
suite can run the same identities without duplicating generators.
"""

import importlib.util
import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

from koszulkit import corpus
from koszulkit.conditions import StretchedSpec
from koszulkit.errors import InputError
from koszulkit.fields import PrimeField, QQ
from koszulkit.koszul import KoszulElement, homology_algebra
from koszulkit.linalg import Subspace, field_vector, int_vector
from koszulkit.poly import MonomialOrder, Polynomial, monomials_of_degree
from koszulkit.quotient import QuotientRing

GRADED_CORPUS = ("case66", "case54", "case55", "case71v16", "socle4")

SEED = 20260823

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def span_of(field, vectors):
    """The `Subspace` of field vectors, each put in as ints."""
    space = Subspace(field)
    for vec in vectors:
        space.extend(int_vector(vec, field.char)[0])
    return space


def basis_rows(field, space):
    """The echelon basis of a `Subspace` as field vectors with pivot
    coefficient one, ordered by pivot."""
    return [field_vector(field.char, V, S) for V, S in space.basis_pairs()]


def bench_workloads():
    """The benchmark's workload module, read by path: its task lists and
    answer checks.  Its dataclasses look their module up in sys.modules,
    so it is loaded there once."""
    module = sys.modules.get("perfbench_workloads")
    if module is None:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        module = sys.modules["perfbench_workloads"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


RANDOM_RING_FIELDS = {
    # fractions put denominators into the action tables of the sweep
    "Q": (QQ, [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]),
    "GF32003": (PrimeField(32003), [0, 0, 1, -1, 2, 16002, 31999]),
}

# the fields of the resolution sweep's comparisons and oracles: GF(2) adds
# the field whose signs and characteristic-two cancellations differ most
# from Q's
SWEEP_FIELDS = dict(RANDOM_RING_FIELDS, GF2=(PrimeField(2), [0, 0, 1]))


def artinian_rings(field, coefficients, orders=(MonomialOrder.GREVLEX,), degree=2,
                   variables=(2, 3)):
    """Hypothesis strategy: a graded ring in 2-3 variables (`variables`)
    with 1-3 forms of the given degree, quadrics by default, plus
    m^(degree + 1), in one of the given term orders, and its ungraded
    twin: r0 + r1*x_n replaces r0, which keeps the ideal."""
    from hypothesis import strategies as st

    @st.composite
    def build(draw):
        n = draw(st.integers(*variables))
        order = draw(st.sampled_from(orders))
        monos = list(monomials_of_degree(n, degree))
        coeff = st.sampled_from(coefficients)
        forms = []
        for _ in range(draw(st.integers(1, 3))):
            terms = [(m, field.of(c)) for m, c in zip(monos, draw(
                st.lists(coeff, min_size=len(monos), max_size=len(monos))))]
            forms.append(Polynomial(n, field, order, [(m, c) for m, c in terms if c]))
        top = [Polynomial.from_monomial(n, field, order, m)
               for m in monomials_of_degree(n, degree + 1)]
        rels = [f for f in forms if f] + top
        names = tuple("xyz"[:n])
        ring = QuotientRing(field, names, rels, order)
        twin = QuotientRing(field, names,
                            [rels[0] + rels[1] * ring.variable(n - 1)] + rels[1:], order)
        return ring, twin

    return build()


def random_polynomial(rng, ring, degree):
    out = ring.zero_poly()
    for mono in ring.std_basis(degree):
        c = rng.randint(-3, 3)
        if c:
            out = out + Polynomial.from_monomial(ring.n, ring.field, ring.order,
                                                 mono, ring.field.of(c))
    return out


def random_element(rng, ring, length, degree):
    """At most two terms of the given exterior length; may be zero."""
    subsets = list(combinations(range(ring.n), length))
    el = KoszulElement.zero(ring)
    for key in rng.sample(subsets, k=min(2, len(subsets))):
        p = random_polynomial(rng, ring, degree)
        if p:
            el = el + KoszulElement.term(ring, p, key)
    return el


def assert_dg_identities(rng, ring, rounds=4):
    """d^2 = 0, Leibniz, graded commutativity, associativity."""
    for _ in range(rounds):
        la = rng.randint(0, 2)
        lb = rng.randint(0, 2)
        a = random_element(rng, ring, la, rng.randint(0, 2))
        b = random_element(rng, ring, lb, rng.randint(0, 2))
        c = random_element(rng, ring, rng.randint(0, 2), 1)
        assert a.diff().diff().is_zero()
        ab = a * b
        signed = a * b.diff()
        if la % 2:
            signed = -signed
        assert ab.diff() == a.diff() * b + signed
        ba = b * a
        if la % 2 and lb % 2:
            ba = -ba
        assert ab == ba
        assert (a * b) * c == a * (b * c)


def assert_euler_identity(ring):
    """Strandwise Euler characteristics of K and H agree."""
    alg = homology_algebra(ring)
    jmax = max(j for _i, j in alg.pieces)
    for j in range(jmax + 3):
        chi_complex = sum((-1) ** i * len(ring.std_basis(j - i)) * comb(ring.n, i)
                          for i in range(min(j, ring.n) + 1))
        chi_homology = sum((-1) ** i * alg.dim(i, j)
                           for i in range(ring.n + 1))
        assert chi_complex == chi_homology, (ring.label, j)


def assert_gb_permutation_invariant(rng, name):
    defn = corpus.get_definition(name)
    rels = list(defn.relations)
    rng.shuffle(rels)
    shuffled = QuotientRing(defn.field, defn.var_names, rels, defn.order)
    assert shuffled.groebner_basis == corpus.get_ring(name).groebner_basis


_ORDER_DIMS = {}


def homology_dims_in_order(name, order):
    key = (name, order.value)
    if key not in _ORDER_DIMS:
        ring = corpus.get_definition(name).build(order=order)
        alg = homology_algebra(ring)
        _ORDER_DIMS[key] = {k: p.dim for k, p in alg.pieces.items() if p.dim}
    return _ORDER_DIMS[key]


def random_stretched_spec(rng, field=QQ):
    """p >= 1 so the distinguished cycle exists; resamples singular a."""
    v = rng.randint(2, 4)
    r = rng.randint(1, v - 1)
    return random_symmetric_spec(rng, v, r, rng.choice((3, 4)), field)


def stretched_specs(field=QQ):
    """Hypothesis strategy: the specs of `random_stretched_spec`, with
    the entries of the symmetric a drawn; a singular a is rejected."""
    from hypothesis import assume, strategies as st

    @st.composite
    def build(draw):
        v = draw(st.integers(2, 4))
        r = draw(st.integers(1, v - 1))
        h = draw(st.sampled_from((3, 4)))
        p = v - r
        rows = [[0] * p for _ in range(p)]
        for i in range(p):
            for j in range(i, p):
                rows[i][j] = rows[j][i] = draw(st.integers(-2, 2))
        try:
            return StretchedSpec(v, r, h, a=tuple(tuple(Fraction(x) for x in row)
                                                  for row in rows), field=field)
        except InputError:
            assume(False)

    return build()


def random_symmetric_spec(rng, v, r, h, field=QQ):
    """The stretched spec (v, r, h) over the field with a random
    invertible symmetric a."""
    p = v - r
    while True:
        rows = [[0] * p for _ in range(p)]
        for i in range(p):
            for j in range(i, p):
                rows[i][j] = rows[j][i] = rng.randint(-2, 2)
        a = tuple(tuple(Fraction(x) for x in row) for row in rows)
        try:
            return StretchedSpec(v, r, h, a=a, field=field)
        except InputError:
            continue
