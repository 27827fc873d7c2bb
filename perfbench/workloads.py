"""Seeded inputs, op lists and answer checks for the koszulkit benchmark.

A workload is a list of tasks.  A task is one ring's sequence of ops,
starting from generated ring text (resolve, homology) or a stretched-ring
spec (local); no ring object is shared between tasks, and the corpus ring
cache is never used, because a command-line user pays ring construction
and cache fill on every run.  Each op is one public-API call.  Its answer
is checked against an identity computed independently of the op, outside
the timed region.

koszulkit functions are reached through their modules (``resolutions.
betti_numbers_k``, not a name imported here) so that the traced run sees
every call through the wrappers it installs on those modules.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from math import comb
from typing import Any, Callable

from koszulkit import conditions, corpus, koszul, quotient, resolutions, ringdef, series
from koszulkit.errors import InputError
from koszulkit.poly import MonomialOrder

WORKLOADS = ("resolve", "homology", "local")
SIZES = ("full", "tiny")
GF_MODULUS = 32003


class AnswerMismatch(Exception):
    """An op returned an answer that fails its independent check."""


@dataclass(frozen=True)
class Op:
    """One timed public-API call plus its answer check.

    `run(state)` performs the call, may store results in the task state
    for later ops, and returns the call's result.  `check(result, state)`
    raises AnswerMismatch on a wrong answer and otherwise returns a short
    canonical text of the answer, which feeds the run's answer digest.
    """

    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], str]


@dataclass(frozen=True)
class Task:
    label: str
    data: dict = field(repr=False)
    ops: tuple = ()


def _require(cond: bool, what: str):
    if not cond:
        raise AnswerMismatch(what)


# -- ring text generation ---------------------------------------------


def _monomials(names, degree):
    out = []
    for combo in itertools.combinations_with_replacement(range(len(names)), degree):
        parts = []
        for i, group in itertools.groupby(combo):
            e = len(list(group))
            parts.append(names[i] if e == 1 else "%s^%d" % (names[i], e))
        out.append("*".join(parts))
    return out


def _poly_text(terms):
    """Signed (coefficient, monomial) pairs as ring-definition text."""
    chunks = []
    for c, mono in terms:
        sign = "-" if c < 0 else "+"
        chunks.append("%s %d*%s" % (sign, abs(c), mono))
    text = " ".join(chunks)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _ring_text(field_name, names, relations):
    return "field %s\nvars %s\nideal:\n%s\n" % (field_name, ",".join(names),
                                                  "\n".join(relations))


def random_quadric_ring(rng, field_name, names, count, power, coeff):
    """`count` random quadrics plus every monomial of degree `power`.

    Each quadric draws a coefficient `coeff(rng)` for every quadratic
    monomial; zero draws drop the monomial.
    """
    quads = _monomials(names, 2)
    relations = []
    while len(relations) < count:
        poly = [(c, m) for c, m in ((coeff(rng), m) for m in quads) if c]
        if poly:
            relations.append(_poly_text(poly))
    relations.extend(_monomials(names, power))
    return _ring_text(field_name, names, relations)


def _gf_coeff(rng):
    return rng.randint(1, GF_MODULUS - 1)


def _small_coeff(rng):
    return rng.randint(-3, 3)


def random_stretched_spec(rng, v, p, h):
    """A stretched spec (v, r = v - p, h) with a random symmetric invertible a."""
    r = v - p
    while True:
        rows = [[0] * p for _ in range(p)]
        for i in range(p):
            for j in range(i, p):
                rows[i][j] = rows[j][i] = rng.randint(-2, 2)
        try:
            return conditions.StretchedSpec(v, r, h, a=tuple(tuple(row) for row in rows))
        except InputError:  # singular a: draw again
            continue


# -- answer identities --------------------------------------------------


def _truncated_product(a, b, limit):
    out = [0] * (limit + 1)
    for i, x in enumerate(a[:limit + 1]):
        for j, y in enumerate(b[:limit + 1 - i]):
            out[i + j] += x * y
    return out


def hilbert_betti_identity(ring, data, limit):
    """H_R(w) * sum_ij (-1)^i beta_ij w^j == 1 mod w^(limit+1).

    Exact in that range because beta_ij = 0 for j < i, so every beta_ij
    with j <= limit has i <= limit and is in the computed resolution.
    """
    signed = [0] * (limit + 1)
    for (i, j), count in data.bigraded_betti().items():
        if j <= limit:
            signed[j] += (-1) ** i * count
    product = _truncated_product(hilbert_function(ring, limit + 1), signed, limit)
    return product == [1] + [0] * limit


def euler_identity(ring, algebra):
    """Strandwise Euler characteristics of K and of its homology agree."""
    jmax = max(j for _i, j in algebra.pieces)
    n = ring.n
    for j in range(jmax + 3):
        chi_k = sum((-1) ** i * len(ring.std_basis(j - i)) * comb(n, i)
                    for i in range(min(j, n) + 1))
        chi_h = sum((-1) ** i * algebra.dim(i, j) for i in range(n + 1))
        if chi_k != chi_h:
            return False
    return True


def hilbert_function(ring, degrees=8):
    """dim R_d for d < degrees; defined for non-artinian rings such as case66."""
    return [len(ring.std_basis(d)) for d in range(degrees)]


def relations_reduce_to_zero(ring, defn):
    return all(not ring.normal_form(r).terms for r in defn.relations)


def golod_expected(ring, limit):
    """socle4's Betti numbers of k from the Golod-type series formula."""
    top_rank = ring.power_ideal_subspace(ring.top_degree).dim
    h = koszul.homology_h_polynomial(quotient.truncated_ring(ring, ring.top_degree))
    return series.expand(series.golod_formula_series(ring.n, top_rank, h), limit)


# -- ops ------------------------------------------------------------------


def _parse_run(st):
    st["defn"] = ringdef.parse_ring_definition(st["text"], label=st["label"])
    return st["defn"]


def _parse_check(defn, st):
    _require(len(defn.relations) == st["relations"], "relation count")
    return "relations=%d" % len(defn.relations)


def _build_run(st):
    st["ring"] = st["defn"].build()
    return st["ring"]


def _build_check(ring, st):
    _require(ring.graded, "graded ring")
    _require(relations_reduce_to_zero(ring, st["defn"]), "relations in the ideal")
    hf = hilbert_function(ring)
    lex = st.get("lex")
    if lex is not None:
        _require(hilbert_function(lex) == hf, "lex and grevlex Hilbert functions")
    return "hf=%s gb=%d" % (hf, len(ring.groebner_basis))


def _gb_lex_run(st):
    st["lex"] = st["defn"].build(order=MonomialOrder.LEX)
    return st["lex"]


def _gb_lex_check(lex, st):
    _require(relations_reduce_to_zero(lex, st["defn"]), "relations in the lex ideal")
    return "lex_gb=%d" % len(lex.groebner_basis)


def _betti_graded_run(st):
    return resolutions.betti_numbers_k(st["ring"], st["limit"])


def _betti_graded_check(data, st):
    ring, limit = st["ring"], st["limit"]
    betti = data.betti_numbers()
    _require(hilbert_betti_identity(ring, data, limit), "Hilbert-Betti identity")
    if st.get("golod"):
        _require(betti == golod_expected(ring, limit), "Golod series formula")
    return "betti=%s" % betti


def _tor_op(s, b, limit):
    def run(st):
        return resolutions.tor_map_vanishes(st["ring"], s, b, limit)

    def check(report, st):
        _require(report.vanishes, "Tor map of m^%d -> m^%d vanishes" % (s, b))
        return "tor(%d,%d,%d)=%s" % (s, b, limit, report.degrees)

    return Op("tor_map", run, check)


def _homology_run(st):
    st["algebra"] = koszul.homology_algebra(st["ring"])
    return st["algebra"]


def _homology_check(algebra, st):
    _require(euler_identity(st["ring"], algebra), "strandwise Euler identity")
    return "dims=%s" % sorted(algebra.bigraded_dims().items())


def _generators_run(st):
    st["generators"] = st["algebra"].generators()
    return st["generators"]


def _generators_check(gens, st):
    for label, bd, el in gens:
        _require(el.is_cycle() and el.bidegree() == bd, "generator %s is a cycle in %s"
                 % (label, bd))
    return "generators=%s" % [bd for _l, bd, _el in gens]


def _nonlinear_run(st):
    return conditions.check_nonlinear_generated_by(
        st["ring"], [el for _l, _bd, el in st["generators"]])


def _nonlinear_check(report, st):
    _require(report.verdict, "all generators generate the nonlinear strands")
    return "nonlinear=%s pieces=%d" % (report.verdict, len(report.pieces))


def _first_degree_one_class(st):
    for _l, bd, el in st["generators"]:
        if bd[0] == 1:
            return el
    raise AnswerMismatch("no generator of homological degree 1")


def _p_graded_run(st):
    return conditions.check_P_graded(st["ring"], 2, 1, _first_degree_one_class(st))


def _p_graded_check(report, st):
    expected = [k for k in st["algebra"].support() if k[1] - k[0] >= 2]
    _require([p.key for p in report.pieces] == expected, "one piece per strand >= 2 bidegree")
    return "P(2,1)=%s failing=%s" % (report.verdict,
                                     [p.key for p in report.failing_pieces()])


def _stretched_build_run(st):
    st["ring"] = conditions.build_stretched_ring(st["spec"])
    return st["ring"]


def _stretched_build_check(ring, st):
    spec = st["spec"]
    _require(ring.dim == spec.v + spec.h and not ring.graded, "stretched ring shape")
    return "dim=%d" % ring.dim


def _f_cycle_run(st):
    st["F"] = conditions.stretched_F_cycle(st["spec"], st["ring"])
    return st["F"]


def _f_cycle_check(F, st):
    _require(F.homological_degree() == 1 and F.is_cycle(), "F is a one-cycle")
    return "F=%s" % ringdef.format_koszul_element(F)


def _p_local_run(st):
    return conditions.check_P_local(st["ring"], 2, 1, st["F"])


def _p_local_check(report, st):
    _require(report.verdict, "P(2,1) holds on the filtration")
    return "P_local=%s" % [(p.source_dim, p.target_rank) for p in report.pieces]


def _betti_local_run(st):
    return resolutions.betti_numbers_k(st["ring"], st["limit"])


def _betti_local_check(data, st):
    spec = st["spec"]
    betti = data.betti_numbers()
    _require(not data.graded, "ungraded resolution")
    _require(betti == series.expand(series.stretched_series(spec.v, spec.r), st["limit"]),
             "stretched Poincare series")
    return "betti=%s" % betti


PARSE = Op("parse", _parse_run, _parse_check)
BUILD = Op("build", _build_run, _build_check)
GB_LEX = Op("gb_lex", _gb_lex_run, _gb_lex_check)
BETTI_GRADED = Op("betti_k", _betti_graded_run, _betti_graded_check)
HOMOLOGY = Op("homology", _homology_run, _homology_check)
GENERATORS = Op("generators", _generators_run, _generators_check)
NONLINEAR = Op("check_nonlinear", _nonlinear_run, _nonlinear_check)
P_GRADED = Op("check_p_graded", _p_graded_run, _p_graded_check)
STRETCHED_BUILD = Op("stretched_build", _stretched_build_run, _stretched_build_check)
F_CYCLE = Op("f_cycle", _f_cycle_run, _f_cycle_check)
P_LOCAL = Op("check_p_local", _p_local_run, _p_local_check)
BETTI_LOCAL = Op("betti_k", _betti_local_run, _betti_local_check)


# -- workloads --------------------------------------------------------------

# Corpus rings of the resolve workload: (name, betti_k limit, tor_map cases).
RESOLVE_CORPUS = {
    "full": (("case54", 6, ()), ("case55", 6, ()), ("case66", 5, ((2, 1, 4),)),
             ("case71v16", 5, ()), ("socle4", 4, ((4, 2, 2),))),
    "tiny": (("case54", 3, ()), ("socle4", 2, ((4, 2, 1),))),
}
# Quadric counts of the random GF(32003) rings in four variables with m^3 = 0.
# Dense generic quadrics give seed-independent Betti numbers, so the cost
# of a ring depends on its count, not on the seed.
RESOLVE_RANDOM = {"full": ((6, 4), (7, 4), (9, 4), (9, 4)), "tiny": ((9, 3),)}

# Random rings of the homology workload over Q: (variables, quadric count,
# power of m in the ideal).  Quadrics with coefficients in -3..3 on every
# monomial are generic, so the homology, and with it the cost, barely
# depends on the seed (within ~5% for these shapes), while their Groebner
# bases still carry growing rational coefficients.  One five-variable ring
# carries most of the time; three small m^4 rings put a dense cluster of
# ops around the tail percentile, so which op sits there does not hinge
# on one ring's draw.  Five variables with 6 or more quadrics, or with m^4,
# cost 5-15 s a ring and would leave too few passes in a run.
HOMOLOGY_CORPUS = {"full": ("socle4", "case54"), "tiny": ("case54",)}
HOMOLOGY_RANDOM = {
    "full": ((5, 5, 3), (4, 5, 4), (4, 5, 4), (4, 5, 4)),
    "tiny": ((4, 6, 3),),
}

# (v, p = v - r, h) of the stretched rings of the local workload: every
# (v, p) with v in 3..7, 1 <= p <= 3 and v + p <= 8, twice, with h cycling
# through 3..5, so that only the matrix a depends on the seed and the mix of
# op latencies stays the same; two rounds make that mix dense enough for a
# steady median.  Larger shapes make single betti_k ops of seconds (v = 7,
# r = 1 alone takes ~5 s on a 2.1 GHz Xeon core with Python 3.11 and
# fractions.Fraction), which would leave too few passes in a run.
_LOCAL_VP = [(v, p) for v in range(3, 8) for p in range(1, min(3, v - 1, 8 - v) + 1)]
LOCAL_SHAPES = {
    "full": tuple((v, p, 3 + k % 3) for k, (v, p) in enumerate(_LOCAL_VP * 2)),
    "tiny": ((3, 1, 3), (4, 2, 4)),
}
LOCAL_LIMIT = {"full": 5, "tiny": 3}


def _text_task(label, text, ops, **extra):
    relations = [line for line in text.split("ideal:", 1)[1].splitlines() if line.strip()]
    data = dict(label=label, text=text, relations=len(relations), **extra)
    return Task(label, data, tuple(ops))


def make_tasks(workload: str, seed: int, size: str = "full") -> list[Task]:
    """The workload's task list; the same seed gives the same tasks."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    if size not in SIZES:
        raise ValueError("unknown size %r" % size)
    rng = random.Random("koszulkit-bench:%s:%d:%s" % (workload, seed, size))
    tasks = []
    if workload == "resolve":
        for name, limit, tors in RESOLVE_CORPUS[size]:
            ops = [PARSE, BUILD, BETTI_GRADED] + [_tor_op(*t) for t in tors]
            tasks.append(_text_task(name, corpus.get_text(name), ops, limit=limit,
                                    golod=name == "socle4"))
        names = ("x", "y", "z", "u")
        for k, (count, limit) in enumerate(RESOLVE_RANDOM[size]):
            text = random_quadric_ring(rng, "GF(%d)" % GF_MODULUS, names, count, 3, _gf_coeff)
            tasks.append(_text_task("gf_quadrics%d_q%d" % (k, count), text,
                                    (PARSE, BUILD, BETTI_GRADED), limit=limit))
    elif workload == "homology":
        ops = (PARSE, GB_LEX, BUILD, HOMOLOGY, GENERATORS, NONLINEAR, P_GRADED)
        for name in HOMOLOGY_CORPUS[size]:
            tasks.append(_text_task(name, corpus.get_text(name), ops))
        for k, (nvars, count, power) in enumerate(HOMOLOGY_RANDOM[size]):
            names = tuple("abcde"[:nvars])
            text = random_quadric_ring(rng, "Q", names, count, power, _small_coeff)
            tasks.append(_text_task("q_quadrics%d_q%d_m%d" % (k, count, power), text, ops))
    else:
        limit = LOCAL_LIMIT[size]
        for k, (v, p, h) in enumerate(LOCAL_SHAPES[size]):
            spec = random_stretched_spec(rng, v, p, h)
            label = "stretched%d_v%d_r%d_h%d" % (k, spec.v, spec.r, spec.h)
            tasks.append(Task(label, dict(spec=spec, limit=limit),
                              (STRETCHED_BUILD, F_CYCLE, P_LOCAL, BETTI_LOCAL)))
    return tasks


def describe_inputs(tasks) -> str:
    """Canonical text of the generated inputs, for the input digest."""
    lines = []
    for task in tasks:
        spec = task.data.get("spec")
        body = task.data.get("text") if spec is None else repr(
            (spec.v, spec.r, spec.h, spec.a))
        lines.append("%s\n%s\n%s" % (task.label, [op.name for op in task.ops], body))
    return "\n".join(lines)
