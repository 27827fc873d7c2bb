import io
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import koszulkit
from koszulkit import corpus
from koszulkit.cli import main
from koszulkit.ringdef import format_ring_definition, parse_ring_definition

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = [
    (["betti", "case54"], "betti_case54_over_poly.txt", 0),
    (["betti", "socle4"], "betti_socle4_over_poly.txt", 0),
    (["gb", "socle4", "--order", "lex"], "gb_socle4_lex.txt", 0),
    (["homology", "case54"], "homology_case54.txt", 0),
    (["series", "golod", "socle4", "--s", "4"], "series_golod_socle4.txt", 0),
    (["corpus", "get", "case66"], "corpus_get_case66.txt", 0),
    (["stretched", "build", "--v", "3", "--r", "2", "--h", "3", "--a", "1"],
     "stretched_build_v3r2h3.txt", 0),
    (["betti", "stretched32", "--of-k", "--limit", "4"],
     "betti_stretched32_of_k.txt", 0),
    (["check", "p-cond", "case54", "--t", "2", "--r", "1", "--cycle", "x*T1"],
     "check_p_case54_fail.txt", 1),
    (["check", "z-cond", "socle4", "--t", "2", "--b", "2", "--s", "4",
      "--cycles", "(a*c-b*d)*T1 + c^2*T3", "--json"], "check_z_socle4.json", 0),
]


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("argv,fname,want_rc",
                         GOLDEN_CASES, ids=[c[1] for c in GOLDEN_CASES])
def test_golden_output(capsys, argv, fname, want_rc):
    rc, out, _err = run(capsys, argv)
    assert rc == want_rc
    assert out == (GOLDEN / fname).read_text()


def test_repeated_runs_are_byte_identical(capsys):
    first = run(capsys, ["homology", "case54"])
    second = run(capsys, ["homology", "case54"])
    assert first == second


def test_json_reports_validate_against_schema(capsys):
    schema = json.loads(resources.files("koszulkit")
                        .joinpath("report_schema.json").read_text())
    for argv, rc_want in [
        (["check", "z-cond", "socle4", "--t", "2", "--b", "2", "--s", "4",
          "--cycles", "(a*c-b*d)*T1 + c^2*T3", "--json"], 0),
        (["check", "p-cond", "case54", "--t", "2", "--r", "1",
          "--cycle", "x*T1", "--json"], 1),
        (["check", "z-cond", "socle4", "--t", "1", "--b", "1", "--s", "2",
          "--cycles", "c^2*T1*T4", "--json"], 2),
        (["check", "trivial-products", "case54", "--cycles", "x*T1", "z*T3",
          "--json", "--timing"], 0),
    ]:
        rc, out, _err = run(capsys, argv)
        assert rc == rc_want
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert doc["command"] == "koszulkit " + " ".join(argv)
    assert "timing" in doc


def test_ring_from_stdin_and_file(capsys, monkeypatch, tmp_path):
    text = corpus.get_text("case54")
    want = run(capsys, ["gb", "case54"])[1]
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    rc, out, _err = run(capsys, ["gb", "-"])
    assert rc == 0 and out == want
    path = tmp_path / "ring.txt"
    path.write_text(text)
    rc, out, _err = run(capsys, ["gb", str(path)])
    assert rc == 0 and out == want


def test_bad_input_exit_codes(capsys, monkeypatch):
    rc, _out, err = run(capsys, ["gb", "nosuchring"])
    assert rc == 3 and "unknown ring" in err
    monkeypatch.setattr(sys, "stdin", io.StringIO("field Q\nvars x\nideal x^2 +* y\n"))
    rc, _out, err = run(capsys, ["gb", "-"])
    assert rc == 3 and "error:" in err
    rc, _out, err = run(capsys, ["socle", "case66"])
    assert rc == 3
    rc, _out, err = run(capsys, ["series", "golod", "socle4", "--s", "1"])
    assert rc == 3
    rc, _out, err = run(capsys, ["check", "nonlinear-gen", "case54",
                                 "--classes", "g99"])
    assert rc == 3 and "no algebra generator" in err


def test_budget_exit_code(capsys, monkeypatch):
    from koszulkit import groebner
    monkeypatch.setattr(groebner, "PAIR_BUDGET", 0)
    monkeypatch.setattr(sys, "stdin", io.StringIO("field Q\nvars x,y\nideal:\nx^2 + y^2\nx*y\n"))
    rc, out, err = run(capsys, ["gb", "-"])
    assert rc == 4 and out == ""
    assert err == "error: Buchberger pair budget of 0 S-pair reductions exceeded\n"


def test_internal_error_exit_code(capsys, monkeypatch):
    # every coordinate counts as a unit entry, so the minimality check of
    # the second resolution step fails
    from koszulkit import resolutions
    monkeypatch.setattr(resolutions.FreeModule, "constant_slots",
                        lambda self, j: range(10**9))
    rc, out, err = run(capsys, ["betti", "stretched32", "--of-k", "--limit", "2"])
    assert rc == 5 and out == ""
    assert err == "internal error: resolution lost minimality\n"


def test_usage_errors_exit_three(capsys):
    for argv in (["check", "p-cond", "case54", "--t", "2", "--r", "1"],
                 ["betti", "case54", "--of-k", "--over-poly"],
                 ["frobnicate"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3


def test_hypothesis_exit_codes(capsys):
    rc, out, _err = run(capsys, ["check", "z-cond", "socle4", "--t", "1",
                                 "--b", "1", "--s", "2",
                                 "--cycles", "c^2*T1*T4"])
    assert rc == 2
    assert out.rstrip().endswith("verdict: hypotheses not met")
    rc, _out, err = run(capsys, ["homology", "stretched32"])
    assert rc == 2 and "graded" in err
    rc, _out, err = run(capsys, ["series", "golod", "socle4", "--s", "5"])
    assert rc == 2


def test_false_verdict_exit_codes(capsys):
    rc, out, _err = run(capsys, ["check", "trivial-products", "case54",
                                 "--cycles", "x*T1", "y*T2"])
    assert rc == 1
    assert "witness: x*y*T1*T2" in out
    rc, out, _err = run(capsys, ["series", "compare", "stretched32",
                                 "--formula", "1/(1-2z)", "--limit", "3"])
    assert rc == 1 and out.endswith("match: no\n")


def test_generator_labels_resolve(capsys):
    labels = ["g%d" % i for i in range(1, 11)]
    rc, out, _err = run(capsys, ["check", "nonlinear-gen", "case54",
                                 "--classes"] + labels)
    assert rc == 0
    assert out.rstrip().endswith("verdict: true")


def test_socle_listing(capsys):
    rc, out, _err = run(capsys, ["socle", "socle4"])
    assert rc == 0 and out == "a*c*d^2\na*d^3\n"
    rc, out, _err = run(capsys, ["socle", "stretched32"])
    assert rc == 0 and out == "w1\nz1^2\n"


def test_series_compare_match(capsys):
    rc, out, _err = run(capsys, ["series", "compare", "stretched32",
                                 "--formula", "1/(1-3z+z^2)", "--limit", "4"])
    assert rc == 0
    assert out == ("formula: 1 3 8 21 55\n"
                   "betti:   1 3 8 21 55\n"
                   "match: yes\n")


def test_corpus_listing_and_round_trip(capsys):
    rc, out, _err = run(capsys, ["corpus", "list"])
    assert rc == 0
    assert out.split() == list(corpus.names())
    for name in corpus.names():
        rc, out, _err = run(capsys, ["corpus", "get", name])
        assert rc == 0
        # stored texts keep their source spelling; canonical forms must agree
        canonical = format_ring_definition(parse_ring_definition(out))
        assert canonical == format_ring_definition(corpus.get_definition(name))
        assert format_ring_definition(parse_ring_definition(canonical)) == canonical


def _prepend_env(monkeypatch, var, first):
    monkeypatch.setenv(var, os.pathsep.join(filter(None, [first, os.environ.get(var)])))


def _child_imports_this_koszulkit(monkeypatch):
    # a child process must import the same koszulkit that is under test here
    _prepend_env(monkeypatch, "PYTHONPATH",
                 str(Path(koszulkit.__file__).resolve().parent.parent))


def test_console_script_runs(tmp_path, monkeypatch):
    # Run the entry point declared in pyproject.toml as its own process,
    # through a launcher like the one pip writes, so no install is needed.
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads(
        (Path(__file__).parent.parent / "pyproject.toml").read_text())
    target = pyproject["project"]["scripts"]["koszulkit"]
    module, attr = target.split(":")
    launcher = tmp_path / "koszulkit"
    launcher.write_text("#!%s\n"
                        "import sys\n"
                        "from %s import %s\n"
                        "sys.exit(%s())\n" % (sys.executable, module, attr, attr))
    launcher.chmod(0o755)
    _prepend_env(monkeypatch, "PATH", str(tmp_path))
    _child_imports_this_koszulkit(monkeypatch)
    proc = subprocess.run(["koszulkit", "corpus", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == list(corpus.names())


def test_python_dash_m_runs(monkeypatch):
    _child_imports_this_koszulkit(monkeypatch)
    proc = subprocess.run([sys.executable, "-m", "koszulkit", "corpus", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == list(corpus.names())


def test_huge_prime_modulus_is_decided_fast(capsys, monkeypatch):
    ring = "field GF(%d)\nvars x,y\nideal:\nx^2\ny^3\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(ring % (10**18 + 3)))
    start = time.perf_counter()
    rc, out, _err = run(capsys, ["gb", "-"])
    assert rc == 0 and out.split() == ["x^2", "y^3"]
    assert time.perf_counter() - start < 5
    # past the proven range of the primality test a modulus is refused
    monkeypatch.setattr(sys, "stdin", io.StringIO(ring % 10**24))
    rc, _out, err = run(capsys, ["gb", "-"])
    assert rc == 3 and "bound of the proven primality test" in err


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_quietly(unbuffered, monkeypatch):
    # the reader of stdout is gone before the first write, which fails in
    # a print when stdout is unbuffered and in the last flush otherwise:
    # no traceback, and 141 (128 + SIGPIPE) rather than 1, which a script
    # reads as "the condition is false"
    _child_imports_this_koszulkit(monkeypatch)
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "koszulkit", "homology", "socle4"],
                              stdout=write_end, stderr=subprocess.PIPE, timeout=10)
    finally:
        os.close(write_end)
    assert proc.returncode == 141 and proc.stderr == b""


def test_gb_builds_no_standard_basis(monkeypatch):
    # R = Q[x,y]/(x^2, y^200000) has dimension 400000; building it for
    # `gb` enumerates no standard monomial, so the basis prints at once
    _child_imports_this_koszulkit(monkeypatch)
    proc = subprocess.run([sys.executable, "-m", "koszulkit", "gb", "-"],
                          input="field Q\nvars x,y\nideal:\nx^2\ny^200000\n",
                          capture_output=True, text=True, timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["x^2", "y^200000"]


def test_resolution_budget_stops_a_huge_sweep(monkeypatch):
    # step 12 of k over case54 has 221184 source coordinates; the step is
    # refused before its kernel is computed, so the run ends well inside
    # the timeout instead of sweeping for hours
    _child_imports_this_koszulkit(monkeypatch)
    proc = subprocess.run([sys.executable, "-m", "koszulkit", "betti", "case54",
                           "--of-k", "--limit", "40"],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr == ("error: resolution budget of 150000 source coordinates "
                           "per step exceeded: step 12 needs 221184\n")


def test_gb_of_large_powers_plus_a_quadric(monkeypatch):
    # the leads of degree 2 are not artinian and no generator has degree
    # 3, so the degree phase hands the pair loop the basis of degree 2
    # without building degree 3; the pair loop takes about 2 s on a
    # 2-core Xeon, and the timeout leaves three times that
    _child_imports_this_koszulkit(monkeypatch)
    text = "field Q\nvars a,b,c,d,e,f\nideal:\n%sa*b + c*d\n" % "".join(
        "%s^40\n" % v for v in "abcdef")
    proc = subprocess.run([sys.executable, "-m", "koszulkit", "gb", "-"], input=text,
                          capture_output=True, text=True, timeout=7)
    assert proc.returncode == 0, proc.stderr

    def power(v, e):
        return v if e == 1 else "%s^%d" % (v, e)

    expected = ["a*b + c*d"] + ["%s^40" % v for v in "fedcba"]
    expected += ["%s*%s*%s" % (power(v, k), power("c", 40 - k), power("d", 40 - k))
                 for k in range(39, 0, -1) for v in "ba"]
    assert proc.stdout.splitlines() == expected
