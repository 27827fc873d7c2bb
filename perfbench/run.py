#!/usr/bin/env python3
"""koszulkit benchmark: answer-checked workloads, end to end and per layer.

    python3 perfbench/run.py --workload resolve --seed 1 --seconds 40 --trace 0

Run it from the root of a koszulkit checkout; it imports the package from
the checkout's `src/` and needs nothing outside the standard library.

One process runs one workload as a closed loop: a single caller issues
each op after the previous one returned, with no threads.  The workload's
op list (see workloads.py) is repeated as "passes" while another pass fits
in --seconds, with at least one pass.  Every op's answer is checked; an op
that raises or fails its check counts as failed and the run goes on.

Times are speed-normalized.  On a shared host the speed of a core swings
by tens of percent over seconds to minutes, so raw times of one run say
as much about the host's phase as about koszulkit.  Before every op, and after the last one of a pass, the
benchmark times a fixed standard-library computation (`speed_probe`) a
few times; an op's measured time is scaled by REFERENCE_PROBE_S over the
median probe time just before and just after it.  The figures are thus
seconds on a core as fast as the reference one, and a change to
koszulkit moves them while a change in the host's speed largely cancels.  The
raw times are recorded in the meta line.  An op's latency is the median
of its scaled times over the passes.

With --trace 0 the metrics are end to end:
  setup_s      median over several fresh processes of process start until
               koszulkit is imported and the inputs are generated, each
               scaled by the probes run just before and after it
  wall_s       time to run the op list once: the sum of the op latencies
  op_p50_s     median op latency
  op_tail_s    latency at the highest percentile with at least ten ops
               beyond it (level and op count are printed beside it)
               (both quantiles are Harrell-Davis estimates over the op
               latencies of the op list)
  peak_rss_mb  peak resident memory of this process
With --trace 1 untraced passes run for the first third of --seconds, then
wrappers are installed around koszulkit's layers (tracing.py) and traced
passes give per-layer counts and raw self times (each the smallest over
the traced passes); trace.overhead_ratio is traced over untraced wall_s.

Human-readable lines and one `{"meta": ...}` line (backend, Python, cores,
seed, op list, answer digest) precede the last line, the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Traced runs also write their spans to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
EXPECTED = BENCH_DIR / "expected_answers.json"

SETUP_PROBES = 9
TAIL_BEYOND = 10
# speed_probe runs PROBE_REPEATS times before each op.  REFERENCE_PROBE_S is
# its median time on one core of a 2-vCPU Intel Xeon VM under CPython 3.11.7,
# so scaled times read as seconds on that core in a typical phase.
PROBE_REPEATS = 3
REFERENCE_PROBE_S = 0.0004
WORKLOAD_NAMES = ("resolve", "homology", "local")


def _import_koszulkit():
    """Import koszulkit from this checkout's src/, or exit without a result."""
    if not (SRC / "koszulkit" / "__init__.py").is_file():
        sys.exit("perfbench: no koszulkit sources at %s; run it from a koszulkit checkout"
                 % SRC)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import koszulkit

    if Path(koszulkit.__file__).resolve().parent != (SRC / "koszulkit").resolve():
        sys.exit("perfbench: imported koszulkit from %s, not from %s"
                 % (koszulkit.__file__, SRC))


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a seconds-long variant for the smoke test")
    ap.add_argument("--probe-setup", action="store_true",
                    help="import koszulkit, generate the inputs and exit (times setup_s)")
    return ap.parse_args(argv)


# -- measurement --------------------------------------------------------


def speed_probe():
    """Fixed work in the style of koszulkit's inner loops: Fraction
    arithmetic (rings over Q), sparse dict rows updated mod p (GF(p)),
    and sorting and hashing monomial-like tuples.  Its time gauges the
    core's current speed; it never touches koszulkit."""
    total = Fraction(0)
    for i in range(1, 30):
        total += Fraction(i, i + 1) * Fraction(3, 7)
    row = {}
    for c in range(1, 6):
        for k in range(7, 420, 7):
            y = (row.get(k + c, 0) + c * k) % 32003
            if y:
                row[k + c] = y
            else:
                row.pop(k + c, None)
    table = dict(sorted(((i % 4, i % 3, i % 5), i) for i in range(150)))
    return total, len(row), len(table)


def probe_times():
    """PROBE_REPEATS timings of speed_probe."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        speed_probe()
        times.append(time.perf_counter() - t0)
    return times


def scale(raw, before, after):
    """`raw` seconds in reference seconds, given the probe times around it."""
    return raw * REFERENCE_PROBE_S / statistics.median(before + after)


def measure_setup(args):
    """Median scaled and raw wall time of fresh processes that import
    koszulkit and generate the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        before = probe_times()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit("perfbench: setup probe failed:\n%s" % proc.stderr.decode())
        scaled.append(scale(raw[-1], before, probe_times()))
    return statistics.median(scaled), statistics.median(raw)


class PassResult(NamedTuple):
    """One pass over the op list, one entry per op slot except `failures`."""

    latencies: list  # scaled seconds
    raw: list  # measured seconds
    answers: list  # canonical answer texts
    failures: list  # (slot, task, op, error) of failed ops
    probes: list  # speed_probe times, PROBE_REPEATS per slot plus a final set


def run_pass(tasks, tracer=None) -> PassResult:
    """Run every op of every task once, probing the core's speed around each."""
    from workloads import AnswerMismatch

    raw, answers, failures, probes = [], [], [], []
    slot = 0
    for task in tasks:
        state = dict(task.data)
        for op in task.ops:
            probes.append(probe_times())
            error = result = None
            root = tracer.begin_op(slot, op.name) if tracer is not None else None
            t0 = time.perf_counter()
            try:
                result = op.run(state)
            except Exception as exc:  # an op failure is a measured outcome
                error = exc
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op(root)
            raw.append(latency)
            answer = "raised %s" % type(error).__name__
            if error is None:
                try:
                    answer = op.check(result, state)
                except AnswerMismatch as exc:
                    error = exc
                    answer = "wrong: %s" % exc
                except Exception as exc:
                    error = exc
                    answer = "check raised %s" % type(exc).__name__
            answers.append("%s/%s: %s" % (task.label, op.name, answer))
            if error is not None:
                failures.append((slot, task.label, op.name, repr(error)))
            slot += 1
    probes.append(probe_times())
    latencies = [scale(t, probes[k], probes[k + 1]) for k, t in enumerate(raw)]
    return PassResult(latencies, raw, answers, failures, [t for ts in probes for t in ts])


def run_passes(tasks, seconds, t_start, tracer=None, on_pass=None):
    """Passes while another one fits before t_start + seconds; at least one."""
    passes = []
    while True:
        gc.collect()
        p0 = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        result = run_pass(tasks, tracer)
        wall = time.perf_counter() - p0
        passes.append(result)
        if on_pass is not None:
            on_pass(result)
        if time.perf_counter() + wall > t_start + seconds:
            return passes


def slot_medians(passes, raw=False):
    """Each op slot's median time over the passes."""
    columns = zip(*(p.raw if raw else p.latencies for p in passes))
    return [statistics.median(column) for column in columns]


def _betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b), by Lentz's continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    tiny = 1e-300
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    c, d, f = 1.0, 0.0, 1.0
    for i in range(400):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(c * d - 1.0) < 1e-12:
            break
    return front * (f - 1.0)


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile of `values`.

    A weighted mean of all order statistics with weights from a
    Beta(q(n+1), (1-q)(n+1)) distribution.  A plain order statistic jumps
    from one op to the next when ops trade places by a few percent; this
    estimate moves smoothly, which makes it steadier from run to run.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def tail(values):
    """(value, level %) at the highest percentile with TAIL_BEYOND values beyond it."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return max(values), 100.0
    level = (n - TAIL_BEYOND) / n
    return quantile(values, level), 100.0 * level


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def _backend():
    from koszulkit.fields import QQ

    kind = type(QQ.one)
    return "%s.%s" % (kind.__module__, kind.__name__)


def _expected_digest(args):
    if not EXPECTED.is_file():
        return None
    pinned = json.loads(EXPECTED.read_text())
    if pinned.get("seed") != args.seed:
        return None
    return pinned.get("answer_digests", {}).get(args.size, {}).get(args.workload)


# -- main ----------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    _import_koszulkit()
    if args.probe_setup:
        import workloads

        workloads.make_tasks(args.workload, args.seed, args.size)
        return 0

    setup_s, setup_raw_s = measure_setup(args)
    import tracing
    import workloads

    tasks = workloads.make_tasks(args.workload, args.seed, args.size)
    op_names = ["%s/%s" % (t.label, op.name) for t in tasks for op in t.ops]
    problems = []

    t_start = time.perf_counter()
    if args.trace:
        reference = run_passes(tasks, args.seconds / 3, t_start)  # untraced baseline
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        per_pass = []

        def collect(_result):
            calls, self_s, nesting = tracer.summarize()
            problems.extend(nesting)
            per_pass.append(tracing.layer_metrics(calls, self_s, tracer.counters))
            per_pass[-1]["trace.spans"] = len(tracer.span_start)

        try:
            traced = run_passes(tasks, args.seconds - (time.perf_counter() - t_start),
                                time.perf_counter(), tracer, collect)
        finally:
            tracing.uninstall(undo)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / ("spans-%s-seed%d-%s.tsv.gz"
                                % (args.workload, args.seed, args.size))
        tracer.write(spans_path)
        passes = reference + traced
        overhead = sum(slot_medians(traced)) / sum(slot_medians(reference))
    else:
        passes = run_passes(tasks, args.seconds, t_start)
    elapsed = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(len(p.raw) for p in passes)
    failures = [f for p in passes for f in p.failures]
    digests = {digest(p.answers) for p in passes}
    answer_digest = digest(passes[0].answers)
    if len(digests) != 1:
        problems.append("answers differ between passes: %s" % sorted(digests))
    pinned = _expected_digest(args)
    if pinned is not None and pinned != answer_digest:
        problems.append("answer digest %s differs from the pinned %s"
                        % (answer_digest, pinned))

    timed = reference if args.trace else passes
    slot_latency = slot_medians(timed)
    raw_slot_latency = slot_medians(timed, raw=True)
    tail_value, tail_level = tail(slot_latency)
    failed_ratio = len(failures) / attempted

    if args.trace:
        metrics = {name: {"value": min(m[name] for m in per_pass),
                          "unit": tracing.unit_of(name)} for name in per_pass[0]}
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        hottest = max(tracing.SELF_TIME_METRICS, key=lambda n: metrics[n]["value"])
    else:
        metrics = {
            "wall_s": {"value": sum(slot_latency), "unit": "s"},
            "op_p50_s": {"value": quantile(slot_latency, 0.5), "unit": "s"},
            "op_tail_s": {"value": tail_value, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    meta = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds, "elapsed_s": elapsed,
        "passes": len(passes), "raw_pass_walls_s": [sum(p.raw) for p in passes],
        "raw_wall_s": sum(raw_slot_latency), "raw_setup_s": setup_raw_s,
        "probe_median_s": statistics.median(t for p in timed for t in p.probes),
        "reference_probe_s": REFERENCE_PROBE_S,
        "ops_per_pass": len(op_names),
        "op_tail_level_pct": tail_level, "failed_ratio": failed_ratio,
        "backend": _backend(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "src_lines": src_line_count(),
        "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
        "input_digest": digest([workloads.describe_inputs(tasks)]),
        "answer_digest": answer_digest, "ops": op_names, "op_latencies_s": slot_latency,
        "raw_op_latencies_s": raw_slot_latency,
    }
    if args.trace:
        meta.update(hottest_layer=hottest, spans_file=str(spans_path.relative_to(ROOT)),
                    traced_passes=len(traced))

    print("workload %s seed %d (%s): %d passes of %d ops in %.1f s, backend %s, "
          "python %s, %d cores, src %d lines"
          % (args.workload, args.seed, args.size, len(passes), len(op_names), elapsed,
             meta["backend"], meta["python"], meta["nproc"], meta["src_lines"]))
    print("answers: digest %s, %d of %d ops failed (failed_ratio %.4f)"
          % (answer_digest, len(failures), attempted, failed_ratio))
    for slot, label, name, err in failures[:20]:
        print("  FAILED %s/%s: %s" % (label, name, err))
    for problem in problems[:20]:
        print("  PROBLEM %s" % problem)
    for name, m in metrics.items():
        note = ""
        if name == "op_tail_s":
            note = "  (p%.1f of %d ops, %d beyond)" % (tail_level, len(op_names),
                                                     min(TAIL_BEYOND, len(op_names) - 1))
        print("  %-40s %14.6f %s%s" % (name, m["value"], m["unit"], note))
    if args.trace:
        print("  hottest layer by self time: %s" % hottest)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": not failures and not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
