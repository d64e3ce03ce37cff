#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ellnet CLI.

Run from the root of a checkout (the library is imported from ``src/``):

    python3 bench/run.py --workload q-tables --seed 1 --seconds 33 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, one process each
    python3 bench/run.py --workload fp-eval --self-test  # must detect an injected wrong answer

Each op is one in-process ``ellnet.cli.main(argv)`` call with stdout and
stderr captured, run one at a time (a closed loop with one client, no
threads, no pool) at the interpreter's default recursion limit.  The op
list is built from the seed before timing starts.  Whole passes over it run,
each in a fresh seeded order: at least three, then more while another pass
still fits in ``--seconds``; an op's time is the median of its repeats,
each scaled by an adjacent reference loop.  Then the limit probes run once
each under their time limits, untimed.  Every answer is checked after the
timed region (``oracles.py``).  ``spec.json`` holds the workload reasons,
probe and micro-benchmark inputs, and the map from per-layer to end-to-end
metrics.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` instead runs one pass in which each op runs untraced and then
traced, plus the layer micro-benchmarks, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 9
REPEATS = 3
MAX_MEASURE_S = 100.0
E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "error_rate": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that outlived its time limit."""


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise OpTimeout()


@dataclass
class Outcome:
    code: object
    out: str
    err: str
    elapsed: float
    failure: str | None  # time limit or escaped exception; None when main returned
    slowdown: float = 1.0  # mean reference-loop time around a timed op / its nominal time
    digest: int = 0  # hash of (code, out, err); out/err are kept on an op's first run only

    @property
    def scaled(self) -> float:
        """Elapsed time at the reference speed (see REFERENCE_LOOPS)."""
        return self.elapsed / self.slowdown


# The host's speed swings by up to 2x for seconds at a time (measured on a
# 2-vCPU VM with next to no steal time), in CPU time as much as in wall
# time.  Each timed op is therefore bracketed by a fixed pure-Python
# reference loop, and its time is divided by the slowdown (mean of the two
# loop times / the loop's nominal time): the op's time at the speed where
# the loop takes its nominal time (about that VM's fast phase, Python 3.11).
# On that VM the scaling cut the median spread between an op's repeats from
# ~50 % to ~23 %.  fp-symmetry, whose time is almost all small-integer point
# arithmetic, slows down like point_loop and not like mixed_loop: over ten
# seeds point_loop gave it spreads of 2-5 % where mixed_loop gave 7 %, and
# mixed_loop did better on the other two workloads.  The loops use no
# ellnet code, so no library change moves them.


def mixed_loop() -> float:
    """Dict updates, small-integer and big-integer modular arithmetic."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(2000):
        table[i & 255] = table.get(i & 255, 0) + i
        acc = (acc * 31 + i) % 1000003
    x = 3 ** 400
    for _ in range(40):
        x = x * x % 7 ** 600
    return time.perf_counter() - start


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x, self.y = x, y


def point_loop() -> float:
    """Affine-point-like updates mod a small prime, one inverse per 50 steps."""
    start = time.perf_counter()
    p = 1000003
    a = _Point(3, 4)
    for i in range(300):
        if i % 50 == 0:
            lam = (a.y * 2 + i) * pow(a.x + 1, p - 2, p) % p
        else:
            lam = (a.y * 3 + i) % p
        a = _Point((lam * lam - a.x) % p, (lam * (a.x - 1) - a.y) % p)
    return time.perf_counter() - start


# (reference loop, its nominal time in seconds), per workload
MIXED = (mixed_loop, 0.0007)
REFERENCE_LOOPS = {"q-tables": MIXED, "fp-symmetry": (point_loop, 0.00016), "fp-eval": MIXED}


def call(cli, op) -> Outcome:
    global _armed
    out, err = io.StringIO(), io.StringIO()
    code = failure = None
    signal.setitimer(signal.ITIMER_REAL, op.limit_s)
    _armed = True
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except OpTimeout:
        failure = f"time limit {op.limit_s:g} s"
    except Exception as exc:  # an escaped exception is a traceback for the user
        failure = f"traceback: {type(exc).__name__}"
    finally:
        elapsed = time.perf_counter() - start
        _armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    return Outcome(code, out.getvalue(), err.getvalue(), elapsed, failure)


def import_library():
    if not (SRC / "ellnet" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'ellnet'} not found; run from the root of an ellnet checkout")
    sys.path.insert(0, str(SRC))
    import ellnet.cli
    return ellnet.cli


def setup(workload: str, seed: int):
    """Import, fixture parsing, op list generation and warm-up."""
    cli = import_library()
    plan = workloads.build(workload, seed, ROOT)
    for op in plan["warmup"]:
        call(cli, op)
    return cli, plan


def measure_setup(workload: str, seed: int, samples: int) -> list[float]:
    """Wall times of fresh interpreters that only run ``setup``, scaled to
    the reference speed of mixed_loop: set-up is imports and parsing on
    every workload."""
    loop, nominal_s = MIXED
    times = []
    for _ in range(samples):
        before = loop()
        start = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "run.py"), "--setup-only",
                        "--workload", workload, "--seed", str(seed)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        times.append(elapsed * 2 * nominal_s / (before + loop()))
    return times


class Answers:
    """Keeps each op's answer text from its first run only, and a digest of
    every run for the repeat check.  In self-test mode it appends a wrong
    line to every run of one op: the first that exits 0."""

    def __init__(self, self_test: bool):
        self.self_test = self_test
        self.target = None
        self.seen = set()

    def keep(self, i: int, o: Outcome) -> Outcome:
        if self.self_test and self.target is None and o.failure is None and o.code == 0:
            self.target = i
        if i == self.target:
            o.out += "0\n"
        o.digest = hash((o.code, o.out, o.err))
        if i in self.seen:
            o.out = o.err = ""
        self.seen.add(i)
        return o


def timed_loop(cli, ops, seconds: float, rng: random.Random, answers: Answers,
               reference: tuple):
    """At least REPEATS passes; after those, another pass only while the
    slowest pass so far still fits in ``seconds``.  Each pass runs every op
    once, in a fresh seeded order."""
    results = []
    start = time.perf_counter()
    passes = 0
    slowest = 0.0
    loop, nominal_s = reference
    ref = loop()
    while passes < REPEATS or time.perf_counter() - start + slowest <= seconds:
        order = list(range(len(ops)))
        rng.shuffle(order)
        pass_start = time.perf_counter()
        for i in order:
            if time.perf_counter() - start > MAX_MEASURE_S:
                return results, passes, time.perf_counter() - start
            o = answers.keep(i, call(cli, ops[i]))
            after = loop()
            o.slowdown = (ref + after) / 2 / nominal_s
            ref = after
            results.append((i, o))
        passes += 1
        slowest = max(slowest, time.perf_counter() - pass_start)
    return results, passes, time.perf_counter() - start


def op_times(runs, time_of) -> dict:
    """Each op's median time over its repeats.  A median, not a minimum, so
    that the number of passes that fit in ``--seconds`` does not bias it."""
    per_op = {}
    for i, o in runs:
        per_op.setdefault(i, []).append(time_of(o))
    return {i: statistics.median(times) for i, times in per_op.items()}


def percentile(sorted_values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile: a Beta-weighted mean of
    all order statistics, so a percentile that falls between two clusters of
    op costs does not jump between them from run to run."""
    n = len(sorted_values)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint rule per order-statistic interval
    total = weight_sum = 0.0
    for i, value in enumerate(sorted_values):
        w = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        total += w * value
        weight_sum += w
    return total / weight_sum


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("ratio"):
        return "ratio"
    for suffix, unit in (("_ns", "ns"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "us"


def read_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "ellnet").glob("*.py"))


def check_answers(oracles, results, probes):
    """Verdicts for every answer: the first run of each op goes to its
    oracle, and later runs must repeat its digest.  A wrong answer is
    ``(op, detail, source)`` with source ``"oracle"`` or ``"repeat"``."""
    wrong, no_oracle, checked = [], [], {}
    for op, o in list(results) + list(probes):
        if o.failure is not None:
            continue
        if op.key in checked:
            if checked[op.key] != o.digest:
                wrong.append((op, "answer differs between repeats", "repeat"))
            continue
        checked[op.key] = o.digest
        try:
            verdict, detail = oracles.check(op, o.code, o.out, o.err)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            verdict, detail = "wrong", f"malformed answer ({type(exc).__name__})"
        if verdict == "wrong":
            wrong.append((op, detail, "oracle"))
        elif verdict == "no-oracle":
            no_oracle.append((op, detail))
    return wrong, no_oracle


def run_workload(args) -> dict:
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed,
                                                        SETUP_SAMPLES - SETUP_SAMPLES // 2)
    cli, plan = setup(args.workload, args.seed)
    ops, probes = plan["ops"], plan["probes"]
    rng = random.Random(f"order:{args.workload}:{args.seed}")
    answers = Answers(args.self_test)

    layer = trace_file = None
    if args.trace:
        runs, layer, trace_file = traced_pass(
            cli, ops, answers, f"trace-{args.workload}-seed{args.seed}.json")
        passes, measure_s = 1, None
    else:
        runs, passes, measure_s = timed_loop(cli, ops, args.seconds, rng, answers,
                                             REFERENCE_LOOPS[args.workload])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_results = [(op, answers.keep(len(ops) + j, call(cli, op)))
                     for j, op in enumerate(probes)]
    if not args.trace:
        setup_samples += measure_setup(args.workload, args.seed, SETUP_SAMPLES // 2)

    from oracles import Oracles
    results = [(ops[i], o) for i, o in runs]
    wrong, no_oracle = check_answers(Oracles(plan["fixtures"], args.seed), results,
                                     probe_results)

    # error_rate counts each op once, however many times it ran
    timed_failed = [(op, o) for op, o in results if o.failure is not None]
    failed_keys = {op.key for op, _, _ in wrong} | {op.key for op, _ in timed_failed}
    failed_keys |= {op.key for op, o in probe_results if o.failure is not None}
    ran = {i for i, _ in runs}
    attempted = len(ran) + len(probe_results)
    failed = sum(ops[i].key in failed_keys for i in ran)
    failed += sum(op.key in failed_keys for op, _ in probe_results)
    raw = op_times(runs, lambda o: o.elapsed)
    raw_times = sorted(raw.values())

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": read_commit(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "recursion_limit": sys.getrecursionlimit(),
        "src_ellnet_lines": src_lines(), "passes": passes,
        "measure_s": measure_s and round(measure_s, 2),
        "timed_ops": len(ran), "timed_runs": len(results), "latency_samples": len(raw_times),
        "timed_ops_by_class": dict(Counter(ops[i].cls for i in ran)),
        "median_op_seconds_by_class": {
            cls: round(sum(t for i, t in raw.items() if ops[i].cls == cls), 3)
            for cls in sorted({op.cls for op in ops})},
        "probe_ops_by_class": dict(Counter(op.cls for op, _ in probe_results)),
        "probes": [{"class": op.cls, "argv": op.argv,
                    "result": o.failure or f"exit {o.code}", "seconds": round(o.elapsed, 3)}
                   for op, o in probe_results],
        "timed_failures": [{"argv": op.argv, "failure": o.failure} for op, o in timed_failed],
        "wrong_answers": [{"argv": op.argv, "detail": d, "source": src}
                          for op, d, src in wrong],
        "no_oracle": {"count": len(no_oracle),
                      "examples": [{"argv": op.argv, "why": d} for op, d in no_oracle[:5]]},
        "setup_samples_s": [round(s, 4) for s in setup_samples],
        "unscaled": {"ops_per_s": len(raw_times) / sum(raw_times),
                     "op_p50_ms": percentile(raw_times, 50) * 1e3,
                     "op_p90_ms": percentile(raw_times, 90) * 1e3},
    }
    if answers.target is not None:
        record["self_test_target"] = ops[answers.target].argv
    if args.trace:
        record["trace_file"] = str(trace_file)
        metrics = layer
    else:
        loop, nominal_s = REFERENCE_LOOPS[args.workload]
        record["reference_loop"] = {
            "name": loop.__name__, "nominal_ms": nominal_s * 1e3,
            "median_slowdown": statistics.median(o.slowdown for _, o in runs)}
        scaled = op_times(runs, lambda o: o.scaled)
        times = sorted(scaled.values())
        completed = sum(1 for i in scaled if ops[i].key not in failed_keys)
        metrics = {
            "ops_per_s": completed / sum(times),
            "op_p50_ms": percentile(times, 50) * 1e3,
            "op_p90_ms": percentile(times, 90) * 1e3,
            "error_rate": failed / attempted,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
        }
    return {
        "record": record,
        "correct": not wrong and not timed_failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": E2E_UNITS.get(k) or unit_of(k)}
                    for k, v in metrics.items()},
    }


def traced_pass(cli, ops, answers: Answers, file_name: str):
    """One pass in which every op runs untraced and then traced, back to
    back, so both see the same machine; then the micro-benchmarks."""
    import micro
    from tracing import ROOT as ROOT_SPAN, Tracer, layer_metrics

    tracer = Tracer()
    traced_cli = types.SimpleNamespace(main=tracer.wrap(cli.main, ROOT_SPAN))
    runs = []
    untraced_s = traced_s = 0.0
    for i, op in enumerate(ops):
        plain = answers.keep(i, call(cli, op))
        tracer.op = i
        tracer.install()
        try:
            traced = answers.keep(i, call(traced_cli, op))
        finally:
            tracer.uninstall()
        untraced_s += plain.elapsed
        traced_s += traced.elapsed
        runs += [(i, plain), (i, traced)]
    metrics = layer_metrics(tracer, traced_s, untraced_s)
    metrics.update(micro.run_all())
    tracer.write(OUT / file_name)
    return runs, metrics, (OUT / file_name).relative_to(ROOT)


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="inject one wrong answer; exit 0 only if the run reports it")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    import_library()
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0
    signal.signal(signal.SIGALRM, _on_alarm)
    result = run_workload(args)
    record = result.pop("record")
    print("run record: " + json.dumps(record))
    for name, metric in result["metrics"].items():
        extra = f" (n={record['latency_samples']})" if name in ("op_p50_ms", "op_p90_ms") else ""
        print(f"{args.workload:12s} {name:36s} {metric['value']:.6g} {metric['unit']}{extra}")
    if args.self_test:
        # the oracle, not the repeat check, must flag the injected answer
        detected = not result["correct"] and any(
            w["argv"] == record.get("self_test_target") and w["source"] == "oracle"
            for w in record["wrong_answers"])
        print(f"self-test: injected wrong answer {'detected' if detected else 'NOT detected'}")
        return 0 if detected else 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
