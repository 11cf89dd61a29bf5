"""Run one gogkit benchmark workload and print its metrics.

    python3 gogbench/run.py --workload reads --seed 1 --seconds 35 --trace 0

Workloads are ``reads``, ``quotients`` and ``surgery`` (see README.md).  The
run is a closed loop: one caller, one thread, each operation sent when the
previous one has finished.  After set-up it runs the workload's untimed
checks once, then runs the workload's round of operations once in full and
repeats it until ``--seconds`` have passed, stopping after the operation in
flight; the order of a round is shuffled, so a cut round is a random sample
of it.  The library is imported from ``src/`` next to this directory.

``--trace 0`` prints the end-to-end metrics.  Set-up is also timed in
``SETUP_PROBES`` fresh interpreters, and ``setup_s`` is the median of those
and this run's own set-up.  ``--trace 1`` alternates untraced and traced
rounds (at least ``MIN_ROUNDS`` of each), prints the per-layer metrics,
times the acceptance checks in a fresh interpreter, and writes the spans to
``gogbench/out/``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback

import spans
from spans import CheckFailed, NoTrace, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("reads", "quotients", "surgery")
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 120
MAX_REPORTED_ERRORS = 5
MIN_ROUNDS = 2


def use_source_tree():
    """Import gogkit from this checkout's src/, never from an installed copy."""
    init = os.path.join(SRC, "gogkit", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"gogbench: no gogkit sources at {SRC}")
    sys.path.insert(0, SRC)
    import gogkit

    if os.path.abspath(gogkit.__file__) != init:
        raise SystemExit(f"gogbench: imported gogkit from {gogkit.__file__}, not {SRC}")


def timed_setup(workload: str, seed: int, call):
    """Set up a workload; the clock covers the gogkit import, so run it first."""
    start = time.perf_counter()
    import workloads

    wl = workloads.setup(workload, seed, call)
    return wl, time.perf_counter() - start


def in_fresh_interpreter(*args: str) -> str:
    """The last stdout line of this script run with ``args`` in a new process."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"gogbench: {' '.join(args)} failed:\n{done.stderr}")
    return done.stdout.strip().splitlines()[-1]


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    return float(in_fresh_interpreter("--setup-probe", "--workload", workload, "--seed", str(seed)))


def run_acceptance() -> dict:
    """Each acceptance check: (seconds, ok, first problem), as `verify all` runs them."""
    from gogkit.acceptance import run_checks

    return {r.name: (r.seconds, r.ok, r.problems[:1]) for r in run_checks()}


def acceptance_in_fresh_interpreter() -> dict:
    """The acceptance checks with cold caches, the same on every workload."""
    return json.loads(in_fresh_interpreter("--acceptance"))


class Phase:
    """Timings and failures of repeated rounds of one workload.

    ``samples[i]`` holds the time of every run of op i, ``elapsed`` the time
    of every round run, so throughput is the work done over the time it took.
    ``rounds`` counts whole rounds only.
    """

    def __init__(self):
        self.samples: dict[int, list[float]] = {}
        self.elapsed = 0.0
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def throughput(self) -> float:
        return self.attempted / self.elapsed

    def fail(self, desc: str):
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(f"{desc}\n{traceback.format_exc()}")


def run_round(wl, phase: Phase, tracer: Tracer | None = None, stop_at: float | None = None):
    """Run the workload's round once, one op after the other; with ``stop_at``,
    start no op once the clock has reached it."""
    call = tracer if tracer is not None else NoTrace()
    clock = time.perf_counter
    if tracer is not None:
        tracer.round = phase.rounds
    start = now = clock()
    for i, op in enumerate(wl.ops):
        if stop_at is not None and now >= stop_at:
            break
        try:
            if tracer is None:
                op.fn(call, *op.args)
            else:
                tracer.begin_op(op.kind)
                tracer("op." + op.kind, op.fn, call, *op.args)
        except Exception:  # one failed op must not end the run
            phase.fail(op.desc)
            if tracer is not None:
                exc = sys.exc_info()[1]
                layer = exc.layer if isinstance(exc, CheckFailed) else tracer.failed_layer
                tracer.count(f"{layer}.failed")
        end = clock()
        phase.samples.setdefault(i, []).append(end - now)
        phase.attempted += 1
        now = end
    else:
        phase.rounds += 1
    phase.elapsed += now - start


def run_checks(checks, phase: Phase, call):
    """Run untimed check ops once; they count as attempted, and failed if they fail.

    A check op's kind is ``<layer>.<what>``; an unexpected exception blames that layer.
    """
    for op in checks:
        try:
            op.fn(call, *op.args)
        except Exception as exc:
            phase.fail(op.desc)
            layer = exc.layer if isinstance(exc, CheckFailed) else op.kind.split(".", 1)[0]
            call.count(f"{layer}.failed")
        phase.attempted += 1


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def report_errors(phase: Phase):
    for err in phase.errors:
        print(f"gogbench: failed op: {err}", file=sys.stderr)


def end_to_end(workload: str, seed: int, seconds: float):
    setups = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    wl, own = timed_setup(workload, seed, NoTrace())
    setups.append(own)
    checked, phase = Phase(), Phase()
    run_checks(wl.checks, checked, NoTrace())
    deadline = time.perf_counter() + seconds
    run_round(wl, phase)  # one whole round, so every op has a time
    while time.perf_counter() < deadline:
        run_round(wl, phase, stop_at=deadline)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report_errors(checked)
    report_errors(phase)
    ranked = sorted((x, i) for i, runs in phase.samples.items() for x in runs)
    lat_ms = [x * 1e3 for x, _ in ranked]
    tail_ms, beyond = spans.tail(lat_ms)
    metrics = {
        "throughput_ops_s": (phase.throughput(), "ops/s"),
        "latency_p50_ms": (spans.median(lat_ms), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "setup_s": (spans.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mib, "MiB"),
    }
    attempted = checked.attempted + phase.attempted
    failed = checked.failed + phase.failed
    print(f"workload {workload}  seed {seed}  digest {wl.digest[:16]}  {len(lat_ms)} runs of"
          f" {len(wl.ops)} ops ({phase.rounds} whole rounds)  run {phase.elapsed:.2f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<18} {value:12.4f} {unit}")
    print(f"  {'':<18} p50 and the tail (p{spans.TAIL_PERCENTILE}) are over every op run;"
          f" {beyond} runs are slower than the tail")
    n = len(ranked)
    top_s, top_op = ranked[max(n - 11, 0)]
    print(f"  {'':<18} the eleventh-slowest run (p{100 * max(n - 10, 1) / n:.3f}) took"
          f" {top_s * 1e3:.1f} ms: {wl.ops[top_op].desc[:48]}")
    print(f"  {'':<18} setup_s is the median of {len(setups)} set-ups")
    print(f"  {'ops_failed_ratio':<18} {failed / attempted:12.4f} ({failed}/{attempted},"
          f" of which {checked.failed}/{checked.attempted} in untimed checks)")
    print(result_line(failed == 0, attempted, failed, metrics))


def per_layer(workload: str, seed: int, seconds: float):
    import workloads

    tracer = Tracer()
    wl, _ = timed_setup(workload, seed, tracer)
    checks = Phase()
    extra = workloads.hom_count_checks() if workload == "quotients" else []
    run_checks(wl.checks + extra, checks, tracer)
    # Untraced and traced rounds alternate, and which of the two goes first
    # alternates too, so machine drift and order effects hit both alike.
    plain, traced = Phase(), Phase()
    deadline = time.perf_counter() + seconds
    while traced.rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        if traced.rounds % 2:
            run_round(wl, traced, tracer)
            run_round(wl, plain)
        else:
            run_round(wl, plain)
            run_round(wl, traced, tracer)
    for phase in (checks, plain, traced):
        report_errors(phase)

    tracer.round = "verify"
    problems = []
    acceptance = acceptance_in_fresh_interpreter()
    for name, (_, ok, problem) in acceptance.items():
        if not ok:
            tracer.count("acceptance.failed")
            problems.append(f"{name}: {problem}")
    for problem in problems:
        print(f"gogbench: {problem}", file=sys.stderr)

    metrics = spans.layer_metrics(tracer, traced.rounds)
    for name, (seconds_taken, _, _) in acceptance.items():
        metrics[f"acceptance.{name[:3]}_s"] = (seconds_taken, "s")
    metrics["trace.overhead_ratio"] = (traced.throughput() / plain.throughput(), "ratio")
    path = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")
    tracer.write(path, {"workload": workload, "seed": seed, "digest": wl.digest})
    print(f"workload {workload}  seed {seed}  digest {wl.digest[:16]}  traced rounds"
          f" {traced.rounds}  spans {len(tracer.spans)} -> {os.path.relpath(path)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:14.6g} {unit}")
    attempted = checks.attempted + plain.attempted + traced.attempted
    failed = checks.failed + plain.failed + traced.failed
    print(result_line(failed == 0 and not problems, attempted, failed, metrics))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--acceptance", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_source_tree()
    if args.acceptance:
        print(json.dumps(run_acceptance()))
        return
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if args.setup_probe:
        print(timed_setup(args.workload, args.seed, NoTrace())[1])
    elif args.trace:
        per_layer(args.workload, args.seed, args.seconds)
    else:
        end_to_end(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    main()
