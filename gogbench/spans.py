"""Spans around the benchmark's calls into gogkit, and the statistics read from them.

Every operation reaches the library through a *caller*: ``call(name, fn,
*args)``.  The untraced caller calls straight through.  The traced caller
keeps one span per call -- name, start, end, parent span, op id -- in memory,
so the per-layer metrics below are derived without touching the library.
A span's name is ``<layer>.<what>``, where the layer is a gogkit module.
"""
from __future__ import annotations

import json
import math
import os
import time

LAYERS = (
    "finite_group",
    "gog",
    "group_ring",
    "derivation",
    "structure_tree",
    "quotients",
    "surgery",
    "documents",
)
FAILED_LAYERS = LAYERS + ("acceptance",)
READ_CLASSES = ("L8", "L16", "L32", "L64", "nested")


class CheckFailed(Exception):
    """An operation's output broke an invariant; ``layer`` produced the output."""

    def __init__(self, layer: str, message: str):
        super().__init__(f"{layer}: {message}")
        self.layer = layer


def check(ok: bool, layer: str, message: str):
    if not ok:
        raise CheckFailed(layer, message)


class NoTrace:
    """The untraced caller: no spans, no counts."""

    def __call__(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: int = 1):
        pass


class Tracer:
    """The traced caller.

    ``spans`` holds ``[name, start, end, parent index, op id]``; op id -1 marks
    set-up.  ``ops[i]`` is ``(kind, round)`` of op i.  Counts are kept per
    round (``"setup"`` before the first op), so a count over one round is exact
    for a given seed while timings cover the whole traced phase.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[tuple[str, object]] = []
        self.counts: dict[object, dict[str, int]] = {}
        self.round: object = "setup"
        self.op = -1
        self.failed_layer: str | None = None
        self._stack: list[int] = []

    def begin_op(self, kind: str):
        self.op = len(self.ops)
        self.ops.append((kind, self.round))
        self.failed_layer = None

    def __call__(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            # The innermost span sees the exception first: blame its layer.
            if self.failed_layer is None:
                self.failed_layer = name.split(".", 1)[0]
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1):
        per_round = self.counts.setdefault(self.round, {})
        per_round[name] = per_round.get(name, 0) + n

    def write(self, path: str, header: dict):
        """Write the kept spans as JSON lines: a header, then one line per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "ops": self.ops}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# Statistics


def median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


TAIL_PERCENTILE = 99


def tail(latencies) -> tuple[float, int]:
    """(value, samples beyond it) of the TAIL_PERCENTILE-th percentile, by
    nearest rank.

    A higher percentile would rest on a handful of samples: each round of
    ``reads`` runs about ten large queries once, so the eleventh-slowest
    sample is one run of one of them, and which one depends on how many
    rounds fit in the run.  At p99 every workload has dozens of samples
    beyond the tail.
    """
    values = sorted(latencies)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(values))
    return values[rank - 1], len(values) - rank


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced phase.

    ``*_s`` busy and self times are seconds per round (self time: a span's
    duration minus the part its child spans cover); ``p50`` values are medians
    over every matching span; counts marked exact are taken over the set-up
    and the first traced round, so they depend only on the seed.  A layer
    the workload does not call reads 0.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    setup_durations: dict[str, list[float]] = {}
    durations: dict[str, list[float]] = {}
    by_kind: dict[tuple[str, str], list[float]] = {}
    self_time: dict[str, float] = {}
    for i, (name, start, end, _, op) in enumerate(spans):
        if op < 0:
            setup_durations.setdefault(name, []).append(end - start)
            continue
        durations.setdefault(name, []).append(end - start)
        by_kind.setdefault((name, tracer.ops[op][0]), []).append(end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child[i]

    def p50(name, scale, kind=None):
        values = durations.get(name, []) if kind is None else by_kind.get((name, kind), [])
        return median(values) * scale

    def busy(*names):
        return sum(self_time.get(n, 0.0) for n in names) / rounds

    def layer_self(layer):
        return busy(*(n for n in self_time if n.split(".", 1)[0] == layer))

    def exact(name):
        return sum(tracer.counts.get(r, {}).get(name, 0) for r in ("setup", 0))

    def total(name):
        return sum(c.get(name, 0) for r, c in tracer.counts.items() if r != "setup")

    def calls(name, rnd):
        return sum(1 for s in spans if s[0] == name and s[4] >= 0 and tracer.ops[s[4]][1] == rnd)

    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    US, MS = 1e6, 1e3
    ball_s = sum(durations.get("gog.ball", []))
    law_spans = by_kind.get(("op.law", "law"), [])
    searches = total("quotients.searches")
    m: dict[str, tuple[float, str]] = {
        "finite_group.make_group_s": (sum(setup_durations.get("finite_group.make_group", [])), "s"),
        "finite_group.table_entries": (exact("finite_group.table_entries"), "count"),
        "gog.reduce.calls": (calls("gog.reduce", 0), "count"),
        "gog.reduce.busy_s": (busy("gog.reduce"), "s"),
    }
    for cls in READ_CLASSES:
        m[f"gog.reduce.{cls}.p50_us"] = (p50("gog.reduce", US, f"reduce.{cls}"), "us")
    m.update(
        {
            "gog.multiply.p50_us": (p50("gog.multiply", US), "us"),
            "gog.invert.p50_us": (p50("gog.invert", US), "us"),
            "gog.ball.busy_s": (busy("gog.ball"), "s"),
            "gog.ball.elements_per_s": (rate(total("gog.ball.elements"), ball_s), "1/s"),
            "gog.ball.elements": (exact("gog.ball.elements"), "count"),
            "gog.validate.p50_us": (p50("gog.validate", US), "us"),
            "group_ring.act_right.p50_us": (p50("group_ring.act_right", US), "us"),
            "group_ring.busy_s": (layer_self("group_ring"), "s"),
            "derivation.evaluate.p50_us": (p50("derivation.evaluate", US), "us"),
            "derivation.evaluate.busy_s": (busy("derivation.evaluate"), "s"),
            "derivation.law.pairs_per_s": (rate(len(law_spans), sum(law_spans)), "1/s"),
            "derivation.kernel_scan.busy_s": (busy("derivation.kernel_scan"), "s"),
            "derivation.kernel_scan.elements": (exact("derivation.kernel_scan.elements"), "count"),
            "derivation.kernel_scan.mismatches": (total("derivation.kernel_scan.mismatches"), "count"),
            "structure_tree.tree_ball.busy_s": (busy("structure_tree.tree_ball"), "s"),
            "structure_tree.tree_ball.vertices": (exact("structure_tree.tree_ball.vertices"), "count"),
            "structure_tree.act.p50_us": (p50("structure_tree.act", US), "us"),
            "quotients.first_hit.p50_ms": (p50("quotients.first_hit", MS), "ms"),
            "quotients.first_hit.busy_s": (busy("quotients.first_hit"), "s"),
            "quotients.exhaust.busy_s": (busy("quotients.exhaust"), "s"),
            "quotients.hit_ratio": (total("quotients.hits") / searches if searches else 0.0, "ratio"),
            "quotients.certify.p50_ms": (p50("quotients.certify", MS), "ms"),
            "surgery.rewrite.p50_ms": (p50("surgery.rewrite", MS), "ms"),
            "surgery.validate_witness.p50_ms": (p50("surgery.validate_witness", MS), "ms"),
            "surgery.ball_report.busy_s": (busy("surgery.ball_report"), "s"),
            "surgery.replay.p50_ms": (p50("surgery.replay", MS), "ms"),
            "surgery.relators_checked": (exact("surgery.relators_checked"), "count"),
            "documents.parse.p50_us": (p50("documents.parse", US), "us"),
            "documents.serialize.p50_us": (p50("documents.serialize", US), "us"),
        }
    )
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
    for layer in FAILED_LAYERS:
        m[f"{layer}.failed"] = (total(f"{layer}.failed"), "count")
    return m
