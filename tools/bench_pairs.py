"""Paired gogbench runs of two versions of gogkit, written as ``BENCH_<n>.json``.

    python3 tools/bench_pairs.py --parent HEAD~1 --workloads surgery \
        --seeds 51-60 --out BENCH_22.json

Each side is a fresh tree: the parent revision is extracted with
``git archive <rev> | tar -x`` into a temporary directory, and the change
side is a copy of the working tree's ``src/`` and ``gogbench/``.  For every
seed and workload the two sides run
``gogbench/run.py --workload W --seed S --seconds N --trace 0`` one after
the other, N being ``run_seconds`` of ``BENCHMARK.json``, the parent first
on odd seeds and the change first on even ones, so a drift of the machine
falls on both sides alike.  What ``run.py``
measures is left to it: this tool reads the last line of its output.

The summary gives, per workload and end-to-end metric, the parent's median
and quartiles (``statistics.quantiles``, exclusive method), the change's
median, their ratio, the pairs in which the change was better (the
direction comes from ``BENCHMARK.json``) and ``past_bound``: whether the
change's median is worse than the parent's by more than the metric's
``bound`` in ``BENCHMARK.json``, the rule by which a change is refused.  It
also gives the median change/parent ratio over the pairs where the parent
ran first and over those where the change ran first, so a bias towards the
side that runs first shows beside a claim.  The file is rewritten after
every pair, so a cut session leaves the pairs it finished.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> list[int]:
    """'51-56' or '1,3,5' (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def copy_working_tree(into: str) -> str:
    """A tree with the working tree's ``src/`` and ``gogbench/``."""
    skip = shutil.ignore_patterns("__pycache__", "out")
    for part in ("src", "gogbench"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(into, part), ignore=skip)
    return into


def extract(rev: str, into: str) -> str:
    """The tree of git revision ``rev``."""
    os.makedirs(into)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"bench_pairs: git archive {rev} failed")
    return into


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "gogbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {tree} failed:\n{proc.stderr}")
    return json.loads(lines[-1])


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "vcpus": os.cpu_count(), "os": platform.platform()}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and metric of ``end_to_end`` (``BENCHMARK.json``'s
    entries, each with ``name``, ``better`` and ``bound``), the paired runs'
    summary."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        first: dict[int, str] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
                first[r["seed"]] = r["first"]
        pairs = {s: p for s, p in pairs.items() if len(p) == 2}
        if not pairs:
            continue
        summary: dict = {}
        for metric in end_to_end:
            name, direction = metric["name"], metric["better"]
            parent = [p["parent"]["metrics"][name]["value"] for p in pairs.values()]
            change = [p["change"]["metrics"][name]["value"] for p in pairs.values()]
            q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
            wins = sum((c > p) if direction == "higher" else (c < p) for p, c in zip(parent, change))
            ratio = statistics.median(change) / statistics.median(parent)
            summary[name] = {
                "parent_median": round(statistics.median(parent), 4),
                "parent_q1": round(q1, 4),
                "parent_q3": round(q3, 4),
                "change_median": round(statistics.median(change), 4),
                "change_over_parent": round(ratio, 3),
                "change_wins": f"{wins}/{len(pairs)}",
                "past_bound": (ratio < 1 - metric["bound"] if direction == "higher"
                               else ratio > 1 + metric["bound"]),
            }
            for side in ("parent", "change"):
                ratios = [c / p for s, p, c in zip(pairs, parent, change) if first[s] == side and p]
                summary[name][f"ratio_{side}_first"] = (
                    round(statistics.median(ratios), 3) if ratios else None
                )
        summary["failed"] = {
            side: sum(p[side]["failed"] for p in pairs.values()) for side in ("parent", "change")
        }
        out[workload] = summary
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workloads", default="surgery", help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="like '51-60' or '1,3,5'")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--what", default="", help="a sentence saying what the runs claim")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    doc = {
        "what": args.what or (
            "Last-line JSON of paired `python3 gogbench/run.py --workload W --seed S "
            f"--seconds {seconds:g} --trace 0` runs, parent and change alternating which "
            "runs first (parent first on odd seeds), each from its own copy of the tree."
        ),
        "machine": machine(),
        "python": platform.python_version(),
        "commits": {
            "parent": git("rev-parse", args.parent),
            "change": f"working tree over {git('rev-parse', 'HEAD')} (the commit that adds this file)",
        },
        "seeds": seeds,
        "seconds": seconds,
        "summary": {},
        "runs": [],
    }
    scratch = tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        trees = {
            "parent": extract(args.parent, os.path.join(scratch, "parent")),
            "change": copy_working_tree(os.path.join(scratch, "change")),
        }
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    result = run_once(trees[side], workload, seed, seconds)
                    doc["runs"].append({"side": side, "workload": workload, "seed": seed,
                                        "first": order[0], "result": result})
                    value = result["metrics"]["throughput_ops_s"]["value"]
                    print(f"{workload} seed {seed} {side}: {value:.1f} ops/s", flush=True)
                doc["summary"] = summarize(doc["runs"], benchmark["end_to_end"])
                with open(args.out, "w") as fh:
                    json.dump(doc, fh, indent=1, ensure_ascii=False)
                    fh.write("\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
