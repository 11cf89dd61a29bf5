"""The paired-run summary of ``tools/bench_pairs.py`` on synthetic runs."""
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def run(side, seed, throughput, latency, failed=0, workload="reads"):
    first = "parent" if seed % 2 else "change"
    # The change takes 9% more memory, inside its bound, and 30% longer to
    # set up, past its bound.
    rss, setup = (109.0, 1.3) if side == "change" else (100.0, 1.0)
    metrics = {"throughput_ops_s": {"value": throughput}, "latency_p50_ms": {"value": latency},
               "peak_rss_mb": {"value": rss}, "setup_s": {"value": setup}}
    return {"side": side, "workload": workload, "seed": seed, "first": first,
            "result": {"metrics": metrics, "failed": failed}}


BETTER = [
    {"name": "throughput_ops_s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]

# Seeds 1 and 3 run the parent first, 2 and 4 the change.  The side that runs
# first is 10% faster, so the change looks 1.0/1.1 on odd seeds, 1.1/1.0 on even.
RUNS = [
    run("parent", 1, 110.0, 1.0), run("change", 1, 100.0, 1.2),
    run("change", 2, 121.0, 0.9), run("parent", 2, 110.0, 1.0),
    run("parent", 3, 100.0, 2.0), run("change", 3, 100.0, 1.0, failed=1),
    run("change", 4, 132.0, 1.0), run("parent", 4, 120.0, 2.0),
    run("parent", 5, 999.0, 9.0),  # no change run yet: left out
    run("parent", 1, 50.0, 5.0, workload="quotients"),
]


def test_summary_splits_the_ratio_by_the_side_that_ran_first():
    out = bench_pairs.summarize(RUNS, BETTER)
    reads = out["reads"]
    throughput = reads["throughput_ops_s"]
    assert throughput["parent_median"] == 110.0
    assert throughput["change_median"] == pytest.approx(110.5)
    assert throughput["change_wins"] == "2/4"
    # Parent first: 100/110 and 100/100; change first: 121/110 and 132/120.
    assert throughput["ratio_parent_first"] == round((100 / 110 + 1.0) / 2, 3)
    assert throughput["ratio_change_first"] == 1.1
    latency = reads["latency_p50_ms"]
    assert latency["change_wins"] == "3/4"
    assert latency["ratio_parent_first"] == round((1.2 + 0.5) / 2, 3)
    assert latency["ratio_change_first"] == round((0.9 + 0.5) / 2, 3)
    assert reads["failed"] == {"parent": 0, "change": 1}
    assert "quotients" not in out


def test_summary_flags_a_median_worse_than_its_bound():
    reads = bench_pairs.summarize(RUNS, BETTER)["reads"]
    assert reads["peak_rss_mb"]["change_over_parent"] == 1.09
    assert reads["setup_s"]["change_over_parent"] == 1.3
    assert {name: reads[name]["past_bound"] for name in (m["name"] for m in BETTER)} == {
        "throughput_ops_s": False, "latency_p50_ms": False, "peak_rss_mb": False, "setup_s": True,
    }


def test_summary_leaves_a_side_without_pairs_empty():
    out = bench_pairs.summarize([r for r in RUNS if r["seed"] in (1, 3)], BETTER)
    throughput = out["reads"]["throughput_ops_s"]
    assert throughput["ratio_change_first"] is None
    # The median of the pair ratios, not the ratio of the medians (0.952).
    assert throughput["ratio_parent_first"] == round((100 / 110 + 1.0) / 2, 3) == 0.955
    assert throughput["change_over_parent"] == 0.952
