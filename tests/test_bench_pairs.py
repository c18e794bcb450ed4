"""The summary and the start checks of tools/bench_pairs.py, on fixed runs."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
sys.modules["bench_pairs"] = bench_pairs
spec.loader.exec_module(bench_pairs)


def run(side, seed, query_s, correct=True, failed=0, rss=None):
    metrics = {"query_s": {"value": query_s, "unit": "s"}}
    if rss is not None:
        metrics["query_rss_mb"] = {"value": rss, "unit": "MB"}
    return {
        "workload": "detect-dense", "seed": seed, "side": side, "exit_status": 0,
        "correct": correct, "attempted": 40, "failed": failed, "metrics": metrics,
    }


# change lower in pairs 1 and 2, tied in pair 3, higher in pair 4
RUNS = [
    run("parent", 1, 1.0), run("change", 1, 0.9),
    run("change", 2, 1.5), run("parent", 2, 2.0),
    run("parent", 3, 3.0), run("change", 3, 3.0),
    run("change", 4, 4.5), run("parent", 4, 4.0, correct=False, failed=2),
]


QUERY_S = {"name": "query_s", "unit": "s", "better": "lower", "bound": 0.25}
QUERY_RSS_MB = {"name": "query_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}


def test_summary_gives_quartiles_percent_and_lower_pairs():
    lines = bench_pairs.summary(RUNS, [QUERY_S, QUERY_RSS_MB])
    # parent 1, 2, 3, 4: quartiles 1.75, 2.5, 3.25; change 0.9, 1.5, 3, 4.5:
    # 1.35, 2.25, 3.375; the medians differ by -10 %
    assert lines[:3] == [
        "detect-dense:",
        "  query_s: parent 2.5 [1.75-3.25], change 2.25 [1.35-3.375], -10.0 %, "
        "change lower in 2/4 pairs, within bound",
        "  query_rss_mb: no result on both sides",
    ]
    assert lines[3:] == [
        f"  seed {r['seed']} {r['side']}: correct {r['correct']}, attempted 40, "
        f"failed {r['failed']}"
        for r in RUNS
    ]


def test_a_failed_or_incorrect_run_is_bad():
    assert [bench_pairs.bad(r) for r in RUNS] == [False] * 7 + [True]
    assert bench_pairs.bad(run("parent", 1, 1.0, correct=False))
    assert bench_pairs.bad({**run("parent", 1, 1.0), "exit_status": 1})


def test_refuses_bytecode_caches_and_paths_of_different_lengths(tmp_path):
    for name in ("a", "b", "long"):
        (tmp_path / name / "cdrbench").mkdir(parents=True)
        (tmp_path / name / "cdrbench" / "run.py").write_text("")
        (tmp_path / name / "src" / "cdrevents").mkdir(parents=True)
    a, b = tmp_path / "a", tmp_path / "b"
    assert bench_pairs.refusal(a, b) is None
    assert "differ in length" in bench_pairs.refusal(a, tmp_path / "long")
    (b / "src" / "cdrevents" / "__pycache__").mkdir()
    assert "__pycache__" in bench_pairs.refusal(a, b)
    assert "not a checkout" in bench_pairs.refusal(a, tmp_path / "c")


# parent 1.00 to 1.09 over seeds 0 to 9: quartiles 1.0225, 1.045, 1.0675
PARENT = {seed: 1 + seed / 100 for seed in range(10)}


def shifted(by: float, against: int = 0) -> dict[int, float]:
    """PARENT plus ``by``, and minus ``by`` in the first ``against`` seeds."""
    return {seed: value + (-by if seed < against else by) for seed, value in PARENT.items()}


def test_a_gain_is_better_in_9_of_10_pairs_by_more_than_the_parent_s_spread():
    # 9/10 pairs 0.2 lower: the change's median is 0.16 lower, past the
    # parent's 0.045 spread
    assert bench_pairs.verdict(QUERY_S, PARENT, shifted(-0.2, against=1)) == "gain"
    # 8/10 pairs lower by as much is no gain
    assert bench_pairs.verdict(QUERY_S, PARENT, shifted(-0.2, against=2)) == "within bound"
    # 10/10 pairs lower by less than the spread is no gain
    assert bench_pairs.verdict(QUERY_S, PARENT, shifted(-0.04)) == "within bound"
    # where higher is better, a gain is a higher median
    higher = {**QUERY_S, "better": "higher"}
    assert bench_pairs.verdict(higher, PARENT, shifted(0.2, against=1)) == "gain"
    assert bench_pairs.verdict(higher, PARENT, shifted(-0.2, against=1)) == "within bound"


def test_worse_is_a_median_past_the_parent_s_by_more_than_the_bound():
    # the parent's median is 1.045: a 5 % bound is 0.05225, a 25 % one 0.26125
    assert bench_pairs.verdict(QUERY_RSS_MB, PARENT, shifted(0.06)) == "worse"
    assert bench_pairs.verdict(QUERY_RSS_MB, PARENT, shifted(0.05)) == "within bound"
    assert bench_pairs.verdict(QUERY_S, PARENT, shifted(0.06)) == "within bound"
    assert bench_pairs.verdict(QUERY_S, PARENT, shifted(0.27)) == "worse"
    higher = {**QUERY_RSS_MB, "better": "higher"}
    assert bench_pairs.verdict(higher, PARENT, shifted(-0.06)) == "worse"
    assert bench_pairs.verdict(higher, PARENT, shifted(0.06)) == "gain"


def test_each_metric_line_ends_in_its_verdict():
    runs = [
        run(side, seed, value, rss=rss)
        for seed in PARENT
        for side, value, rss in (
            ("parent", PARENT[seed], 40.0 + seed / 10),
            ("change", shifted(-0.2, against=1)[seed], 44.0 + seed / 10),
        )
    ]
    lines = bench_pairs.summary(runs, [QUERY_S, QUERY_RSS_MB])
    assert lines[1].endswith("change lower in 9/10 pairs, gain"), lines[1]
    assert lines[2].endswith("change lower in 0/10 pairs, worse"), lines[2]
