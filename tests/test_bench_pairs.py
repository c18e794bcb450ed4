"""The summary and the start checks of tools/bench_pairs.py, on fixed runs."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
sys.modules["bench_pairs"] = bench_pairs
spec.loader.exec_module(bench_pairs)


def run(side, seed, query_s, correct=True, failed=0):
    return {
        "workload": "detect-dense", "seed": seed, "side": side, "exit_status": 0,
        "correct": correct, "attempted": 40, "failed": failed,
        "metrics": {"query_s": {"value": query_s, "unit": "s"}},
    }


# change lower in pairs 1 and 2, tied in pair 3, higher in pair 4
RUNS = [
    run("parent", 1, 1.0), run("change", 1, 0.9),
    run("change", 2, 1.5), run("parent", 2, 2.0),
    run("parent", 3, 3.0), run("change", 3, 3.0),
    run("change", 4, 4.5), run("parent", 4, 4.0, correct=False, failed=2),
]


def test_summary_gives_quartiles_percent_and_lower_pairs():
    lines = bench_pairs.summary(RUNS, ["query_s", "query_rss_mb"])
    # parent 1, 2, 3, 4: quartiles 1.75, 2.5, 3.25; change 0.9, 1.5, 3, 4.5:
    # 1.35, 2.25, 3.375; the medians differ by -10 %
    assert lines[:3] == [
        "detect-dense:",
        "  query_s: parent 2.5 [1.75-3.25], change 2.25 [1.35-3.375], -10.0 %, "
        "change lower in 2/4 pairs",
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
