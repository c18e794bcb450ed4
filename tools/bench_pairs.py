"""Run the benchmark on two checkouts in alternating pairs and summarize it.

Usage:
  python3 tools/bench_pairs.py PARENT CHANGE [--workloads NAME ...] [--pairs N]
      [--first-seed S] [--seconds T] [--json PATH]

PARENT and CHANGE are source checkouts, say ``git archive`` copies of two
commits.  Pair i runs each workload at seed S+i on both sides, PARENT first
in even pairs and CHANGE first in odd ones.  Every run is the command of
``BENCHMARK.json`` with ``--trace 0``, started from the root of its checkout
under ``PYTHONDONTWRITEBYTECODE=1``.

Two layouts change the figures without any change of code, so the script
refuses to start on them: a ``__pycache__`` under either ``src/`` (the runs
would load it), and checkout paths of different lengths (the peak RSS of
``detect`` follows the lengths of the paths it is given).

For each workload and end-to-end metric it prints the median and quartiles
of each side, the change in percent, and the pairs in which CHANGE read
lower (a tie counts for neither side); then every run's ``correct``,
``attempted`` and ``failed``.  The exit status is 1 if any run failed an
operation, was not correct or gave no result.  ``--json PATH`` keeps the
raw runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def refusal(parent: Path, change: Path) -> str | None:
    """Why the two checkouts cannot be compared, or None."""
    for checkout in (parent, change):
        if not (checkout / "cdrbench" / "run.py").is_file():
            return f"{checkout} is not a checkout with cdrbench/run.py"
        caches = sorted((checkout / "src").rglob("__pycache__"))
        if caches:
            return f"{caches[0]} exists; the runs would load its bytecode"
    if len(str(parent)) != len(str(change)):
        return f"the checkout paths differ in length: {parent} and {change}"
    return None


def run_once(command: list[str], checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its result object, or an incorrect one if it gave none."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=checkout, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True,
    )
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "error": proc.stderr[-2000:]}
    return {"exit_status": proc.returncode, **result}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def summary(runs: list[dict], metrics: list[str]) -> list[str]:
    """The report lines of ``runs``, each a result object with its
    ``workload``, ``seed`` and ``side``."""
    lines = []
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        lines.append(f"{workload}:")
        for metric in metrics:
            by_seed = {
                side: {run["seed"]: run["metrics"][metric]["value"]
                       for run in mine if run["side"] == side and metric in run["metrics"]}
                for side in SIDES
            }
            if not all(by_seed.values()):
                lines.append(f"  {metric}: no result on both sides")
                continue
            (p_low, p_mid, p_high), (c_low, c_mid, c_high) = (
                quartiles(list(by_seed[side].values())) for side in SIDES
            )
            pairs = by_seed["parent"].keys() & by_seed["change"].keys()
            lower = sum(by_seed["change"][seed] < by_seed["parent"][seed] for seed in pairs)
            percent = f"{(c_mid - p_mid) / p_mid * 100:+.1f} %" if p_mid else "n/a"
            lines.append(
                f"  {metric}: parent {p_mid:.4g} [{p_low:.4g}-{p_high:.4g}], "
                f"change {c_mid:.4g} [{c_low:.4g}-{c_high:.4g}], {percent}, "
                f"change lower in {lower}/{len(pairs)} pairs"
            )
        for run in mine:
            lines.append(
                f"  seed {run['seed']} {run['side']}: correct {run['correct']}, "
                f"attempted {run['attempted']}, failed {run['failed']}"
            )
    return lines


def bad(run: dict) -> bool:
    return run["exit_status"] != 0 or not run["correct"] or run["failed"] != 0


def main(argv: list[str]) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the changed commit")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--pairs", type=int, default=6, help="pairs per workload (default 6)")
    parser.add_argument("--first-seed", type=int, default=9001, help="seed of pair 0")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="measured seconds of each run")
    parser.add_argument("--json", type=Path, help="write the raw runs to this file")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    reason = refusal(checkouts["parent"], checkouts["change"])
    if reason is not None:
        print(f"error: {reason}", file=sys.stderr)
        return 2

    runs = []
    for workload in args.workloads:
        for i in range(args.pairs):
            seed = args.first_seed + i
            for side in SIDES[::-1] if i % 2 else SIDES:
                result = run_once(benchmark["command"], checkouts[side], workload, seed,
                                  args.seconds)
                runs.append({"workload": workload, "seed": seed, "side": side, **result})
                print(f"{workload} seed {seed} {side}: "
                      f"{'bad run' if bad(runs[-1]) else 'ok'}", file=sys.stderr, flush=True)
    print("\n".join(summary(runs, [m["name"] for m in benchmark["end_to_end"]])))
    if args.json is not None:
        payload = {"parent": str(checkouts["parent"]), "change": str(checkouts["change"]),
                   "seconds": args.seconds, "runs": runs}
        args.json.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 1 if any(map(bad, runs)) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
