"""Compare what two checkouts of cdrevents print and write, command by command.

Usage:
  python3 tools/same_outputs.py BASE CHANGE [--seeds N ...] [--work DIR]

BASE and CHANGE are source checkouts, say ``git archive`` copies of two
commits.  The cases are each workload of ``cdrbench/corpus.py`` at each
seed (default 7), and the config of the README's CLI walkthrough three
times: as generated, with every line of its ``cdr.csv`` ending in CRLF, and
with its users renamed and its data lines shuffled (``renamed``).  In each
case, each checkout runs ``generate`` (a workload's corpus then gets
``corpus.extra_lines``, and a README corpus its rewrite), ``detect
--dump-index`` on the first planted event's antenna, and ``infer`` for
every planted event.  No command runs the library's table parse, so each
checkout also parses the case's ``corpus/cdr.csv`` into a ``CallTable``
and prints a digest of its report, both vocabularies and each column's
dtype and bytes (``TABLE_DIGEST``).  A case runs in a directory of its own
on each side, laid out the same way and named by relative paths, so that
printed paths match, under ``PYTHONDONTWRITEBYTECODE=1``.

The exit status, standard output and standard error of every command, and
every file the case leaves, are compared.  Each difference is printed, and
the exit status is 1 if there is any.  The case directories are kept under
``--work DIR`` if it is given, and removed otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave cdrbench/ as it is
sys.path.insert(0, str(ROOT / "cdrbench"))
import corpus  # noqa: E402  (cdrbench's modules import each other by name)

COMMAND_TIMEOUT_S = 300
SHUFFLE_SEED = 22
# run by ``python -c`` with a checkout's program: the table parse of the
# CDR file named by its argument, one line per part, each with a digest
TABLE_DIGEST = """
import hashlib, sys
from cdrevents.ingest import parse_cdr_file
with open(sys.argv[1], "rb") as stream:
    table, report = parse_cdr_file(stream)
def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]
print("report", report.accepted, report.rejected, digest(repr(report.first_errors).encode()))
for name in ("users", "antennas"):
    names = getattr(table, name)
    print(name, len(names), digest(repr(names).encode()))
for name in ("timestamp", "located", "other", "outgoing", "antenna"):
    column = getattr(table, name)
    print(name, column.dtype.str, len(column), digest(column.tobytes()))
"""


def readme_config() -> dict:
    """The generator config of the README's CLI walkthrough."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CLI walkthrough", 1)[1]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


def crlf(corpus_dir: Path) -> None:
    """End every line of the corpus's CDR file in CRLF."""
    cdr = corpus_dir / "cdr.csv"
    cdr.write_bytes(cdr.read_bytes().replace(b"\n", b"\r\n"))


def renamed_user(name: bytes) -> bytes:
    """A generated user name ``u`` + digits as "üüüü-" + the digits reversed:
    15 bytes of UTF-8, the first 9 shared by every user, in another order;
    any other name as it is."""
    match = re.fullmatch(rb"u(\d+)", name)
    return "üüüü-".encode() + match.group(1)[::-1] if match else name


def renamed(corpus_dir: Path) -> None:
    """Rename the users of the corpus's CDR file and roster by
    ``renamed_user``, and shuffle the CDR's data lines with a fixed seed."""
    cdr, roster = corpus_dir / "cdr.csv", corpus_dir / "clients.txt"
    header, *lines = cdr.read_bytes().split(b"\n")[:-1]
    rows = []
    for line in lines:
        located, other, rest = line.split(b",", 2)
        rows.append(b",".join([renamed_user(located), renamed_user(other), rest]))
    random.Random(SHUFFLE_SEED).shuffle(rows)
    cdr.write_bytes(b"\n".join([header, *rows, b""]))
    users = roster.read_bytes().splitlines()
    roster.write_bytes(b"".join(renamed_user(user) + b"\n" for user in users))


Rewrite = Callable[[Path], None]


def cases(seeds: list[int]) -> list[tuple[str, dict, corpus.Shape | None, int, Rewrite | None]]:
    """(name, generator config, workload shape or None, seed, rewrite of the
    generated corpus or None) of each case."""
    found = [
        (f"{name}-{seed}", corpus.generator_config(shape, seed), shape, seed, None)
        for seed in seeds
        for name, shape in corpus.WORKLOADS.items()
    ]
    config = readme_config()
    return found + [
        (f"readme{suffix}", config, None, config["seed"], rewrite)
        for suffix, rewrite in (("", None), ("-crlf", crlf), ("-renamed", renamed))
    ]


def run_python(checkout: Path, case_dir: Path, args: list[str]) -> tuple[int, bytes, bytes]:
    """The exit status, stdout and stderr of Python run with ``args`` and
    ``checkout``'s program in ``case_dir``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, *args], cwd=case_dir, env=env, capture_output=True,
        timeout=COMMAND_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_case(
    checkout: Path, case_dir: Path, config: dict, shape, seed: int, rewrite: Rewrite | None
) -> dict:
    """Run the case's commands with ``checkout``'s program in ``case_dir``,
    after the ``rewrite`` of the generated corpus, if any; returns (exit
    status, stdout, stderr) by command line, the table parse's under
    ``table-parse corpus/cdr.csv``."""
    results: dict[str, tuple[int, bytes, bytes]] = {}

    def command(*args: str) -> int:
        line = " ".join(args)
        results[line] = run_python(checkout, case_dir, ["-m", "cdrevents.cli", *args])
        return results[line][0]

    case_dir.mkdir(parents=True)
    (case_dir / "config.json").write_text(json.dumps(config, indent=1), encoding="utf-8")
    if command("generate", "config.json", "--out", "corpus") != 0:
        return results
    corpus_dir = case_dir / "corpus"
    if shape is not None:
        corpus.append_lines(corpus_dir / "cdr.csv", corpus.extra_lines(shape, seed, corpus_dir))
    if rewrite is not None:
        rewrite(corpus_dir)
    events = corpus.read_truth(corpus_dir / "truth.csv")
    inputs = ("corpus/cdr.csv", "corpus/clients.txt")
    dump = ("--dump-index", events[0].antenna) if events else ()
    command("detect", *inputs, "--out", "detect", *dump)
    for i, event in enumerate(events):
        dated = ("--antenna", event.antenna, "--date", event.date.isoformat(),
                 "--window", f"{event.start_hour:02d}:{event.end_hour:02d}")
        command("infer", *inputs, "--out", f"infer-{i}", *dated)
    results["table-parse corpus/cdr.csv"] = run_python(
        checkout, case_dir, ["-c", TABLE_DIGEST, "corpus/cdr.csv"]
    )
    return results


def files(case_dir: Path) -> dict[str, bytes]:
    """Every file under ``case_dir``, by its relative path."""
    return {
        path.relative_to(case_dir).as_posix(): path.read_bytes()
        for path in sorted(case_dir.rglob("*")) if path.is_file()
    }


def differences(base: dict, change: dict, what: str) -> list[str]:
    """One line for each key whose values differ between the two sides."""
    found = []
    for key in sorted(base.keys() | change.keys()):
        if key not in base or key not in change:
            found.append(f"{what} {key!r}: only in {'CHANGE' if key in change else 'BASE'}")
        elif base[key] != change[key]:
            found.append(f"{what} {key!r}: BASE {base[key]!r:.300} CHANGE {change[key]!r:.300}")
    return found


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout of the base commit")
    parser.add_argument("change", type=Path, help="checkout of the changed commit")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7], help="workload seeds")
    parser.add_argument("--work", type=Path, help="a new directory to keep the case directories in")
    args = parser.parse_args(argv)
    for checkout in (args.base, args.change):
        if not (checkout / "src" / "cdrevents").is_dir():
            parser.error(f"{checkout} is not a cdrevents checkout")
    work = args.work or Path(tempfile.mkdtemp(prefix="same_outputs."))
    n_differences = 0
    try:
        for name, config, shape, seed, rewrite in cases(args.seeds):
            sides = []
            for side, checkout in (("base", args.base), ("change", args.change)):
                case_dir = work / side / name
                results = run_case(checkout.resolve(), case_dir, config, shape, seed, rewrite)
                sides.append((results, files(case_dir)))
            (base_results, base_files), (change_results, change_files) = sides
            found = differences(base_results, change_results, "command")
            found += differences(base_files, change_files, "file")
            n_differences += len(found)
            print(f"{name}: {len(base_results)} commands, {len(base_files)} files, "
                  f"{len(found)} differences", flush=True)
            for line in found:
                print(f"  {line}", flush=True)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    print("no difference" if not n_differences else f"{n_differences} differences")
    return 1 if n_differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
