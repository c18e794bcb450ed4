"""The comparison and the start check of tools/same_outputs.py, on fixed
outputs."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(spec)
sys.modules["same_outputs"] = same_outputs
# the script turns bytecode writing off for its whole process
writes_bytecode = sys.dont_write_bytecode
spec.loader.exec_module(same_outputs)
sys.dont_write_bytecode = writes_bytecode


def test_differences_name_keys_on_one_side_and_differing_values():
    base = {"detect a": (0, b"x", b""), "detect b": (0, b"y", b""), "infer a": (1, b"", b"e")}
    change = {"detect a": (0, b"x", b""), "detect b": (0, b"z", b""), "infer b": (0, b"", b"")}
    assert same_outputs.differences(base, change, "command") == [
        "command 'detect b': BASE (0, b'y', b'') CHANGE (0, b'z', b'')",
        "command 'infer a': only in BASE",
        "command 'infer b': only in CHANGE",
    ]
    assert same_outputs.differences(base, dict(base), "command") == []


def test_differing_values_are_cut_at_300_characters():
    base, change = {"out.csv": b"a" * 1000}, {"out.csv": b"b" * 1000}
    [line] = same_outputs.differences(base, change, "file")
    assert line == f"file 'out.csv': BASE {repr(b'a' * 1000)[:300]} CHANGE {repr(b'b' * 1000)[:300]}"
    assert len(line) == len("file 'out.csv': BASE  CHANGE ") + 600


def test_refuses_a_directory_that_is_not_a_checkout(tmp_path, capsys):
    checkout = tmp_path / "checkout"
    (checkout / "src" / "cdrevents").mkdir(parents=True)
    other = tmp_path / "other"
    other.mkdir()
    for base, change in ((checkout, other), (other, checkout)):
        with pytest.raises(SystemExit) as exit_info:
            same_outputs.main([str(base), str(change)])
        assert exit_info.value.code == 2
        assert f"{other} is not a cdrevents checkout" in capsys.readouterr().err


def test_the_crlf_case_gives_the_readme_case_s_outputs(tmp_path):
    # the README corpus with CRLF line breaks: every command succeeds and
    # prints and writes what it does on the corpus as generated
    by_name = {case[0]: case for case in same_outputs.cases([])}
    assert by_name["readme-crlf"][1:4] == by_name["readme"][1:4]
    assert (by_name["readme"][4], by_name["readme-crlf"][4]) == (None, same_outputs.crlf)
    sides = []
    for name in ("readme", "readme-crlf"):
        case_dir = tmp_path / name
        results = same_outputs.run_case(ROOT, case_dir, *by_name[name][1:])
        sides.append((results, same_outputs.files(case_dir)))
    (results, files), (crlf_results, crlf_files) = sides
    assert [command.split()[0] for command in crlf_results] == [
        "generate", "detect", "infer", "table-parse"
    ]
    assert all(status == 0 for status, _, _ in crlf_results.values())
    assert crlf_results == results
    cdr, crlf_cdr = files.pop("corpus/cdr.csv"), crlf_files.pop("corpus/cdr.csv")
    assert crlf_cdr == cdr.replace(b"\n", b"\r\n") and crlf_cdr.count(b"\r\n") > 1
    assert crlf_files == files


def test_the_renamed_case_renames_every_user_and_shuffles_the_lines(tmp_path):
    # users become non-ASCII names longer than a uint64 word that share
    # their first 9 bytes and sort in another order; antennas stay as they are
    by_name = {case[0]: case for case in same_outputs.cases([])}
    assert by_name["readme-renamed"][1:] == (*by_name["readme"][1:4], same_outputs.renamed)
    assert same_outputs.renamed_user(b"u000123") == "üüüü-321000".encode()
    assert len(same_outputs.renamed_user(b"u000123")) == 15
    assert same_outputs.renamed_user(b"u000010") < same_outputs.renamed_user(b"u000001")
    assert same_outputs.renamed_user(b"A001") == b"A001"
    header = "located_user,other_party,direction,timestamp,antenna"
    lines = [f"u{i:06d},u{(7 * i) % 100:06d},out,{1000 + i},A{i % 3:03d}" for i in range(1, 100)]
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "cdr.csv").write_text("\n".join([header, *lines, ""]))
    (corpus_dir / "clients.txt").write_text("u000001\nu000010\n")
    same_outputs.renamed(corpus_dir)
    got = (corpus_dir / "cdr.csv").read_text(encoding="utf-8").split("\n")
    assert got[0] == header and got[-1] == ""
    expected = [
        f"üüüü-{f'{i:06d}'[::-1]},üüüü-{f'{(7 * i) % 100:06d}'[::-1]},out,{1000 + i},A{i % 3:03d}"
        for i in range(1, 100)
    ]
    assert got[1:-1] != expected and sorted(got[1:-1]) == sorted(expected)
    roster = (corpus_dir / "clients.txt").read_text(encoding="utf-8")
    assert roster == "üüüü-100000\nüüüü-010000\n"


def test_the_renamed_case_gives_the_readme_case_s_outputs_renamed(tmp_path):
    # every count and the fit are the readme case's; the edges name the
    # renamed users
    by_name = {case[0]: case for case in same_outputs.cases([])}
    sides = []
    for name in ("readme", "readme-renamed"):
        case_dir = tmp_path / name
        results = same_outputs.run_case(ROOT, case_dir, *by_name[name][1:])
        sides.append((results, same_outputs.files(case_dir)))
    (results, files), (renamed_results, renamed_files) = sides
    assert all(status == 0 for status, _, _ in renamed_results.values())
    # the shuffled, renamed table keeps only the report and the antennas
    parse = "table-parse corpus/cdr.csv"
    digests = [side.pop(parse)[1].splitlines() for side in (results, renamed_results)]
    assert [a.split()[0] for a, b in zip(*digests) if a == b] == [b"report", b"antennas"]
    assert renamed_results == results
    edges = [name for name in files if name.endswith("subgraph_edges.csv")]
    assert edges
    for name in edges:
        header, *rows = files.pop(name).decode().splitlines()
        renamed_header, *renamed_rows = renamed_files.pop(name).decode().splitlines()
        pairs = [
            sorted(same_outputs.renamed_user(user.encode()).decode() for user in row.split(","))
            for row in rows
        ]
        assert renamed_header == header and len(rows) > 1
        assert [row.split(",") for row in renamed_rows] == sorted(pairs)
    for name in ("corpus/cdr.csv", "corpus/clients.txt"):
        assert renamed_files.pop(name) != files.pop(name)
    assert renamed_files == files


# a fake program whose table parse gives a fixed table, and each change of
# one part of it
FAKE_INGEST = """
import numpy as np
from types import SimpleNamespace

def parse_cdr_file(stream):
    stream.read()
    table = SimpleNamespace(
        users=("u1", "u2"), antennas=("A1", "A2"), timestamp=np.array([5, 7]),
        located=np.array([0, 1], dtype=np.int32), other=np.array([1, 0], dtype=np.int32),
        outgoing=np.array([True, False]), antenna=np.array([0, 1], dtype=np.int32),
    )
    report = SimpleNamespace(accepted=2, rejected=1, first_errors=[(3, "bad timestamp")])
    {change}
    return table, report
"""
ONE_PART_CHANGED = {
    "report": 'report.first_errors = [(3, "bad direction")]',
    "users": 'table.users = ("u1", "u3")',
    "antennas": 'table.antennas = ("A1", "A3")',
    "timestamp": "table.timestamp[1] = 8",
    "located": "table.located[0] = 1",
    "other": "table.other[1] = 1",
    "outgoing": "table.outgoing[1] = True",
    "antenna": "table.antenna = table.antenna.astype(np.int64)",
}


@pytest.mark.parametrize("part", list(ONE_PART_CHANGED))
def test_the_table_digest_shows_one_changed_column_or_vocabulary(tmp_path, part):
    (tmp_path / "cdr.csv").write_bytes(b"")
    outputs = []
    for side, change in (("base", "pass"), ("change", ONE_PART_CHANGED[part])):
        package = tmp_path / side / "src" / "cdrevents"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "ingest.py").write_text(FAKE_INGEST.format(change=change))
        args = ["-c", same_outputs.TABLE_DIGEST, "cdr.csv"]
        outputs.append({"parse": same_outputs.run_python(tmp_path / side, tmp_path, args)})
    (status, stdout, stderr), (_, changed, _) = outputs[0]["parse"], outputs[1]["parse"]
    assert status == 0 and stderr == b"" and len(stdout.splitlines()) == 8
    assert len(same_outputs.differences(*outputs, "command")) == 1
    differing = [a.split()[0] for a, b in zip(stdout.splitlines(), changed.splitlines()) if a != b]
    assert differing == [part.encode()]
