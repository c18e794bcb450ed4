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
    assert (by_name["readme"][4], by_name["readme-crlf"][4]) == (False, True)
    sides = []
    for name in ("readme", "readme-crlf"):
        case_dir = tmp_path / name
        results = same_outputs.run_case(ROOT, case_dir, *by_name[name][1:])
        sides.append((results, same_outputs.files(case_dir)))
    (results, files), (crlf_results, crlf_files) = sides
    assert [command.split()[0] for command in crlf_results] == [
        "generate", "detect", "infer"
    ]
    assert all(status == 0 for status, _, _ in crlf_results.values())
    assert crlf_results == results
    cdr, crlf_cdr = files.pop("corpus/cdr.csv"), crlf_files.pop("corpus/cdr.csv")
    assert crlf_cdr == cdr.replace(b"\n", b"\r\n") and crlf_cdr.count(b"\r\n") > 1
    assert crlf_files == files
