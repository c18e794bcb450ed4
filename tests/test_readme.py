"""The README's code runs as written."""

import json
import re
from pathlib import Path

from cdrevents import CallTable
from cdrevents.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

CONFIG = {
    "seed": 7,
    "n_users": 3000,
    "client_fraction": 0.7,
    "n_antennas": 3,
    "n_weeks": 3,
    "baseline_mean": 10.0,
    "events": [
        {"antenna": 2, "week": 1, "dow": 5, "start_hour": 18, "end_hour": 22,
         "intensity_multiplier": 8.0, "n_attendees": 200, "social_fraction": 0.5}
    ],
}


def test_library_use_block_runs_on_a_generated_corpus(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    assert main(["generate", str(config), "--out", str(tmp_path / "corpus")]) == 0
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    records, report = namespace["records"], namespace["report"]
    assert type(records) is CallTable
    assert len(records) == report.accepted > 0
    assert namespace["present"]
