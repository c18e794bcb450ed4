"""The README's code runs as written."""

import json
import re
import shlex
from pathlib import Path

from cdrevents import CallTable, PlantedEvent
from cdrevents.cli import main
from cdrevents.synth import config_from_json

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


def test_walkthrough_config_is_read_as_documented():
    section = README.read_text(encoding="utf-8").split("## CLI walkthrough", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    config = config_from_json(json.loads(block))
    assert (config.n_users, config.n_weeks, config.seed) == (20000, 6, 7)
    assert config.events == (PlantedEvent(2, 3, 5, 18, 22, 8.0, 400, 0.5),)


def test_walkthrough_commands_run_and_write_the_files_they_name(tmp_path, monkeypatch):
    # each `cdrevents` command of the bash block exits 0, and every file
    # named after `# ->` is there afterwards
    section = README.read_text(encoding="utf-8").split("## CLI walkthrough", 1)[1]
    config = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    script = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    (tmp_path / "config.json").write_text(config, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    commands = [
        line for line in script.replace("\\\n", " ").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    named = [name for line in script.splitlines() if line.startswith("# ->")
             for name in re.findall(r"[\w./-]+\.(?:csv|txt)", line)]
    assert commands and named
    for line in commands:
        program, *args = shlex.split(line)
        assert program == "cdrevents"
        assert main(args) == 0, line
    assert [name for name in named if not Path(name).is_file()] == []
