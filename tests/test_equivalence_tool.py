"""``python -m tests.equivalence`` writes comparable digests and compares them."""

from __future__ import annotations

import dataclasses
import io
import json
import os
import subprocess
import sys

from repro.machine import MachineMetrics
from tests import equivalence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def compare_without_repro(path_a, path_b):
    """``--compare`` in a fresh interpreter that cannot import ``repro``."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    code = (
        "import sys; sys.modules['repro'] = None; from tests.equivalence import main; "
        "sys.exit(main(['--compare', {!r}, {!r}]))".format(str(path_a), str(path_b))
    )
    return subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=120,
    )


def test_a_sweep_equals_itself_and_a_changed_field_is_reported(tmp_path):
    out = tmp_path / "builds.jsonl"
    assert equivalence.main(["--out", str(out), "--only", "gen/1/"]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [row["id"] for row in rows] == ["gen/1/global", "gen/1/demand"]
    assert equivalence.compare(str(out), str(out), out=io.StringIO()) == 0

    rows[1]["isoms"] = "0" * 16
    changed = tmp_path / "changed.jsonl"
    changed.write_text("".join(json.dumps(row) + "\n" for row in rows))
    printed = io.StringIO()
    assert equivalence.compare(str(out), str(changed), out=printed) == 1
    assert "gen/1/demand: isoms" in printed.getvalue()

    same = compare_without_repro(out, out)
    assert same.returncode == 0, same.stderr
    differ = compare_without_repro(out, changed)
    assert differ.returncode == 1, differ.stderr
    assert "gen/1/demand: isoms" in differ.stdout


def test_a_simulation_line_holds_every_machine_metric(tmp_path):
    out = tmp_path / "sims.jsonl"
    assert equivalence.main(["--out", str(out), "--only", "sim/compress/global/"]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [row["id"] for row in rows] == [
        "sim/compress/global/default", "sim/compress/global/small",
    ]
    fields = {field.name for field in dataclasses.fields(MachineMetrics)}
    for row in rows:
        assert fields <= set(row)
    assert rows[0]["steps"] == rows[1]["steps"]
    assert rows[0]["cycles"] != rows[1]["cycles"]


def test_only_keeps_the_builds_whose_id_starts_with_the_text(tmp_path, monkeypatch):
    ids = [
        "suite/m88ksim/global/b400/cp",
        "fault-ladder/m88ksim/crash-dce/global",
        "sim/m88ksim/global/default",
        "sim/large-program/demand/small",
    ]
    monkeypatch.setattr(
        equivalence, "builds",
        lambda cache_root: ((build_id, dict) for build_id in ids),
    )
    out = tmp_path / "builds.jsonl"
    assert equivalence.write(str(out), only="sim/") == 2
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [row["id"] for row in rows] == ids[2:]
    assert equivalence.write(str(out), only="m88ksim/") == 0
