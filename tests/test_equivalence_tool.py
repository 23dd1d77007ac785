"""``python -m tests.equivalence`` writes comparable digests and compares them."""

from __future__ import annotations

import io
import json

from tests import equivalence


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
