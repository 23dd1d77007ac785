"""Every build of the equivalence sweep reproduces its committed line.

``tests/equivalence.jsonl`` is ``python -m tests.equivalence --out`` on
the committed tree.  Each of its builds is one test here, so a change
that moves a build fails under that build's id and names the fields
that moved.  A change that means to move builds regenerates the file,
as ``tests/equivalence.py`` says.

The builds share toolchains and a disk cache, so the sweep is made
once, in its own order, as far as the tests ask for it: a build is
made only after every build before it.
"""

from __future__ import annotations

import json
import os

import pytest

from tests import equivalence

COMMITTED_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "equivalence.jsonl"
)


def _committed():
    """Build id -> its committed line, in the file's order."""
    with open(COMMITTED_PATH) as handle:
        lines = [text.rstrip("\n") for text in handle if text.strip()]
    return {json.loads(text)["id"]: text for text in lines}


COMMITTED = _committed()


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """A function from build id to the line this tree makes for it."""
    builds = equivalence.builds(str(tmp_path_factory.mktemp("equivalence")))
    made = {}

    def line_of(build_id):
        if build_id not in made:
            for made_id, build in builds:
                made[made_id] = equivalence.line(made_id, build)
                if made_id == build_id:
                    break
        return made.get(build_id)

    return line_of


def test_sweep_makes_the_committed_builds_in_order(tmp_path):
    ids = [build_id for build_id, _build in equivalence.builds(str(tmp_path))]
    assert ids == list(COMMITTED)


@pytest.mark.parametrize("build_id", list(COMMITTED))
def test_build_reproduces_its_committed_line(sweep, build_id):
    made = sweep(build_id)
    assert made is not None, "the sweep no longer makes " + build_id
    if made != COMMITTED[build_id]:
        now, then = json.loads(made), json.loads(COMMITTED[build_id])
        moved = sorted(
            key for key in set(now) | set(then)
            if json.dumps(now.get(key)) != json.dumps(then.get(key))
        )
        pytest.fail("{} moved: {}".format(build_id, " ".join(moved)))
