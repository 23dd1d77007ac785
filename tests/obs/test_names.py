"""The canonical metric-name registry: one declaration per name."""

from __future__ import annotations

import re

from repro.obs import names

#: ``<segment>.<segment>...`` — lowercase, digits, underscores inside a
#: segment, dots only between segments.
NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


class TestRegistry:
    def test_all_names_are_unique_strings(self):
        assert len(names.ALL_NAMES) == len(set(names.ALL_NAMES))
        assert all(isinstance(name, str) for name in names.ALL_NAMES)

    def test_all_names_follow_the_scheme(self):
        for name in names.ALL_NAMES:
            assert NAME_RE.match(name), name

    def test_every_constant_is_registered(self):
        constants = {
            value
            for key, value in vars(names).items()
            if key.isupper() and key != "ALL_NAMES" and isinstance(value, str)
        }
        assert constants == set(names.ALL_NAMES)

