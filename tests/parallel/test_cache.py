"""The content-addressed incremental module cache."""

from __future__ import annotations

import os

import pytest

from repro.core.config import HLOConfig
from repro.frontend.driver import compile_module
from repro.linker.isom import to_isom_text
from repro.linker.toolchain import Toolchain
from repro.parallel import ModuleCache

from .conftest import GATE_PROGRAMS, TRAIN_INPUTS, gate_program

MODULE_SOURCE = "int add(int a, int b) { return a + b; }\n"


def _compiled_text(name="util", source=MODULE_SOURCE):
    return to_isom_text(compile_module(source, name))


def test_key_depends_on_every_input():
    base = ModuleCache.key_for("m", "src", "fp")
    assert ModuleCache.key_for("m", "src", "fp") == base
    assert ModuleCache.key_for("m2", "src", "fp") != base
    assert ModuleCache.key_for("m", "src2", "fp") != base
    assert ModuleCache.key_for("m", "src", "fp2") != base


def test_memory_hit_returns_fresh_objects():
    cache = ModuleCache()
    key = cache.key_for("util", MODULE_SOURCE, "")
    assert cache.fetch("util", key) is None
    assert cache.stats.misses == 1
    cache.store("util", key, _compiled_text())
    first = cache.fetch("util", key)
    second = cache.fetch("util", key)
    assert cache.stats.hits == 2
    assert first is not second  # cached text, never shared IR objects
    assert to_isom_text(first) == to_isom_text(second)


def test_changed_key_counts_as_invalidation():
    cache = ModuleCache()
    old_key = cache.key_for("util", MODULE_SOURCE, "")
    cache.store("util", old_key, _compiled_text())
    new_key = cache.key_for("util", MODULE_SOURCE + "// edit\n", "")
    assert cache.fetch("util", new_key) is None
    assert cache.stats.invalidations == 1
    # A brand-new module is a plain miss, not an invalidation.
    other = cache.key_for("other", MODULE_SOURCE, "")
    assert cache.fetch("other", other) is None
    assert cache.stats.invalidations == 1


def test_disk_persistence_across_instances(tmp_path):
    first = ModuleCache(str(tmp_path))
    key = first.key_for("util", MODULE_SOURCE, "")
    first.store("util", key, _compiled_text())
    second = ModuleCache(str(tmp_path))
    assert second.fetch("util", key) is not None
    assert second.stats.hits == 1


def test_corrupt_disk_entry_is_a_miss_and_evicted(tmp_path):
    cache = ModuleCache(str(tmp_path))
    key = cache.key_for("util", MODULE_SOURCE, "")
    cache.store("util", key, _compiled_text())
    path = os.path.join(str(tmp_path), "objects", key + ".isom")
    with open(path, "w") as handle:
        handle.write("isom 1 crc32 0\ngarbage\n")
    fresh = ModuleCache(str(tmp_path))
    assert fresh.fetch("util", key) is None
    assert not os.path.exists(path)


def _filler_source(tag):
    """Same-length sources so every disk entry has the same size."""
    return "int f{}(int a, int b) {{ return a + b; }}\n".format(tag)


def _store(cache, name):
    key = cache.key_for(name, _filler_source(name[-1]), "")
    cache.store(name, key, _compiled_text(name, _filler_source(name[-1])))
    return key


def test_size_bound_evicts_least_recently_used(tmp_path):
    probe = ModuleCache(str(tmp_path / "probe"))
    entry_bytes = 0
    _store(probe, "m0")
    entry_bytes = probe.disk_bytes()
    assert entry_bytes > 0

    # Room for two entries, not three.
    max_mb = (2 * entry_bytes + entry_bytes // 2) / (1024.0 * 1024.0)
    cache = ModuleCache(str(tmp_path / "bounded"), max_mb=max_mb)
    key_a = _store(cache, "ma")
    key_b = _store(cache, "mb")
    assert cache.stats.size_evictions == 0
    # Make 'a' the LRU entry, then overflow: 'a' must go, 'b' stays.
    os.utime(os.path.join(str(tmp_path / "bounded"), "objects", key_a + ".isom"),
             (1, 1))
    key_c = _store(cache, "mc")
    assert cache.stats.size_evictions == 1
    assert cache.disk_bytes() <= 2 * entry_bytes
    # The memory copy went with the disk object: the process's
    # footprint tracks the bounded tier.
    assert cache.fetch("ma", key_a) is None
    assert cache.fetch("mb", key_b) is not None
    assert cache.fetch("mc", key_c) is not None


def test_size_bound_never_evicts_the_entry_just_stored(tmp_path):
    probe = ModuleCache(str(tmp_path / "probe"))
    _store(probe, "m0")
    entry_bytes = probe.disk_bytes()

    # Bound below a single entry: each store evicts its predecessor.
    max_mb = (entry_bytes // 2) / (1024.0 * 1024.0)
    cache = ModuleCache(str(tmp_path / "tiny"), max_mb=max_mb)
    _store(cache, "ma")
    assert cache.stats.size_evictions == 0  # 'a' itself is protected
    key_b = _store(cache, "mb")
    assert cache.stats.size_evictions == 1  # 'a' evicted, 'b' protected
    assert cache.fetch("mb", key_b) is not None


def test_fetch_refreshes_recency(tmp_path):
    probe = ModuleCache(str(tmp_path / "probe"))
    _store(probe, "m0")
    entry_bytes = probe.disk_bytes()

    max_mb = (2 * entry_bytes + entry_bytes // 2) / (1024.0 * 1024.0)
    directory = str(tmp_path / "touched")
    cache = ModuleCache(directory, max_mb=max_mb)
    key_a = _store(cache, "ma")
    key_b = _store(cache, "mb")
    # Age both, then *use* 'a': the hit refreshes its mtime, so the
    # overflow evicts 'b' even though 'a' was stored first.
    for key in (key_a, key_b):
        os.utime(os.path.join(directory, "objects", key + ".isom"), (1, 1))
    assert cache.fetch("ma", key_a) is not None
    _store(cache, "mc")
    assert cache.stats.size_evictions == 1
    assert cache.fetch("ma", key_a) is not None
    assert cache.fetch("mb", key_b) is None


def test_unbounded_cache_never_size_evicts(tmp_path):
    cache = ModuleCache(str(tmp_path))
    for index in range(6):
        _store(cache, "m{}".format(index))
    assert cache.stats.size_evictions == 0


def _build(sources, tmp_path, config=None, train_inputs=TRAIN_INPUTS):
    toolchain = Toolchain(
        sources,
        train_inputs=train_inputs,
        config=config,
        cache_dir=str(tmp_path),
    )
    return toolchain.build("cp")


@pytest.mark.parametrize("program", GATE_PROGRAMS)
def test_warm_rebuild_recompiles_nothing(program, tmp_path):
    sources, train_inputs, _ref_input = gate_program(program)
    cold = _build(sources, tmp_path, train_inputs=train_inputs)
    assert cold.diagnostics.modules_compiled > 0
    warm = _build(sources, tmp_path, train_inputs=train_inputs)
    assert warm.diagnostics.modules_compiled == 0
    assert warm.diagnostics.cache_hit_rate == 1.0
    assert "cache: " in warm.diagnostics.summary(warm.report)
    assert "(100%)" in warm.diagnostics.summary(warm.report)


def test_rewriting_identical_source_still_hits(sources, tmp_path):
    _build(sources, tmp_path)
    # "touch" every file: same text objects rebuilt from scratch.
    rewritten = [(name, str(text)) for name, text in sources]
    warm = _build(rewritten, tmp_path)
    assert warm.diagnostics.modules_compiled == 0


def test_config_change_invalidates(sources, tmp_path):
    _build(sources, tmp_path)
    changed = _build(sources, tmp_path, config=HLOConfig(budget_percent=137.0))
    assert changed.diagnostics.modules_compiled > 0
    assert changed.diagnostics.cache_invalidations > 0


def test_single_module_edit_recompiles_only_that_module(sources, tmp_path):
    _build(sources, tmp_path)
    edited = [
        (name, text + "// tweak\n" if name == "mid" else text)
        for name, text in sources
    ]
    partial = _build(edited, tmp_path)
    # Only 'mid' misses, once: a build compiles its sources once, and
    # training probes that program rather than compiling again.
    assert partial.diagnostics.modules_compiled == 1
    assert partial.diagnostics.cache_misses == 1
    assert partial.diagnostics.cache_invalidations == 1
