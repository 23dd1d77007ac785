"""A guarded HLO stage's mutation record: complete, and exact on rollback.

Each guarded stage (clone, inline, outline, dead calls, one demand
region) copies a procedure only when one of its edit sites reports a
first write.  A write that is not reported would survive a rollback,
so these tests fingerprint the whole program around every stage:

- completeness: over suite builds, everything a stage changed is on its
  record (or is a procedure the stage added);
- rollback: a stage made to fail after its writes leaves the program as
  it found it — bodies, counts, linkages, marks, the counters new names
  come from, and no added procedure.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import cloner, inliner, outliner, regions
from repro.core.config import HLOConfig
from repro.linker.toolchain import Toolchain
from repro.opt import deadcalls
from repro.resilience import PassGuard
from repro.workloads.suite import get_workload, workload_names

REAL_STAGE = PassGuard.run_program_stage


def _body(proc):
    return (
        tuple(proc.params), proc.ret_type, tuple(sorted(proc.attrs)), proc.entry,
        tuple(
            (label, tuple(str(instr) for instr in block.instrs))
            for label, block in proc.blocks.items()
        ),
    )


def _state(program):
    """Per procedure: body, counts, linkage, mark, name counters; per
    global: linkage; and each module's procedure order."""
    procs = {
        proc.name: (
            _body(proc),
            tuple((label, b.profile_count) for label, b in proc.blocks.items()),
            proc.linkage,
            proc.at_fixed_point,
            (proc._reg_counter, proc._label_counter),
        )
        for proc in program.all_procs()
    }
    globals_ = {g.name: g.linkage for g in program.all_globals()}
    order = {name: list(mod.procs) for name, mod in program.modules.items()}
    return procs, globals_, order


class StageAudit:
    """``run_program_stage`` that checks every stage against its record."""

    def __init__(self):
        self.wrote = Counter()  # stage name -> stages that wrote something
        self.rolled_back = Counter()
        self.violations = []

    def __call__(self, guard, program, name, run, *args, **kwargs):
        before = _state(program)
        records = []

        def recorded_run():
            records.append(program.mutations)
            return run()

        failures = len(guard.failures)
        result = REAL_STAGE(guard, program, name, recorded_run, *args, **kwargs)
        if not records:  # quarantined: the stage never ran
            return result
        record = records[0]
        after = _state(program)
        if len(guard.failures) > failures:
            self.rolled_back[name] += 1
            if after != before:
                self.violations.append("{}: rollback left changes".format(name))
        else:
            self._check_complete(name, before, after, record)
        if record.mutated() or record.linkages:
            self.wrote[name] += 1
        return result

    def _check_complete(self, stage, before, after, record):
        procs_before, globals_before, _ = before
        procs_after, globals_after, _ = after
        bodies = record.bodies | set(record.added)
        counts = bodies | record.counts
        for name, (body, block_counts, linkage, mark, _names) in procs_after.items():
            old = procs_before.get(name)
            if old is None:
                if name not in record.added:
                    self.violations.append("{}: @{} added unreported".format(stage, name))
                continue
            if (body != old[0] or mark != old[3]) and name not in bodies:
                self.violations.append("{}: @{} body unreported".format(stage, name))
            if block_counts != old[1] and name not in counts:
                self.violations.append("{}: @{} counts unreported".format(stage, name))
            if linkage != old[2] and "@" + name not in record.linkages:
                self.violations.append("{}: @{} linkage unreported".format(stage, name))
        for name in procs_before.keys() - procs_after.keys():
            self.violations.append("{}: @{} deleted".format(stage, name))
        for name, linkage in globals_after.items():
            if linkage != globals_before.get(name) and "$" + name not in record.linkages:
                self.violations.append("{}: ${} linkage unreported".format(stage, name))


@pytest.fixture
def audit(monkeypatch):
    audit = StageAudit()
    monkeypatch.setattr(
        PassGuard, "run_program_stage",
        lambda guard, *args, **kwargs: audit(guard, *args, **kwargs),
    )
    return audit


def _build(name, config):
    workload = get_workload(name)
    toolchain = Toolchain(
        list(workload.sources),
        train_inputs=[list(t) for t in workload.train_inputs],
        config=config,
    )
    return toolchain.build("cp")


def test_every_stage_write_is_on_the_record(audit):
    for name in workload_names():
        for config in (
            HLOConfig(strategy="global"),
            HLOConfig(strategy="demand"),
            HLOConfig(enable_outlining=True),
        ):
            _build(name, config)
    assert audit.violations == []
    for stage in ("clone", "inline", "outline", "deadcalls", "demand"):
        assert audit.wrote[stage] > 0, "no {} stage wrote: vacuous".format(stage)


def _fail_after(module, attr, wrote):
    """Wrap ``module.attr`` to raise once, after a call whose result
    shows it wrote something."""
    real = getattr(module, attr)
    fired = []

    def wrapper(*args, **kwargs):
        result = real(*args, **kwargs)
        if not fired and wrote(result):
            fired.append(True)
            raise RuntimeError("injected after the stage's writes")
        return result

    return wrapper, fired


ROLLBACKS = [
    # After a site is retargeted: a clone added, counts moved, a caller edited.
    pytest.param("clone", cloner, "_retarget_site", bool,
                 "li", HLOConfig(), id="clone"),
    # In the re-optimization, after every inline of the stage.
    pytest.param("inline", inliner, "optimize_proc", bool,
                 "compress", HLOConfig(), id="inline"),
    pytest.param("outline", outliner, "outline_pass", lambda n: n > 0,
                 "go", HLOConfig(enable_outlining=True), id="outline"),
    pytest.param("deadcalls", deadcalls, "eliminate_dead_calls", bool,
                 "sc", HLOConfig(), id="deadcalls"),
    pytest.param("demand", regions, "_optimize_region", lambda r: r[0] > 0,
                 "compress", HLOConfig(strategy="demand"), id="demand-region"),
]


@pytest.mark.parametrize("stage,module,attr,wrote,name,config", ROLLBACKS)
def test_a_failed_stage_leaves_the_program_as_it_found_it(
    stage, module, attr, wrote, name, config, audit, monkeypatch
):
    wrapper, fired = _fail_after(module, attr, wrote)
    monkeypatch.setattr(module, attr, wrapper)
    result = _build(name, config)
    assert fired, "the injected failure never fired: test is vacuous"
    assert audit.rolled_back[stage] == 1
    assert audit.violations == []
    assert any(f.pass_name == stage for f in result.report.pass_failures)
