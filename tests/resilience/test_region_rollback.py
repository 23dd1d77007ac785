"""Region-scoped failure containment in the demand strategy.

The global strategy's guard snapshots the whole program per stage; the
demand planner instead isolates each *region*: a crash while
optimizing one region must roll back exactly that region's IR, report
counters, ledger decisions, and analysis memos — plus the callee
counts and statics it changed outside its members — and every other
region's work must survive and ship.
"""

from repro.core import HLOConfig, run_hlo
from repro.frontend import compile_program
from repro.interp import run_program
from repro.ir import verify_program
from repro.linker.isom import to_isom_text
from repro.linker.toolchain import Toolchain
from repro.obs import BuildObserver, InliningLedger

TWO_CHAINS = [(
    "m",
    """
    int ha(int x) { return x * 3 + 1; }
    int da(int n) {
      int t = 0;
      for (int i = 0; i < n; i++) t = t + ha(i);
      return t;
    }
    int hb(int x) { return x * 5 + 2; }
    int db(int n) {
      int t = 0;
      for (int i = 0; i < n; i++) t = t + hb(i);
      return t;
    }
    int main() {
      print_int(da(400) + db(400));
      return 0;
    }
    """,
)]

# Small enough that no single region can absorb both driver chains.
CONFIG_KWARGS = dict(strategy="demand", region_size_cap=30)


class CrashOnCaller:
    """Raise the first time the wrapped transform runs on ``target``."""

    def __init__(self, real, target):
        self.real = real
        self.target = target
        self.fired = False

    def __call__(self, program, caller, *args, **kwargs):
        if caller.name == self.target:
            self.fired = True
            raise RuntimeError("injected: fault on " + self.target)
        return self.real(program, caller, *args, **kwargs)


def _crashing_build(monkeypatch, target):
    from repro.core import regions

    crasher = CrashOnCaller(regions.perform_inline, target)
    monkeypatch.setattr(regions, "perform_inline", crasher)
    program = compile_program(TWO_CHAINS)
    ledger = InliningLedger()
    report = run_hlo(
        program, HLOConfig(**CONFIG_KWARGS),
        observer=BuildObserver(ledger=ledger),
    )
    assert crasher.fired, "injected fault never reached: test is vacuous"
    return program, report, ledger


def test_failed_region_rolls_back_others_survive(monkeypatch):
    baseline = run_program(compile_program(TWO_CHAINS)).behavior()
    program, report, _ = _crashing_build(monkeypatch, "da")

    verify_program(program)
    assert run_program(program).behavior() == baseline
    demand_failures = [f for f in report.pass_failures if f.phase == "demand"]
    assert demand_failures and demand_failures[0].pass_name == "demand"
    # The sibling chain's region committed its work.
    assert report.inlines >= 1


def test_failed_region_ledger_truncated(monkeypatch):
    program, report, ledger = _crashing_build(monkeypatch, "da")

    failed_indices = {
        f.pass_number for f in report.pass_failures if f.phase == "demand"
    }
    assert failed_indices
    failed_prefixes = tuple("r{}:".format(i) for i in failed_indices)
    regions_seen = {e.region for e in ledger.entries if e.region}
    # Decisions from healthy regions remain; every decision the failed
    # region recorded before crashing was truncated with its rollback.
    assert regions_seen
    assert not any(
        region.startswith(failed_prefixes) for region in regions_seen
    )


def test_quarantined_demand_stage_still_ships_a_build(monkeypatch):
    # Crash *every* region (target main's callers too): once the stage
    # hits max_failures it is quarantined, and the build must complete
    # as a no-transform HLO run with behavior intact.
    from repro.core import regions

    baseline = run_program(compile_program(TWO_CHAINS)).behavior()

    def always_crash(program, caller, *args, **kwargs):
        raise RuntimeError("injected: no inline survives")

    monkeypatch.setattr(regions, "perform_inline", always_crash)
    program = compile_program(TWO_CHAINS)
    report = run_hlo(program, HLOConfig(**CONFIG_KWARGS))

    verify_program(program)
    assert run_program(program).behavior() == baseline
    assert report.inlines == 0
    assert report.degraded
    assert "demand" in report.quarantined_passes


# ``da`` calls ``ha`` twice per loop trip, and ``ha`` reads a static of
# its own module.  Inlining ``ha`` into ``da`` moves ``ha``'s counts
# into the copies and promotes the static; the size cap keeps ``ha``
# out of ``da``'s region, so both changes land outside its members.
OUTSIDE_EFFECTS = [
    ("lib", """
    static int scale = 3;
    int ha(int x) { return x * scale + 1; }
    """),
    ("m", """
    extern int ha(int x);
    int da(int n) {
      int t = 0;
      for (int i = 0; i < n; i++) t = t + ha(i) + ha(t);
      return t;
    }
    int main() { print_int(da(input(0))); return 0; }
    """),
]


def _isoms_when_da_fails_in(monkeypatch, transform):
    from repro.core import regions

    with monkeypatch.context() as patch:
        crasher = CrashOnCaller(getattr(regions, transform), "da")
        patch.setattr(regions, transform, crasher)
        result = Toolchain(
            OUTSIDE_EFFECTS, train_inputs=[[50]],
            config=HLOConfig(strategy="demand", region_size_cap=10),
        ).build("cp")
    assert crasher.fired, "injected fault never reached: test is vacuous"
    assert result.report.inlines == 0
    return {
        name: to_isom_text(module)
        for name, module in result.program.modules.items()
    }


def test_rollback_restores_callee_counts_and_statics(monkeypatch):
    # Failing while re-optimizing ``da`` (after both inlines) must leave
    # the same program as failing before the first inline.
    before = _isoms_when_da_fails_in(monkeypatch, "perform_inline")
    after = _isoms_when_da_fails_in(monkeypatch, "optimize_proc")
    assert after == before


# Each loop passes a constant, so ``ha`` and ``hb`` are clone
# candidates; the size cap puts the two chains in separate regions.
CONSTANT_ARG_CHAINS = [(
    "m",
    """
    int ha(int x, int k) { return x * 3 + k; }
    int da(int n) {
      int t = 0;
      for (int i = 0; i < n; i++) t = t + ha(i, 1);
      return t;
    }
    int hb(int x, int k) { return x * 5 + k; }
    int db(int n) {
      int t = 0;
      for (int i = 0; i < n; i++) t = t + hb(i, 1);
      return t;
    }
    int main() {
      print_int(da(400) + db(400));
      return 0;
    }
    """,
)]


def test_regions_after_a_failed_one_edit_the_live_program(monkeypatch):
    # A failed region is bisected and rolled back; the regions planned
    # before it still hold call sites into the program, and each clone
    # replacement they make must land on the live IR, once.
    from repro.core import regions
    from repro.core.report import HLOReport
    from repro.ir.instructions import Call

    program = compile_program(CONSTANT_ARG_CHAINS)
    expected = run_program(
        compile_program(CONSTANT_ARG_CHAINS), engine="reference"
    ).behavior()
    landed = []
    record_clone_replacement = HLOReport.record_clone_replacement

    def checked(report, pass_number, caller, clone, site_id, clonee):
        landed.append(any(
            isinstance(instr, Call) and instr.site_id == site_id
            and instr.callee == clone
            for instr in program.proc(caller).instructions()
        ))
        record_clone_replacement(report, pass_number, caller, clone, site_id, clonee)

    crasher = CrashOnCaller(regions.perform_inline, "da")
    monkeypatch.setattr(regions, "perform_inline", crasher)
    monkeypatch.setattr(HLOReport, "record_clone_replacement", checked)
    report = run_hlo(program, HLOConfig(**CONFIG_KWARGS))

    assert crasher.fired, "injected fault never reached: test is vacuous"
    assert [f.phase for f in report.pass_failures] == ["demand"]
    assert landed and all(landed)
    replaced = [(e.caller, e.site_id) for e in report.events if e.kind == "clone-replace"]
    assert len(replaced) == len(set(replaced))
    verify_program(program)
    assert run_program(program).behavior() == expected
