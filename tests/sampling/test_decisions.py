"""Acceptance gates: sampled decisions track exact ones; contexts matter.

Two properties anchor the subsystem:

1. At the default 1/100 rate, the inlining/cloning decisions a build
   makes from a sampled profile overlap >= 90% (Jaccard) with the
   decisions an instrumented (exact) profile produces, on every bench
   workload.  (This test is that gate's owner: CI runs it in tier-1.)
2. A k>=2 calling-context profile changes at least one *cloning*
   decision versus a context-insensitive profile on a workload built to
   expose the difference: a callee whose hot loop only spins for one of
   its callers.
"""

import pytest

from repro.core.config import HLOConfig
from repro.linker.toolchain import Toolchain
from repro.sampling import sample_train
from repro.workloads.suite import get_workload

MIN_DECISION_OVERLAP = 0.9
SAMPLING_RATE = 100
#: The suite programs the overlap gate runs on.
WORKLOADS = ("compress", "sc", "vortex")


def _decisions(result):
    return {
        (e.kind, e.caller, e.callee, e.site_id) for e in result.report.events
    }


class TestDecisionOverlap:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_sampled_decisions_overlap_exact(self, name):
        workload = get_workload(name)
        sources = list(workload.sources)
        inputs = [list(t) for t in workload.train_inputs]
        exact = _decisions(
            Toolchain(sources, train_inputs=inputs, jobs=1).build("cp")
        )
        profile = sample_train(sources, inputs, rate=SAMPLING_RATE)
        sampled = _decisions(
            Toolchain(sources, jobs=1).rebuild_with_profile(profile, "cp")
        )
        union = exact | sampled
        overlap = len(exact & sampled) / len(union) if union else 1.0
        assert overlap >= MIN_DECISION_OVERLAP, (
            "decision overlap {:.3f} below floor {:.2f}: "
            "exact-only {}, sampled-only {}".format(
                overlap,
                MIN_DECISION_OVERLAP,
                sorted(exact - sampled),
                sorted(sampled - exact),
            )
        )


# The dedicated context workload: ``work``'s loop only spins when
# ``mode`` is positive, so under ``hot_caller`` (mode=1, n=64) the
# parameters are hot loop fodder while under ``cold_caller`` (mode=0)
# the same parameters feed three straight-line instructions.  The
# cold site runs twice as often, so a context-*insensitive* profile
# ranks its clone group first; the k-deep context attribution sees the
# loop spinning only under hot_caller and flips the ranking.  With a
# budget that affords exactly one clone, which caller gets the clone
# is the decision.
KERNEL = """
int work(int mode, int n) {
  int s = 0;
  int i;
  if (mode > 0) {
    for (i = 0; i < n; i = i + 1) {
      s = s + i * n + mode;
    }
  } else {
    s = s + n * 3 + mode * 5;
  }
  return s;
}
"""

DRIVER = """
extern int work(int mode, int n);

int hot_caller(int reps) {
  int i;
  int acc = 0;
  for (i = 0; i < reps; i = i + 1) {
    acc = acc + work(1, 64);
  }
  return acc;
}

int cold_caller(int reps) {
  int i;
  int acc = 0;
  for (i = 0; i < reps; i = i + 1) {
    acc = acc + work(0, 9);
  }
  return acc;
}

int main() {
  int t = input(0);
  int acc = hot_caller(t);
  acc = acc + cold_caller(t + t);
  print_int(acc);
  return 0;
}
"""

CONTEXT_SOURCES = [("kern", KERNEL), ("driver", DRIVER)]


class TestContextSensitivity:
    def _build(self, context_depth):
        config = HLOConfig(
            enable_inlining=False, pass_limit=1, budget_percent=60.0
        )
        profile = sample_train(
            CONTEXT_SOURCES, [[30]], rate=25, context_depth=context_depth
        )
        return Toolchain(
            CONTEXT_SOURCES, jobs=1, config=config
        ).rebuild_with_profile(profile, "cp")

    def test_k2_context_profile_flips_a_cloning_decision(self):
        with_context = self._build(context_depth=2)
        without = self._build(context_depth=0)
        clones_ctx = {
            (e.kind, e.caller, e.site_id)
            for e in with_context.report.events
            if "clone" in e.kind
        }
        clones_blind = {
            (e.kind, e.caller, e.site_id)
            for e in without.report.events
            if "clone" in e.kind
        }
        assert clones_ctx != clones_blind
        # The context-aware build spends the clone budget on the caller
        # under which the callee's loop actually spins; the blind build
        # follows raw site frequency to the cold caller.
        assert any(c[1] == "hot_caller" for c in clones_ctx)
        assert not any(c[1] == "hot_caller" for c in clones_blind)
        assert any(c[1] == "cold_caller" for c in clones_blind)

    def test_behavior_preserved_under_both_profiles(self):
        with_context = self._build(context_depth=2)
        without = self._build(context_depth=0)
        ref = [9]
        _, out_ctx = with_context.run(ref)
        _, out_blind = without.run(ref)
        assert out_ctx.behavior() == out_blind.behavior()


# A hot helper two modules away from its caller, so a cp build makes
# real inline decisions.
HOT_SOURCES = [
    (
        "util",
        "int weigh(int x) { return x * 3 + 1; }\n"
        "int heavy(int x) { int i = 0; int acc = 0;\n"
        "  while (i < 8) { acc = acc + weigh(x + i); i = i + 1; }\n"
        "  return acc; }\n",
    ),
    (
        "main",
        "extern int heavy(int x);\n"
        "int main() { int n = input(0); int i = 0; int acc = 0;\n"
        "  while (i < 12) { acc = acc + heavy(n + i); i = i + 1; }\n"
        "  print_int(acc); return 0; }\n",
    ),
]


class TestRebuildWithProfile:
    @pytest.fixture
    def toolchain(self):
        return Toolchain(HOT_SOURCES, train_inputs=[[3], [9]])

    def test_matches_exact_cp_build_decisions(self, toolchain):
        exact = toolchain.build("cp")
        rebuilt = toolchain.rebuild_with_profile(exact.profile)
        assert _decisions(exact)
        assert _decisions(rebuilt) == _decisions(exact)

    @pytest.mark.parametrize("scope", ["base", "c"])
    def test_rejects_profileless_scope(self, toolchain, scope):
        profile = toolchain.build("cp").profile
        with pytest.raises(ValueError):
            toolchain.rebuild_with_profile(profile, scope=scope)
