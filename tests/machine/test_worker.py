"""The machine-state worker's lifecycle, and the CPU rule that decides
when a model uses it.

On a host with two or more CPUs a PA8000 model's state lives in one
worker process per interpreter process (repro.machine.worker).  These
tests fake the CPU count so they run the same on any host, and give
every wait a timeout.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.frontend import compile_program
from repro.interp import Interpreter
from repro.machine import MachineConfig, PA8000Model, pa8000
from repro.machine import worker as machine_worker
from repro.machine.worker import WorkerLost

WAIT_S = 60

# A loop of about five tokens an iteration, several tapes in all, with
# calls, so saves and frames are exercised.
LOOP = """
int g[8];
int step(int x) { g[x % 8] = x; return g[(x + 3) % 8] + 1; }
int main() {
  int s = 0;
  for (int i = 0; i < N; i++) { s = s + step(i); }
  print_int(s);
  return 0;
}
"""


def loop(n=3000):
    return compile_program([("m", LOOP.replace("N", str(n)))])


def in_process(monkeypatch, program, runs=1, config=None, engine="fast"):
    """The metrics of ``runs`` runs of one model kept in-process."""
    monkeypatch.setattr(pa8000, "_cpus", lambda: 1)
    try:
        return run(PA8000Model(program, config), program, runs, engine)
    finally:
        monkeypatch.setattr(pa8000, "_cpus", lambda: 2)


def run(model, program, runs=1, engine="fast"):
    for _ in range(runs):
        Interpreter(program, [], sink=model, engine=engine).run()
    return model.metrics(0)


@pytest.fixture
def worker(monkeypatch):
    """This process's worker, with models built from here on using it."""
    monkeypatch.setattr(pa8000, "_cpus", lambda: 2)
    shared = machine_worker.shared()
    assert shared is not None
    return shared


def _child(code):
    """Run ``code`` in a child interpreter in a session of its own;
    returns its output once it has exited."""
    env = dict(os.environ, PYTHONPATH=machine_worker._SOURCE_ROOT)
    proc = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(code)],
        stdout=subprocess.PIPE,
        env=env,
        start_new_session=True,
    )
    try:
        out, _err = proc.communicate(timeout=WAIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        raise
    assert proc.returncode == 0
    return proc.pid, out.decode()


def _group_is_empty(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    return False


def test_importing_the_machine_starts_no_process():
    pid, out = _child(
        """
        import sys
        import repro.machine
        print(sorted(m for m in ("subprocess", "repro.machine.worker") if m in sys.modules))
        """
    )
    assert out.split() == ["[]"]
    assert _group_is_empty(pid)


def test_a_child_that_simulated_leaves_no_process_behind():
    pid, out = _child(
        """
        from repro.frontend import compile_program
        from repro.machine import pa8000, worker
        pa8000._cpus = lambda: 2
        program = compile_program([("m", "int main() { print_int(7); return 0; }")])
        metrics, result = pa8000.simulate(program)
        assert result.output == [7] and metrics.instructions > 0
        print(worker.shared().proc.pid)
        """
    )
    worker_pid = int(out)
    # Checked the moment the child has exited: neither its worker nor
    # any helper process is left in its session, not even unreaped.
    assert _group_is_empty(pid)
    with pytest.raises(ProcessLookupError):
        os.kill(worker_pid, 0)


def _kill(worker):
    worker.proc.kill()
    worker.proc.wait(timeout=WAIT_S)


def test_a_worker_killed_between_runs_is_replaced(worker, monkeypatch):
    program = loop()
    once = in_process(monkeypatch, program)
    twice = in_process(monkeypatch, program, runs=2)
    first = PA8000Model(program)
    assert run(first, program) == once
    old = worker.proc.pid
    _kill(worker)
    # The first model's state was copied back when its run ended, so a
    # new worker takes it up; a new model starts there from scratch.
    assert run(first, program) == twice
    assert worker.proc.pid != old
    _kill(worker)
    assert run(PA8000Model(program), program) == once


class _KillAtDrain(PA8000Model):
    """Kills the worker after the first tape it sends."""

    killed = False

    def drain(self, tape):
        super().drain(tape)
        if not self.killed:
            self.killed = True
            _kill(machine_worker.shared())


class _KillAtEnd(PA8000Model):
    """Kills the worker when the run ends, before the state comes back."""

    killed = False

    def on_run_end(self):
        if not self.killed:
            self.killed = True
            _kill(machine_worker.shared())
        super().on_run_end()


@pytest.mark.parametrize(
    "model_class, engine",
    [(_KillAtDrain, "fast"), (_KillAtEnd, "fast"), (_KillAtEnd, "reference")],
)
def test_a_worker_killed_mid_run_fails_the_run(worker, monkeypatch, model_class, engine):
    program = loop()
    model = model_class(program)
    with pytest.raises(WorkerLost):
        Interpreter(program, [], sink=model, engine=engine).run()
    with pytest.raises(WorkerLost):
        model.metrics(0)
    # Later models are exact on a new worker.
    assert run(PA8000Model(program), program, engine=engine) == in_process(
        monkeypatch, program, engine=engine
    )


def _cut_short(monkeypatch, name, fd):
    """Make the next ``os.<name>`` on ``fd`` do half its work and then
    raise KeyboardInterrupt, as a Ctrl-C there would."""
    real = getattr(os, name)

    def cut(target, arg):
        if target != fd:
            return real(target, arg)
        monkeypatch.setattr(os, name, real)
        real(target, arg[: len(arg) // 2] if name == "write" else arg // 2)
        raise KeyboardInterrupt

    monkeypatch.setattr(os, name, cut)


@pytest.mark.parametrize("call", ["write", "read"])
def test_an_exchange_cut_short_ends_the_worker(worker, monkeypatch, call):
    # A Ctrl-C in the middle of a tape's write (at a drain) or of the
    # state's read (when the run ends) leaves part of a message in a
    # pipe.  The worker is then ended, as if it had died: the model
    # whose tapes it held raises, and later models are exact.
    program = loop()
    want = in_process(monkeypatch, program)
    assert run(PA8000Model(program), program) == want  # the worker is up
    proc = worker.proc
    model = PA8000Model(program)
    _cut_short(monkeypatch, call, (proc.stdin if call == "write" else proc.stdout).fileno())
    with pytest.raises(BaseException) as raised:
        Interpreter(program, [], sink=model).run()
    assert KeyboardInterrupt in (type(raised.value), type(raised.value.__context__))
    assert proc.wait(timeout=WAIT_S) is not None
    with pytest.raises(WorkerLost):
        model.metrics(0)
    assert run(PA8000Model(program), program) == want
    assert worker.proc.pid != proc.pid


def test_a_freed_models_state_leaves_the_worker(worker):
    program = loop(10)
    model = PA8000Model(program)
    run(model, program)
    key = model._remote.key
    assert key in worker.keys()
    del model
    assert key not in worker.keys()


def test_threads_simulating_at_once_get_the_metrics_they_get_alone(worker, monkeypatch):
    cases = [
        (loop(400 + 100 * i), MachineConfig(icache_bytes=256 << (i % 3)))
        for i in range(4)
    ]
    want = [in_process(monkeypatch, program, config=config) for program, config in cases]
    got = [[] for _ in cases]

    def simulate(i):
        program, config = cases[i]
        for _ in range(5):
            got[i].append(run(PA8000Model(program, config), program))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=simulate, args=(i,)) for i in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=WAIT_S)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == [[metrics] * 5 for metrics in want]


def _waitpid(pid):
    deadline = time.monotonic() + WAIT_S
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return status
        time.sleep(0.01)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    raise AssertionError("the forked process did not finish")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_process_never_writes_to_the_parents_pipe(worker, monkeypatch):
    program = loop()
    once = in_process(monkeypatch, program)
    twice = in_process(monkeypatch, program, runs=2)
    thrice = in_process(monkeypatch, program, runs=3)
    model = PA8000Model(program)
    assert run(model, program) == once
    pid_before, keys_before = worker.proc.pid, worker.keys()
    read, write = os.pipe()
    child = os.fork()
    if child == 0:  # pragma: no cover - the forked process
        try:
            # The model the parent built, and one built here, both keep
            # their state in-process.
            result = (run(model, program), run(PA8000Model(program), program))
            os.write(write, pickle.dumps(result))
        finally:
            os._exit(0)
    os.close(write)
    assert _waitpid(child) == 0
    with os.fdopen(read, "rb") as answer:
        assert pickle.loads(answer.read()) == (twice, once)
    # The worker still holds the model's state as the parent left it.
    assert worker.proc.pid == pid_before
    assert set(worker.keys()) <= set(keys_before)
    assert run(model, program) == twice
    assert run(model, program) == thrice


def _cgroups(tmp_path, monkeypatch, entries, files):
    """Fake this process's cgroups: ``entries`` are the lines of
    /proc/self/cgroup, ``files`` the cgroup files by path under the
    cgroup root."""
    listing = tmp_path / "cgroup"
    listing.write_text("".join(line + "\n" for line in entries))
    root = tmp_path / "fs"
    for path, text in files.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_text(text + "\n")
    monkeypatch.setattr(pa8000, "_SELF_CGROUP", str(listing))
    monkeypatch.setattr(pa8000, "_CGROUP_ROOT", str(root))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="Linux only")
@pytest.mark.parametrize(
    "entries, files, cpus",
    [
        # cgroup v2 without a quota, then 1.5 CPUs under a parent
        # allowing 4: the least quota, rounded down, is 1 CPU.
        (["0::/box"], {"box/cpu.max": "max 100000"}, 4),
        (["0::/a/box"], {"a/cpu.max": "400000 100000", "a/box/cpu.max": "150000 100000"}, 1),
        # cgroup v1, at the mount's root when the path is the host's.
        (
            ["4:memory:/docker/c1", "2:cpu,cpuacct:/docker/c1"],
            {"cpu,cpuacct/cpu.cfs_quota_us": "200000", "cpu,cpuacct/cpu.cfs_period_us": "100000"},
            2,
        ),
        (
            ["2:cpu,cpuacct:/"],
            {"cpu,cpuacct/cpu.cfs_quota_us": "-1", "cpu,cpuacct/cpu.cfs_period_us": "100000"},
            4,
        ),
        ([], {}, 4),
    ],
    ids=["v2-no-quota", "v2-nested", "v1-host-path", "v1-no-quota", "no-cgroup"],
)
def test_the_cpu_count_heeds_the_cgroup_quota(tmp_path, monkeypatch, entries, files, cpus):
    _cgroups(tmp_path, monkeypatch, entries, files)
    assert pa8000._cpus() == cpus
