"""The machine-state worker: PA8000 models' tape loop beside the interpreter.

A :class:`~repro.machine.pa8000.PA8000Model` compiles tokens where the
interpreter runs; its :class:`~repro.machine.pa8000.MachineState`, the
caches, predictor and counters its tape loop changes, lives here, in
one worker process per interpreter process, so that the loop runs on a
second CPU while the interpreter runs on.  The worker is a plain
subprocess of ``sys.executable`` that imports ``repro`` from this
process's own source root.  It starts with the first model, every model
of the process shares it under one lock, and it is closed and waited
for at exit (docs/machine.md, "Host cost").

Each message down the pipe is one pickle, ``(op, key, payload)``; a
drain's payload is the tape as the engine left it (token tuples,
addresses, indirect callees' names).  Each answer up the pipe (to
``_FETCH``, and to ``_KEYS``, which only the lifecycle tests ask, to see
that freed states leave the worker) is a pickle after its length.  Only
this module writes either pipe, and only whole exchanges: one that is
cut short (by Ctrl-C in the middle of a write or a read) leaves the
pipes out of step, so the worker is then killed as if it had died.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import signal
import subprocess
import sys
import threading
from typing import List, Optional

from . import pa8000

_DRAIN, _SEED, _FETCH, _FREE, _KEYS = range(5)
_PROTOCOL = pickle.HIGHEST_PROTOCOL
_LENGTH_BYTES = 8
# How long exit waits for the worker to see its pipe close before
# killing it.
_EXIT_WAIT_S = 5.0

# The directory this ``repro`` was imported from, first on the worker's path.
_SOURCE_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
_MAIN = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from repro.machine.worker import serve; serve()"
)


class WorkerLost(RuntimeError):
    """The worker ended while it held tapes a model had not fetched."""

    def __init__(self) -> None:
        super().__init__(
            "the machine-state worker ended during a run; that run's metrics are lost"
        )


class Worker:
    """The worker process and its pipes, restarted when it has died."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.proc: Optional[subprocess.Popen] = None
        # Counts the worker processes started; a Remote records the one
        # that holds its state.
        self.generation = 0
        self.broken = False  # a start failed: models keep their state in-process
        # Keys of freed models, sent ahead of the next message.
        self.freed: List[int] = []
        self._keys = itertools.count(1)
        self.start()

    def usable(self) -> bool:
        """Whether this process may use the worker: not a fork of the
        one that started it, and not one where it cannot start."""
        return not self.broken and not pa8000._forked

    def open(self) -> "Remote":
        """A place for a new model's state."""
        return Remote(self, next(self._keys))

    def start(self) -> bool:
        if not sys.executable:
            self.broken = True
            return False
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", _MAIN, _SOURCE_ROOT],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                bufsize=0,
            )
        except OSError:
            self.broken = True
            return False
        self.generation += 1
        return True

    def stop(self) -> None:
        """Close the pipes and wait for the worker to end."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        proc.stdin.close()  # the worker ends at the end of its input
        try:
            proc.wait(timeout=_EXIT_WAIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def kill(self) -> None:
        """End the worker now, and wait for it."""
        if self.proc is not None:
            self.proc.kill()
            self.stop()

    def close(self) -> None:
        """Stop the worker, from the process that started it (at exit)."""
        if not pa8000._forked:
            self.stop()

    def exchange(self, data: bytes, answer: bool = False):
        """Write ``data`` down the pipe and, with ``answer``, read the
        answer; the caller holds the lock.  An exchange that does not
        finish, because the worker has died (OSError, EOFError) or
        because it was cut short, ends the worker: its pipes may hold
        part of a message."""
        try:
            self._send(data)
            return self._receive() if answer else None
        except BaseException:
            self.kill()
            raise

    def _send(self, data: bytes) -> None:
        """Write ``data``, after the frees of models freed since the last
        message, down the pipe."""
        freed, self.freed = self.freed, []
        if freed:
            data = pickle.dumps((_FREE, None, freed), _PROTOCOL) + data
        fd = self.proc.stdin.fileno()
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]

    def _receive(self):
        """Read one answer."""
        size = int.from_bytes(self._read(_LENGTH_BYTES), "little")
        return pickle.loads(self._read(size))

    def _read(self, size: int) -> bytes:
        fd = self.proc.stdout.fileno()
        chunks = []
        while size:
            chunk = os.read(fd, size)
            if not chunk:
                raise EOFError("the machine-state worker closed its pipe")
            chunks.append(chunk)
            size -= len(chunk)
        return b"".join(chunks)

    def keys(self) -> List[int]:
        """The keys of the states the worker holds."""
        with self.lock:
            return self.exchange(pickle.dumps((_KEYS, None, None), _PROTOCOL), True)


class Remote:
    """One model's state in the worker.  ``dirty``: tapes went to the
    worker since the model last fetched its state."""

    __slots__ = ("worker", "key", "generation", "dirty")

    def __init__(self, worker: Worker, key: int) -> None:
        self.worker = worker
        self.key = key
        self.generation = 0  # the worker process holding the state; 0: none
        self.dirty = False

    def __del__(self) -> None:
        if self.generation:
            self.worker.freed.append(self.key)

    def _check_clean(self) -> None:
        if self.dirty:
            raise WorkerLost()

    def drain(self, state, tape) -> bool:
        """Send ``tape`` to the state in the worker, having first sent
        ``state``, the model's copy, to a worker that does not hold it.
        False, with nothing sent, when this process has no worker (a
        fork, or one that cannot start): the model applies the tape
        itself.  Raises :class:`WorkerLost` when the worker ended
        holding tapes not yet fetched."""
        worker = self.worker
        # Checked before the lock, whose copy in a fork may be held.
        if not worker.usable():
            self._check_clean()
            return False
        data = pickle.dumps((_DRAIN, self.key, tape), _PROTOCOL)
        with worker.lock:
            for _attempt in range(2):  # a worker found dead is replaced once
                message = data
                if worker.proc is None or self.generation != worker.generation:
                    self._check_clean()
                    if worker.proc is None and not worker.start():
                        return False
                    message = pickle.dumps((_SEED, self.key, state), _PROTOCOL) + data
                try:
                    worker.exchange(message)
                except OSError:  # the worker had died
                    continue
                except BaseException:  # cut short: the tape is lost
                    self.dirty = True
                    raise
                self.generation = worker.generation
                self.dirty = True
                return True
            raise WorkerLost()

    def fetch(self):
        """The state, once the worker has applied every tape sent."""
        worker = self.worker
        if not worker.usable():
            raise WorkerLost()
        with worker.lock:
            if worker.proc is None or self.generation != worker.generation:
                raise WorkerLost()
            try:
                state = worker.exchange(pickle.dumps((_FETCH, self.key, None), _PROTOCOL), True)
            except (OSError, EOFError):
                raise WorkerLost() from None
            self.dirty = False
            return state


_shared_lock = threading.Lock()
_shared: Optional[Worker] = None


def shared() -> Optional[Worker]:
    """This process's worker, started at the first call; None when it
    cannot start."""
    global _shared
    with _shared_lock:
        if _shared is None:
            _shared = Worker()
            atexit.register(_shared.close)
        return _shared if _shared.usable() else None


def serve() -> None:
    """The worker's loop: apply each message to the states it holds
    until its input ends."""
    # Ctrl-C is the interpreter's process's to handle; it then closes
    # the pipe.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    down = sys.stdin.buffer
    up = sys.stdout.buffer
    states = {}
    while True:
        try:
            op, key, payload = pickle.load(down)
        except EOFError:
            return
        if op == _DRAIN:
            states[key].drain(payload)
        elif op == _SEED:
            states[key] = payload
        elif op == _FREE:
            for freed in payload:
                states.pop(freed, None)
        else:
            answer = states[key] if op == _FETCH else sorted(states)
            answer = pickle.dumps(answer, _PROTOCOL)
            up.write(len(answer).to_bytes(_LENGTH_BYTES, "little") + answer)
            up.flush()
