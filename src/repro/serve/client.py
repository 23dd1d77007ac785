"""Clients for the build daemon: async for load, sync for tools.

:class:`AsyncServeClient` is what the load-generator bench and the
asyncio tests use — hundreds of them multiplex over one event loop.
:class:`ServeClient` is a plain blocking socket client for synchronous
callers (the fleet loop's ``--build-server`` path, CI scripts); it can
retry its initial connect, which is how ``repro bench-serve
--connect`` waits out a daemon that is still binding its port.

Both speak :mod:`repro.serve.protocol` and raise
:class:`ServeRequestError` for any non-``ok`` reply, carrying the
reply's status so callers can tell a shed (``busy``) from a rejection
(``bad-request``).

:func:`build_result_from_reply` reconstructs a full
:class:`~repro.linker.toolchain.BuildResult` from a build reply —
program linked from the shipped isom texts in the server's module
order, report/stats/diagnostics from their wire twins — which is what
lets the fleet controller treat a remote build exactly like a local
one.
"""

from __future__ import annotations

import asyncio
import socket
import time
from typing import Optional, Sequence, Tuple

from ..interp.interpreter import DEFAULT_ENGINE
from ..linker.isom import from_isom_text
from ..linker.linker import link_modules
from ..linker.toolchain import BuildDiagnostics, BuildResult, BuildStats
from .protocol import MAX_FRAME_CHARS, decode_frame, encode_frame
from .state import deserialize_report


class ServeRequestError(Exception):
    """A reply with any status but ``ok``."""

    def __init__(self, status: str, message: str, error_type: str = ""):
        self.status = status
        self.error_type = error_type
        super().__init__("{}: {}".format(status, message))


def _check(response: dict) -> dict:
    status = response.get("status")
    if status != "ok":
        raise ServeRequestError(
            status or "malformed",
            str(response.get("error", "no error text")),
            error_type=str(response.get("error_type", "")),
        )
    return response


def parse_address(address: str) -> Tuple[str, int]:
    """``host:port`` (or bare ``:port``) to a connectable pair."""
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            "expected HOST:PORT, got {!r}".format(address)
        )
    return host or "127.0.0.1", int(port)


def build_result_from_reply(fields: dict) -> BuildResult:
    """A local :class:`BuildResult` reconstructed from a build reply."""
    isoms = fields["isoms"]
    order = fields.get("module_order") or sorted(isoms)
    report = deserialize_report(fields.get("report", {}))
    modules = [from_isom_text(isoms[name]) for name in order]
    # Cross-module inlining deletes a procedure once every call site
    # absorbed it, but sibling modules still *declare* it — and the
    # linker treats a declaration as a reference.  The isom texts must
    # ship verbatim (they are the byte-identity checksum), so the
    # stale externs are dropped here, after reconstruction.
    deleted = set(report.deleted_procs)
    for module in modules:
        for name in [n for n in module.externs if n in deleted]:
            del module.externs[name]
    program = link_modules(modules)
    stats_obj = fields.get("stats", {})
    stats = BuildStats(
        scope=fields.get("scope", "c"),
        compile_units=stats_obj.get("compile_units", 0.0),
        train_steps=stats_obj.get("train_steps", 0),
        train_runs=stats_obj.get("train_runs", 0),
        code_size_instrs=stats_obj.get("code_size_instrs", program.size()),
        annotated_blocks=stats_obj.get("annotated_blocks", 0),
        wall_seconds=fields.get("build_wall_s", 0.0),
    )
    diag_obj = fields.get("diagnostics", {})
    diagnostics = BuildDiagnostics(
        module_fallbacks=list(diag_obj.get("module_fallbacks", ())),
        profile_fallback=diag_obj.get("profile_fallback", ""),
        modules_compiled=diag_obj.get("modules_compiled", 0),
        modules_from_cache=diag_obj.get("modules_from_cache", 0),
    )
    return BuildResult(
        program,
        report,
        stats,
        None,
        diagnostics,
        engine=fields.get("engine", DEFAULT_ENGINE),
    )


class AsyncServeClient:
    """One connection on the event loop; requests are serialized on it."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._next_id = 0

    @classmethod
    async def connect(
        cls, host: str = "127.0.0.1", port: int = 0
    ) -> "AsyncServeClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_FRAME_CHARS + 1024
        )
        return cls(reader, writer)

    async def request(self, payload: dict) -> dict:
        """One framed round trip; raises :class:`ServeRequestError`."""
        if "id" not in payload:
            self._next_id += 1
            payload = dict(payload, id="c{}".format(self._next_id))
        self._writer.write(encode_frame(payload))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return _check(decode_frame(line))

    async def ping(self) -> dict:
        return await self.request({"op": "ping"})

    async def stats(self) -> dict:
        return (await self.request({"op": "stats"}))["stats"]

    async def shutdown(self) -> dict:
        return await self.request({"op": "shutdown"})

    async def build(
        self, sources: Sequence[Tuple[str, str]], **fields: object
    ) -> dict:
        payload = {"op": "build", "sources": [list(p) for p in sources]}
        payload.update(fields)
        return await self.request(payload)

    async def run(
        self,
        sources: Sequence[Tuple[str, str]],
        inputs: Sequence[float] = (),
        **fields: object,
    ) -> dict:
        payload = {
            "op": "run",
            "sources": [list(p) for p in sources],
            "inputs": list(inputs),
        }
        payload.update(fields)
        return await self.request(payload)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


class ServeClient:
    """A blocking client for synchronous callers (fleet loop, scripts)."""

    def __init__(self, address: str, timeout: Optional[float] = 120.0):
        self.host, self.port = parse_address(address)
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._next_id = 0

    def connect(self, retry_for: float = 0.0) -> "ServeClient":
        """Connect now, optionally retrying for ``retry_for`` seconds."""
        deadline = time.monotonic() + retry_for
        while True:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.2)
        self._file = self._sock.makefile("rb")
        return self

    def request(self, payload: dict) -> dict:
        if self._sock is None:
            self.connect()
        if "id" not in payload:
            self._next_id += 1
            payload = dict(payload, id="s{}".format(self._next_id))
        self._sock.sendall(encode_frame(payload))
        line = self._file.readline(MAX_FRAME_CHARS + 1024)
        if not line:
            raise ConnectionError("server closed the connection")
        return _check(decode_frame(line))

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def stats(self) -> dict:
        return self.request({"op": "stats"})["stats"]

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})

    def build(
        self, sources: Sequence[Tuple[str, str]], **fields: object
    ) -> dict:
        payload = {"op": "build", "sources": [list(p) for p in sources]}
        payload.update(fields)
        return self.request(payload)

    def remote_rebuild(
        self,
        sources: Sequence[Tuple[str, str]],
        profile_text: str,
        scope: str = "cp",
        engine: str = "",
        want_ledger: bool = True,
    ) -> Tuple[BuildResult, Optional[int]]:
        """The fleet controller's path: one profile-fed remote build.

        Returns the reconstructed :class:`BuildResult` plus the
        server-side ledger count (for the canary's ledger-anomaly
        check), mirroring what a local ``rebuild_with_profile`` under
        an :class:`InliningLedger` observer would yield.
        """
        fields = self.build(
            sources,
            scope=scope,
            engine=engine,
            profile=profile_text,
            ledger=want_ledger,
        )
        return build_result_from_reply(fields), fields.get("ledger_considered")

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None
