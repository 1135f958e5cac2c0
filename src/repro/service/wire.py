"""The JSON-lines wire: framing, the reply envelope and the client pool.

Every process boundary of the service speaks one format: each request
is one JSON object on one UTF-8 line, and each reply is one line holding
``{"ok": true, "result": ...}`` or ``{"ok": false, "error": "..."}``.
This module is the only place that knows it:

- :func:`encode_line` frames an object as a line, and :data:`MAX_LINE`
  bounds the line either side reads;
- :func:`unwrap` splits a decoded reply: an ``ok`` reply gives its
  ``result``, any other raises :class:`ServiceError` with the server's
  message;
- :class:`ConnectionPool` is the asyncio client side for one
  ``host:port``, shared by the fleet router's member calls and
  :class:`~repro.service.fleet.async_client.AsyncServiceClient`.

The pool lends each call a connection for its exclusive use: an idle one
that is still open, or a new one (counted in ``connects``).  The
connection goes back to the pool only after its call has read a
complete reply line.  A timeout, a transport error, EOF, garbage, a
cancellation or any other exception closes it instead, because its
stream may still carry (part of) a reply no one will read.  So the
pool never holds more connections than calls ever ran at once.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from typing import Any, AsyncIterator, List, Optional

#: Longest line a server or a pooled connection reads; sweep grids are small.
MAX_LINE = 16 * 1024 * 1024


class ServiceError(RuntimeError):
    """The daemon processed the request and reported a failure."""


def encode_line(obj: Any) -> bytes:
    """One wire line: ``obj`` as JSON, newline-terminated, UTF-8."""
    return (json.dumps(obj) + "\n").encode("utf-8")


def unwrap(response: Any) -> Any:
    """The ``result`` of an ``ok`` reply; raises :class:`ServiceError`
    with the server's message for any other."""
    if not response.get("ok"):
        raise ServiceError(response.get("error", "unknown daemon error"))
    return response["result"]


class Connection:
    """One pooled stream pair, lent to one call at a time."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        reused: bool,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.reused = reused  # it served an earlier call
        self.complete = False  # a whole reply line was read

    async def exchange(self, request: Any, timeout: Optional[float]) -> Any:
        """Send ``request``; the decoded reply, read within ``timeout``."""
        self.writer.write(encode_line(request))
        await self.writer.drain()
        line = await asyncio.wait_for(self.reader.readline(), timeout=timeout)
        if not line:
            raise ConnectionResetError("the server closed the connection")
        response = json.loads(line)
        self.complete = line.endswith(b"\n")
        return response


class ConnectionPool:
    """Idle connections to one ``host:port``, checked out one call each."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.idle: List[Connection] = []
        self.connects = 0

    @contextlib.asynccontextmanager
    async def checkout(self, connect_timeout: Optional[float]) -> AsyncIterator[Connection]:
        """Lend a connection for one :meth:`Connection.exchange`.

        Idle connections the server has closed since (it stopped, or was
        killed) read EOF and are dropped here, so a dead server fails
        with a refused connect, exactly as without a pool.
        """
        conn = None
        while self.idle and conn is None:
            conn = self.idle.pop()
            if conn.writer.is_closing() or conn.reader.at_eof():
                conn.writer.close()
                conn = None
        if conn is None:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port, limit=MAX_LINE),
                timeout=connect_timeout,
            )
            self.connects += 1
            conn = Connection(reader, writer, reused=False)
        try:
            yield conn
        finally:
            if conn.complete:
                conn.reused, conn.complete = True, False
                self.idle.append(conn)
            else:
                await _close(conn)

    async def close(self) -> None:
        """Close every idle connection."""
        idle, self.idle = self.idle, []
        for conn in idle:
            await _close(conn)


async def _close(conn: Connection) -> None:
    conn.writer.close()
    with contextlib.suppress(OSError):
        await conn.writer.wait_closed()
