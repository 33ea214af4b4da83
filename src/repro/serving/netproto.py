"""Length-prefixed frame codec for the TCP shard cluster.

The cluster (:mod:`repro.serving.cluster`) carries the fleet's control
tuples (:mod:`repro.serving.fleet` lists them) over real sockets.  The
*messages* are the ones the process pool ships over ``multiprocessing``
pipes, so this module only supplies what a pipe gave for free: message
*framing*.

**Frame format.**  One frame is::

    [length: uint32, big-endian][payload: `length` bytes of pickle]

The payload is ``pickle.dumps`` of one control tuple.  Everything that
crosses is already a portable wire form — ``to_payload()`` shard dicts,
``pack_patterns`` uint8 matrices, int64 class arrays, plain ints — the
same payload boundary the pipe protocol enforces; nothing
engine-internal is ever framed.  The length prefix makes the stream
self-delimiting, so a reader can reassemble frames from arbitrarily
fragmented TCP segments (the slow/partial-frame fault tests deliver
frames one byte at a time) and detect truncation: EOF *between* frames
is a clean close (:class:`ConnectionClosed`), EOF *inside* a frame is a
torn connection (:class:`ProtocolError`).

:class:`FrameConnection` is the one transport that speaks the format: a
blocking socket wrapper with the ``send``/``recv`` surface of a
``multiprocessing`` pipe end, so both sides of the cluster — the
worker loop and the coordinator's per-worker reader thread — use it
exactly like a pipe.
"""

from __future__ import annotations

import pickle
import socket
import struct

#: 4-byte big-endian unsigned payload length.
_HEADER = struct.Struct("!I")
HEADER_BYTES = _HEADER.size

#: Ceiling on one frame's payload.  Far above any legitimate block or
#: payload set; a longer length means a corrupt or hostile stream, and
#: failing fast beats allocating gigabytes on its say-so.
MAX_FRAME_BYTES = 1 << 30

#: recv chunk size for the blocking transport.
_RECV_CHUNK = 1 << 16


class ProtocolError(RuntimeError):
    """The byte stream violated the frame format (truncation mid-frame,
    oversized length prefix, or a malformed handshake)."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection cleanly *between* frames."""


def encode_frame(message) -> bytes:
    """One control tuple as a self-delimiting byte frame."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame ceiling"
        )
    return _HEADER.pack(len(payload)) + payload


def decode_length(header: bytes) -> int:
    """Validated payload length from a 4-byte frame header."""
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame header announces {length} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte frame ceiling (corrupt stream?)"
        )
    return length


class FrameConnection:
    """Blocking-socket frame transport with a pipe-shaped surface.

    Gives the exact ``send(obj)`` / ``recv() -> obj`` interface of a
    ``multiprocessing`` pipe end, so the fleet's worker loop and reader
    run unchanged over a socket.
    """

    __slots__ = ("_sock",)

    def __init__(self, sock):
        self._sock = sock

    def send(self, message) -> None:
        """Frame and send one control tuple (blocking until buffered)."""
        self._sock.sendall(encode_frame(message))

    def recv(self):
        """Block until one complete frame arrives; return it unpickled.

        Raises :class:`ConnectionClosed` on EOF at a frame boundary and
        :class:`ProtocolError` on EOF inside a frame.
        """
        header = self._recv_exact(HEADER_BYTES, "header")
        return pickle.loads(self._recv_exact(decode_length(header), "payload"))

    def _recv_exact(self, count: int, part: str) -> bytes:
        chunks = []
        got = 0
        while got < count:
            chunk = self._sock.recv(min(_RECV_CHUNK, count - got))
            if not chunk:
                if part == "header" and got == 0:
                    raise ConnectionClosed("peer closed the connection")
                raise ProtocolError(
                    f"connection closed {got}/{count} bytes into a frame {part}"
                )
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        """Close the socket; a thread blocked in :meth:`recv` on it
        wakes with EOF (the shutdown does that — a bare close does not)."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
