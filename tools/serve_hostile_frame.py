#!/usr/bin/env python3
"""Sends a running polysig-serve one deeply nested frame and checks the
answer.

    serve_hostile_frame.py <port>

The frame is 10 000 `[` followed by 10 000 `]`: 20 KB that would
overflow a connection thread's stack if the server's JSON parser
recursed once per level without a limit. The server must answer it
with a `source_error` from the `protocol` stage; the exit status is 0
when it does, 1 otherwise.
"""

import json
import socket
import struct
import sys

DEPTH = 10_000


def read_exact(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("the server closed the connection")
        buf += chunk
    return buf


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    frame = b"[" * DEPTH + b"]" * DEPTH
    try:
        with socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=30) as sock:
            sock.sendall(struct.pack(">I", len(frame)) + frame)
            (length,) = struct.unpack(">I", read_exact(sock, 4))
            reply = json.loads(read_exact(sock, length))
    except (OSError, ValueError) as e:
        print(f"hostile frame: no answer ({e})")
        return 1
    outcome = reply.get("outcome")
    stage = (reply.get("payload") or {}).get("stage")
    print(f"hostile frame: outcome {outcome}, stage {stage}")
    return 0 if (outcome, stage) == ("source_error", "protocol") else 1


if __name__ == "__main__":
    sys.exit(main())
