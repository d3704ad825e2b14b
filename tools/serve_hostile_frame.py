#!/usr/bin/env python3
"""Sends a running polysig-serve hostile input and checks the answers.

    serve_hostile_frame.py <port>

Three frames go over one connection, each of which would overflow a
connection thread's stack in a pass that recursed once per level
without a limit:

1. 10 000 `[` followed by 10 000 `]`: 20 KB of JSON nesting. The
   answer must be a `source_error` from the `protocol` stage.
2. A `parse` request whose equation nests 1 000 parentheses deep.
3. A `lint` request whose equation is a flat sum of 5 000 terms.

Requests 2 and 3 must each be answered with a `source_error`. The exit
status is 0 when all three answers are as expected, 1 otherwise.
"""

import json
import socket
import struct
import sys

DEPTH = 10_000
PARENS = 1_000
TERMS = 5_000


def read_exact(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("the server closed the connection")
        buf += chunk
    return buf


def call(sock: socket.socket, frame: bytes) -> dict:
    sock.sendall(struct.pack(">I", len(frame)) + frame)
    (length,) = struct.unpack(">I", read_exact(sock, 4))
    return json.loads(read_exact(sock, length))


def program(rhs: str) -> str:
    return f"process P {{ input a: int; output x: int; x := {rhs}; }}"


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    nested = program("(" * PARENS + "a" + ")" * PARENS)
    flat = program(" + ".join(["a"] * TERMS))
    cases = [
        ("hostile frame", b"[" * DEPTH + b"]" * DEPTH, "protocol"),
        (
            f"{PARENS}-deep parse",
            json.dumps({"id": 1, "kind": "parse", "source": nested}).encode(),
            None,
        ),
        (
            f"{TERMS}-term lint",
            json.dumps({"id": 2, "kind": "lint", "source": flat}).encode(),
            None,
        ),
    ]
    ok = True
    try:
        with socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=30) as sock:
            for name, frame, want_stage in cases:
                reply = call(sock, frame)
                outcome = reply.get("outcome")
                stage = (reply.get("payload") or {}).get("stage")
                print(f"{name}: outcome {outcome}, stage {stage}")
                ok &= outcome == "source_error" and want_stage in (None, stage)
    except (OSError, ValueError) as e:
        print(f"hostile input: no answer ({e})")
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
