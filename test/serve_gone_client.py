"""Regression client for `serve.exe --socket`: a peer that goes away owing
responses must end only its own connection.

Usage: python3 test/serve_gone_client.py SOCKET

Connection 1 pipelines 2000 `stats` requests and closes without reading
a byte, so the daemon's writes hit a closed peer.  Connection 2 must
still get a well-formed `stats` answer; it then asks the daemon to shut
down.  Exits 1 if the daemon is gone or answers badly.
"""

import json
import socket
import sys
import time

REQ = b'{"schema":"impact.serve/v1","id":%d,"type":"%s"}\n'


def connect(path):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(30)
    deadline = time.time() + 30
    while True:
        try:
            s.connect(path)
            return s
        except (FileNotFoundError, ConnectionRefusedError):
            if time.time() > deadline:
                raise
            time.sleep(0.1)


def main(path):
    s = connect(path)
    s.sendall(b"".join(REQ % (i, b"stats") for i in range(2000)))
    s.close()
    s = connect(path)
    s.sendall(REQ % (1, b"stats") + REQ % (2, b"shutdown"))
    s.shutdown(socket.SHUT_WR)
    data = b""
    while True:
        chunk = s.recv(65536)
        if not chunk:
            break
        data += chunk
    lines = [json.loads(l) for l in data.splitlines()]
    stats = [r for r in lines if r.get("request") == "stats"]
    if not stats or stats[0].get("status") != "ok":
        print("serve_gone_client: no stats answer after a dead peer: %r"
              % data[:200], file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
