"""Launch, talk to and stop ``python -m repro.cli serve`` over loopback."""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from typing import Optional, Set

from result import peak_rss_mb

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_ANNOUNCE = re.compile(rb"listening on ([0-9.]+):(\d+)")


class Conn:
    """One blocking newline-JSON connection, one request in flight."""

    def __init__(self, port: int, timeout: float = 60.0):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def call(self, obj: dict) -> dict:
        """Send one request and return its final frame."""
        self.sock.sendall(json.dumps(obj, separators=(",", ":")).encode()
                          + b"\n")
        while True:
            while b"\n" not in self._buf:
                chunk = self.sock.recv(65536)
                if not chunk:
                    raise ConnectionError("daemon closed the connection")
                self._buf += chunk
            line, self._buf = self._buf.split(b"\n", 1)
            frame = json.loads(line)
            if frame.get("final", True):
                return frame

    def close(self) -> None:
        self.sock.close()


class Daemon:
    """A ``repro.cli serve`` subprocess with a store, batching off, no
    tenant policy and no journal."""

    def __init__(self, src_dir: str, store_dir: str, log_path: str,
                 cpus: Optional[Set[int]] = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--store",
             store_dir, "--port", "0"],
            stdout=self._log, stderr=subprocess.STDOUT, env=env,
            preexec_fn=(None if cpus is None
                        else lambda: os.sched_setaffinity(0, cpus)))
        self.port: Optional[int] = None

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Block until the daemon answers ``health``; return the seconds
        since launch."""
        deadline = time.monotonic() + timeout
        while self.port is None:
            with open(self.log_path, "rb") as fh:
                m = _ANNOUNCE.search(fh.read())
            if m:
                self.port = int(m.group(2))
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("daemon did not start: "
                                   + open(self.log_path).read()[-2000:])
            time.sleep(0.002)
        conn = Conn(self.port)
        try:
            frame = conn.call({"verb": "health"})
        finally:
            conn.close()
        if not frame.get("ok"):
            raise RuntimeError(f"daemon health failed: {frame}")
        return time.perf_counter() - self.t_launch

    def request(self, obj: dict) -> dict:
        conn = Conn(self.port)
        try:
            return conn.call(obj)
        finally:
            conn.close()

    def stats(self) -> dict:
        return self.request({"verb": "stats"})["result"]

    def cpu_s(self) -> float:
        """User + system CPU seconds of the daemon so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the daemon, MiB."""
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (drain), then wait; SIGKILL if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._log.close()
