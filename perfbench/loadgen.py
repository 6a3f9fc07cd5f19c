"""The server under test and the closed-loop HTTP load generator.

The server is ``python -m repro serve --snapshot ...`` with default flags
except the port, run as its own process. Load comes from this process:
``connections`` keep-alive HTTP/1.1 connections, each sending its next
request only after the previous reply arrived. Nothing is retried; a
transport error or non-200 reply is recorded as a failure.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HEALTH_TIMEOUT_S = 60.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size of ``pid`` (VmHWM), in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Server:
    """One ``repro serve`` process over a snapshot."""

    def __init__(self, root: str, snapshot: str, logdir: str):
        self.root = root
        self.snapshot = snapshot
        self.logdir = logdir
        self.proc: "subprocess.Popen | None" = None
        self.address = ("127.0.0.1", 0)

    def start(self) -> float:
        """Launch; returns seconds from launch to the first 200 on health."""
        port = free_port()
        self.address = ("127.0.0.1", port)
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        log = open(os.path.join(self.logdir, f"server-{port}.log"), "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--snapshot",
             self.snapshot, "--port", str(port)],
            cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT,
        )
        log.close()
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}; see {log.name}"
                )
            try:
                status, _ = self.get("/v1/health", timeout=1.0)
            except OSError:
                status = None
            if status == 200:
                return time.perf_counter() - started
            if time.perf_counter() - started > HEALTH_TIMEOUT_S:
                self.stop()
                raise RuntimeError("server did not become healthy in time")
            time.sleep(0.005)

    def get(self, path: str, timeout: float = 10.0) -> tuple:
        conn = http.client.HTTPConnection(*self.address, timeout=timeout)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stats(self) -> dict:
        status, body = self.get("/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return json.loads(body)["service"]

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Graceful drain (SIGTERM), then kill if it hangs; always reaped."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


@dataclass
class Sample:
    """One request of a timed window."""

    index: int  # position in the request stream
    start: float  # perf_counter at send
    rtt: float  # seconds from send to the last byte of the reply
    status: int  # HTTP status, 0 on a transport error
    key: int  # index into Window.bodies (-1 on a transport error)
    cache_hit: bool  # the reply says the result cache answered


@dataclass
class Window:
    samples: list
    seconds: float  # from the first send to the last reply
    cpu_seconds: float  # this process's CPU time over the window
    bodies: list  # first full reply per distinct reply prefix
    exhausted: bool  # the stream ran out before the time did


class _Interner:
    """Keeps one full reply per distinct answer, not one per request.

    Replies differ only in their trailing per-call ``stats``; the part
    before it (count, rows, truncation flag) identifies the answer.
    """

    def __init__(self):
        self._keys: dict = {}
        self.bodies: list = []
        self._lock = threading.Lock()

    def key(self, data: bytes) -> int:
        cut = data.rfind(b'"stats"')
        prefix = data if cut < 0 else data[:cut]
        with self._lock:
            key = self._keys.get(prefix)
            if key is None:
                key = self._keys[prefix] = len(self.bodies)
                self.bodies.append(data)
            return key


def post(conn, body: bytes) -> tuple:
    conn.request("POST", "/v1/query", body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def warm(address, bodies) -> None:
    """Send ``bodies`` once each, untimed (fills caches, lazy indexes)."""
    conn = http.client.HTTPConnection(*address, timeout=120)
    try:
        for body in bodies:
            status, _ = post(conn, body)
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}")
    finally:
        conn.close()


def closed_loop(address, bodies, seconds: float, connections: int = 2) -> Window:
    """Run ``connections`` closed-loop clients over ``bodies`` in order."""
    interner = _Interner()
    lock = threading.Lock()
    cursor = [0]
    samples: list = []
    exhausted = [False]
    started = time.perf_counter()
    cpu_started = time.process_time()
    deadline = started + seconds

    def client() -> None:
        conn = http.client.HTTPConnection(*address, timeout=120)
        mine = []
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(bodies):
                        exhausted[0] = True
                        break
                    cursor[0] += 1
                t0 = time.perf_counter()
                if t0 >= deadline:
                    break
                try:
                    status, data = post(conn, bodies[index])
                except (OSError, http.client.HTTPException):
                    mine.append(Sample(index, t0, time.perf_counter() - t0,
                                       0, -1, False))
                    conn.close()
                    conn = http.client.HTTPConnection(*address, timeout=120)
                    continue
                rtt = time.perf_counter() - t0
                key = interner.key(data)
                hit = data.find(b'"result_cache": "hit"') >= 0
                mine.append(Sample(index, t0, rtt, status, key, hit))
        finally:
            conn.close()
            with lock:
                samples.extend(mine)

    threads = [threading.Thread(target=client) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    cpu = time.process_time() - cpu_started
    samples.sort(key=lambda s: s.index)
    end = max((s.start + s.rtt for s in samples), default=started)
    return Window(samples, end - started, cpu, interner.bodies, exhausted[0])
