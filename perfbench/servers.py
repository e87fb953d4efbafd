"""Boot, probe and stop the real ``repro`` CLI servers as subprocesses.

Each server runs in its own session (process group) so that stopping it
also reaps the shard workers a cluster supervisor spawned; ``stop``
waits until every process of the group has ended.
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "trace"

#: BLAS threads per server process unless the caller's environment says
#: otherwise: the server's parallelism is its concurrent requests (at most
#: one per core), and spinning BLAS threads on top would oversubscribe the
#: cores the load generator shares.
SERVER_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class ServerError(RuntimeError):
    """The server under test failed to boot or misbehaved."""


def get_json(port: int, path: str, timeout: float = 10.0) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def post_json(port: int, path: str, body: dict, timeout: float = 30.0) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            "POST", path, body=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


class Server:
    """One running ``repro`` server (and whatever it spawned)."""

    def __init__(self, args: list[str], *, cwd: pathlib.Path,
                 trace_out: pathlib.Path | None = None, workers: int = 0):
        env = dict(os.environ)
        for name, value in SERVER_THREADS.items():
            env.setdefault(name, value)
        path = [str(SRC)]
        if trace_out is not None:
            # The hook directory rides on PYTHONPATH so that shard workers
            # (spawned with ``python -m repro``) install the same spans.
            path.insert(0, str(TRACE_DIR))
            env["PERFBENCH_TRACE_OUT"] = str(trace_out)
            cmd = [sys.executable, str(TRACE_DIR / "launch.py")]
        else:
            cmd = [sys.executable, "-m", "repro"]
        env["PYTHONPATH"] = os.pathsep.join(path)
        self.workers = workers
        self.lines: list[str] = []
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [*cmd, "--no-obs", *args, "--port", "0"],
            cwd=cwd, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True,
        )
        self.pgid = self.proc.pid
        self.port = None
        self._banner = threading.Event()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))
            if self.port is None and " on http://" in line:
                self.port = int(line.rsplit(":", 1)[1])
                self._banner.set()
        self._banner.set()

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Block until ``/healthz`` is ok with every worker live.

        Returns seconds from spawn to ready — the ``setup_s`` sample.
        """
        deadline = self.t_spawn + timeout
        if not self._banner.wait(timeout) or self.port is None:
            self.kill()
            raise ServerError("no banner:\n" + "\n".join(self.lines[-30:]))
        while time.perf_counter() < deadline:
            try:
                health = get_json(self.port, "/healthz", timeout=5.0)
            except (OSError, ValueError):
                health = {}
            if health.get("status") == "ok" and (
                not self.workers or health.get("workers_live") == self.workers
            ):
                return time.perf_counter() - self.t_spawn
            time.sleep(0.01)
        self.kill()
        raise ServerError("server never became healthy")

    def tree_pids(self) -> list[int]:
        """The server and every live descendant."""
        children: dict[int, list[int]] = {}
        for entry in pathlib.Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            children.setdefault(ppid, []).append(int(entry.name))
        out, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            out.append(pid)
            todo.extend(children.get(pid, []))
        return out

    def cpu_s(self) -> float:
        """User + system CPU seconds of the live process tree so far.

        Unlike wall time this excludes what the hypervisor steals.
        """
        ticks = 0
        for pid in self.tree_pids():
            try:
                stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                continue
            fields = stat.rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def pss_mb(self) -> float:
        """Sum of PSS over the process tree (shared mmap pages count once)."""
        total_kb = 0
        for pid in self.tree_pids():
            try:
                text = pathlib.Path(f"/proc/{pid}/smaps_rollup").read_text()
            except OSError:
                continue
            for line in text.splitlines():
                if line.startswith("Pss:"):
                    total_kb += int(line.split()[1])
                    break
        return total_kb / 1024.0

    def _group_alive(self) -> bool:
        try:
            os.killpg(self.pgid, 0)
            return True
        except ProcessLookupError:
            return False
        except PermissionError:
            return True

    def stop(self, timeout: float = 60.0) -> int:
        """SIGINT (graceful drain), then wait for the whole group to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            return -9
        deadline = time.monotonic() + timeout
        while self._group_alive() and time.monotonic() < deadline:
            time.sleep(0.02)
        if self._group_alive():
            self.kill()
        self._reader.join(5.0)
        return code

    def kill(self) -> None:
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            self.proc.wait(10)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + 10
        while self._group_alive() and time.monotonic() < deadline:
            time.sleep(0.02)
