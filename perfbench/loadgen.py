"""Open-loop HTTP load generator: one process, one event loop.

Arrivals follow a precomputed schedule (Poisson searches, fixed-rate
adds), generated from the workload seed before any request is sent.  A
dispatcher task releases each request at its scheduled time into a FIFO
backlog; at most ``conns`` keep-alive connections drain that backlog, so
the server never sees more than ``conns`` requests in flight.  Every
request is timed from its *scheduled* time, so a stall is charged to
every request queued behind it, and the dispatcher's own lateness is
recorded so a run whose generator fell behind can be marked invalid.

The pure parts — schedules, percentiles, the sample-count rule, the
capacity search's decision rule — are plain functions with their own
tests in ``perfbench/tests``.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass

import numpy as np

# --------------------------------------------------------------------- #
# schedules
# --------------------------------------------------------------------- #


def poisson_offsets(rate: float, seconds: float, rng: np.random.Generator) -> np.ndarray:
    """Arrival offsets in ``[0, seconds)`` of a Poisson process at ``rate``/s."""
    if rate <= 0 or seconds <= 0:
        return np.empty(0)
    chunks, t = [], 0.0
    while t < seconds:
        gaps = rng.exponential(1.0 / rate, size=int(rate * seconds) + 16)
        times = t + np.cumsum(gaps)
        chunks.append(times)
        t = float(times[-1])
    out = np.concatenate(chunks)
    return out[out < seconds]


def fixed_offsets(rate: float, seconds: float) -> np.ndarray:
    """Evenly spaced offsets (first at half a period) at ``rate``/s."""
    if rate <= 0:
        return np.empty(0)
    period = 1.0 / rate
    return np.arange(0.5 * period, seconds, period)


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #


def min_samples(pct: float, beyond: int = 10) -> int:
    """Fewest samples for which at least ``beyond`` lie above ``pct``.

    p99 needs 1000 samples, p50 needs 20: the percentile is only
    reported as measured when the tail it summarises has ``beyond``
    samples in it.
    """
    # Rounded first: 1 - 99.9/100 is not exactly 1/1000 in binary.
    return int(math.ceil(round(beyond * 100.0 / (100.0 - pct), 6)))


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (NumPy's default); NaN when empty."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return float("nan")
    return float(np.percentile(arr, pct))


# --------------------------------------------------------------------- #
# the capacity search
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class StepVerdict:
    """One offered-rate step of the capacity search, judged."""

    rate: float
    passed: bool
    reason: str
    tail_ms: float
    backlog_growth: float
    fail_share: float


def backlog_growth(backlog: np.ndarray) -> float:
    """Mean backlog over the last third minus mean over the first third."""
    b = np.asarray(backlog, dtype=np.float64)
    if b.size < 3:
        return 0.0
    third = b.size // 3
    return float(b[-third:].mean() - b[:third].mean())


def judge_step(
    *,
    rate: float,
    tail_ms: float,
    growth: float,
    attempted: int,
    failed: int,
    generator_late: bool,
    slo_ms: float,
    max_fail_share: float,
    growth_tol: float,
) -> StepVerdict:
    """The decision rule: a step passes iff all three SLO legs hold.

    * tail latency (the step's ``SLO_PCT`` percentile, from scheduled
      send) is within ``slo_ms``;
    * the client backlog did not grow by more than ``growth_tol``;
    * failed + refused + wrong stay under ``max_fail_share``.

    A step whose generator fell behind its own schedule cannot be
    attributed to the server and fails conservatively.
    """
    share = failed / attempted if attempted else 1.0

    def verdict(ok: bool, why: str) -> StepVerdict:
        return StepVerdict(rate, ok, why, tail_ms, growth, share)

    if generator_late:
        return verdict(False, "generator late")
    if attempted == 0 or share > max_fail_share:
        return verdict(False, "failures")
    if not tail_ms <= slo_ms:
        return verdict(False, "tail over limit")
    if growth > growth_tol:
        return verdict(False, "backlog grew")
    return verdict(True, "ok")


async def bisect_rates(lo: float, hi: float, steps: int, probe) -> tuple[float, list]:
    """Highest passing rate by bisection between fixed bounds.

    ``lo`` is the floor assumed to pass (reported when nothing above it
    does), ``hi`` the ceiling assumed to fail.  Each of ``steps`` probes
    halves the interval, so the answer's resolution is
    ``(hi - lo) / 2**steps``.  ``await probe(rate)`` returns a
    :class:`StepVerdict`.
    """
    verdicts = []
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        v = await probe(mid)
        verdicts.append(v)
        if v.passed:
            lo = mid
        else:
            hi = mid
    return lo, verdicts


def rate_at_slo(verdicts: list, floor: float, slo_ms: float) -> float:
    """The capacity estimate: the highest passing rate, refined in between.

    Starts from the highest passing probe (``floor`` when none passed).
    When the nearest probe above it failed on the latency leg alone, the
    answer moves towards it to where log tail latency, interpolated linearly
    in rate between the two probes, meets ``slo_ms``.  This takes the
    bisection's last step out of the answer's noise: two runs whose
    probes fell either side of one rate no longer read a full step apart.
    """
    passed = [v for v in verdicts if v.passed]
    if not passed:
        return floor
    lo = max(passed, key=lambda v: v.rate)
    above = [v for v in verdicts if not v.passed and v.rate > lo.rate]
    if not above:
        return lo.rate
    hi = min(above, key=lambda v: v.rate)
    if hi.reason != "tail over limit" or not 0.0 < lo.tail_ms < hi.tail_ms:
        return lo.rate
    frac = math.log(slo_ms / lo.tail_ms) / math.log(hi.tail_ms / lo.tail_ms)
    return lo.rate + (hi.rate - lo.rate) * min(1.0, max(0.0, frac))


# --------------------------------------------------------------------- #
# the generator
# --------------------------------------------------------------------- #


@dataclass
class Item:
    """One scheduled request."""

    offset: float
    kind: str  # "search" | "add"
    payload: bytes  # the whole HTTP request, pre-encoded
    tag: object = None


def http_post(path: str, body: bytes) -> bytes:
    """A keep-alive HTTP/1.1 POST, pre-encoded."""
    return (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


@dataclass
class PhaseResult:
    """Raw per-request timings of one phase (seconds, loop clock)."""

    items: list
    sched: np.ndarray
    dispatched: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    status: np.ndarray
    bodies: list
    backlog: np.ndarray
    wall_start: float
    wall_end: float
    unsent: int = 0
    docs: list = None  # parsed response bodies, filled in by the caller

    def __post_init__(self):
        if self.docs is None:
            self.docs = [None] * len(self.items)

    def latency_ms(self, kind: str = "search") -> np.ndarray:
        """From scheduled send to response, for answered requests."""
        mask = np.array([it.kind == kind for it in self.items], dtype=bool)
        mask &= self.status == 200
        return (self.done[mask] - self.sched[mask]) * 1000.0

    def service_ms(self, kind: str = "search") -> np.ndarray:
        """From actual send to response (excludes client backlog wait)."""
        mask = np.array([it.kind == kind for it in self.items], dtype=bool)
        mask &= self.status == 200
        return (self.done[mask] - self.sent[mask]) * 1000.0

    def late_ms(self) -> np.ndarray:
        """How late the dispatcher released each request."""
        ok = ~np.isnan(self.dispatched)
        return (self.dispatched[ok] - self.sched[ok]) * 1000.0

    def counts(self, kind: str = "search") -> tuple[int, int]:
        """(attempted, failed) requests of ``kind``; failed = not HTTP 200."""
        mask = np.array([it.kind == kind for it in self.items], dtype=bool)
        mask &= ~np.isnan(self.sent)
        return int(mask.sum()), int(np.sum(mask & (self.status != 200)))


class _Conn:
    """One keep-alive HTTP connection (reopened after an error/close)."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def request(self, payload: bytes) -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port
            )
        self.writer.write(payload)
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        status = int(line.split()[1])
        length, close = 0, False
        while True:
            h = await self.reader.readline()
            if h in (b"\r\n", b"\n", b""):
                break
            name, _, value = h.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        body = await self.reader.readexactly(length) if length else b""
        if close:
            await self.close()
        return status, body

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.reader = self.writer = None


#: Longest the generator waits for a request already sent at phase end.
INFLIGHT_TIMEOUT_S = 60.0


class LoadGenerator:
    """Drives phases of scheduled requests over ``conns`` connections."""

    def __init__(self, host: str, port: int, conns: int):
        self.conns = [_Conn(host, port) for _ in range(conns)]

    async def close(self) -> None:
        for c in self.conns:
            await c.close()

    async def run(self, items: list[Item], *, drain_s: float) -> PhaseResult:
        """Offer ``items`` on schedule; wait up to ``drain_s`` after the last."""
        loop = asyncio.get_running_loop()
        n = len(items)
        sched = np.full(n, np.nan)
        disp = np.full(n, np.nan)
        sent = np.full(n, np.nan)
        done = np.full(n, np.nan)
        status = np.zeros(n, dtype=np.int64)
        bodies: list = [None] * n
        backlog = np.zeros(n, dtype=np.int64)
        queue: asyncio.Queue = asyncio.Queue()
        wall_start = time.time()
        t0 = loop.time() + 0.005

        async def dispatcher() -> None:
            for i, it in enumerate(items):
                due = t0 + it.offset
                sched[i] = due
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                disp[i] = loop.time()
                queue.put_nowait(i)
                backlog[i] = queue.qsize()

        async def worker(conn: _Conn) -> None:
            while True:
                i = await queue.get()
                sent[i] = loop.time()
                try:
                    status[i], bodies[i] = await conn.request(items[i].payload)
                except (ConnectionError, OSError, asyncio.IncompleteReadError,
                        ValueError, IndexError):
                    status[i] = 0
                    await conn.close()
                done[i] = loop.time()
                queue.task_done()

        workers = [asyncio.ensure_future(worker(c)) for c in self.conns]
        await dispatcher()
        try:
            await asyncio.wait_for(queue.join(), timeout=drain_s)
        except asyncio.TimeoutError:
            pass
        # Past the drain the backlog is dropped unsent; requests already on
        # the wire still finish, so every request the server may have
        # applied (an /add) has a recorded answer.
        unsent = 0
        while not queue.empty():
            queue.get_nowait()
            queue.task_done()
            unsent += 1
        try:
            await asyncio.wait_for(queue.join(), timeout=INFLIGHT_TIMEOUT_S)
        finally:
            for w in workers:
                w.cancel()
            await asyncio.gather(*workers, return_exceptions=True)
        return PhaseResult(
            items=items, sched=sched, dispatched=disp, sent=sent, done=done,
            status=status, bodies=bodies, backlog=backlog,
            wall_start=wall_start, wall_end=time.time(), unsent=unsent,
        )
