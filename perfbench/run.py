#!/usr/bin/env python3
"""End-to-end serving benchmark for the LSI servers (see RATIONALE.md).

    python3 perfbench/run.py --workload scan_large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

Boots the real CLI server for the workload (``repro serve --data-dir``,
``repro serve --tenant …`` or ``repro cluster serve``) from ``src/`` of
the checkout it sits in, drives it open-loop over HTTP from one event
loop with at most ``CONNS`` keep-alive connections, checks responses
against an in-process exact oracle, and prints a report followed by one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run is repeated under bench-owned spans and the metrics are the
per-layer split.  Exits non-zero on a wrong response or an invalid run
(one whose generator fell behind its own schedule).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import corpus  # noqa: E402
import costs  # noqa: E402
import layers  # noqa: E402
import loadgen as lg  # noqa: E402
import oracle  # noqa: E402
from servers import SERVER_THREADS, Server, get_json, post_json  # noqa: E402
from workloads import (  # noqa: E402
    CAP_STEPS, CONNS, HELD_OUT, LATE_LIMIT_MS, MAX_FAIL_SHARE, NOMINAL_MIN_S,
    PSS_EVERY_S, QUERY_TERMS, SETUP_BOOTS, SLO_PCT, STEP_S, STORES, WARMUP_S,
    WORKLOADS, ZIPF_S,
)

#: End-to-end metrics: name -> unit (every workload reports all of them).
END_TO_END = {
    "setup_s": "s",
    "search_cpu_ms": "ms",
    "success_rate": "ratio",
    "recall_at_10": "ratio",
    "rss_mb": "MB",
}

STORE_VERSION = "v1"


def cpu_ticks() -> np.ndarray:
    """The machine's cumulative CPU ticks (user … steal) from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return np.array(fh.readline().split()[1:9], dtype=np.float64)
    except OSError:
        return np.zeros(8)


def steal_share(before: np.ndarray, after: np.ndarray) -> float:
    """Share of CPU time the hypervisor took from this machine in between."""
    delta = after - before
    return float(delta[7] / delta.sum()) if delta.sum() > 0 else 0.0


class InvalidRun(Exception):
    """The measurement itself is void (e.g. the generator fell behind)."""


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #
def store_path(name: str) -> pathlib.Path:
    """The cached store ``name``, built on first use (atomic rename)."""
    path = WORK / "stores" / f"{name}-{STORE_VERSION}"
    if path.is_dir():
        return path
    spec = STORES[name]
    tmp = WORK / "stores" / f".{name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.parent.mkdir(parents=True, exist_ok=True)
    print(f"building store {name} ({spec.n_docs} docs, k={spec.k})", flush=True)
    if spec.kind == "factors":
        corpus.build_factor_store(
            tmp, n_docs=spec.n_docs, n_terms=spec.n_terms, k=spec.k,
            topics=spec.topics, seed=spec.seed,
        )
    else:
        texts = corpus.topic_texts(
            spec.n_docs, n_terms=spec.n_terms, topics=spec.topics,
            length=spec.doc_length, seed=spec.seed,
        )
        corpus.build_text_store(tmp, texts, k=spec.k, seed=spec.seed)
    (tmp / "LOCK").unlink(missing_ok=True)
    os.replace(tmp, path)
    return path


class Queries:
    """The offered query stream of one run, a pure function of the seed."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.rng = np.random.default_rng([seed, 7])
        self.specs = [STORES[n] for n in wl.stores]
        self.seen: set = set()
        if wl.query_pool:
            spec = self.specs[0]
            self.pool = corpus.query_pool(
                wl.query_pool, n_terms=spec.n_terms, topics=spec.topics,
                terms=QUERY_TERMS, seed=seed,
            )
            weights = 1.0 / np.arange(1, wl.query_pool + 1) ** ZIPF_S
            self.popularity = weights / weights.sum()

    def next(self) -> tuple[str, int | None]:
        """(query text, tenant index or None)."""
        wl, rng = self.wl, self.rng
        if wl.query_pool:
            return self.pool[int(rng.choice(wl.query_pool, p=self.popularity))], None
        tenant = None
        if wl.tenant_weights:
            tenant = int(rng.choice(len(wl.tenant_weights), p=wl.tenant_weights))
        spec = self.specs[tenant or 0]
        per_topic = spec.n_terms // spec.topics
        while True:
            topic = int(rng.integers(spec.topics))
            terms = tuple(sorted(
                topic + spec.topics * rng.choice(per_topic, QUERY_TERMS, replace=False)
            ))
            if (tenant, terms) not in self.seen:
                self.seen.add((tenant, terms))
                return " ".join(corpus.word(int(t)) for t in terms), tenant


class Adds:
    """The held-out documents the ``/add`` stream sends, seed-ordered."""

    def __init__(self, seed: int):
        spec = STORES["hot"]
        texts = corpus.topic_texts(
            HELD_OUT["n_docs"], n_terms=spec.n_terms, topics=spec.topics,
            length=spec.doc_length, seed=HELD_OUT["seed"],
        )
        order = np.random.default_rng([seed, 11]).permutation(len(texts))
        self.texts = [texts[i] for i in order]
        self.seed = seed
        self.used = 0

    def batch(self, size: int) -> dict:
        lo = self.used
        self.used += size
        if self.used > len(self.texts):
            raise InvalidRun("held-out documents exhausted")
        return {
            "texts": self.texts[lo:self.used],
            "doc_ids": [f"x{self.seed}-{j}" for j in range(lo, self.used)],
        }


def search_body(wl, query: str, tenant: int | None) -> dict:
    body = {"query": query, "top": wl.top}
    if wl.probes is not None:
        body["probes"] = wl.probes
    if tenant is not None:
        body["tenant"] = f"t{tenant}"
    return body


def build_items(wl, queries: Queries, adds: Adds | None,
                search_offsets: np.ndarray, seconds: float) -> list:
    items = []
    for off in search_offsets:
        q, tenant = queries.next()
        body = json.dumps(search_body(wl, q, tenant)).encode()
        items.append(lg.Item(float(off), "search", lg.http_post("/search", body), (q, tenant)))
    if adds is not None and wl.add_rate:
        for off in lg.fixed_offsets(wl.add_rate, seconds):
            batch = adds.batch(wl.add_batch)
            items.append(lg.Item(float(off), "add",
                                 lg.http_post("/add", json.dumps(batch).encode()), batch))
    items.sort(key=lambda it: it.offset)
    return items


# --------------------------------------------------------------------- #
# one workload run
# --------------------------------------------------------------------- #
class Run:
    """Boot, drive, check and measure one workload at one seed."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.wl = WORKLOADS[name]
        self.seed, self.seconds = seed, seconds
        self.dir = WORK / "runs" / f"{name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.stores = [store_path(n) for n in self.wl.stores]
        self.queries = Queries(self.wl, seed)
        self.adds = Adds(seed) if self.wl.add_rate else None
        self.attempted = self.failed = self.wrong = 0
        self.problems: list[str] = []
        self.recalls: list[float] = []
        self.add_lat: list[float] = []
        self.n_added = 0
        self.live: list[Server] = []

    # -- servers ------------------------------------------------------- #
    def data_dir(self) -> pathlib.Path:
        """The store the server opens (a fresh copy when it will write)."""
        if not self.wl.add_rate:
            return self.stores[0]
        copy = self.dir / "store"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.stores[0], copy)
        return copy

    def boot(self, *, trace_out: pathlib.Path | None = None) -> tuple[Server, float]:
        wl = self.wl
        if wl.server == "tenants":
            args = ["serve"]
            for i, path in enumerate(self.stores):
                args += ["--tenant", f"t{i}={path}"]
        elif wl.server == "cluster":
            args = ["cluster", "serve", "--data-dir", str(self.data_dir()),
                    "--workers", str(wl.workers)]
        else:
            args = ["serve", "--data-dir", str(self.data_dir())]
        server = Server([*args, *wl.serve_args], cwd=self.dir,
                        trace_out=trace_out, workers=wl.workers)
        self.live.append(server)
        return server, server.wait_ready()

    def stop(self, server: Server) -> None:
        server.stop()
        self.live.remove(server)

    def stop_all(self) -> None:
        for server in list(self.live):
            server.kill()
        self.live.clear()

    # -- phases -------------------------------------------------------- #
    def phase_rng(self, phase: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, 3, phase])

    def items_for(self, rate: float, seconds: float, phase: int, *,
                  min_count: int = 0) -> list:
        offsets = lg.poisson_offsets(rate, seconds * 2 + 1, self.phase_rng(phase))
        count = max(int(round(rate * seconds)), min_count)
        offsets = offsets[:count]
        span = float(offsets[-1]) if offsets.size else seconds
        return build_items(self.wl, self.queries, self.adds, offsets, span)

    async def drive(self, gen: lg.LoadGenerator, items: list, drain_s: float):
        res = await gen.run(items, drain_s=drain_s)
        self.account(res)
        return res

    def account(self, res: lg.PhaseResult) -> None:
        """Count attempts/failures and shape-check every response."""
        wl = self.wl
        for i, it in enumerate(res.items):
            if math.isnan(res.sent[i]):
                continue
            self.attempted += 1
            if res.status[i] != 200:
                self.failed += 1
                continue
            if it.kind == "add":
                self.n_added += len(it.tag["texts"])
                self.add_lat.append((res.done[i] - res.sched[i]) * 1000.0)
                continue
            tenant = None if it.tag[1] is None else f"t{it.tag[1]}"
            doc, problem = oracle.parse_search(
                res.bodies[i], top=wl.top, tenant=tenant, id_of=self.id_of,
            )
            res.docs[i] = doc
            if problem:
                self.wrong += 1
                res.status[i] = -1
                self.problems.append(f"{problem}: {it.tag[0]!r}")

    def id_of(self, idx: int) -> str | None:
        """Expected doc id of a row (None for rows added this run)."""
        spec = STORES["hot"] if self.wl.add_rate else None
        if spec is None:
            return f"d{idx}"
        return f"h{idx}" if idx < spec.n_docs else None

    def late(self, res: lg.PhaseResult) -> float:
        return lg.percentile(res.late_ms(), 99)

    # -- correctness --------------------------------------------------- #
    def check_exact(self, pairs: list, exact_of) -> None:
        """Compare served (query, tenant, results) with the exact oracle."""
        for query, tenant, results in pairs:
            expected = exact_of(tenant).search(query, self.wl.top)
            if self.wl.probes is None:
                self.recalls.append(oracle.recall_at(results, expected))
                if not oracle.same_ranking(results, expected):
                    self.wrong += 1
                    self.problems.append(f"differs from exact oracle: {query!r}")
            else:
                self.recalls.append(oracle.recall_at(results, expected[:10]))
                scores = exact_of(tenant).scores(query)
                if not oracle.ann_scores_exact(results, scores):
                    self.wrong += 1
                    self.problems.append(f"ANN score not exact: {query!r}")

    def sampled(self, res: lg.PhaseResult) -> list:
        """A deterministic sample of (query, tenant, results) to re-rank."""
        ok = [i for i, it in enumerate(res.items)
              if it.kind == "search" and res.status[i] == 200]
        step = max(1, len(ok) // self.wl.oracle_samples)
        return [(res.items[i].tag[0], res.items[i].tag[1], res.docs[i]["results"])
                for i in ok[::step][: self.wl.oracle_samples]]

    def oracles(self):
        from repro.store.mmap_io import open_latest_model

        engines = [oracle.Exact(open_latest_model(p)) for p in self.stores]
        return lambda tenant: engines[tenant or 0]

    def direct_checks(self, port: int, n: int) -> list:
        """Sequential searches outside the timed phases (hot's oracle)."""
        out = []
        for _ in range(n):
            q, tenant = self.queries.next()
            status, doc = post_json(port, "/search", search_body(self.wl, q, tenant))
            if status != 200:
                raise InvalidRun(f"oracle search failed with HTTP {status}")
            out.append((q, tenant, doc["results"]))
        return out

    # -- the measured run ---------------------------------------------- #
    def nominal_items(self, phase: int, *, tail: bool = False) -> list:
        """The nominal phase: the rest of ``--seconds`` after warm-up; with
        ``tail``, stretched until p99 has 10 samples beyond it."""
        wl = self.wl
        seconds = max(NOMINAL_MIN_S, self.seconds - WARMUP_S)
        need = int(math.ceil(lg.min_samples(99) * 1.05)) if tail else 0
        return self.items_for(wl.nominal_rate, seconds, phase, min_count=need)

    async def capacity_search(self, gen: lg.LoadGenerator) -> tuple[float, list]:
        """``max_qps_at_slo``: bisection over offered rate, then refined."""
        wl = self.wl
        phase = iter(range(100, 100 + CAP_STEPS))

        async def probe(rate: float) -> lg.StepVerdict:
            res = await self.drive(
                gen, self.items_for(rate, STEP_S, next(phase)),
                drain_s=2 * wl.slo_ms / 1000.0,
            )
            attempted, failed = res.counts("search")
            return lg.judge_step(
                rate=rate, tail_ms=lg.percentile(res.latency_ms(), SLO_PCT),
                growth=lg.backlog_growth(res.backlog) + res.unsent,
                attempted=attempted, failed=failed,
                generator_late=self.late(res) > LATE_LIMIT_MS,
                slo_ms=wl.slo_ms, max_fail_share=MAX_FAIL_SHARE,
                growth_tol=max(4.0, 0.02 * rate * STEP_S),
            )

        _, steps = await lg.bisect_rates(wl.cap_lo, wl.cap_hi, CAP_STEPS, probe)
        return lg.rate_at_slo(steps, wl.cap_lo, wl.slo_ms), steps

    @staticmethod
    async def sample_pss(server: Server, stop: asyncio.Event, out: list) -> None:
        """PSS of the server tree every ``PSS_EVERY_S`` until ``stop``."""
        while not stop.is_set():
            out.append(await asyncio.to_thread(server.pss_mb))
            try:
                await asyncio.wait_for(stop.wait(), PSS_EVERY_S)
            except asyncio.TimeoutError:
                pass

    async def measure(self, port: int, server: Server) -> dict:
        wl = self.wl
        gen = lg.LoadGenerator("127.0.0.1", port, CONNS)
        try:
            await self.drive(gen, self.items_for(wl.nominal_rate, WARMUP_S, 0), 5.0)
            stop, pss = asyncio.Event(), []
            sampler = asyncio.ensure_future(self.sample_pss(server, stop, pss))
            try:
                ticks, cpu0 = cpu_ticks(), server.cpu_s()
                nominal = await self.drive(gen, self.nominal_items(1), 10.0)
                steal, cpu = steal_share(ticks, cpu_ticks()), server.cpu_s() - cpu0
            finally:
                stop.set()
                await sampler
            late = self.late(nominal)
            if late > LATE_LIMIT_MS:
                raise InvalidRun(
                    f"generator fell behind: lateness p99 {late:.1f} ms > "
                    f"{LATE_LIMIT_MS} ms at the nominal rate"
                )
            lat = nominal.latency_ms()
            if lat.size < lg.min_samples(50):
                raise InvalidRun(
                    f"only {lat.size} nominal samples for p50 ({self.failed} "
                    f"failed, {self.wrong} wrong: {self.problems[:3]})"
                )
        finally:
            await gen.close()
        return {
            "nominal": nominal, "lat": lat, "late_p99_ms": late, "steal": steal,
            "rss_mb": statistics.median(pss), "pss_samples": len(pss),
            "cpu_ms": 1000.0 * cpu / max(1, nominal.counts("search")[0]),
        }

    def run(self) -> dict:
        wl = self.wl
        setups = []
        try:
            for _ in range(SETUP_BOOTS - 1):
                server, setup = self.boot()
                setups.append(setup)
                self.stop(server)
            server, setup = self.boot()
            setups.append(setup)
            exact_of = self.oracles()
            if wl.add_rate:
                self.check_exact(self.direct_checks(server.port, wl.oracle_samples), exact_of)
            m = asyncio.run(self.measure(server.port, server))
            if wl.add_rate:
                post = self.direct_checks(server.port, wl.oracle_samples)
                served_n = get_json(server.port, "/healthz")["n_documents"]
            else:
                self.check_exact(self.sampled(m["nominal"]), exact_of)
            self.stop(server)
            if wl.add_rate:
                self.check_recovered(post, served_n)
        finally:
            self.stop_all()
        lat = m["lat"]
        values = {
            "setup_s": statistics.median(setups),
            "search_cpu_ms": m["cpu_ms"],
            "success_rate": 1.0 - (self.failed + self.wrong) / max(1, self.attempted),
            "recall_at_10": float(np.mean(self.recalls)) if self.recalls else 0.0,
            "rss_mb": m["rss_mb"],
        }
        samples = {
            "setup_s": len(setups), "search_cpu_ms": int(lat.size),
            "success_rate": self.attempted, "recall_at_10": len(self.recalls),
            "rss_mb": m["pss_samples"],
        }
        extra = {
            "search_p50_ms": f"{lg.percentile(lat, 50):.4f} (n={lat.size})",
            "search_p90_ms": f"{lg.percentile(lat, 90):.4f} (n={lat.size})",
            "add_p50_ms": lg.percentile(self.add_lat, 50),
            "add_p99_ms": lg.percentile(self.add_lat, 99),
            "adds": len(self.add_lat),
            "late_p99_ms": m["late_p99_ms"],
            "cpu_steal_share": m["steal"],
            "backlog_max": int(m["nominal"].backlog.max(initial=0)),
        }
        return {"values": values, "samples": samples, "extra": extra}

    def check_recovered(self, post: list, served_n: int) -> None:
        """Hot: the store recovered from disk must serve what was served."""
        from repro.store import DurableIndexStore

        store = DurableIndexStore.open(self.dir / "store")
        try:
            model = store.manager.model
            if model.n_documents != served_n or served_n != STORES["hot"].n_docs + self.n_added:
                self.wrong += 1
                self.problems.append(
                    f"recovered {model.n_documents} docs, served {served_n}, "
                    f"acknowledged {STORES['hot'].n_docs + self.n_added}"
                )
            recovered = oracle.Exact(model)
            self.check_exact(post, lambda tenant: recovered)
        finally:
            store.close(flush=False)

    # -- the traced run ------------------------------------------------ #
    def run_traced(self) -> dict:
        """Untraced then traced phase on one schedule; the per-layer split.

        The untraced boot also runs the capacity search (``max_qps_at_slo``)
        after its nominal phase."""
        wl = self.wl
        trace_out = self.dir / "spans"
        trace_out.mkdir()
        phases, capacity = {}, None
        try:
            exact_of = self.oracles()
            for traced in (False, True):
                self.queries = Queries(wl, self.seed)
                self.adds = Adds(self.seed) if wl.add_rate else None
                server, _ = self.boot(trace_out=trace_out if traced else None)

                async def go(traced=traced):
                    gen = lg.LoadGenerator("127.0.0.1", server.port, CONNS)
                    try:
                        await self.drive(gen, self.items_for(wl.nominal_rate, WARMUP_S, 0), 5.0)
                        res = await self.drive(gen, self.nominal_items(1, tail=True), 10.0)
                        found = None if traced else await self.capacity_search(gen)
                        return res, found
                    finally:
                        await gen.close()

                res, found = asyncio.run(go())
                capacity = capacity or found
                if not wl.add_rate:
                    self.check_exact(self.sampled(res), exact_of)
                self.stop(server)
                phases[traced] = res
        finally:
            self.stop_all()
        plain, traced = phases[False], phases[True]
        if self.late(plain) > LATE_LIMIT_MS:
            raise InvalidRun("generator fell behind in the untraced phase")
        records = layers.load_records(trace_out, traced.wall_start, traced.wall_end)
        adds = plain.latency_ms("add")
        values = layers.per_layer(records, traced)
        p50_plain = lg.percentile(plain.latency_ms(), 50)
        values.update({
            "search_p50_ms": p50_plain,
            "search_p90_ms": lg.percentile(plain.latency_ms(), 90),
            "search_p99_ms": lg.percentile(plain.latency_ms(), 99),
            "max_qps_at_slo": capacity[0],
            "loadgen.late_p99_ms": self.late(traced),
            "loadgen.backlog_max": float(traced.backlog.max(initial=0)),
            "bench.trace_overhead": lg.percentile(traced.latency_ms(), 50) / p50_plain,
            "add_p50_ms": lg.percentile(adds, 50) if adds.size else 0.0,
            "add_p99_ms": lg.percentile(adds, 99) if adds.size else 0.0,
            "error_rate": (self.failed + self.wrong) / max(1, self.attempted),
        })
        steps = [
            f"{v.rate:.0f}/s:{'ok' if v.passed else v.reason}(p{SLO_PCT:g} {v.tail_ms:.0f}ms)"
            for v in capacity[1]
        ]
        return {"values": values, "samples": {},
                "extra": {"plain_p50_ms": p50_plain, "capacity_steps": steps}}


# --------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------- #
def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def environment(seed: int, seconds: float) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception:  # noqa: BLE001 — older NumPy has no dict mode
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "server_threads_env": {
            **SERVER_THREADS,
            **{k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "seed": seed,
        "seconds": seconds,
        "warmup_s": WARMUP_S,
        "connections": CONNS,
        "machine": platform.machine(),
    }


def report(name: str, result: dict, trace: bool) -> None:
    wl = WORKLOADS[name]
    print(f"== {name}: {wl.why}")
    if trace:
        for key, value in sorted(result["values"].items()):
            print(f"  {key:<34} {value:>12.4f} {layers.UNITS.get(key, '')}")
    else:
        for key, unit in END_TO_END.items():
            print(f"  {key:<16} {result['values'][key]:>12.4f} {unit:<6} "
                  f"(n={result['samples'][key]})")
    for key, value in result["extra"].items():
        print(f"  {key:<16} {value}")
    print(costs.table(name, result["values"] if trace else None))


def run_one(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Run]:
    run = Run(name, seed, seconds)
    try:
        result = run.run_traced() if trace else run.run()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    return result, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated runner still stops the servers it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    print("env " + json.dumps(environment(args.seed, args.seconds), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = []
    for name in names:
        try:
            result, run = run_one(name, args.seed, args.seconds, bool(args.trace))
        except InvalidRun as exc:
            print(f"perfbench: {name}: INVALID RUN: {exc}", file=sys.stderr)
            return 3
        report(name, result, bool(args.trace))
        for problem in run.problems[:10]:
            print(f"  WRONG: {problem}")
        outcomes.append((name, result, run))
    correct = all(run.wrong == 0 for _, _, run in outcomes)
    units = layers.UNITS if args.trace else END_TO_END
    if args.workload == "all":
        print(f"{'workload':<14} {'metric':<34} {'value':>12} unit   samples")
        for name, result, _ in outcomes:
            for key, value in result["values"].items():
                print(f"{name:<14} {key:<34} {value:>12.4f} {units[key]:<6} "
                      f"{result['samples'].get(key, '')}")
    prefix = len(outcomes) > 1
    metrics = {
        (f"{name}.{k}" if prefix else k): {"value": float(v), "unit": units[k]}
        for name, result, _ in outcomes
        for k, v in result["values"].items()
    }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run.attempted for _, _, run in outcomes),
        "failed": sum(run.failed + run.wrong for _, _, run in outcomes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
