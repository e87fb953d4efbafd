"""The benchmark's own rules: sample counts, schedules, capacity search."""

import asyncio

import numpy as np
import pytest

import loadgen as lg
from run import Adds, Queries, build_items
from workloads import WORKLOADS


# -- the percentile sample-count rule -------------------------------------- #
def samples_beyond(n, pct):
    """How many of ``n`` ranked samples lie above the ``pct`` rank."""
    return int(np.floor(round(n * (100.0 - pct) / 100.0, 6)))


@pytest.mark.parametrize(
    "pct, need", [(50, 20), (90, 100), (99, 1000), (99.9, 10000)]
)
def test_min_samples_leaves_ten_beyond(pct, need):
    assert lg.min_samples(pct) == need
    assert samples_beyond(need, pct) == 10
    assert samples_beyond(need - 1, pct) < 10


def test_min_samples_is_the_smallest_sufficient_count():
    for pct in (75.0, 95.0, 98.0, 99.0, 99.5):
        n = lg.min_samples(pct)
        assert samples_beyond(n, pct) >= 10
        assert samples_beyond(n - 1, pct) < 10


def test_percentile_matches_numpy_and_handles_empty():
    values = np.arange(1, 1001, dtype=float)
    assert lg.percentile(values, 99) == pytest.approx(np.percentile(values, 99))
    assert np.isnan(lg.percentile([], 50))


# -- seed-deterministic schedules ------------------------------------------ #
def test_poisson_schedule_is_a_function_of_the_seed():
    a = lg.poisson_offsets(100.0, 10.0, np.random.default_rng(5))
    b = lg.poisson_offsets(100.0, 10.0, np.random.default_rng(5))
    c = lg.poisson_offsets(100.0, 10.0, np.random.default_rng(6))
    np.testing.assert_array_equal(a, b)
    assert a.shape != c.shape or not np.array_equal(a, c)
    assert np.all(np.diff(a) > 0) and a[0] >= 0 and a[-1] < 10.0
    assert 850 < a.size < 1150  # ~rate x seconds


def test_fixed_schedule_is_evenly_spaced():
    offsets = lg.fixed_offsets(4.0, 2.0)
    np.testing.assert_allclose(offsets, [0.125, 0.375, 0.625, 0.875,
                                         1.125, 1.375, 1.625, 1.875])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_offered_requests_are_a_function_of_the_seed(name):
    wl = WORKLOADS[name]
    offsets = lg.poisson_offsets(wl.nominal_rate, 1.0, np.random.default_rng(1))

    def payloads(seed):
        adds = Adds(seed) if wl.add_rate else None
        items = build_items(wl, Queries(wl, seed), adds, offsets, 1.0)
        return [(it.offset, it.kind, it.payload) for it in items]

    assert payloads(3) == payloads(3)
    assert payloads(3) != payloads(4)


def test_unique_queries_never_repeat():
    wl = WORKLOADS["cluster_ann"]
    queries = Queries(wl, 9)
    drawn = [queries.next()[0] for _ in range(3000)]
    assert len(set(drawn)) == len(drawn)


def test_tenant_popularity_is_skewed_to_the_hot_tenant():
    wl = WORKLOADS["tenants_lru"]
    queries = Queries(wl, 2)
    tenants = [queries.next()[1] for _ in range(4000)]
    share = np.bincount(tenants, minlength=4) / len(tenants)
    np.testing.assert_allclose(share, wl.tenant_weights, atol=0.02)


# -- the capacity search's decision rule ------------------------------------ #
def judge(**overrides):
    args = dict(
        rate=100.0, tail_ms=50.0, growth=0.0, attempted=1000, failed=0,
        generator_late=False, slo_ms=100.0, max_fail_share=0.01,
        growth_tol=4.0,
    )
    args.update(overrides)
    return lg.judge_step(**args)


def test_a_step_passes_only_when_every_leg_holds():
    assert judge().passed
    assert judge(tail_ms=100.0).passed  # the limit itself is within it
    assert not judge(tail_ms=100.1).passed
    assert not judge(tail_ms=float("nan")).passed  # no answers at all
    assert not judge(growth=4.5).passed
    assert not judge(failed=11).passed  # 1.1% > 1%
    assert judge(failed=10).passed
    assert not judge(attempted=0).passed
    assert not judge(generator_late=True).passed


def test_failure_reasons_name_the_leg():
    assert judge(generator_late=True, tail_ms=1e9).reason == "generator late"
    assert judge(failed=500).reason == "failures"
    assert judge(tail_ms=500.0).reason == "tail over limit"
    assert judge(growth=50.0).reason == "backlog grew"


def test_backlog_growth_compares_the_last_third_with_the_first():
    assert lg.backlog_growth(np.zeros(30)) == 0.0
    assert lg.backlog_growth(np.arange(30)) == pytest.approx(20.0)
    assert lg.backlog_growth([1, 2]) == 0.0


@pytest.mark.parametrize("knee", [55.0, 137.0, 299.0])
def test_bisection_lands_within_one_step_of_the_knee(knee):
    async def probe(rate):
        return judge(rate=rate, tail_ms=50.0 if rate <= knee else 500.0)

    lo, hi, steps = 50.0, 300.0, 6
    found, verdicts = asyncio.run(lg.bisect_rates(lo, hi, steps, probe))
    assert len(verdicts) == steps
    assert found <= knee < found + (hi - lo) / 2**steps
    assert all(v.passed == (v.rate <= knee) for v in verdicts)


def test_rate_at_slo_interpolates_log_latency_between_the_bracketing_probes():
    verdicts = [
        judge(rate=100.0, tail_ms=50.0),
        judge(rate=140.0, tail_ms=200.0),  # fails the 100 ms limit
        judge(rate=120.0, tail_ms=80.0),
        judge(rate=130.0, tail_ms=125.0),  # fails
    ]
    # log latency meets log 100 a fraction log(100/80)/log(125/80) = 0.5 of
    # the way from 120 to 130.
    assert lg.rate_at_slo(verdicts, 50.0, 100.0) == pytest.approx(125.0)


def test_rate_at_slo_stays_on_the_passing_probe_unless_latency_alone_failed():
    base = [judge(rate=100.0, tail_ms=50.0)]
    grew = base + [judge(rate=120.0, tail_ms=60.0, growth=50.0)]
    assert lg.rate_at_slo(grew, 50.0, 100.0) == 100.0
    assert lg.rate_at_slo(base, 50.0, 100.0) == 100.0  # nothing failed above
    failed_all = [judge(rate=90.0, failed=1000)]
    assert lg.rate_at_slo(failed_all, 50.0, 100.0) == 50.0  # the floor


def test_bisection_reports_the_floor_when_nothing_passes():
    async def probe(rate):
        return judge(rate=rate, failed=1000)

    found, _ = asyncio.run(lg.bisect_rates(40.0, 200.0, 4, probe))
    assert found == 40.0
