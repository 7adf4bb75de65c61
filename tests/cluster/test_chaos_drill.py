"""The seeded chaos drill (Section 2.7's acceptance bar for PR 6).

Each drill derives a fault schedule — node kills, transient read
bursts, slow sites, WAL tears — from a single seed, fires it against a
mixed workload (scan, windowed subsample, grouped aggregate) running at
parallelism >= 4 on a 6-node grid with k=2 replication, and asserts the
distributed answers stay byte-identical to the local truth:

* **equivalence** — every query's answer matches what a single-site
  array holding the same cells would produce (zero wrong answers);
* **exactly-once** — scans return each logical cell exactly once, never
  a replica twice, regardless of which chain site served it;
* **reconciliation** — the injector's event counts, the failover log,
  per-node retry counters, and breaker transition logs all agree about
  what happened;
* **bounded latency** — a deadline query against a grid with one dead
  and one slow node comes back (full or partial, per ``on_unavailable``)
  within its budget instead of riding out the slow node's naps.

Determinism matters: the same seed replays the same drill, so a failure
here is a repro recipe, not a flake.
"""

import random
import time

import numpy as np
import pytest

from repro import define_array
from repro.core.array import SciArray
from repro.core.errors import DeadlineExceededError
from repro.cluster import (
    BreakerConfig,
    Deadline,
    DegradedResult,
    FaultInjector,
    Grid,
    HashPartitioner,
    HedgePolicy,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.storage.loader import LoadRecord

N_NODES = 6
K = 2
PARALLELISM = 4
N_RECORDS = 150
WINDOW = ((20, 20), (80, 80))
DRILL_SEEDS = list(range(10))


def records(n, seed=0):
    rng = np.random.default_rng(seed)
    seen, out = set(), []
    while len(out) < n:
        c = (int(rng.integers(1, 101)), int(rng.integers(1, 101)))
        if c in seen:
            continue
        seen.add(c)
        out.append(LoadRecord(c, (float(rng.normal()),)))
    return out


def schema():
    return define_array("sky", {"flux": "float"}, ["x", "y"]).bind([100, 100])


def in_window(coords, window=WINDOW):
    (lo, hi) = window
    return all(l <= c <= h for c, l, h in zip(coords, lo, hi))


def local_truth(recs):
    """The single-site answer key: coords -> flux."""
    return {r.coords: r.values[0] for r in recs}


def make_grid(tmp_path, sub, seed, hedge_delay_ms=None):
    inj = FaultInjector(seed=seed)
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=3, seed=seed),
        breaker=BreakerConfig(failure_threshold=2, cooldown=3),
        hedge=HedgePolicy(delay_ms=hedge_delay_ms),
    )
    grid = Grid(
        N_NODES, tmp_path / sub, fault_injector=inj,
        parallelism=PARALLELISM, resilience=policy,
    )
    arr = grid.create_array(
        "sky", schema(), HashPartitioner(N_NODES), replication=K
    )
    return grid, arr, inj


def pick_kills(rng, n_rounds):
    """Seeded kill schedule: per round, up to two victims whose chain
    neighbourhoods don't overlap — with k=2 chained declustering,
    adjacent victims (mod N) would kill a whole chain and the drill
    would (correctly) degrade instead of answering in full."""
    plans = []
    for _ in range(n_rounds):
        first = rng.randrange(N_NODES)
        victims = [first]
        if rng.random() < 0.5:
            second = rng.randrange(N_NODES)
            adjacent = (
                abs(second - first) in (1, N_NODES - 1) or second == first
            )
            if not adjacent:
                victims.append(second)
        plans.append(victims)
    return plans


class TestChaosDrill:
    """The drill proper: ten seeds, three rounds each, zero wrong answers."""

    def run_workload(self, arr, truth):
        """One mixed workload pass; asserts equivalence and exactly-once."""
        # 1. Full scan: every logical cell exactly once, values intact.
        got = [(c, cell.flux) for c, cell in arr.scan()]
        coords = [c for c, _ in got]
        assert len(coords) == len(set(coords)), "a replica was served twice"
        assert dict(got) == pytest.approx(truth)

        # 2. Windowed subsample against the locally-filtered truth.
        sub = arr.subsample(WINDOW)
        window_truth = {c: v for c, v in truth.items() if in_window(c)}
        got_window = {
            c: cell.flux
            for c, cell in sub.cells(include_null=False)
        }
        assert got_window == pytest.approx(window_truth)

        # 3. Grouped aggregate vs. locally-computed group sums.
        agg = arr.aggregate(["x"], "sum")
        sums = {}
        for (x, _y), v in truth.items():
            sums[(x,)] = sums.get((x,), 0.0) + v
        got_sums = {
            c: cell.sum for c, cell in agg.cells(include_null=False)
        }
        assert set(got_sums) == set(sums)
        for key, v in sums.items():
            assert got_sums[key] == pytest.approx(v)

    def reconcile(self, grid, inj, kills_scheduled):
        """Counters must agree about what happened — no silent faults."""
        counts = inj.counts()
        # Every scheduled kill landed (the workload generates far more
        # metered ticks than any kill threshold) and was recorded.
        assert counts.get("node_kill", 0) == kills_scheduled
        # Every failover event charged exactly one read_retries bump on
        # the site it failed past.
        retries = sum(
            node.counters.snapshot().get("read_retries", 0)
            for node in grid.nodes
        )
        assert len(grid.failover_log) == retries
        snap = grid.resilience_snapshot()
        assert snap["failovers"] == len(grid.failover_log)
        assert snap["hedges"] >= snap["hedge_wins"]
        # Breaker transition logs are internally consistent chains.
        for breaker in grid.breakers:
            for (_, prev_new), (nxt_old, _) in zip(
                breaker.transitions, breaker.transitions[1:]
            ):
                assert prev_new == nxt_old
        # Backoff charged for every failover is capped and reproducible.
        policy = grid.resilience.retry
        for e in grid.failover_log:
            assert e.backoff_ms <= policy.backoff_max_ms
            assert e.backoff_ms == policy.backoff_ms(
                e.attempt, key=(e.array, e.partition)
            )

    @pytest.mark.parametrize("seed", DRILL_SEEDS)
    def test_drill(self, tmp_path, seed):
        rng = random.Random(seed)
        recs = records(N_RECORDS, seed=seed)
        truth = local_truth(recs)
        grid, arr, inj = make_grid(tmp_path, f"drill{seed}", seed)
        arr.load(recs)

        kills_scheduled = 0
        for round_no, victims in enumerate(pick_kills(rng, 3)):
            # Schedule this round's faults.
            for victim in victims:
                if grid.nodes[victim].alive:
                    # Land mid-query: the kill fires on a gather tick.
                    inj.schedule_kill(victim, after=rng.randrange(1, 30))
                    kills_scheduled += 1
            if rng.random() < 0.5:
                # Burst must stay survivable by construction: with
                # max_attempts=3, a chain whose other site is dead can
                # absorb at most max_attempts - 1 forced read faults.
                site = rng.randrange(N_NODES)
                inj.schedule_transient_reads(site, rng.randrange(1, 3))
            if rng.random() < 0.3:
                inj.set_slow_reads(rng.randrange(N_NODES), 2.0)

            self.run_workload(arr, truth)

            # Recovery: tear the WAL tail of one victim (a crash mid-
            # append), then rebuild everything that died.  The torn tail
            # legally ends WAL replay early; replica copy-back fills the
            # gap, so the next round starts from a healthy grid.
            dead = [n.node_id for n in grid.nodes if not n.alive]
            if dead:
                inj.tear_wal_tail(grid.nodes[dead[0]])
            for node_id in dead:
                report = grid.rebuild_node(node_id)
                assert grid.nodes[node_id].alive
                assert report.cells_from_wal + report.cells_from_replicas > 0
            if dead:
                # Rebuilt grid must serve the full truth again.
                got = {c: cell.flux for c, cell in arr.scan()}
                assert got == pytest.approx(truth)
            for site in range(N_NODES):  # reset any lingering slowness
                inj.set_slow_reads(site, 0.0)

        self.reconcile(grid, inj, kills_scheduled)


class TestChaosDrillHedged:
    """One drill seed with hedging enabled: hedges fire against a slow
    node, the winner's meters commit, and answers stay exact."""

    def test_hedged_drill(self, tmp_path):
        seed = 17
        recs = records(N_RECORDS, seed=seed)
        truth = local_truth(recs)
        grid, arr, inj = make_grid(
            tmp_path, "hedged", seed, hedge_delay_ms=3.0,
        )
        arr.load(recs)
        inj.set_slow_reads(2, 25.0)

        got = {c: cell.flux for c, cell in arr.scan()}
        assert got == pytest.approx(truth)
        snap = grid.resilience_snapshot()
        assert snap["hedges"] >= 1
        assert snap["hedge_wins"] >= 1
        assert snap["hedges"] >= snap["hedge_wins"]

        # Exactly-once accounting: the losing hedge attempt's meters were
        # discarded, so gather bytes equal one full logical copy.
        gather = grid.ledger.total_bytes("gather")
        assert gather == len(recs) * arr.cell_nbytes


class TestDeadlineBoundedLatency:
    """The acceptance probe: one dead node, one slow node, and a
    deadline — the query answers within its budget either way."""

    def setup_hurt_grid(self, tmp_path):
        seed = 23
        recs = records(N_RECORDS, seed=seed)
        grid, arr, inj = make_grid(tmp_path, "hurt", seed)
        arr.load(recs)
        inj.kill(4)
        inj.set_slow_reads(1, 300.0)
        return grid, arr, inj, local_truth(recs)

    def test_partial_mode_returns_within_budget(self, tmp_path):
        grid, arr, inj, truth = self.setup_hurt_grid(tmp_path)
        budget_ms = 60.0
        t0 = time.perf_counter()
        got = arr.subsample(
            WINDOW,
            deadline=Deadline.after_ms(budget_ms),
            on_unavailable="partial",
        )
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        assert isinstance(got, DegradedResult)
        # Within the budget plus scheduling slack — nowhere near the
        # 300 ms-per-read naps the slow node would have charged.
        assert elapsed_ms < budget_ms + 500.0
        # Whatever was served is *correct* (degraded means fewer answers,
        # never wrong ones).
        for c, cell in got.array.cells(include_null=False):
            assert cell.flux == pytest.approx(truth[c])
        # The misses were counted, and the coverage report names the
        # partitions that went unserved.
        snap = grid.resilience_snapshot()
        assert snap["deadline_misses"] + len(got.coverage.missing) > 0
        assert got.coverage.total_partitions == N_NODES

    def test_raise_mode_fails_fast_within_budget(self, tmp_path):
        grid, arr, inj, _truth = self.setup_hurt_grid(tmp_path)
        budget_ms = 60.0
        t0 = time.perf_counter()
        with pytest.raises(DeadlineExceededError) as ei:
            arr.subsample(WINDOW, deadline=Deadline.after_ms(budget_ms))
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        assert ei.value.budget_ms == budget_ms
        assert elapsed_ms < budget_ms + 500.0

    def test_no_deadline_still_answers_exactly(self, tmp_path):
        # Control: without a deadline the same hurt grid answers in full
        # (slow is not dead), it just takes its time.
        grid, arr, inj, truth = self.setup_hurt_grid(tmp_path)
        inj.set_slow_reads(1, 5.0)  # keep the control round quick
        got = {c: cell.flux for c, cell in arr.scan()}
        assert got == pytest.approx(truth)
