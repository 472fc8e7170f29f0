"""Tests for the event-driven work-stealing simulator."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DiffusivePolicy, HybridPolicy, RandKPolicy
from repro.runtime import ClusterTopology, WorkStealingSimulator, run_static_phase


def _uniform_executor(cost=10.0):
    return lambda task, pe: cost


class TestStaticExecution:
    def test_balanced_static(self):
        topo = ClusterTopology(4, cores_per_node=2)
        assignment = {t: t % 4 for t in range(16)}
        res = run_static_phase(topo, _uniform_executor(5.0), assignment)
        assert res.makespan == pytest.approx(20.0)
        assert res.total_work() == pytest.approx(80.0)
        assert res.efficiency() == pytest.approx(1.0)

    def test_imbalanced_static_makespan(self):
        topo = ClusterTopology(4)
        assignment = {t: 0 for t in range(8)}  # everything on PE 0
        res = run_static_phase(topo, _uniform_executor(3.0), assignment)
        assert res.makespan == pytest.approx(24.0)
        assert res.pe_stats[0].tasks_executed == 8
        assert res.pe_stats[1].tasks_executed == 0

    def test_executed_by_matches_assignment(self):
        topo = ClusterTopology(3)
        assignment = {t: t % 3 for t in range(9)}
        res = run_static_phase(topo, _uniform_executor(), assignment)
        assert res.executed_by == assignment

    def test_empty_assignment(self):
        topo = ClusterTopology(2)
        res = run_static_phase(topo, _uniform_executor(), {})
        assert res.makespan == 0.0

    def test_invalid_pe_rejected(self):
        topo = ClusterTopology(2)
        with pytest.raises(ValueError):
            run_static_phase(topo, _uniform_executor(), {0: 5})

    def test_negative_cost_rejected(self):
        topo = ClusterTopology(1)
        sim = WorkStealingSimulator(topo, lambda t, p: -1.0)
        with pytest.raises(ValueError):
            sim.run({0: 0})


class TestWorkStealing:
    def _run(self, policy, P=8, tasks_on_pe0=64, cost=10.0, **kw):
        topo = ClusterTopology(P, cores_per_node=4)
        sim = WorkStealingSimulator(
            topo, _uniform_executor(cost), steal_policy=policy,
            rng=np.random.default_rng(0), **kw
        )
        return sim.run({t: 0 for t in range(tasks_on_pe0)})

    def test_stealing_reduces_makespan(self):
        static = run_static_phase(
            ClusterTopology(8, cores_per_node=4), _uniform_executor(10.0),
            {t: 0 for t in range(64)},
        )
        stolen = self._run(RandKPolicy(4))
        assert stolen.makespan < static.makespan
        # Should be within a small factor of perfect balance (steal
        # latency, transfer cost and non-preemptive service all add up).
        assert stolen.makespan < 3.0 * (64 * 10.0 / 8)

    def test_all_tasks_execute_exactly_once(self):
        res = self._run(HybridPolicy())
        assert len(res.executed_by) == 64
        assert sum(s.tasks_executed for s in res.pe_stats) == 64

    def test_stolen_marks_consistent(self):
        res = self._run(RandKPolicy(4))
        for st in res.pe_stats:
            assert st.tasks_stolen_executed <= st.tasks_executed
        # Tasks left PE 0:
        assert res.pe_stats[0].tasks_lost > 0
        lost = sum(s.tasks_lost for s in res.pe_stats)
        stolen_exec = sum(s.tasks_stolen_executed for s in res.pe_stats)
        assert stolen_exec <= lost  # some stolen tasks may be re-stolen

    def test_work_conserved(self):
        res = self._run(DiffusivePolicy())
        assert res.total_work() == pytest.approx(64 * 10.0)

    def test_deterministic_given_seed(self):
        a = self._run(RandKPolicy(4))
        b = self._run(RandKPolicy(4))
        assert a.makespan == b.makespan
        assert a.executed_by == b.executed_by

    def test_chunk_one_slower_than_half(self):
        half = self._run(RandKPolicy(4), steal_chunk="half")
        one = self._run(RandKPolicy(4), steal_chunk=1)
        assert one.total_messages >= half.total_messages

    def test_min_keep_respected(self):
        res = self._run(RandKPolicy(4), min_keep=8, tasks_on_pe0=16)
        # Victim must keep at least 8 queued; at most 16-8 stolen overall
        # in the first service, so PE 0 executes at least 8.
        assert res.pe_stats[0].tasks_executed >= 8

    def test_single_pe_never_steals(self):
        topo = ClusterTopology(1)
        sim = WorkStealingSimulator(topo, _uniform_executor(), steal_policy=RandKPolicy(4))
        res = sim.run({t: 0 for t in range(5)})
        assert res.total_messages == 0
        assert res.makespan == pytest.approx(50.0)

    def test_offload_service_at_least_as_fast(self):
        slow = self._run(RandKPolicy(4), offload_service=False)
        fast = self._run(RandKPolicy(4), offload_service=True)
        assert fast.makespan <= slow.makespan + 1e-9

    def test_invalid_parameters(self):
        topo = ClusterTopology(2)
        with pytest.raises(ValueError):
            WorkStealingSimulator(topo, _uniform_executor(), steal_chunk=0)
        with pytest.raises(ValueError):
            WorkStealingSimulator(topo, _uniform_executor(), min_keep=-1)


class TestHeterogeneousCosts:
    def test_makespan_at_least_heaviest_task(self, rng):
        topo = ClusterTopology(8, cores_per_node=4)
        costs = {t: float(c) for t, c in enumerate(rng.uniform(1, 100, 40))}
        sim = WorkStealingSimulator(
            topo, lambda t, p: costs[t], steal_policy=HybridPolicy(),
            rng=np.random.default_rng(1),
        )
        res = sim.run({t: t % 2 for t in costs})
        assert res.makespan >= max(costs.values())
        assert res.total_work() == pytest.approx(sum(costs.values()))


def _run_invariants(seed, P, n_tasks, topo, transfer_cost):
    rng = np.random.default_rng(seed)
    costs = rng.uniform(1, 20, n_tasks)
    assignment = {t: int(rng.integers(0, P)) for t in range(n_tasks)}
    sim = WorkStealingSimulator(
        topo, lambda t, p: float(costs[t]), steal_policy=RandKPolicy(3),
        transfer_cost=transfer_cost, rng=np.random.default_rng(seed + 1),
    )
    res = sim.run(assignment)
    assert sorted(res.executed_by) == list(range(n_tasks))
    total = float(costs.sum())
    assert res.makespan >= total / P - 1e-9  # cannot beat perfect balance
    assert res.total_work() == pytest.approx(total)
    return res, total


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    P=st.integers(2, 12),
    n_tasks=st.integers(1, 60),
)
@example(seed=72, P=2, n_tasks=3)
def test_simulation_invariants_property(seed, P, n_tasks):
    """Property: every task executes once; makespan bounds hold.

    Upper bound: at every instant before the makespan some task is
    unfinished, and an unfinished task is running, queued on a PE that is
    running another (a live PE never idles with a non-empty deque), or
    inside a steal transfer.  So the makespan is at most the total
    execution time plus the total time transfers spend in flight.  A
    serviced steal of ``n`` tasks is in flight ``latency(victim, thief,
    n) + transfer_cost * n``, which is at most ``latency_remote +
    (bandwidth_cost + transfer_cost) * n``.  Ownership transfer is not
    free (Sec. II-A), so a thief can finish a stolen task later than its
    victim would have, and the serial sum alone is not a bound: seed 72
    on 2 PEs hands a 5.4-cost task over at t=16.92 and it lands at 19.97.
    With zero latency and a free transfer the serial bound is exact.
    """
    topo = ClusterTopology(P, cores_per_node=4)
    res, total = _run_invariants(seed, P, n_tasks, topo, transfer_cost=2.0)
    steals = sum(s.steals_serviced for s in res.pe_stats)
    moved = sum(s.tasks_lost for s in res.pe_stats)
    in_flight = steals * topo.latency_remote + (topo.bandwidth_cost + 2.0) * moved
    assert res.makespan <= total + in_flight + 1e-9

    free = ClusterTopology(
        P, cores_per_node=4, latency_local=0.0, latency_remote=0.0, bandwidth_cost=0.0
    )
    res, total = _run_invariants(seed, P, n_tasks, free, transfer_cost=0.0)
    assert res.makespan <= total + 1e-9  # cannot be worse than serial
