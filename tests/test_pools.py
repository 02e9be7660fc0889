"""Unit tests for the state-indexed instance pools."""

import pytest

from repro.hardware import HardwareConfig
from repro.simulator import Cluster, InstancePool, Instance, InstanceState

CPU2 = HardwareConfig.cpu(2)
CPU4 = HardwareConfig.cpu(4)
GPU = HardwareConfig.gpu(0.5)


def make_instance(config=CPU2, cluster=None):
    cluster = cluster or Cluster.build(n_machines=1)
    placement = cluster.try_allocate(config)
    assert placement is not None
    return Instance(
        function="f",
        config=config,
        placement=placement,
        launched_at=0.0,
        init_duration=1.0,
    )


def warm(inst, now=1.0):
    inst.mark_warm(now)
    return inst


class TestLifecycleIndexing:
    def test_add_requires_initializing(self):
        pool = InstancePool()
        inst = warm(make_instance())
        with pytest.raises(ValueError):
            pool.add(inst)

    def test_counts_follow_transitions(self):
        pool = InstancePool()
        cluster = Cluster.build(n_machines=1)
        inst = make_instance(cluster=cluster)
        pool.add(inst)
        assert pool.initializing_count() == 1
        assert pool.live_count() == 1
        assert pool.idle_count() == 0

        warm(inst)
        pool.transition(inst, InstanceState.INITIALIZING)
        assert pool.initializing_count() == 0
        assert pool.idle_count() == 1
        assert pool.warm_count() == 1

        inst.mark_busy(2.0, batch=1)
        pool.transition(inst, InstanceState.IDLE)
        assert pool.idle_count() == 0
        assert pool.warm_count() == 1

        inst.mark_idle(3.0, busy_time=1.0)
        pool.transition(inst, InstanceState.BUSY)
        assert pool.idle_count() == 1

        prev = inst.state
        inst.mark_terminated(4.0)
        pool.remove(inst, prev)
        assert pool.live_count() == 0
        assert len(pool) == 0

    def test_per_config_counts(self):
        pool = InstancePool()
        cluster = Cluster.build(n_machines=1)
        a = make_instance(CPU2, cluster)
        b = make_instance(CPU4, cluster)
        pool.add(a)
        pool.add(b)
        assert pool.live_count(CPU2) == 1
        assert pool.live_count(CPU4) == 1
        assert pool.live_count(GPU) == 0
        assert pool.uncommitted_count(CPU2) == 1
        assert pool.uncommitted_count() == 2

    def test_backend_live_counts(self):
        pool = InstancePool()
        cluster = Cluster.build(n_machines=1)
        pool.add(make_instance(CPU2, cluster))
        pool.add(make_instance(GPU, cluster))
        assert pool.backend_live_counts() == (1, 1)


class TestPickOrder:
    def make_idle_fleet(self, configs):
        pool = InstancePool()
        cluster = Cluster.build(n_machines=2)
        fleet = []
        for cfg in configs:
            inst = make_instance(cfg, cluster)
            pool.add(inst)
            warm(inst)
            pool.transition(inst, InstanceState.INITIALIZING)
            fleet.append(inst)
        return pool, fleet

    def test_prefers_matching_config_in_launch_order(self):
        pool, fleet = self.make_idle_fleet([CPU4, CPU2, CPU2])
        assert pool.pick_idle(CPU2) is fleet[1]

    def test_falls_back_to_oldest_any_config(self):
        pool, fleet = self.make_idle_fleet([CPU4, CPU4])
        assert pool.pick_idle(CPU2) is fleet[0]

    def test_pick_none_when_no_idle(self):
        pool = InstancePool()
        assert pool.pick_idle(CPU2) is None

    def test_rebusied_instance_keeps_fifo_rank(self):
        """An instance cycling busy->idle is picked by id, not re-insertion."""
        pool, fleet = self.make_idle_fleet([CPU2, CPU2])
        first, second = fleet
        first.mark_busy(2.0, batch=1)
        pool.transition(first, InstanceState.IDLE)
        first.mark_idle(3.0, busy_time=1.0)
        pool.transition(first, InstanceState.BUSY)
        # first went idle *after* second, but has the lower id
        assert pool.pick_idle(CPU2) is first

    def test_idle_sorted_ascending_ids(self):
        pool, fleet = self.make_idle_fleet([CPU2, CPU4, CPU2])
        assert pool.idle_sorted() == fleet
        assert pool.idle_sorted(config=CPU2) == [fleet[0], fleet[2]]

    def test_iteration_in_launch_order(self):
        pool, fleet = self.make_idle_fleet([CPU2, CPU4])
        assert list(pool) == fleet


class TestRecountProperty:
    """Seeded random lifecycles: every query equals a brute-force recount.

    Random add / warm / busy / idle / terminate sequences over CPU and GPU
    configurations, terminating from every live state.  After each
    operation, each pool query is checked against a recount over
    ``iter(pool)``, so the incremental counters can never drift from the
    instances they index.
    """

    CONFIGS = (CPU2, CPU4, GPU, HardwareConfig.gpu(0.3))

    @staticmethod
    def assert_consistent(pool, configs):
        live = list(pool)
        assert [i.instance_id for i in live] == sorted(
            i.instance_id for i in live
        )
        assert all(i.is_live for i in live)
        idle = [i for i in live if i.state is InstanceState.IDLE]
        init = [i for i in live if i.state is InstanceState.INITIALIZING]
        busy = [i for i in live if i.state is InstanceState.BUSY]

        assert len(pool) == pool.live_count() == len(live)
        assert pool.idle_count() == len(idle)
        assert pool.initializing_count() == len(init)
        assert pool.warm_count() == len(idle) + len(busy)
        assert pool.uncommitted_count() == len(init) + len(idle)
        assert pool.idle_sorted() == idle
        gpu = sum(1 for i in live if i.config.backend.value == "gpu")
        assert pool.backend_live_counts() == (len(live) - gpu, gpu)
        for cfg in configs:
            mine = [i for i in live if i.config == cfg]
            mine_idle = [i for i in idle if i.config == cfg]
            assert pool.live_count(cfg) == len(mine)
            assert pool.warm_count(cfg) == sum(
                1 for i in mine if i.state is not InstanceState.INITIALIZING
            )
            assert pool.uncommitted_count(cfg) == sum(
                1 for i in mine if i.state is not InstanceState.BUSY
            )
            assert pool.idle_sorted(config=cfg) == mine_idle
            expected = mine_idle[0] if mine_idle else (idle[0] if idle else None)
            assert pool.pick_idle(cfg) is expected

    @pytest.mark.parametrize("seed", range(6))
    def test_queries_match_recount(self, seed):
        import random

        rng = random.Random(seed)
        cluster = Cluster.build(n_machines=64)
        pool = InstancePool()
        live = []
        terminated_from = set()
        for step in range(400):
            op = rng.random()
            if op < 0.3 or not live:
                cfg = rng.choice(self.CONFIGS)
                placement = cluster.try_allocate(cfg)
                if placement is None:
                    continue
                inst = Instance(
                    function="f",
                    config=cfg,
                    placement=placement,
                    launched_at=float(step),
                    init_duration=1.0,
                )
                pool.add(inst)
                live.append(inst)
            else:
                inst = rng.choice(live)
                prev = inst.state
                if op < 0.8:
                    if prev is InstanceState.INITIALIZING:
                        inst.mark_warm(float(step))
                    elif prev is InstanceState.IDLE:
                        inst.mark_busy(float(step), batch=1)
                    else:
                        inst.mark_idle(float(step), busy_time=0.5)
                    pool.transition(inst, prev)
                else:
                    inst.mark_terminated(float(step))
                    pool.remove(inst, prev)
                    cluster.release(inst.placement)
                    live.remove(inst)
                    terminated_from.add(prev)
            self.assert_consistent(pool, self.CONFIGS)
        assert terminated_from == {
            InstanceState.INITIALIZING,
            InstanceState.IDLE,
            InstanceState.BUSY,
        }
