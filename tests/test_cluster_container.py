"""Tests for the cluster capacity model and the container lifecycle."""

import pytest

from repro.hardware import HardwareConfig
from repro.simulator import Cluster, Instance, InstanceState, Machine, Placement


class TestMachine:
    def test_cpu_allocation(self):
        m = Machine(0, cores_total=8, gpu_slots_total=10)
        cfg = HardwareConfig.cpu(4)
        assert m.can_fit(cfg)
        m.allocate(cfg)
        assert m.cores_used == 4
        assert m.can_fit(cfg)
        m.allocate(cfg)
        assert not m.can_fit(cfg)

    def test_gpu_allocation_in_mps_slots(self):
        m = Machine(0, cores_total=8, gpu_slots_total=10)
        m.allocate(HardwareConfig.gpu(0.7))
        assert m.gpu_slots_used == 7
        assert m.can_fit(HardwareConfig.gpu(0.3))
        assert not m.can_fit(HardwareConfig.gpu(0.4))

    def test_release_restores_capacity(self):
        m = Machine(0, cores_total=8)
        cfg = HardwareConfig.cpu(8)
        m.allocate(cfg)
        m.release(cfg)
        assert m.cores_used == 0
        assert m.can_fit(cfg)

    def test_overallocation_raises(self):
        m = Machine(0, cores_total=2)
        with pytest.raises(RuntimeError):
            m.allocate(HardwareConfig.cpu(4))

    def test_release_underflow_raises(self):
        m = Machine(0)
        with pytest.raises(RuntimeError):
            m.release(HardwareConfig.cpu(4))


class TestCluster:
    def test_paper_default_dimensions(self):
        c = Cluster.build()
        assert len(c.machines) == 8
        assert c.cores_total() == 8 * 104
        assert c.gpu_slots_total() == 8 * 10

    def test_first_fit_spills_to_next_machine(self):
        c = Cluster.build(n_machines=2, cores_per_machine=16)
        placements = [c.try_allocate(HardwareConfig.cpu(16)) for _ in range(2)]
        assert placements[0].machine == 0
        assert placements[1].machine == 1
        assert c.try_allocate(HardwareConfig.cpu(16)) is None

    def test_release(self):
        c = Cluster.build(n_machines=1, cores_per_machine=4)
        p = c.try_allocate(HardwareConfig.cpu(4))
        assert c.try_allocate(HardwareConfig.cpu(1)) is None
        c.release(p)
        assert c.cores_used() == 0
        assert c.try_allocate(HardwareConfig.cpu(4)) is not None

    def test_gpu_capacity_independent_of_cpu(self):
        c = Cluster.build(n_machines=1, cores_per_machine=4, gpu_slots_per_machine=10)
        assert c.try_allocate(HardwareConfig.cpu(4)) is not None
        assert c.try_allocate(HardwareConfig.gpu(1.0)) is not None
        assert c.gpu_slots_used() == 10
        assert c.cores_used() == 4


class TestInstanceLifecycle:
    def make(self, config=None, launched=10.0, init=2.0):
        cfg = config or HardwareConfig.cpu(4)
        return Instance(
            function="f",
            config=cfg,
            placement=Placement(machine=0, config=cfg),
            launched_at=launched,
            init_duration=init,
        )

    def test_initial_state(self):
        inst = self.make()
        assert inst.state is InstanceState.INITIALIZING
        assert inst.warm_at == 12.0
        assert inst.is_live

    def test_full_lifecycle(self):
        inst = self.make()
        inst.mark_warm(12.0)
        assert inst.state is InstanceState.IDLE
        inst.mark_busy(13.0, batch=2)
        assert inst.state is InstanceState.BUSY
        inst.mark_idle(14.0, busy_time=1.0)
        assert inst.state is InstanceState.IDLE
        inst.mark_terminated(20.0)
        assert not inst.is_live
        assert inst.invocations_served == 2
        assert inst.batches_served == 1

    def test_invalid_transitions(self):
        inst = self.make()
        with pytest.raises(RuntimeError):
            inst.mark_busy(11.0, 1)  # still initializing
        inst.mark_warm(12.0)
        with pytest.raises(RuntimeError):
            inst.mark_warm(13.0)  # warmed twice
        with pytest.raises(RuntimeError):
            inst.mark_idle(13.0, 1.0)  # not busy
        inst.mark_terminated(14.0)
        with pytest.raises(RuntimeError):
            inst.mark_terminated(15.0)


class TestInstanceBilling:
    def make(self):
        cfg = HardwareConfig.cpu(1)
        return Instance(
            function="f",
            config=cfg,
            placement=Placement(0, cfg),
            launched_at=0.0,
            init_duration=2.0,
        )

    def test_cost_is_lifetime_times_unit_cost(self):
        inst = self.make()
        inst.mark_terminated(100.0)
        assert inst.cost() == pytest.approx(100.0 * HardwareConfig.cpu(1).unit_cost)

    def test_live_instance_requires_now(self):
        inst = self.make()
        with pytest.raises(ValueError):
            inst.lifetime()
        assert inst.lifetime(now=5.0) == 5.0

    def test_time_split(self):
        inst = self.make()
        inst.mark_warm(2.0)
        inst.mark_busy(5.0, 1)
        inst.mark_idle(8.0, 3.0)
        inst.mark_terminated(10.0)
        assert inst.init_seconds() == pytest.approx(2.0)
        assert inst.busy_seconds == pytest.approx(3.0)
        assert inst.idle_seconds() == pytest.approx(5.0)
        assert (
            inst.init_seconds() + inst.busy_seconds + inst.idle_seconds()
        ) == pytest.approx(inst.lifetime())

    def test_init_seconds_capped_by_lifetime(self):
        inst = self.make()
        inst.mark_terminated(1.0)  # killed mid-initialization
        assert inst.init_seconds() == pytest.approx(1.0)
        assert inst.idle_seconds() == pytest.approx(0.0)
