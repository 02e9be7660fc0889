"""Tests for the hardware configuration space and pricing model."""

import base64
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.hardware import (
    CPU_CORE_OPTIONS,
    CPU_CORE_PRICE_PER_HOUR,
    GPU_FRACTION_OPTIONS,
    GPU_PRICE_PER_HOUR,
    Backend,
    ConfigurationSpace,
    HardwareConfig,
)


class TestHardwareConfig:
    def test_cpu_constructor_validates_cores(self):
        with pytest.raises(ValueError):
            HardwareConfig.cpu(3)

    def test_gpu_constructor_validates_fraction_range(self):
        with pytest.raises(ValueError):
            HardwareConfig.gpu(0.05)
        with pytest.raises(ValueError):
            HardwareConfig.gpu(1.1)

    def test_gpu_fraction_must_be_on_mps_grid(self):
        with pytest.raises(ValueError):
            HardwareConfig.gpu(0.25)

    def test_cpu_cannot_carry_gpu_fraction(self):
        with pytest.raises(ValueError):
            HardwareConfig(Backend.CPU, cpu_cores=4, gpu_fraction=0.1)

    def test_gpu_cannot_carry_cores(self):
        with pytest.raises(ValueError):
            HardwareConfig(Backend.GPU, cpu_cores=2, gpu_fraction=0.2)

    def test_cpu_pricing_matches_paper(self):
        # x cores cost x * $0.034/hour (§VII-A)
        for cores in CPU_CORE_OPTIONS:
            cfg = HardwareConfig.cpu(cores)
            assert cfg.unit_cost_per_hour == pytest.approx(cores * 0.034)

    def test_gpu_pricing_matches_paper(self):
        # 10% of a GPU costs 10% of $3.06/hour (§VII-A)
        cfg = HardwareConfig.gpu(0.1)
        assert cfg.unit_cost_per_hour == pytest.approx(0.306)
        assert HardwareConfig.gpu(1.0).unit_cost_per_hour == pytest.approx(3.06)

    def test_unit_cost_is_per_second(self):
        cfg = HardwareConfig.cpu(1)
        assert cfg.unit_cost == pytest.approx(CPU_CORE_PRICE_PER_HOUR / 3600)

    def test_gpu_unit_price_ratio(self):
        # a full GPU is 90x one CPU core and ~5.6x a 16-core CPU
        gpu = HardwareConfig.gpu(1.0)
        cpu1 = HardwareConfig.cpu(1)
        assert gpu.unit_cost / cpu1.unit_cost == pytest.approx(
            GPU_PRICE_PER_HOUR / CPU_CORE_PRICE_PER_HOUR
        )

    def test_key_roundtrip(self):
        for cfg in (HardwareConfig.cpu(8), HardwareConfig.gpu(0.3)):
            assert HardwareConfig.from_key(cfg.key) == cfg

    def test_from_key_rejects_garbage(self):
        with pytest.raises(ValueError):
            HardwareConfig.from_key("tpu-1")

    def test_ordering_is_by_unit_cost(self):
        configs = sorted(
            [HardwareConfig.gpu(0.1), HardwareConfig.cpu(16), HardwareConfig.cpu(1)]
        )
        assert configs[0] == HardwareConfig.cpu(1)
        assert configs[-1] == HardwareConfig.cpu(16)

    def test_mps_slots(self):
        assert HardwareConfig.gpu(0.3).mps_slots == 3
        assert HardwareConfig.gpu(1.0).mps_slots == 10
        assert HardwareConfig.cpu(4).mps_slots == 0

    def test_hashable_and_equal(self):
        assert HardwareConfig.cpu(4) == HardwareConfig.cpu(4)
        assert len({HardwareConfig.cpu(4), HardwareConfig.cpu(4)}) == 1

    @pytest.mark.parametrize("hash_seed", ["0", "1"])
    def test_pickled_config_keys_survive_another_hash_seed(self, hash_seed):
        """Configs cache their hash and travel pickled into grid and shard
        workers, so the hash must not depend on ``PYTHONHASHSEED``: in a
        process with another seed, fresh configs must find the unpickled
        dict's entries and hash to the same values."""
        table = {HardwareConfig.cpu(4): "cpu", HardwareConfig.gpu(0.3): "gpu"}
        blob = base64.b64encode(pickle.dumps(table)).decode()
        code = f"""\
import base64, pickle
from repro.hardware import HardwareConfig
table = pickle.loads(base64.b64decode({blob!r}))
cpu, gpu = HardwareConfig.cpu(4), HardwareConfig.gpu(0.3)
assert table[cpu] == "cpu" and table[gpu] == "gpu", table
print(hash(cpu), hash(gpu), *(hash(k) for k in table))
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        here = [hash(HardwareConfig.cpu(4)), hash(HardwareConfig.gpu(0.3))]
        assert [int(h) for h in proc.stdout.split()] == here * 2


class TestConfigurationSpace:
    def test_default_space_has_15_points(self):
        space = ConfigurationSpace.default()
        assert len(space) == len(CPU_CORE_OPTIONS) + len(GPU_FRACTION_OPTIONS)

    def test_configs_sorted_cheapest_first(self):
        space = ConfigurationSpace.default()
        costs = [c.unit_cost for c in space.configs]
        assert costs == sorted(costs)

    def test_cheapest_and_most_expensive(self):
        space = ConfigurationSpace.default()
        assert space.cheapest() == HardwareConfig.cpu(1)
        assert space.most_expensive() == HardwareConfig.gpu(1.0)

    def test_cpu_only_space(self):
        space = ConfigurationSpace.cpu_only()
        assert all(c.backend is Backend.CPU for c in space)
        assert len(space) == len(CPU_CORE_OPTIONS)

    def test_contains(self):
        space = ConfigurationSpace.cpu_only()
        assert HardwareConfig.cpu(2) in space
        assert HardwareConfig.gpu(0.2) not in space

    def test_backend_partitions(self):
        space = ConfigurationSpace.default()
        cpus, gpus = space.cpu_configs(), space.gpu_configs()
        assert len(cpus) + len(gpus) == len(space)
        assert all(c.backend is Backend.CPU for c in cpus)
        assert all(c.backend is Backend.GPU for c in gpus)

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            ConfigurationSpace(cpu_cores=(), gpu_fractions=())
