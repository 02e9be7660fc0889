"""Byte-level pins of recorded event streams.

Each traced run below is pinned by the BLAKE2b digest (16 bytes) of its
JSONL rendering and by its event count, so any change to which events the
gateway emits, their order or their fields fails here.  Together with the
two chaos co-run traces (``tests/test_chaos_corun_golden.py``) the pinned
runs emit every registered event type, so every emission path is covered
by a digest:

- the ``llm`` pack's smiless ``llm-chat`` cell (token-stage split);
- the ``gpu-swap`` pack's smiless ``image-query-swap`` cell (swap-ins);
- two always-on GPU tenants of ``image-query-swap`` sharing a 4 GB host
  residency cache, so each tenant's admissions evict the other's models.
"""

import collections
import hashlib

import pytest

from repro.dag.apps import image_query_swap
from repro.dag.graph import AppDAG
from repro.experiments.packs import pack_spec
from repro.experiments.parallel import cell_simulator
from repro.hardware.configs import HardwareConfig
from repro.policies.base import AlwaysOnPolicy
from repro.simulator.cluster import ModelResidencyCache
from repro.simulator.runtime import Runtime
from repro.telemetry.events import EVENT_TYPES
from repro.telemetry.recorder import TraceRecorder, write_jsonl
from repro.workload.generator import constant_rate_process

TRACE_GOLDEN = {
    "llm-chat": ("b3d521b8aa3d5cb7a0788d44091dc719", 1017),
    "image-query-swap": ("05500d8d57d7714161fdbbf4838dc5d5", 1848),
    "eviction": ("0cf307289838e0400e5aaadeb36fa1e1", 3713),
}


def trace_digest(events, tmp_path) -> str:
    """BLAKE2b-128 hex digest of the events' JSONL rendering."""
    path = tmp_path / "trace.jsonl"
    write_jsonl(events, path)
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


def _pack_cell_trace(pack: str, app: str) -> list:
    cell = next(
        c
        for c in pack_spec(pack).cells()
        if c.policy == "smiless" and c.envs[0].app == app
    )
    recorder = TraceRecorder()
    _, sim = cell_simulator(cell, recorder=recorder)
    sim.run()
    return recorder.events


def _eviction_trace() -> list:
    recorder = TraceRecorder()
    rt = Runtime(recorder=recorder)
    rt.residency = ModelResidencyCache(capacity_gb=4.0)
    app = image_query_swap()
    twin = AppDAG(
        "image-query-swap-b", app.specs, tuple(app.graph.edges), sla=app.sla
    )
    for i, (tenant, seed) in enumerate(((app, 3), (twin, 4))):
        rt.add_app(
            tenant,
            constant_rate_process(0.5, 60.0, offset=1.0 + i),
            AlwaysOnPolicy(config=HardwareConfig.gpu(0.5)),
            seed=seed,
        )
    rt.run()
    return recorder.events


@pytest.fixture(scope="module")
def traces():
    return {
        "llm-chat": _pack_cell_trace("llm", "llm-chat"),
        "image-query-swap": _pack_cell_trace("gpu-swap", "image-query-swap"),
        "eviction": _eviction_trace(),
    }


@pytest.mark.parametrize("run", sorted(TRACE_GOLDEN))
def test_trace_digest(traces, run, tmp_path):
    digest, n_events = TRACE_GOLDEN[run]
    events = traces[run]
    assert len(events) == n_events
    assert trace_digest(events, tmp_path) == digest


def test_eviction_run_evicts_and_swaps(traces):
    types = collections.Counter(e.type for e in traces["eviction"])
    assert types["model_evicted"] == 15
    assert types["instance_swapped_in"] == 24


def test_pinned_traces_emit_every_event_type(traces):
    from tests.test_chaos_corun_golden import chaos_trace

    emitted = {e.type for events in traces.values() for e in events}
    for policy in ("grandslam", "smiless"):
        emitted |= {e.type for e in chaos_trace(policy)[2]}
    assert emitted == set(EVENT_TYPES)
