"""Engine-level tests for the hot-path behaviors: pending-launch retries
across functions and event-heap boundedness on long traces."""

import numpy as np

from repro.dag import linear_pipeline
from repro.hardware import HardwareConfig
from repro.policies import AlwaysOnPolicy
from repro.simulator import Cluster, Runtime
from repro.workload import Trace


class TestRetryPendingLaunches:
    def test_one_blocked_function_does_not_starve_others(self):
        """Regression: the retry pass used to stop at the first function
        whose pending configuration did not fit, never reaching other
        functions' smaller pending launches."""
        cluster = Cluster.build(n_machines=1, cores_per_machine=8)
        app = linear_pipeline(2, models=("IR", "DB"))
        rt = Runtime(cluster=cluster)
        gw = rt.add_app(
            app,
            Trace([50.0], duration=60.0),
            AlwaysOnPolicy(HardwareConfig.cpu(2)),
            seed=0,
        )
        rt.setup()
        # The gateway's function-indexed lists, in topological order.
        blocked, small = (gw.fn_index[f] for f in app.function_names)

        hold_big = cluster.try_allocate(HardwareConfig.cpu(4))
        hold_small = cluster.try_allocate(HardwareConfig.cpu(2))
        assert hold_big is not None and hold_small is not None

        gw.pending_launches[blocked].append(HardwareConfig.cpu(8))
        gw.pending_launches[small].append(HardwareConfig.cpu(2))

        # Free 2 cores: the first function's cpu(8) launch still cannot
        # fit, but the second function's cpu(2) launch now can.
        cluster.release(hold_small)
        gw.retry_pending_launches()

        assert list(gw.pending_launches[blocked]) == [HardwareConfig.cpu(8)]
        assert not gw.pending_launches[small]
        assert gw.pools[small].initializing_count() == 1

    def test_multiple_pending_same_function_drain_in_order(self):
        cluster = Cluster.build(n_machines=1, cores_per_machine=8)
        app = linear_pipeline(1, models=("IR",))
        rt = Runtime(cluster=cluster)
        gw = rt.add_app(
            app,
            Trace([50.0], duration=60.0),
            AlwaysOnPolicy(HardwareConfig.cpu(2)),
            seed=0,
        )
        rt.setup()
        fi = gw.fn_index[app.function_names[0]]
        hold = cluster.try_allocate(HardwareConfig.cpu(8))
        gw.pending_launches[fi].extend(
            [HardwareConfig.cpu(2), HardwareConfig.cpu(2), HardwareConfig.cpu(8)]
        )
        cluster.release(hold)
        gw.retry_pending_launches()
        # Both cpu(2) launches fit (4 of 8 cores); the cpu(8) head remains.
        assert list(gw.pending_launches[fi]) == [HardwareConfig.cpu(8)]
        assert gw.pools[fi].initializing_count() == 2


class TestHeapBoundedness:
    def test_heap_stays_o_live_events_on_10k_invocation_trace(self):
        """With streamed arrivals the heap holds the *next* arrival and
        tick plus in-flight work — not the entire 10k-event trace."""
        times = (np.arange(10_000) * 0.05 + 0.01).tolist()
        trace = Trace(times, duration=510.0)
        app = linear_pipeline(1, models=("IR",))
        rt = Runtime()
        gw = rt.add_app(app, trace, AlwaysOnPolicy(HardwareConfig.cpu(16)), seed=0)
        rt.setup()
        assert rt.events.heap_size < 10, "arrivals must not be pre-pushed"
        max_heap = rt.events.heap_size
        while rt.events.step():
            max_heap = max(max_heap, rt.events.heap_size)
        metrics = gw.finalize()
        assert metrics.unfinished == 0
        assert len(metrics.invocations) == 10_000
        # Far below the 10k pre-pushed arrivals the old engine held; the
        # bound covers live instances' events plus the two stream heads.
        assert max_heap < 500
        assert rt.events.processed >= 20_000
