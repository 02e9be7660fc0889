"""Tests for timer cancellation, lazy deletion and sequence reservation."""

import pytest

from repro.simulator import EventQueue
from repro.simulator.events import COMPACT_MIN_DEAD


class TestTimerCancellation:
    def test_cancelled_timer_never_fires(self):
        q = EventQueue()
        fired = []
        handle = q.schedule(1.0, lambda: fired.append("cancelled"))
        q.schedule(2.0, lambda: fired.append("kept"))
        assert handle.cancel() is True
        q.run()
        assert fired == ["kept"]

    def test_cancel_reports_pending_state(self):
        q = EventQueue()
        handle = q.schedule(1.0, lambda: None)
        assert handle.active
        assert handle.cancel() is True
        assert not handle.active

    def test_double_cancel_is_noop(self):
        q = EventQueue()
        handle = q.schedule(1.0, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False
        assert len(q) == 0

    def test_cancel_after_fire_is_noop(self):
        q = EventQueue()
        handle = q.schedule(1.0, lambda: None)
        q.run()
        assert not handle.active
        assert handle.cancel() is False

    def test_len_counts_live_events_only(self):
        q = EventQueue()
        handles = [q.schedule(float(i), lambda: None) for i in range(1, 6)]
        handles[0].cancel()
        handles[3].cancel()
        assert len(q) == 3
        assert q.heap_size >= 3

    def test_cancelled_head_skipped_by_run_until(self):
        q = EventQueue()
        fired = []
        head = q.schedule(1.0, lambda: fired.append("head"))
        q.schedule(2.0, lambda: fired.append("tail"))
        head.cancel()
        q.run_until(5.0)
        assert fired == ["tail"]
        assert q.now == 5.0

    def test_interleaved_cancel_preserves_order(self):
        q = EventQueue()
        fired = []
        handles = {}
        for tag in "abcdef":
            handles[tag] = q.schedule(1.0, lambda t=tag: fired.append(t))
        handles["b"].cancel()
        handles["e"].cancel()
        q.run()
        assert fired == ["a", "c", "d", "f"]


class TestHeapCompaction:
    def test_compaction_triggers_when_dead_dominate(self):
        q = EventQueue()
        keep = [q.schedule(100.0 + i, lambda: None) for i in range(4)]
        doomed = [
            q.schedule(50.0 + i, lambda: None)
            for i in range(2 * COMPACT_MIN_DEAD)
        ]
        for h in doomed:
            h.cancel()
        assert q.compactions >= 1
        # Compaction swept the majority-dead heap; lazy deletion may leave
        # a sub-threshold remainder of dead entries behind.
        assert q.heap_size < len(keep) + len(doomed)
        assert len(q) == len(keep)

    def test_no_compaction_below_dead_floor(self):
        q = EventQueue()
        for i in range(4):
            q.schedule(float(i + 1), lambda: None)
        q.schedule(99.0, lambda: None).cancel()  # 1 dead of 5: majority-dead
        assert q.compactions == 0

    def test_queue_correct_after_compaction(self):
        q = EventQueue()
        fired = []
        q.schedule(10.0, lambda: fired.append("late"))
        doomed = [
            q.schedule(1.0 + i, lambda: fired.append("dead"))
            for i in range(2 * COMPACT_MIN_DEAD)
        ]
        q.schedule(5.0, lambda: fired.append("mid"))
        for h in doomed:
            h.cancel()
        q.run()
        assert fired == ["mid", "late"]

    def test_compaction_inside_run_until_fires_each_event_once(self):
        """A handler whose cancels compact the heap mid-run: events pushed
        afterwards still fire, each exactly once."""
        q = EventQueue()
        fired = []
        doomed = [
            q.schedule(50.0 + i, lambda: fired.append("dead"))
            for i in range(2 * COMPACT_MIN_DEAD)
        ]

        def cancel_all():
            for h in doomed:
                h.cancel()
            q.schedule(2.0, lambda: fired.append("after"))

        q.schedule(1.0, cancel_all)
        q.schedule(3.0, lambda: fired.append("late"))
        q.run_until(100.0)
        assert q.compactions >= 1
        assert fired == ["after", "late"]
        assert q.processed == 3

    def test_processed_counts_fired_events(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None).cancel()
        q.schedule(3.0, lambda: None)
        q.run()
        assert q.processed == 2


class TestSequenceReservation:
    def test_reserved_seqs_win_time_ties_over_later_schedules(self):
        q = EventQueue()
        fired = []
        base = q.reserve(2)
        q.schedule(1.0, lambda: fired.append("fresh"))  # seq after the block
        q.schedule(1.0, lambda: fired.append("r0"), seq=base)
        q.schedule(1.0, lambda: fired.append("r1"), seq=base + 1)
        q.run()
        assert fired == ["r0", "r1", "fresh"]

    def test_reserve_blocks_are_contiguous_and_disjoint(self):
        q = EventQueue()
        a = q.reserve(3)
        b = q.reserve(2)
        assert b == a + 3
        handle = q.schedule(1.0, lambda: None)
        assert handle.seq == b + 2

    def test_reserve_rejects_negative(self):
        with pytest.raises(ValueError):
            EventQueue().reserve(-1)

    def test_streamed_chain_matches_prepushed_order(self):
        """A lazily streamed producer ties exactly like a pre-pushed one."""

        def run_prepushed():
            q = EventQueue()
            fired = []
            for i in range(3):
                q.schedule(1.0 * (i + 1), lambda i=i: fired.append(("a", i)))
            for k in range(3):
                q.schedule(1.0 * (k + 1), lambda k=k: fired.append(("t", k)))
            q.run()
            return fired

        def run_streamed():
            q = EventQueue()
            fired = []
            a_base = q.reserve(3)
            t_base = q.reserve(3)

            def arrival(i):
                def fire():
                    if i + 1 < 3:
                        q.schedule(
                            1.0 * (i + 2), arrival(i + 1), seq=a_base + i + 1
                        )
                    fired.append(("a", i))

                return fire

            def tick(k):
                def fire():
                    if k + 1 < 3:
                        q.schedule(
                            1.0 * (k + 2), tick(k + 1), seq=t_base + k + 1
                        )
                    fired.append(("t", k))

                return fire

            q.schedule(1.0, arrival(0), seq=a_base)
            q.schedule(1.0, tick(0), seq=t_base)
            q.run()
            return fired

        assert run_streamed() == run_prepushed()


class TestTypedRecords:
    def test_handlers_fire_with_payload_in_time_then_seq_order(self):
        q = EventQueue()
        fired = []
        a = q.register(lambda p: fired.append(("a", p)))
        b = q.register(lambda p: fired.append(("b", p)))
        q.post(2.0, a, 1)
        q.schedule(1.0, lambda: fired.append(("call", None)))
        q.post(1.0, b, 2)
        q.post(0.5, a, 3)
        q.run()
        assert fired == [("a", 3), ("call", None), ("b", 2), ("a", 1)]
        assert q.processed == 4

    def test_past_times_clamp_to_now_and_reserved_seqs_tie_first(self):
        q = EventQueue()
        fired = []
        k = q.register(fired.append)
        base = q.reserve(1)
        q.post(5.0, k, "fresh")
        q.post(5.0, k, "reserved", seq=base)
        q.run_until(5.0)
        q.post(1.0, k, "late")  # in the past: fires at now
        q.run()
        assert fired == ["reserved", "fresh", "late"]
        assert q.now == 5.0

    def test_cancellable_record(self):
        q = EventQueue()
        fired = []
        k = q.register(fired.append)
        dropped = q.post_cancellable(1.0, k, "dropped")
        kept = q.post_cancellable(2.0, k, "kept")
        assert dropped.cancel() is True
        assert len(q) == 1
        q.run()
        assert fired == ["kept"]
        assert not kept.active and kept.cancel() is False
        assert q.processed == 1

    @pytest.mark.parametrize("time", [float("inf"), float("-inf"), float("nan")])
    def test_post_rejects_non_finite_times(self, time):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.post(time, q.register(lambda p: None), None)
