"""Tests for the discrete-event simulator."""

import pytest

from repro.netsim.eventsim import EventSimulator, PeriodicTimer, SchedulePolicy
from repro.netsim.trace import ScheduleTrace


class LastChoicePolicy(SchedulePolicy):
    """Maximally anti-FIFO: always run the latest frontier candidate."""

    def __init__(self, window: float = 0.0):
        self.window = window

    def choose(self, frontier) -> int:
        return len(frontier) - 1


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = EventSimulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self):
        sim = EventSimulator()
        order = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: order.append(n))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_now_advances(self):
        sim = EventSimulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_schedule_at_absolute(self):
        sim = EventSimulator(start_time=10.0)
        seen = []
        sim.schedule_at(12.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [12.0]

    def test_cannot_schedule_past(self):
        sim = EventSimulator(start_time=5.0)
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_at(4.0, lambda: None)

    def test_events_scheduled_during_run(self):
        sim = EventSimulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("nested"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "nested"]
        assert sim.now == 2.0

    def test_cancel(self):
        sim = EventSimulator()
        ran = []
        handle = sim.schedule(1.0, lambda: ran.append(1))
        sim.cancel(handle)
        sim.run()
        assert ran == []

    def test_run_until_partial(self):
        sim = EventSimulator()
        order = []
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(5.0, lambda: order.append("b"))
        sim.run_until(3.0)
        assert order == ["a"]
        assert sim.now == 3.0
        assert sim.pending() == 1

    def test_runaway_guard(self):
        sim = EventSimulator()

        def rearm():
            sim.schedule(0.001, rearm)

        sim.schedule(0.001, rearm)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)


class TestEdgeCases:
    def test_same_time_fifo_under_heap_churn(self):
        # Interleave out-of-order schedules and cancellations so the heap
        # reorders internally; same-time events must still run in the
        # order they were scheduled.
        sim = EventSimulator()
        order = []
        sim.schedule(5.0, lambda: order.append("t5-a"))
        doomed = sim.schedule(5.0, lambda: order.append("doomed"))
        sim.schedule(1.0, lambda: order.append("t1"))
        sim.schedule(5.0, lambda: order.append("t5-b"))
        sim.cancel(doomed)
        sim.schedule(3.0, lambda: order.append("t3"))
        sim.schedule(5.0, lambda: order.append("t5-c"))
        sim.run()
        assert order == ["t1", "t3", "t5-a", "t5-b", "t5-c"]

    def test_run_until_exactly_at_tie_boundary(self):
        # Every event at the deadline runs — including ties and an event
        # a same-time callback schedules *at* the deadline — while events
        # strictly after it stay queued.
        sim = EventSimulator()
        order = []

        def first():
            order.append("first")
            sim.schedule_at(2.0, lambda: order.append("nested-at-deadline"))

        sim.schedule_at(2.0, first)
        sim.schedule_at(2.0, lambda: order.append("tied"))
        sim.schedule_at(2.0000001, lambda: order.append("after"))
        sim.run_until(2.0)
        assert order == ["first", "tied", "nested-at-deadline"]
        assert sim.now == 2.0
        assert sim.pending() == 1

    def test_cancel_inside_callback(self):
        sim = EventSimulator()
        order = []
        handles = {}

        def first():
            order.append("first")
            sim.cancel(handles["b"])

        sim.schedule(1.0, first)
        handles["b"] = sim.schedule(1.0, lambda: order.append("b"))
        sim.run()
        assert order == ["first"]
        assert sim._cancelled == set()
        assert sim._pending == set()


class TestCancelBookkeeping:
    def test_cancelled_stays_bounded_under_cancel_heavy_workload(self):
        # Regression: cancel-after-run and double-cancel used to leave
        # seqs in _cancelled forever.
        sim = EventSimulator()
        handles = [sim.schedule(1.0, lambda: None) for _ in range(200)]
        sim.run()
        for handle in handles:  # cancel-after-run: all no-ops
            sim.cancel(handle)
        assert len(sim._cancelled) == 0
        live = sim.schedule(1.0, lambda: None)
        for _ in range(50):  # double-cancel: one entry, not fifty
            sim.cancel(live)
        assert len(sim._cancelled) == 1
        sim.run()
        assert len(sim._cancelled) == 0
        assert len(sim._pending) == 0

    def test_cancelled_never_exceeds_pending(self):
        sim = EventSimulator()
        for round_ in range(20):
            handles = [sim.schedule(1.0, lambda: None) for _ in range(10)]
            for handle in handles[::2]:
                sim.cancel(handle)
            assert len(sim._cancelled) <= len(sim._pending)
            sim.run()
            assert sim._cancelled == set()
            assert sim._pending == set()


class TestSchedulePolicy:
    @staticmethod
    def _mixed_workload(sim):
        """Timers, ties, nested schedules and cancels — order-sensitive."""
        order = []
        timer = sim.every(1.0, lambda: order.append(("tick", sim.now)))
        doomed = []

        def spawn():
            order.append(("spawn", sim.now))
            doomed.append(sim.schedule(2.0, lambda: order.append(("doomed", sim.now))))
            sim.schedule(1.0, lambda: order.append(("child", sim.now)))

        sim.schedule(1.0, spawn)
        sim.schedule(1.0, lambda: order.append(("tied", sim.now)))
        sim.schedule(1.5, lambda: sim.cancel(doomed[0]))
        sim.run_until(4.0)
        timer.stop()
        return order

    def test_base_policy_matches_unpoliced_run_exactly(self):
        # The frontier code path with the FIFO base policy must be
        # byte-for-byte equivalent to the original heap-pop path: same
        # event order, same cumulative digest stream.
        def run(policy):
            trace = ScheduleTrace()
            sim = EventSimulator(trace=trace, policy=policy)
            order = self._mixed_workload(sim)
            return order, trace

        order_none, trace_none = run(None)
        order_fifo, trace_fifo = run(SchedulePolicy())
        assert order_fifo == order_none
        assert trace_fifo.digests == trace_none.digests
        # Only the policy-driven run records decision points.
        assert trace_none.decisions == []
        assert len(trace_fifo.decisions) > 0
        assert all(d.chosen == 0 for d in trace_fifo.decisions)

    def test_anti_fifo_policy_reverses_ties(self):
        sim = EventSimulator(policy=LastChoicePolicy())
        order = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: order.append(n))
        sim.run()
        assert order == ["c", "b", "a"]

    def test_decision_options_describe_the_frontier(self):
        trace = ScheduleTrace()
        sim = EventSimulator(trace=trace, policy=LastChoicePolicy())

        def cb():
            pass

        sim.schedule(1.0, cb)
        sim.schedule(1.0, cb)
        sim.schedule(2.0, cb)  # alone at its time: no decision
        sim.run()
        assert len(trace.decisions) == 1
        decision = trace.decisions[0]
        assert decision.chosen == 1
        assert [opt[1] for opt in decision.options] == [0, 1]
        assert all("cb" in opt[2] for opt in decision.options)

    def test_cancel_bookkeeping_bounded_under_policy(self):
        sim = EventSimulator(policy=LastChoicePolicy())
        for _ in range(20):
            handles = [sim.schedule(1.0, lambda: None) for _ in range(10)]
            for handle in handles[::2]:
                sim.cancel(handle)
            sim.run()
            assert sim._cancelled == set()
            assert sim._pending == set()
        for handle in handles:  # cancel-after-run stays a no-op
            sim.cancel(handle)
        assert sim._cancelled == set()

    def test_callback_can_cancel_frontier_sibling(self):
        # The unchosen frontier events are pushed back before the chosen
        # callback runs, so cancelling a same-time sibling must stick.
        sim = EventSimulator(policy=LastChoicePolicy())
        order = []
        handles = {}

        def killer():
            order.append("killer")
            sim.cancel(handles["victim"])

        handles["victim"] = sim.schedule(1.0, lambda: order.append("victim"))
        sim.schedule(1.0, killer)
        sim.run()
        assert order == ["killer"]
        assert sim._cancelled == set() and sim._pending == set()

    def test_window_commutes_nearby_events_monotonically(self):
        sim = EventSimulator(policy=LastChoicePolicy(window=0.2))
        order = []
        sim.schedule_at(1.0, lambda: order.append(("early", sim.now)))
        sim.schedule_at(1.1, lambda: order.append(("late", sim.now)))
        sim.schedule_at(2.0, lambda: order.append(("far", sim.now)))
        sim.run()
        # The later-stamped event ran first; virtual time never rewound.
        assert [name for name, _ in order] == ["late", "early", "far"]
        assert [now for _, now in order] == [1.1, 1.1, 2.0]

    def test_run_until_clamps_window_at_deadline(self):
        # A commutation window must never pull an event from beyond the
        # run_until deadline into the frontier.
        sim = EventSimulator(policy=LastChoicePolicy(window=5.0))
        order = []
        sim.schedule_at(2.0, lambda: order.append("at-deadline"))
        sim.schedule_at(2.5, lambda: order.append("beyond"))
        sim.run_until(2.0)
        assert order == ["at-deadline"]
        assert sim.now == 2.0
        assert sim.pending() == 1
        sim.run()
        assert order == ["at-deadline", "beyond"]

    def test_out_of_range_choice_raises(self):
        class BadPolicy(SchedulePolicy):
            def choose(self, frontier):
                return len(frontier)

        sim = EventSimulator(policy=BadPolicy())
        sim.schedule(1.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        with pytest.raises(IndexError):
            sim.run()


class TestScheduleTrace:
    def test_trace_records_executed_events(self):
        trace = ScheduleTrace()
        sim = EventSimulator(trace=trace)

        def tick():
            pass

        sim.schedule(1.0, tick)
        sim.schedule(2.0, tick)
        sim.run()
        assert [e.time for e in trace.events] == [1.0, 2.0]
        assert [e.seq for e in trace.events] == [0, 1]
        assert all("tick" in e.callback for e in trace.events)
        assert all(e.site.startswith("test_eventsim.py:") for e in trace.events)
        assert len(trace.digests) == 2
        assert trace.digest() == trace.digests[-1]

    def test_identical_schedules_produce_identical_digests(self):
        def run():
            trace = ScheduleTrace()
            sim = EventSimulator(trace=trace)
            sim.schedule(1.0, lambda: None)
            sim.schedule(2.0, lambda: None)
            sim.run()
            return trace.digest()

        assert run() == run()

    def test_different_order_produces_different_digest(self):
        def run(first_delay, second_delay):
            trace = ScheduleTrace()
            sim = EventSimulator(trace=trace)
            sim.schedule(first_delay, lambda: None)
            sim.schedule(second_delay, lambda: None)
            sim.run()
            return trace.digest()

        assert run(1.0, 2.0) != run(2.0, 1.0)

    def test_cancelled_events_leave_no_trace(self):
        trace = ScheduleTrace()
        sim = EventSimulator(trace=trace)
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(handle)
        sim.run()
        assert len(trace.events) == 1


class TestPeriodicTimer:
    def test_fires_at_period(self):
        sim = EventSimulator()
        ticks = []
        sim.every(2.0, lambda: ticks.append(sim.now))
        sim.run_until(7.0)
        assert ticks == [2.0, 4.0, 6.0]

    def test_stop(self):
        sim = EventSimulator()
        ticks = []
        timer = sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run_until(2.5)
        timer.stop()
        sim.run_until(10.0)
        assert ticks == [1.0, 2.0]

    def test_stop_from_callback(self):
        sim = EventSimulator()
        calls = []
        timer = PeriodicTimer(sim, 1.0, lambda: None)
        timer.callback = lambda: (calls.append(sim.now), timer.stop())
        timer.start()
        sim.run_until(10.0)
        assert calls == [1.0]

    def test_jitter(self):
        sim = EventSimulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now), jitter_fn=lambda: 0.5)
        sim.run_until(4.0)
        assert ticks == [1.5, 3.0]

    def test_first_delay_phase_spreads_then_keeps_period(self):
        sim = EventSimulator()
        ticks = []
        sim.every(2.0, lambda: ticks.append(sim.now), first_delay=0.5)
        sim.run_until(7.0)
        assert ticks == [0.5, 2.5, 4.5, 6.5]

    def test_zero_first_delay_fires_immediately_once(self):
        sim = EventSimulator()
        ticks = []
        sim.every(2.0, lambda: ticks.append(sim.now), first_delay=0.0)
        sim.run_until(5.0)
        # The zero delay is clamped to an epsilon; the period then holds.
        assert ticks == pytest.approx([0.0, 2.0, 4.0])

    def test_rejects_negative_first_delay(self):
        sim = EventSimulator()
        with pytest.raises(ValueError):
            sim.every(1.0, lambda: None, first_delay=-0.1)

    def test_rejects_nonpositive_period(self):
        sim = EventSimulator()
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 0.0, lambda: None)

    def test_negative_jitter_is_clamped(self):
        # Jitter that would drive the delay to zero or negative is clamped
        # to a tiny positive delay: time still advances and no
        # cannot-schedule-into-the-past error is raised.
        sim = EventSimulator()
        timer = sim.every(1.0, lambda: None, jitter_fn=lambda: -5.0)
        for _ in range(10):
            assert sim.step()
        assert timer.fires == 10
        assert sim.now > 0.0
        timer.stop()

    def test_mild_negative_jitter_shortens_period(self):
        sim = EventSimulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now), jitter_fn=lambda: -0.5)
        sim.run_until(2.0)
        assert ticks == pytest.approx([0.5, 1.0, 1.5, 2.0])


class TestRecoveryExperiment:
    def test_detection_delay_costs_availability(self):
        from repro.experiments.recovery import run_recovery_window

        results = run_recovery_window(
            n_nodes=40, n_files=150, k=3, crash_fraction=0.5,
            detection_delays=[0.0, 20.0], seed=5,
        )
        by_delay = {r.detection_delay: r for r in results}
        assert by_delay[0.0].availability >= by_delay[20.0].availability
        assert by_delay[0.0].availability == pytest.approx(1.0)
        assert by_delay[20.0].availability < 1.0

    def test_no_disk_loss_means_no_loss(self):
        from repro.experiments.recovery import run_recovery_window

        results = run_recovery_window(
            n_nodes=30, n_files=80, k=3, crash_fraction=0.5,
            detection_delays=[20.0], disk_loss=False, seed=6,
        )
        assert results[0].availability == pytest.approx(1.0)


class TestKeepAliveRecovery:
    def test_protocol_driven_recovery_restores_files(self):
        from repro.experiments.recovery import run_keepalive_recovery

        result = run_keepalive_recovery(
            n_nodes=35, n_files=100, crash_fraction=0.25, seed=4
        )
        # Fast detection (T ~= 4 x interarrival/2): everything survives.
        assert result.availability > 0.97
        assert result.crashes >= 1

    def test_slow_detection_risks_losses(self):
        from repro.experiments.recovery import run_keepalive_recovery

        result = run_keepalive_recovery(
            n_nodes=35, n_files=150, crash_fraction=0.6,
            keepalive_timeout=60.0, mean_interarrival=0.3, seed=4,
        )
        # With 60% of nodes silent before any keep-alive expires, some
        # files must lose all replicas.
        assert result.availability < 1.0
