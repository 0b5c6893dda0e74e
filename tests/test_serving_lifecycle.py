"""Query-lifecycle robustness: deadlines, cancellation, retries,
circuit breakers, and overload shedding.

The happy-path serving surface is covered by ``tests/test_serving.py``
and the end-to-end soak by ``tests/test_serving_soak.py``; this file
exercises the failure half of the lifecycle state machine — the pure
:class:`CircuitBreaker` state transitions in isolation, and each
server-enforced transition (deadline miss, cooperative cancel, retry
exhaustion, shed, breaker quarantine) end to end, including the tenant
ledger's conservation invariant.
"""

import sys
import threading

import pytest

from repro.core.options import RunOptions
from repro.errors import (
    AdmissionError,
    CircuitOpenError,
    DeadlineExceeded,
    OverloadShedError,
    QueryCancelled,
    ResultTimeout,
    RetriesExhausted,
)
from repro.faults.policy import FaultPolicy, RetryPolicy
from repro.mpi.cluster import SimCluster
from repro.serving import BreakerConfig, CircuitBreaker, Server
from repro.serving.lifecycle import BREAKER_STATE_CODES
from repro.tpch import load_catalog, q4, q12

SF = 0.002

#: A plan poisoned at deploy time: drops nearly every network put with a
#: zeroed substrate retry budget, so every run fails terminally.
POISON = FaultPolicy(
    seed=7,
    put_drop_rate=0.95,
    retry=RetryPolicy(max_attempts=1),
    max_stage_retries=0,
)


@pytest.fixture(scope="module")
def catalog():
    return load_catalog(scale_factor=SF)


@pytest.fixture(scope="module")
def cluster():
    return SimCluster(2)


class TestCircuitBreakerUnit:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(cooldown=0)

    def test_trips_after_consecutive_terminal_failures(self):
        breaker = CircuitBreaker("q@v1", BreakerConfig(failure_threshold=3))
        for _ in range(2):
            breaker.record_failure(terminal=True)
        assert breaker.state == "closed"
        breaker.record_failure(terminal=True)
        assert breaker.state == "open"

    def test_success_resets_the_failure_run(self):
        breaker = CircuitBreaker("q@v1", BreakerConfig(failure_threshold=2))
        breaker.record_failure(terminal=True)
        breaker.record_success()
        breaker.record_failure(terminal=True)
        assert breaker.state == "closed"

    def test_non_terminal_failures_never_count(self):
        breaker = CircuitBreaker("q@v1", BreakerConfig(failure_threshold=1))
        for _ in range(10):
            breaker.record_failure(terminal=False)
        assert breaker.state == "closed"

    def test_open_fast_fails_with_typed_error(self):
        breaker = CircuitBreaker(
            "q@v1", BreakerConfig(failure_threshold=1, cooldown=5)
        )
        breaker.record_failure(terminal=True)
        with pytest.raises(CircuitOpenError) as exc:
            breaker.admit()
        assert exc.value.handle == "q@v1"
        assert exc.value.state == "open"

    def test_cooldown_is_counted_in_submissions(self):
        breaker = CircuitBreaker(
            "q@v1", BreakerConfig(failure_threshold=1, cooldown=3)
        )
        breaker.record_failure(terminal=True)
        # Two fast-fails, then the third submission becomes the probe.
        for _ in range(2):
            with pytest.raises(CircuitOpenError):
                breaker.admit()
        breaker.admit()
        assert breaker.state == "half-open"

    def test_half_open_admits_exactly_one_probe(self):
        breaker = CircuitBreaker(
            "q@v1", BreakerConfig(failure_threshold=1, cooldown=1)
        )
        breaker.record_failure(terminal=True)
        breaker.admit()  # the probe
        with pytest.raises(CircuitOpenError) as exc:
            breaker.admit()
        assert exc.value.state == "half-open"

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(
            "q@v1", BreakerConfig(failure_threshold=1, cooldown=1)
        )
        breaker.record_failure(terminal=True)
        breaker.admit()
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.admit()  # flows freely again

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker = CircuitBreaker(
            "q@v1", BreakerConfig(failure_threshold=1, cooldown=2)
        )
        breaker.record_failure(terminal=True)
        with pytest.raises(CircuitOpenError):
            breaker.admit()
        breaker.admit()  # probe
        breaker.record_failure(terminal=True)
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.admit()  # cooldown restarted from zero

    def test_abandon_releases_the_probe_slot(self):
        breaker = CircuitBreaker(
            "q@v1", BreakerConfig(failure_threshold=1, cooldown=1)
        )
        breaker.record_failure(terminal=True)
        breaker.admit()
        breaker.abandon()
        breaker.admit()  # the slot is free again

    def test_transition_callback_sees_every_edge(self):
        edges = []
        breaker = CircuitBreaker(
            "q@v1",
            BreakerConfig(failure_threshold=1, cooldown=1),
            on_transition=lambda h, old, new: edges.append((h, old, new)),
        )
        breaker.record_failure(terminal=True)
        breaker.admit()
        breaker.record_success()
        assert edges == [
            ("q@v1", "closed", "open"),
            ("q@v1", "open", "half-open"),
            ("q@v1", "half-open", "closed"),
        ]


class TestDeadlines:
    def test_deadline_miss_raises_with_budget_and_elapsed(
        self, catalog, cluster
    ):
        with Server(cluster, catalog, n_workers=2) as server:
            handle = server.deploy("q12", q12()).handle
            future = server.submit(handle, deadline=1e-9)
            with pytest.raises(DeadlineExceeded) as exc:
                future.result(timeout=60)
            assert exc.value.deadline == 1e-9
            assert exc.value.elapsed > 1e-9
            account = server.tenant("default")
            assert account.deadline_missed == 1
            assert account.in_flight == 0

    def test_generous_deadline_never_fires(self, catalog, cluster):
        with Server(cluster, catalog, n_workers=2) as server:
            handle = server.deploy("q12", q12()).handle
            outcome = server.submit(handle, deadline=1e6).result(timeout=60)
            assert outcome.frame.n_rows > 0
            assert server.tenant("default").deadline_missed == 0

    def test_non_positive_deadline_rejected_up_front(self, catalog, cluster):
        with Server(cluster, catalog, n_workers=2) as server:
            handle = server.deploy("q12", q12()).handle
            with pytest.raises(ValueError, match="deadline"):
                server.submit(handle, deadline=0.0)


class TestCancellation:
    def test_cancel_before_start_settles_as_cancelled(self, catalog, cluster):
        with Server(cluster, catalog, n_workers=2, start=False) as server:
            handle = server.deploy("q12", q12()).handle
            future = server.submit(handle)
            assert future.cancel() is True
            assert future.cancelled()
            server.start()
            with pytest.raises(QueryCancelled):
                future.result(timeout=60)
            account = server.tenant("default")
            assert account.cancelled == 1
            assert account.in_flight == 0

    def test_cancel_after_completion_is_a_noop(self, catalog, cluster):
        with Server(cluster, catalog, n_workers=2) as server:
            handle = server.deploy("q12", q12()).handle
            future = server.submit(handle)
            future.result(timeout=60)
            assert future.cancel() is False
            assert server.tenant("default").cancelled == 0

    def test_closing_a_never_started_server_does_not_deadlock(
        self, catalog, cluster
    ):
        server = Server(cluster, catalog, n_workers=2, start=False)
        handle = server.deploy("q12", q12()).handle
        future = server.submit(handle)
        server.close()  # must not block on work no thread will run
        assert not future.done()

    def test_server_cancel_by_query_id(self, catalog, cluster):
        with Server(cluster, catalog, n_workers=2, start=False) as server:
            handle = server.deploy("q12", q12()).handle
            future = server.submit(handle)
            assert server.cancel(future.query_id) is True
            assert server.cancel(9999) is False  # unknown id
            server.start()
            with pytest.raises(QueryCancelled):
                future.result(timeout=60)


class TestResultTimeout:
    def test_wall_clock_timeout_leaves_the_query_running(
        self, catalog, cluster
    ):
        with Server(cluster, catalog, n_workers=2, start=False) as server:
            handle = server.deploy("q12", q12()).handle
            future = server.submit(handle, tenant="default")
            with pytest.raises(ResultTimeout) as exc:
                future.result(timeout=0.01)
            assert exc.value.query_id == future.query_id
            assert exc.value.tenant == "default"
            assert exc.value.handle == handle
            assert not future.done()
            server.start()
            assert future.result(timeout=60).frame.n_rows > 0


class TestRetries:
    def test_poison_plan_exhausts_retries(self, catalog, cluster):
        with Server(
            cluster,
            catalog,
            n_workers=2,
            retry=RetryPolicy(max_attempts=2),
        ) as server:
            handle = server.deploy(
                "q4", q4(), defaults=RunOptions(faults=POISON)
            ).handle
            future = server.submit(handle)
            with pytest.raises(RetriesExhausted) as exc:
                future.result(timeout=60)
            assert exc.value.attempts == 2
            assert exc.value.last_error is not None
            account = server.tenant("default")
            assert account.retries == 1
            assert account.failed == 1
            assert account.queries == 0
            snap = server.snapshot()
            assert snap.value("serving_retries", tenant="default") == 1
            assert snap.value("serving_failed", tenant="default") == 1


class TestOverloadShedding:
    def test_tenant_over_entitlement_is_shed_in_the_shed_region(
        self, catalog, cluster
    ):
        with Server(
            cluster,
            catalog,
            n_workers=2,
            max_pending=8,
            shed_threshold=0.5,
            start=False,
        ) as server:
            server.register_tenant("a", weight=1.0)
            server.register_tenant("b", weight=1.0)
            handle = server.deploy("q12", q12()).handle
            futures = [server.submit(handle, tenant="a") for _ in range(4)]
            # Shed region reached (4 >= ceil(0.5 * 8)) and tenant "a" holds
            # its full entitlement — the next submission is shed...
            with pytest.raises(OverloadShedError) as exc:
                server.submit(handle, tenant="a")
            assert exc.value.tenant == "a"
            assert exc.value.in_flight >= exc.value.entitlement
            # ...while tenant "b", below its entitlement, is still admitted.
            futures.append(server.submit(handle, tenant="b"))
            server.start()
            for future in futures:
                assert future.result(timeout=60).frame.n_rows > 0
            shed_account = server.tenant("a")
            assert shed_account.shed == 1
            assert shed_account.submitted == 5
            assert shed_account.queries == 4

    def test_invalid_shed_threshold_rejected(self, catalog, cluster):
        with pytest.raises(ValueError, match="shed_threshold"):
            Server(cluster, catalog, shed_threshold=0.0, start=False)


class TestBreakerIntegration:
    def test_poison_plan_trips_breaker_and_redeploy_resets(
        self, catalog, cluster
    ):
        with Server(
            cluster,
            catalog,
            n_workers=2,
            breaker=BreakerConfig(failure_threshold=2, cooldown=2),
        ) as server:
            poisoned = server.deploy(
                "q4", q4(), defaults=RunOptions(faults=POISON)
            ).handle
            for _ in range(2):
                with pytest.raises(Exception) as exc:
                    server.submit(poisoned).result(timeout=60)
                assert not isinstance(exc.value, CircuitOpenError)
            # Two consecutive terminal failures: the handle is quarantined.
            assert server.registry.breaker_for(poisoned).state == "open"
            with pytest.raises(CircuitOpenError):
                server.submit(poisoned)
            account = server.tenant("default")
            assert account.rejected == 1
            snap = server.snapshot()
            assert snap.value(
                "serving_breaker_rejected", handle=poisoned
            ) == 1
            assert snap.value(
                "serving_breaker_state", handle=poisoned
            ) == BREAKER_STATE_CODES["open"]
            transitions = [
                e.label for e in server.lifecycle_events
                if e.label.startswith("breaker_")
            ]
            assert "breaker_open" in transitions
            # A redeploy bumps the version: the fixed plan starts with a
            # fresh closed breaker while the poisoned handle stays open.
            healthy = server.deploy("q4", q4()).handle
            assert healthy != poisoned
            assert server.submit(healthy).result(timeout=60).frame.n_rows > 0
            assert server.registry.breaker_for(poisoned).state == "open"

    def test_client_cancel_does_not_feed_the_breaker(self, catalog, cluster):
        with Server(
            cluster,
            catalog,
            n_workers=2,
            breaker=BreakerConfig(failure_threshold=1, cooldown=1),
            start=False,
        ) as server:
            handle = server.deploy("q12", q12()).handle
            future = server.submit(handle)
            future.cancel()
            server.start()
            with pytest.raises(QueryCancelled):
                future.result(timeout=60)
            assert server.registry.breaker_for(handle).state == "closed"
            # The handle still admits new work.
            assert server.submit(handle).result(timeout=60).frame.n_rows > 0


class TestLedgerConservation:
    def test_every_submission_lands_in_exactly_one_bucket(
        self, catalog, cluster
    ):
        with Server(
            cluster,
            catalog,
            n_workers=2,
            max_pending=8,
            shed_threshold=0.5,
            start=False,
        ) as server:
            # A second tenant halves "default"'s entitlement so the fifth
            # submission below actually lands in the shed bucket.
            server.register_tenant("other", weight=1.0)
            handle = server.deploy("q12", q12()).handle
            futures = [server.submit(handle) for _ in range(4)]
            futures[0].cancel()
            with pytest.raises(OverloadShedError):
                server.submit(handle)
            server.start()
            for future in futures:
                try:
                    future.result(timeout=60)
                except QueryCancelled:
                    pass
            account = server.tenant("default")
            assert account.submitted == 5
            assert account.submitted == (
                account.queries
                + account.cancelled
                + account.deadline_missed
                + account.failed
                + account.shed
                + account.rejected
            )
            assert account.in_flight == 0
            snap = server.snapshot()
            assert snap.value("serving_in_flight", tenant="default") == 0
            assert snap.value("serving_steps", tenant="default") == (
                account.steps
            )

    def test_max_pending_is_a_hard_cap_under_concurrent_submits(
        self, catalog, cluster
    ):
        # Eight threads pass a barrier together and submit while the
        # interpreter switches threads as often as it can: the cap check
        # and the slot reservation must be one atomic step, or several
        # submitters all see room and overshoot the cap.
        n_threads, cap = 8, 2
        with Server(
            cluster, catalog, n_workers=2, max_pending=cap, start=False
        ) as server:
            handle = server.deploy("q12", q12()).handle
            barrier = threading.Barrier(n_threads)
            admitted, rejected = [], []

            def submit():
                barrier.wait()
                try:
                    admitted.append(server.submit(handle))
                except AdmissionError:
                    rejected.append(1)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=submit) for _ in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert len(admitted) == cap
            assert len(rejected) == n_threads - cap
            assert server.tenant("default").in_flight == cap
            server.start()
            for future in admitted:
                assert future.result(timeout=60).frame.n_rows > 0
            account = server.tenant("default")
            assert account.submitted == n_threads
            assert account.queries == cap
            assert account.rejected == n_threads - cap
            assert account.settled_total() == account.submitted
            assert account.in_flight == 0
