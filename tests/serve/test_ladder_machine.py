"""Stateful property test of the degradation ladder (thread transport).

A hypothesis ``RuleBasedStateMachine`` drives a :class:`SupervisedService`
through random interleavings of clean sweeps, scripted chaos (crash,
stall, corrupt, swap), fake-clock advances and recoveries, and checks
the ladder's invariants after every step:

* no incorrect permutation is ever returned;
* every admitted future settles exactly once;
* breaker transitions stay legal — closed → open only at the failure
  threshold, open → half-open only on the clock, half-open → closed only
  on a probe success, and no rung is attempted while its breaker is open;
* restart backoff never exceeds ``restart_backoff_max_s``;
* in-flight depth returns to 0 when idle.

``max_batch=1`` makes every admitted request close its own batch and run
inline on the submitting thread, so each step settles before the next.
"""

from math import factorial

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core.converter import IndexToPermutationConverter
from repro.errors import ServiceDegradedError
from repro.serve import (
    BreakerConfig,
    ChaosMonkey,
    Request,
    ServiceConfig,
    SupervisedService,
    SupervisorConfig,
)
from repro.serve import service as service_mod
from repro.serve import supervisor as sup_mod

N = 4
KEY = ("converter", N)
CONFIG = SupervisorConfig(
    sweep_deadline_s=0.05,  # real time: a stall sleeps well past it
    # the cap binds from a slot's second consecutive failure
    restart_backoff_s=0.15,
    restart_backoff_max_s=0.2,
    breaker=BreakerConfig(failure_threshold=2, recovery_s=0.5),
    fallback_breaker=BreakerConfig(failure_threshold=2, recovery_s=0.5),
)
#: Past every breaker's recovery window and the longest backoff.
SETTLE_S = 0.6
INDICES = st.integers(0, factorial(N) - 1)
#: Clock steps taken before a sweep: none, inside a backoff, past one.
STEPS = st.sampled_from([0.0, 0.1, 0.3])


class AuditedBreaker(sup_mod.CircuitBreaker):
    """A breaker that asserts every transition the ladder drives it through."""

    def record_failure(self) -> None:
        before, streak = self.state, self._failures
        assert before != "open", "a rung was attempted with its breaker open"
        super().record_failure()
        if before == "closed" and self.state != "closed":
            assert streak + 1 == self.config.failure_threshold
        if before == "half_open":
            assert self.state == "open", "a failed probe must re-open"

    def record_success(self) -> None:
        assert self.state != "open", "a rung was attempted with its breaker open"
        super().record_success()


class LadderMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.now = 500.0
        self._saved = (
            sup_mod._monotonic,
            sup_mod.CircuitBreaker,
            service_mod.CompletionFuture._finish,
        )
        sup_mod._monotonic = lambda: self.now
        sup_mod.CircuitBreaker = AuditedBreaker
        self.settles: dict[int, int] = {}
        orig_finish = self._saved[2]
        settles = self.settles

        def counted_finish(future, value, exc):
            settles[id(future)] = settles.get(id(future), 0) + 1
            orig_finish(future, value, exc)

        service_mod.CompletionFuture._finish = counted_finish
        self.monkey = ChaosMonkey(script={})
        self.svc = SupervisedService(
            ServiceConfig(max_batch=1, cache_capacity=0, batch_deadline_s=0.0),
            CONFIG,
            chaos=self.monkey,
        )
        self.conv = IndexToPermutationConverter(N)
        self.admitted: list = []
        self.observed: dict[int, tuple[str, float]] = {}

    def teardown(self):
        self.svc.close()
        (
            sup_mod._monotonic,
            sup_mod.CircuitBreaker,
            service_mod.CompletionFuture._finish,
        ) = self._saved

    # ------------------------------------------------------------------ #

    def _serve(self, index: int, dt: float = 0.0) -> str | None:
        """Step the clock by ``dt``, submit one request; returns the rung
        that served it."""
        self.now += dt
        try:
            future = self.svc.submit(Request("unrank", N, index))
        except ServiceDegradedError:
            return None  # shed at admission: cache-only mode
        self.admitted.append(future)
        assert future.done()  # max_batch=1: the batch ran inline
        try:
            resp = future.result(timeout=0)
        except ServiceDegradedError:
            return None  # every rung down: degraded, never wrong
        assert resp.permutation == self.conv.convert(index)
        return resp.mode

    def _inject(self, event: str, index: int, dt: float) -> None:
        # the next worker attempt draws this event, whichever step makes it
        self.monkey.script[self.monkey.sweeps] = event
        self._serve(index, dt)

    @rule(index=INDICES, dt=STEPS)
    def sweep(self, index, dt):
        self._serve(index, dt)

    @rule(index=INDICES, dt=STEPS)
    def crash(self, index, dt):
        self._inject("crash", index, dt)

    @rule(index=INDICES, dt=STEPS)
    def stall(self, index, dt):
        self._inject("stall", index, dt)

    @rule(index=INDICES, dt=STEPS)
    def corrupt(self, index, dt):
        self._inject("corrupt", index, dt)

    @rule(index=INDICES, dt=STEPS)
    def swap(self, index, dt):
        self._inject("swap", index, dt)

    @rule(dt=st.sampled_from([1.0, 6.0]))
    def advance(self, dt):
        """A long clock jump: breakers half-open, idle heartbeats go stale."""
        self.now += dt

    @rule()
    def recover(self):
        """Drop pending chaos and let the clock run: the worker rung is back
        within two settle windows (one may be spent retiring a replica whose
        heartbeat went stale while the clock jumped)."""
        self.monkey.script = {
            k: v for k, v in self.monkey.script.items() if k < self.monkey.sweeps
        }
        modes = []
        for _ in range(2):
            self.now += SETTLE_S
            modes.append(self._serve(0))
            if modes[-1] == "worker":
                break
        assert "worker" in modes, modes
        assert self.svc.supervisor.mode_for(KEY) == "full"

    # ------------------------------------------------------------------ #

    @invariant()
    def futures_settle_exactly_once(self):
        for future in self.admitted:
            assert self.settles.get(id(future)) == 1

    @invariant()
    def idle_depth_is_zero(self):
        for shard in self.svc.supervisor._shards.values():
            assert shard.depth == 0

    @invariant()
    def backoff_is_bounded(self):
        for shard in self.svc.supervisor._shards.values():
            for retry_at in shard.retry_at:
                assert retry_at - self.now <= CONFIG.restart_backoff_max_s + 1e-9

    @invariant()
    def open_to_half_open_only_on_the_clock(self):
        for shard in self.svc.supervisor._shards.values():
            for name in ("breaker", "fallback_breaker"):
                breaker = getattr(shard, name)
                state = breaker.state
                before = self.observed.get(id(breaker))
                if before is not None and before[0] == "open":
                    # leaving OPEN without a clock step is illegal; OPEN →
                    # CLOSED must pass through a successful half-open probe
                    assert state == "open" or self.now > before[1]
                self.observed[id(breaker)] = (state, self.now)


TestLadderMachine = LadderMachine.TestCase
TestLadderMachine.settings = settings(
    max_examples=20, stateful_step_count=15, deadline=None
)
