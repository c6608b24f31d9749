"""Supervised parallel campaign execution over ``concurrent.futures``.

The executor turns a list of :class:`~repro.campaign.spec.RunSpec` into
:class:`RunOutcome`s under a supervisor that guarantees *no spec is ever
lost silently*: every planned run settles as executed, cached, failed, or
explicitly quarantined — the latter two with a structured
:class:`~repro.campaign.failures.FailureRecord` persisted into the result
store.

Supervision rules (see :mod:`repro.campaign.failures` for the taxonomy):

* runs already in the :class:`~repro.campaign.store.ResultStore` are served
  from disk (``status="cached"``) without touching a worker;
* the rest fan out over a ``ProcessPoolExecutor``; each attempt builds a
  fresh Runner, which reuses the worker's process-wide trace and
  alone-baseline memos (:mod:`repro.sim.runner`), and persists its result
  to the store *before* returning, so a campaign killed mid-flight resumes
  from everything that finished; the worker's store accounting is folded
  into the supervisor's ``store.stats``;
* a failed attempt is classified: **transient** errors and **timeouts**
  consume one unit of the spec's bounded retry budget and requeue with
  exponential backoff; **deterministic** errors are retried once to
  confirm and then *quarantine* the spec (a poison spec must not burn the
  campaign's wall-clock); a **worker crash** (``BrokenProcessPool``) is an
  infrastructure failure — the pool is respawned and every in-flight spec
  requeues *without* being charged, since innocents die with the pool;
* a spec repeatedly present when the pool dies is itself quarantined after
  ``max_pool_respawns`` losses, and a pool that keeps dying with no
  progress at all degrades the remainder to serial in-process execution;
* with ``safepoint_every``/``checkpoint_dir`` set, workers checkpoint
  mid-run state periodically and a retried spec *resumes from its last
  checkpoint* — resumed results are bit-identical to uninterrupted ones
  (pinned by the kernel-golden checkpoint grid);
* per-run timeouts are enforced with ``SIGALRM`` where possible and fall
  back to a watchdog thread raising an async exception elsewhere, so a
  deadline is never silently unenforced;
* when ``jobs=1``, or the platform cannot provide a process pool, the whole
  plan runs serially in-process under the same supervision rules — same
  code path a worker runs, so metrics are bit-identical either way.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import signal
import threading
import time
import traceback as traceback_module
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..sim.runner import RunResult
from ..telemetry.spans import (
    SpanTracer,
    install_tracer,
    merge_trace_files,
    now_us,
    write_trace_file,
)
from .failures import FailureAttempt, FailureClass, FailureRecord, classify_failure
from .spec import RunSpec
from .store import ResultStore, StoreStats

#: Called after every settled run: (outcome, done_count, total_count).
ProgressFn = Callable[["RunOutcome", int, int], None]


class RunTimeoutError(ReproError):
    """A run exceeded the campaign's per-run timeout."""

    def __str__(self) -> str:
        # The watchdog injects this class via PyThreadState_SetAsyncExc,
        # which instantiates it with no arguments — failure records must
        # still read meaningfully, not "RunTimeoutError: ".
        return super().__str__() or "per-run timeout expired"


@dataclass
class RunOutcome:
    """What happened to one planned run."""

    spec: RunSpec
    status: str  # "ok" | "cached" | "failed" | "quarantined"
    result: Optional[RunResult] = None
    error: str = ""
    wall_clock: float = 0.0
    attempts: int = 0
    #: Structured failure history (also persisted into the store) when the
    #: run failed, was quarantined, or recovered after failed attempts.
    failure: Optional[FailureRecord] = None

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")


@dataclass
class CampaignResult:
    """Every outcome of one executed plan, in plan order."""

    outcomes: List[RunOutcome] = field(default_factory=list)
    wall_clock: float = 0.0
    #: Parent-observed seconds spent on attempts that ended in a failure.
    time_lost_to_faults: float = 0.0
    #: Times the worker pool had to be rebuilt after a worker death.
    pool_respawns: int = 0

    def with_status(self, status: str) -> List[RunOutcome]:
        return [o for o in self.outcomes if o.status == status]

    @property
    def executed(self) -> List[RunOutcome]:
        return self.with_status("ok")

    @property
    def cached(self) -> List[RunOutcome]:
        return self.with_status("cached")

    @property
    def failed(self) -> List[RunOutcome]:
        return self.with_status("failed")

    @property
    def quarantined(self) -> List[RunOutcome]:
        return self.with_status("quarantined")

    @property
    def unresolved(self) -> List[RunOutcome]:
        """Outcomes that neither produced a result nor settled a failure
        record — always empty under the supervisor's no-silent-loss
        guarantee; exposed so chaos tests can assert exactly that."""
        return [
            o
            for o in self.outcomes
            if not o.ok and o.failure is None
        ]

    @property
    def cache_hit_rate(self) -> float:
        return len(self.cached) / len(self.outcomes) if self.outcomes else 0.0


# ---------------------------------------------------------------------------
# Worker side. Everything here must be importable (top-level) and picklable.
# ---------------------------------------------------------------------------
_WORKER_STORES: Dict[str, ResultStore] = {}


def _runner_for(
    spec: RunSpec,
    safepoint_every: Optional[int] = None,
    safepoint_dir: Optional[str] = None,
    submission: int = 1,
):
    """A fresh Runner for one attempt at ``spec``.

    Traces and alone baselines are memoized process-wide by content key,
    so a new Runner per attempt repeats no work.
    """
    from ..sim.runner import Runner
    from ..telemetry import TelemetryConfig

    runner = Runner(
        config=spec.config,
        horizon=spec.horizon,
        seed=spec.seed,
        target_insts=spec.target_insts,
        validate=spec.validate,
        ahead_limit=spec.ahead_limit,
        telemetry=TelemetryConfig() if spec.telemetry else None,
        safepoint_every=safepoint_every,
        safepoint_dir=safepoint_dir,
    )
    runner.fault_attempt = submission
    return runner


def _store_for(store_root: str) -> ResultStore:
    store = _WORKER_STORES.get(store_root)
    if store is None:
        store = ResultStore(store_root)
        _WORKER_STORES[store_root] = store
    return store


def execute_one(
    spec: RunSpec,
    submission: int = 1,
    safepoint_every: Optional[int] = None,
    safepoint_dir: Optional[str] = None,
) -> Tuple[RunResult, float]:
    """Run one spec in this process; returns (result, wall-clock seconds)."""
    from ..faults import maybe_fire

    runner = _runner_for(
        spec, safepoint_every, safepoint_dir, submission=submission
    )
    started = time.perf_counter()
    # Chaos harness hook: crash/hang/raise exactly like a faulty run would,
    # inside the timeout scope so injected hangs test the deadline too.
    maybe_fire("worker.run", key=spec.label, attempt=submission)
    result = runner.run_apps(
        list(spec.apps), spec.approach, mix_name=spec.mix_name
    )
    return result, time.perf_counter() - started


#: True only while a SIGALRM-enforced run is in flight. The repeating
#: interval timer means an alarm can already be queued for delivery at the
#: instant the timeout scope cancels it; that signal then lands *outside*
#: the scope — in the supervisor's settle path — where an unguarded raise
#: would abort the whole campaign. The handler checks this flag and turns
#: late deliveries into no-ops.
_ALARM_ARMED = False


def _alarm_handler(signum, frame):  # pragma: no cover - timing-dependent
    if _ALARM_ARMED:
        raise RunTimeoutError("per-run timeout expired")


def _async_raise(thread_id: int) -> None:
    """Raise RunTimeoutError asynchronously in ``thread_id``."""
    ctypes.pythonapi.PyThreadState_SetAsyncExc(
        ctypes.c_ulong(thread_id), ctypes.py_object(RunTimeoutError)
    )


class _Watchdog:
    """Deadline enforcement for threads SIGALRM cannot reach.

    A daemon thread that, once the deadline passes, injects
    :class:`RunTimeoutError` into the target thread via
    ``PyThreadState_SetAsyncExc`` — re-injecting every 50 ms until
    cancelled, in case the first lands in a frame that swallows it.
    """

    def __init__(self, timeout: float, thread_id: int) -> None:
        self._deadline = time.monotonic() + timeout
        self._thread_id = thread_id
        self._cancel = threading.Event()
        self._thread = threading.Thread(target=self._watch, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._cancel.set()
        self._thread.join(timeout=2.0)
        # An injection may still be pending on the target thread; a NULL
        # exc clears it so it cannot detonate in the caller after the
        # timeout scope has exited (mirrors the SIGALRM disarm flag).
        ctypes.pythonapi.PyThreadState_SetAsyncExc(
            ctypes.c_ulong(self._thread_id), None
        )

    def _watch(self) -> None:
        while not self._cancel.wait(0.05):
            if time.monotonic() < self._deadline:
                continue
            if self._cancel.is_set():
                return
            _async_raise(self._thread_id)


def _execute_with_timeout(
    spec: RunSpec,
    timeout: Optional[float],
    submission: int = 1,
    safepoint_every: Optional[int] = None,
    safepoint_dir: Optional[str] = None,
) -> Tuple[RunResult, float]:
    """Run one spec under a hard deadline.

    On a POSIX main thread the deadline is a repeating ``SIGALRM`` timer;
    anywhere else (Windows, or a caller driving the executor from a
    non-main thread) it falls back to a watchdog thread, with a warning
    naming the active mechanism — the timeout is never silently dropped.
    """
    if not timeout:
        return execute_one(spec, submission, safepoint_every, safepoint_dir)
    if (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    ):
        global _ALARM_ARMED
        signal.signal(signal.SIGALRM, _alarm_handler)
        # Repeating interval: if the first alarm lands while the interpreter
        # is inside a C-level callback that swallows exceptions (e.g. a GC
        # hook), the timeout would otherwise be silently lost. A re-firing
        # timer guarantees a later alarm reaches normal bytecode.
        _ALARM_ARMED = True
        signal.setitimer(signal.ITIMER_REAL, timeout, min(timeout, 0.05))
        try:
            return execute_one(
                spec, submission, safepoint_every, safepoint_dir
            )
        finally:
            # Disarm BEFORE cancelling: a signal queued in the gap is then
            # ignored by the handler instead of detonating in the caller.
            _ALARM_ARMED = False
            signal.setitimer(signal.ITIMER_REAL, 0)
    warnings.warn(
        "SIGALRM is unavailable off the POSIX main thread; enforcing the "
        f"{timeout}s per-run timeout with a watchdog thread "
        "(PyThreadState_SetAsyncExc)",
        RuntimeWarning,
        stacklevel=2,
    )
    watchdog = _Watchdog(timeout, threading.get_ident())
    watchdog.start()
    try:
        return execute_one(spec, submission, safepoint_every, safepoint_dir)
    finally:
        try:
            watchdog.stop()
        except RunTimeoutError:
            # A final injection landed inside stop() itself; the deadline
            # already did its job, don't let the echo escape the scope.
            pass


def _span_part_path(span_dir: str, spec: RunSpec, submission: int) -> str:
    """Unique per-attempt trace-part filename inside ``span_dir``."""
    digest = hashlib.sha256(spec.label.encode("utf-8")).hexdigest()[:8]
    safe = "".join(
        c if c.isalnum() or c in "-_+." else "_" for c in spec.label
    )[:40]
    return os.path.join(
        span_dir, f"{safe}-{digest}-s{submission}-p{os.getpid()}.json"
    )


def _worker(
    spec: RunSpec,
    store_root: Optional[str],
    timeout: Optional[float],
    submission: int = 1,
    fault_plan: Optional[Dict[str, object]] = None,
    safepoint_every: Optional[int] = None,
    safepoint_dir: Optional[str] = None,
    span_dir: Optional[str] = None,
) -> Tuple[RunResult, float, Optional[StoreStats]]:
    """Pool entry point: run, persist to the store, return the result.

    Also returns what the attempt added to this process's store handle's
    stats (None without a store), for the supervisor to fold into its own.
    """
    if fault_plan is not None:
        from ..faults import FaultPlan, install_plan

        install_plan(FaultPlan.from_doc(fault_plan))
    tracer = previous_tracer = None
    if span_dir is not None:
        # Per-attempt tracer: the Runner's span sites pick it up via
        # current_tracer(). The previous tracer is restored in the
        # finally so the serial path hands the supervisor its own
        # tracer back. A worker that dies mid-attempt (SIGKILL fault)
        # never writes its part file; the merge skips the hole and the
        # supervisor's lane still shows the attempt.
        tracer = SpanTracer(f"campaign-worker pid={os.getpid()}")
        previous_tracer = install_tracer(tracer)
    stats: Optional[StoreStats] = None
    try:
        result, wall = _execute_with_timeout(
            spec, timeout, submission, safepoint_every, safepoint_dir
        )
        if store_root is not None:
            from ..faults import maybe_fire

            store = _store_for(store_root)
            key = spec.key()
            before = replace(store.stats)
            store.put(key, result, wall, describe=_describe(spec, result))
            stats = store.stats.since(before)
            # Chaos harness hook: damage the just-written blob, as a dying
            # disk or torn write would. The store's digest/decode checks
            # must catch it on the next read and quarantine rather than
            # serve garbage.
            maybe_fire(
                "store.put",
                key=spec.label,
                attempt=submission,
                path=store.path_for(key),
            )
    finally:
        if tracer is not None:
            install_tracer(previous_tracer)
            try:
                tracer.write(_span_part_path(span_dir, spec, submission))
            except OSError:
                pass  # tracing must never fail the run itself
    return result, wall, stats


def _describe(spec: RunSpec, result: Optional[RunResult] = None) -> Dict[str, object]:
    doc: Dict[str, object] = {
        "mix": spec.mix_name or "+".join(spec.apps),
        "apps": list(spec.apps),
        "approach": spec.approach,
        "seed": spec.seed,
        "horizon": spec.horizon,
        "target_insts": spec.target_insts,
    }
    if spec.trace_digests:
        doc["trace_digests"] = dict(spec.trace_digests)
    if result is not None and result.telemetry is not None:
        doc["telemetry"] = result.telemetry
    return doc


# ---------------------------------------------------------------------------
# Parent side: the supervisor.
# ---------------------------------------------------------------------------
def _safe_key(spec: RunSpec) -> str:
    """``spec.key()``, resilient to specs whose key cannot be computed.

    An unknown approach makes ``key()`` itself raise (the registry lookup
    fails) — exactly the kind of spec that ends up needing a failure
    record, so the record falls back to hashing the label.
    """
    import hashlib

    try:
        return spec.key()
    except Exception:
        digest = hashlib.sha256(spec.label.encode("utf-8")).hexdigest()
        return f"unresolvable-{digest[:32]}"


@dataclass
class _SpecState:
    """The supervisor's bookkeeping for one not-yet-settled spec."""

    index: int
    spec: RunSpec
    #: Budget-consuming attempts (charged at hand-off, refunded for
    #: infrastructure losses the spec is not responsible for).
    attempts: int = 0
    #: Total hand-offs to a worker, never refunded — this is what fault
    #: injectors key on, so an injected crash with ``times=2`` converges.
    submissions: int = 0
    infra_losses: int = 0
    det_failures: int = 0
    failures: List[FailureAttempt] = field(default_factory=list)
    #: Wall-clock µs of the first hand-off (span tracing only): the
    #: supervisor's "run" span opens here and closes when the spec settles.
    started_us: int = 0


class _Supervisor:
    """Shared retry/backoff/quarantine logic for both execution modes."""

    def __init__(
        self,
        specs: Sequence[RunSpec],
        outcomes: Dict[int, RunOutcome],
        total: int,
        store: Optional[ResultStore],
        retries: int,
        timeout: Optional[float],
        progress: Optional[ProgressFn],
        backoff: float,
        quarantine_after: int,
        max_pool_respawns: int,
        safepoint_every: Optional[int],
        checkpoint_dir: Optional[str],
        fault_plan_doc: Optional[Dict[str, object]],
        tracer: Optional[SpanTracer] = None,
        span_dir: Optional[str] = None,
    ) -> None:
        self.specs = specs
        self.outcomes = outcomes
        self.total = total
        self.store = store
        self.store_root = str(store.root) if store is not None else None
        self.retries = retries
        self.timeout = timeout
        self.progress = progress
        self.backoff = backoff
        self.quarantine_after = quarantine_after
        self.max_pool_respawns = max_pool_respawns
        self.safepoint_every = safepoint_every
        self.checkpoint_dir = checkpoint_dir
        self.fault_plan_doc = fault_plan_doc
        self.states: Dict[int, _SpecState] = {}
        self.time_lost = 0.0
        self.pool_respawns = 0
        self.tracer = tracer
        self.span_dir = span_dir

    # -- span tracing ----------------------------------------------------
    def _mark_handoff(self, st: _SpecState) -> None:
        if self.tracer is not None and not st.started_us:
            st.started_us = now_us()

    def _span_attempt(self, st: _SpecState, name: str, wall: float, **args):
        """Record one attempt retrospectively on the spec's virtual lane."""
        if self.tracer is None:
            return
        end = now_us()
        duration = max(int(wall * 1e6), 1)
        self.tracer.complete(
            name,
            end - duration,
            duration,
            lane=self.tracer.lane(st.spec.label),
            **args,
        )

    # -- state -----------------------------------------------------------
    def state(self, index: int) -> _SpecState:
        st = self.states.get(index)
        if st is None:
            st = _SpecState(index=index, spec=self.specs[index])
            self.states[index] = st
        return st

    # -- settling --------------------------------------------------------
    def _settle(self, index: int, outcome: RunOutcome) -> None:
        self.outcomes[index] = outcome
        if self.tracer is not None:
            st = self.states.get(index)
            if st is not None and st.started_us:
                self.tracer.complete(
                    "run",
                    st.started_us,
                    now_us() - st.started_us,
                    lane=self.tracer.lane(outcome.spec.label),
                    status=outcome.status,
                    attempts=outcome.attempts,
                )
        if self.progress:
            self.progress(outcome, len(self.outcomes), self.total)

    def settle_ok(self, index: int, result: RunResult, wall: float) -> None:
        st = self.state(index)
        spec = st.spec
        self._span_attempt(
            st, "attempt", wall, submission=st.submissions, outcome="ok"
        )
        record = None
        if st.failures:
            record = self._record(
                st,
                resolution="recovered",
                final_class=st.failures[-1].error_class,
                reason=f"succeeded on attempt {st.attempts}",
            )
            self._persist(record)
        elif self.store is not None:
            self.store.clear_failure(_safe_key(spec))
        self._settle(
            index,
            RunOutcome(
                spec,
                "ok",
                result,
                wall_clock=wall,
                attempts=max(1, st.attempts),
                failure=record,
            ),
        )

    def settle_failure(
        self, index: int, resolution: str, cls: FailureClass, reason: str
    ) -> None:
        st = self.state(index)
        record = self._record(
            st, resolution=resolution, final_class=cls.value, reason=reason
        )
        self._persist(record)
        self._settle(
            index,
            RunOutcome(
                st.spec,
                resolution,
                error=record.last_error or reason,
                attempts=st.attempts,
                failure=record,
            ),
        )

    def _record(
        self, st: _SpecState, resolution: str, final_class: str, reason: str
    ) -> FailureRecord:
        return FailureRecord(
            key=_safe_key(st.spec),
            label=st.spec.label,
            resolution=resolution,
            final_class=final_class,
            reason=reason,
            attempts=list(st.failures),
            time_lost=sum(f.wall_clock for f in st.failures),
        )

    def _persist(self, record: FailureRecord) -> None:
        if self.store is not None:
            self.store.put_failure(record.key, record.to_doc())

    # -- the supervision decision ---------------------------------------
    def handle_failure(
        self, index: int, error: BaseException, tb: str, wall: float
    ) -> Optional[float]:
        """Classify one failed attempt; returns the requeue delay in
        seconds, or None when the spec settled (failed/quarantined)."""
        st = self.state(index)
        cls = classify_failure(error)
        self.time_lost += wall
        st.failures.append(
            FailureAttempt(
                attempt=st.attempts,
                submission=st.submissions,
                error_class=cls.value,
                error_type=type(error).__name__,
                message=str(error),
                traceback=tb,
                wall_clock=wall,
                at=time.time(),
            )
        )
        if cls is FailureClass.INFRASTRUCTURE:
            # The worker died; the spec may be an innocent bystander of
            # another spec's crash, so its budget is refunded — but a spec
            # present at every pool death is the likely culprit.
            st.attempts -= 1
            st.infra_losses += 1
            if st.infra_losses > self.max_pool_respawns:
                self.settle_failure(
                    index,
                    "quarantined",
                    cls,
                    reason=(
                        f"worker process died {st.infra_losses} times "
                        f"while this spec was in flight"
                    ),
                )
                return None
            return 0.0
        if cls is FailureClass.DETERMINISTIC:
            st.det_failures += 1
            if st.det_failures >= self.quarantine_after:
                self.settle_failure(
                    index,
                    "quarantined",
                    cls,
                    reason=(
                        f"{st.det_failures} deterministic failures; "
                        f"retrying cannot succeed"
                    ),
                )
                return None
        if st.attempts >= self.retries + 1:
            self.settle_failure(
                index,
                "failed",
                cls,
                reason=f"retry budget exhausted after {st.attempts} attempts",
            )
            return None
        return self.backoff * (2 ** max(0, st.attempts - 1))

    def _after_failure(
        self,
        index: int,
        error: BaseException,
        wall: float,
        ready: List[int],
        delayed: Dict[int, float],
    ) -> None:
        tb = "".join(
            traceback_module.format_exception(
                type(error), error, error.__traceback__
            )
        )
        delay = self.handle_failure(index, error, tb, wall)
        self._span_attempt(
            self.state(index),
            "fault-retry",
            wall,
            submission=self.state(index).submissions,
            error=type(error).__name__,
            requeued=delay is not None,
        )
        if delay is None:
            return
        if delay <= 0:
            ready.append(index)
        else:
            delayed[index] = time.monotonic() + delay

    # -- serial mode -----------------------------------------------------
    def run_serial(self, pending: Sequence[int]) -> None:
        from ..faults import runtime as faults_runtime

        if self.store is not None and self.store_root is not None:
            # Write through the caller's store handle, so its stats count
            # the serial path's writes directly (nothing to fold).
            _WORKER_STORES[self.store_root] = self.store
        ready: List[int] = list(pending)
        delayed: Dict[int, float] = {}
        try:
            while ready or delayed:
                now = time.monotonic()
                for index, at in sorted(delayed.items(), key=lambda kv: kv[1]):
                    if at <= now:
                        ready.append(index)
                        del delayed[index]
                if not ready:
                    time.sleep(
                        max(0.005, min(delayed.values()) - time.monotonic())
                    )
                    continue
                index = ready.pop(0)
                st = self.state(index)
                st.submissions += 1
                st.attempts += 1
                self._mark_handoff(st)
                started = time.monotonic()
                try:
                    result, wall, _ = _worker(
                        self.specs[index],
                        self.store_root,
                        self.timeout,
                        st.submissions,
                        self.fault_plan_doc,
                        self.safepoint_every,
                        self.checkpoint_dir,
                        self.span_dir,
                    )
                except Exception as error:
                    self._after_failure(
                        index,
                        error,
                        time.monotonic() - started,
                        ready,
                        delayed,
                    )
                else:
                    self.settle_ok(index, result, wall)
        finally:
            if self.fault_plan_doc is not None:
                # _worker installed the plan into *this* process; drop it
                # so later campaigns (and the caller) run fault-free.
                faults_runtime.reset()

    # -- pooled mode -----------------------------------------------------
    def run_pooled(self, pending: Sequence[int], jobs: int) -> None:
        ready: List[int] = list(pending)
        delayed: Dict[int, float] = {}
        pool: Optional[ProcessPoolExecutor] = None
        #: future -> (spec index, monotonic hand-off time)
        futures: Dict[object, Tuple[int, float]] = {}
        consecutive_respawns = 0

        def degrade_to_serial() -> None:
            remaining = sorted(
                set(ready)
                | set(delayed)
                | {index for index, _ in futures.values()}
            )
            ready.clear()
            delayed.clear()
            futures.clear()
            self.run_serial(remaining)

        try:
            while ready or delayed or futures:
                now = time.monotonic()
                for index, at in sorted(delayed.items(), key=lambda kv: kv[1]):
                    if at <= now:
                        ready.append(index)
                        del delayed[index]
                if pool is None and ready:
                    try:
                        pool = ProcessPoolExecutor(
                            max_workers=min(jobs, max(1, len(ready)))
                        )
                    except (OSError, ValueError, RuntimeError):
                        # No process pool on this platform/sandbox: degrade
                        # to serial for everything still unfinished.
                        degrade_to_serial()
                        return
                while ready and pool is not None:
                    index = ready.pop(0)
                    st = self.state(index)
                    st.submissions += 1
                    st.attempts += 1
                    self._mark_handoff(st)
                    try:
                        future = pool.submit(
                            _worker,
                            self.specs[index],
                            self.store_root,
                            self.timeout,
                            st.submissions,
                            self.fault_plan_doc,
                            self.safepoint_every,
                            self.checkpoint_dir,
                            self.span_dir,
                        )
                    except BrokenProcessPool:
                        st.submissions -= 1
                        st.attempts -= 1
                        ready.insert(0, index)
                        break
                    futures[future] = (index, time.monotonic())
                if not futures:
                    if ready and pool is not None:
                        # Every submit bounced off a broken pool: respawn.
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = None
                        self.pool_respawns += 1
                        consecutive_respawns += 1
                        if consecutive_respawns > self.max_pool_respawns:
                            warnings.warn(
                                f"worker pool died {consecutive_respawns} "
                                f"times in a row; finishing the remaining "
                                f"runs serially",
                                RuntimeWarning,
                            )
                            degrade_to_serial()
                            return
                    elif delayed:
                        time.sleep(
                            max(
                                0.005,
                                min(delayed.values()) - time.monotonic(),
                            )
                        )
                    continue
                wait_timeout = None
                if delayed:
                    wait_timeout = max(
                        0.0, min(delayed.values()) - time.monotonic()
                    )
                done, _ = wait(
                    set(futures),
                    timeout=wait_timeout,
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    index, handed_off = futures.pop(future)
                    wall = time.monotonic() - handed_off
                    try:
                        result, run_wall, stats = future.result()
                    except BrokenProcessPool as error:
                        broken = True
                        self._after_failure(
                            index, error, wall, ready, delayed
                        )
                    except Exception as error:  # raised inside the worker
                        consecutive_respawns = 0
                        self._after_failure(
                            index, error, wall, ready, delayed
                        )
                    else:
                        consecutive_respawns = 0
                        if stats is not None:
                            self.store.stats.add(stats)
                        self.settle_ok(index, result, run_wall)
                if broken:
                    # The pool is unusable; in-flight futures are lost too.
                    # None of them is charged — the crash may belong to any
                    # one of them, and innocents must not lose budget.
                    for future, (index, handed_off) in list(futures.items()):
                        self._after_failure(
                            index,
                            BrokenProcessPool("worker process died"),
                            time.monotonic() - handed_off,
                            ready,
                            delayed,
                        )
                    futures.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
                    self.pool_respawns += 1
                    consecutive_respawns += 1
                    if consecutive_respawns > self.max_pool_respawns:
                        warnings.warn(
                            f"worker pool died {consecutive_respawns} times "
                            f"in a row; finishing the remaining runs "
                            f"serially",
                            RuntimeWarning,
                        )
                        degrade_to_serial()
                        return
        finally:
            if pool is not None:
                pool.shutdown(wait=True)


def execute(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    retries: int = 1,
    timeout: Optional[float] = None,
    progress: Optional[ProgressFn] = None,
    backoff: float = 0.25,
    quarantine_after: int = 2,
    max_pool_respawns: int = 3,
    safepoint_every: Optional[int] = None,
    checkpoint_dir: Optional[object] = None,
    faults: Optional[object] = None,
    spans: Optional[object] = None,
) -> CampaignResult:
    """Execute a plan under supervision; never raises for individual runs.

    ``retries`` bounds *additional* budget-consuming attempts after the
    first, so the default reports a run as failed once it has failed twice
    (infrastructure losses are not charged). ``backoff`` is the base of the
    exponential requeue delay. ``quarantine_after`` deterministic failures
    quarantine a spec; ``max_pool_respawns`` bounds both one spec's
    tolerated worker deaths and consecutive no-progress pool respawns.
    ``safepoint_every`` (cycles) makes workers checkpoint into
    ``checkpoint_dir`` (default: ``<store>/checkpoints``) and retries
    resume from the last checkpoint. ``faults`` injects a deterministic
    :class:`~repro.faults.FaultPlan` into every worker (chaos testing).
    ``spans`` names a Chrome-trace JSON file; every worker writes its own
    span part file next to it and the supervisor merges them — with its
    own scheduling spans — into one cross-process timeline at the end.
    """
    started = time.perf_counter()
    started_us = now_us()
    tracer: Optional[SpanTracer] = None
    span_dir: Optional[str] = None
    if spans is not None:
        span_dir = str(spans) + ".parts"
        os.makedirs(span_dir, exist_ok=True)
        # Stale parts from an earlier campaign pointed at the same output
        # would pollute the merge; a part written this run replaces them.
        for stale in os.listdir(span_dir):
            if stale.endswith(".json"):
                try:
                    os.remove(os.path.join(span_dir, stale))
                except OSError:
                    pass
        tracer = SpanTracer("campaign-supervisor")
    total = len(specs)
    outcomes: Dict[int, RunOutcome] = {}
    pending: List[int] = []
    for index, spec in enumerate(specs):
        hit = store.get(spec.key()) if store is not None else None
        if hit is not None:
            result, original_wall = hit
            store.clear_failure(spec.key())
            outcomes[index] = RunOutcome(
                spec, "cached", result, wall_clock=original_wall
            )
            if tracer is not None:
                tracer.instant(
                    "run-cached", lane=tracer.lane(spec.label), index=index
                )
            if progress:
                progress(outcomes[index], len(outcomes), total)
        else:
            pending.append(index)

    checkpoint_dir_str: Optional[str] = None
    if safepoint_every is not None:
        if checkpoint_dir is None and store is not None:
            checkpoint_dir = Path(store.root) / "checkpoints"
        if checkpoint_dir is None:
            warnings.warn(
                "safepoint_every ignored: no checkpoint_dir and no store "
                "to derive one from",
                RuntimeWarning,
            )
            safepoint_every = None
        else:
            Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
            checkpoint_dir_str = str(checkpoint_dir)

    fault_plan_doc = faults.to_doc() if faults is not None else None

    supervisor = _Supervisor(
        specs,
        outcomes,
        total,
        store,
        retries,
        timeout,
        progress,
        backoff,
        quarantine_after,
        max_pool_respawns,
        safepoint_every,
        checkpoint_dir_str,
        fault_plan_doc,
        tracer=tracer,
        span_dir=span_dir,
    )
    if pending:
        if jobs > 1:
            supervisor.run_pooled(pending, jobs)
        else:
            supervisor.run_serial(pending)

    if tracer is not None and spans is not None:
        tracer.complete(
            "campaign",
            started_us,
            now_us() - started_us,
            runs=total,
            cached=total - len(pending),
            jobs=jobs,
        )
        parts = sorted(
            os.path.join(span_dir, name)
            for name in os.listdir(span_dir)
            if name.endswith(".json")
        )
        # Missing/absent parts are expected: a SIGKILLed worker never
        # flushes its tracer. The supervisor's own spans still record
        # the failed attempt, so the timeline stays complete.
        merged = merge_trace_files(parts, extra=[tracer.to_chrome()])
        write_trace_file(str(spans), merged)
        for part in parts:
            try:
                os.remove(part)
            except OSError:
                pass
        try:
            os.rmdir(span_dir)
        except OSError:
            pass

    ordered = [outcomes[i] for i in sorted(outcomes)]
    return CampaignResult(
        outcomes=ordered,
        wall_clock=time.perf_counter() - started,
        time_lost_to_faults=supervisor.time_lost,
        pool_respawns=supervisor.pool_respawns,
    )
