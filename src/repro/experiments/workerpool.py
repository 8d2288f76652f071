"""Persistent workers: the one process pool every parallel batch uses.

A campaign is hundreds of small batches, so forking a fresh pool per
batch would pay process start-up again and again.  This module keeps
one supervised pool of worker processes alive across batches and runs
module-level ``(worker, arg)`` tasks on it; the resilient executor's
parallel rounds, which serve every campaign-store miss, dispatch here:

* **Per-worker result pipes** — a worker pickles its result once and
  sends it on its own pipe.  No lock is shared between worker
  processes, so a worker dying mid-send (chaos ``die``, OOM kill) can
  corrupt only its own channel — never wedge the others'.
* **Per-task environment forwarding** — the ``REPRO_*`` environment is
  snapshotted at dispatch and replayed in the worker, so env-driven
  behaviour (chaos, tracing, tier gates) tracks the parent even though
  the worker forked long before.
* **Failure containment** — a worker that dies (chaos ``die``, OOM
  kill) or outlives a per-task timeout is killed and respawned; only
  its in-flight task fails.

Workers fork once, when the pool is built, so anything registered in
the parent afterwards (a plugin detector, say) is unknown to them.
One task is in flight per worker at a time, so dispatch-to-result
spans are exact and a kill loses exactly one task.  A serial batch
runs through :func:`map_inline` instead, under the same result
contract.
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from multiprocessing import get_context
from typing import Callable, Sequence

from ..obs.heartbeat import beacon_dir, write_beacon

#: Liveness/deadline poll cadence while waiting for results.
_POLL_SECONDS = 0.05

#: Only this namespace is forwarded per task; everything else the
#: worker inherited at fork and never needs refreshed.
_ENV_PREFIX = "REPRO_"


# -- worker process ----------------------------------------------------

def _apply_env(env: dict[str, str]) -> None:
    """Make the worker's ``REPRO_*`` namespace equal the snapshot."""
    for key in [k for k in os.environ if k.startswith(_ENV_PREFIX)]:
        if key not in env:
            del os.environ[key]
    for key, value in env.items():
        if os.environ.get(key) != value:
            os.environ[key] = value


class _WorkerStatus:
    """Per-worker heartbeat state: cumulative counters + beacon writes.

    Entirely best-effort: every method swallows its own errors, because
    a heartbeat must never fail (or slow) the task it describes.  The
    beacon directory is re-read per task since ``REPRO_BEACON_DIR``
    rides the per-task env snapshot like every other ``REPRO_*`` knob.
    """

    def __init__(self, worker_id: int):
        self.name = f"worker-{worker_id}"
        self.tasks_completed = 0
        self.tasks_failed = 0
        self.detector_verdicts = 0.0
        self.detector_positives = 0.0
        self.last_span_seconds = 0.0

    def _emit(self, state: str, digest: object) -> None:
        directory = beacon_dir()
        if directory is None:
            return
        write_beacon(
            directory,
            self.name,
            {
                "state": state,
                "digest": digest,
                "tasks_completed": self.tasks_completed,
                "tasks_failed": self.tasks_failed,
                "detector_verdicts": self.detector_verdicts,
                "detector_positives": self.detector_positives,
                "last_span_seconds": round(self.last_span_seconds, 6),
            },
        )

    def task_started(self, key: object) -> None:
        try:
            self._emit("running", key)
        except Exception:
            pass

    def task_finished(
        self, ok: bool, result: object, seconds: float
    ) -> None:
        try:
            if ok:
                self.tasks_completed += 1
            else:
                self.tasks_failed += 1
            self.last_span_seconds = seconds
            telemetry = getattr(result, "telemetry", None)
            if isinstance(telemetry, dict):
                metrics = telemetry.get("metrics", {})

                def counter(name: str) -> float:
                    entry = metrics.get(name)
                    return entry["value"] if entry else 0.0

                positives = counter("caer.verdicts_positive")
                self.detector_positives += positives
                self.detector_verdicts += positives + counter(
                    "caer.verdicts_negative"
                )
            self._emit("idle", None)
        except Exception:
            pass


def _worker_main(worker_id: int, conn) -> None:
    """Worker loop: run each ``worker(arg)``, pickle, send.

    ``conn`` is this worker's private end of its duplex pipe to the
    parent: pickled ``(key, worker, arg, env)`` tasks arrive on it, and
    each result leaves on it as the pickled ``(ok, value)`` pair.  An
    ``ok=False`` value is the raised exception, so the parent reports
    the same failure identity an in-process run would; a result that
    cannot be pickled comes back as a failure naming that.  Sends are
    synchronous in this thread (no feeder thread, no shared lock), so a
    death at any instant leaves every other worker's pipe untouched.
    """
    status = _WorkerStatus(worker_id)
    while True:
        msg = pickle.loads(conn.recv_bytes())
        if msg is None:  # the pool is closing
            break
        key, worker, arg, env = msg
        _apply_env(env)
        status.task_started(key)
        started = time.perf_counter()
        try:
            result: object = worker(arg)
            ok = True
        except BaseException as exc:  # shipped, not swallowed
            result = exc
            ok = False
        status.task_finished(ok, result, time.perf_counter() - started)
        try:
            data = pickle.dumps((ok, result), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            data = pickle.dumps(
                (False, RuntimeError(f"unpicklable result: {exc!r}"))
            )
        conn.send_bytes(data)


# -- parent-side pool --------------------------------------------------

@dataclass
class WorkerFailure:
    """A task the pool could not turn into a result."""

    error: BaseException | None
    timed_out: bool = False
    died: bool = False
    message: str = ""

    def describe(self) -> str:
        if self.message:
            return self.message
        return repr(self.error)


def map_inline(
    tasks: Sequence[tuple[object, Callable[[object], object], object]],
    on_result: Callable[[object, object, float], None] | None = None,
) -> dict:
    """Run ``(key, worker, arg)`` tasks in this process, in order.

    The serial twin of :meth:`SpecWorkerPool.map_specs`, with the same
    result contract: values are ``worker(arg)``, or a
    :class:`WorkerFailure` carrying the :class:`Exception` it raised;
    every task runs whatever its siblings do; and
    ``on_result(key, value, span_seconds)`` fires as each settles.
    Anything that is not an :class:`Exception` (``KeyboardInterrupt``)
    abandons the batch, as it does on the pool.
    """
    results: dict = {}
    for key, worker, arg in tasks:
        started = time.perf_counter()
        try:
            value: object = worker(arg)
        except Exception as exc:
            value = WorkerFailure(error=exc)
        results[key] = value
        if on_result is not None:
            on_result(key, value, time.perf_counter() - started)
    return results


@dataclass
class _Worker:
    """Parent-side handle of one persistent worker process."""

    process: object
    #: parent end of this worker's private duplex pipe
    conn: object
    #: whether a task is in flight, and that task's key
    busy: bool = False
    key: object = None
    deadline: float | None = None
    started: float = 0.0


class SpecWorkerPool:
    """A warm, fixed-size pool of persistent task workers.

    One task in flight per worker; :meth:`map_specs` drives a whole
    batch and returns per-key results or :class:`WorkerFailure`
    markers.  The pool survives across batches — that is the point —
    and :func:`get_pool` keeps a process-wide singleton sized to the
    campaign's ``--jobs``.  The class and :meth:`map_specs` keep their
    spec-era names because the benchmark's ledger wraps them by name.
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
        self._ctx = get_context("fork")
        self._workers: dict[int, _Worker] = {}
        self._next_id = 0
        self._closed = False
        #: workers respawned after a death or timeout kill
        self.respawns = 0
        for _ in range(jobs):
            self._spawn()

    # -- lifecycle -----------------------------------------------------

    def _spawn(self) -> int:
        wid = self._next_id
        self._next_id += 1
        conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(wid, child_conn),
            daemon=True,
            name=f"repro-spec-worker-{wid}",
        )
        process.start()
        # Drop the parent's copy of the worker's end so a worker death
        # shows up as EOF on ours instead of a silent stall.
        child_conn.close()
        self._workers[wid] = _Worker(process=process, conn=conn)
        return wid

    def _retire(self, wid: int, kill: bool) -> None:
        """Drop one worker, killing it if asked."""
        worker = self._workers.pop(wid)
        if kill:
            worker.process.terminate()
        worker.process.join(timeout=2.0)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=2.0)
        worker.conn.close()

    def close(self) -> None:
        """Shut every worker down."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            if not worker.busy and worker.process.is_alive():
                try:
                    worker.conn.send_bytes(pickle.dumps(None))
                except (OSError, ValueError):
                    pass
        for wid in list(self._workers):
            self._retire(wid, kill=self._workers[wid].busy)

    # -- dispatch ------------------------------------------------------

    def _dispatch(
        self,
        worker: _Worker,
        task: tuple,
        timeout: float | None,
        env: dict[str, str],
    ) -> None:
        data = pickle.dumps((*task, env), pickle.HIGHEST_PROTOCOL)
        worker.busy = True
        worker.key = task[0]
        worker.started = time.monotonic()
        worker.deadline = (
            worker.started + timeout if timeout is not None else None
        )
        try:
            worker.conn.send_bytes(data)
        except OSError:
            pass  # it died; the liveness sweep fails the task

    def map_specs(
        self,
        tasks: Sequence[tuple[object, Callable[[object], object], object]],
        timeout: float | None = None,
        on_result: Callable[[object, object, float], None] | None = None,
    ) -> dict:
        """Run ``(key, worker, arg)`` tasks; results keyed by key.

        ``worker`` must be a module-level callable, and ``arg`` and
        its result picklable (a task that cannot be pickled raises at
        dispatch).  Values are ``worker(arg)`` on success and
        :class:`WorkerFailure` otherwise: an exception shipped back
        from the worker (an unpicklable result included), a per-task
        ``timeout`` expiry (the worker is killed and respawned), or a
        worker death.  ``on_result(key, value, span_seconds)`` fires as
        each task settles, span measured dispatch-to-result.  Any
        exception that escapes the batch — a worker exception that is
        not an :class:`Exception` (chaos ``interrupt``'s
        :exc:`KeyboardInterrupt`), Ctrl-C in this process, or an
        ``on_result`` checkpoint failure — tears the whole pool down
        before re-raising, so no orphan worker keeps running and a
        fresh pool starts clean.
        """
        results: dict = {}
        pending = deque(tasks)
        env = {
            k: v for k, v in os.environ.items()
            if k.startswith(_ENV_PREFIX)
        }

        def settle(key: object, value: object, span: float) -> None:
            results[key] = value
            if on_result is not None:
                on_result(key, value, span)

        try:
            while pending or any(w.busy for w in self._workers.values()):
                for worker in self._workers.values():
                    if not pending:
                        break
                    if not worker.busy:
                        self._dispatch(
                            worker, pending.popleft(), timeout, env
                        )
                now = time.monotonic()
                wait = _POLL_SECONDS
                for worker in self._workers.values():
                    if worker.busy and worker.deadline is not None:
                        wait = min(
                            wait, max(worker.deadline - now, 0.001)
                        )
                by_conn = {w.conn: w for w in self._workers.values()}
                for conn in mp_connection.wait(list(by_conn), wait):
                    worker = by_conn[conn]
                    try:
                        data = conn.recv_bytes()
                    except (EOFError, OSError):
                        # The worker died; the liveness sweep below
                        # retires and replaces it.
                        continue
                    try:
                        ok, value = pickle.loads(data)
                    except Exception as exc:
                        # Pickled, but not rebuildable here (say, an
                        # exception whose __init__ takes more args).
                        ok, value = False, RuntimeError(
                            f"unpicklable result: {exc!r}"
                        )
                    key = worker.key
                    span = time.monotonic() - worker.started
                    worker.busy = False
                    worker.deadline = None
                    if ok:
                        settle(key, value, span)
                    elif isinstance(value, Exception):
                        settle(key, WorkerFailure(error=value), span)
                    else:
                        # KeyboardInterrupt and kin abandon the batch.
                        raise value
                now = time.monotonic()
                for wid in list(self._workers):
                    worker = self._workers[wid]
                    if not worker.busy:
                        if not worker.process.is_alive():
                            # Died between tasks: no task to fail, but
                            # replace it so its EOF'd pipe doesn't turn
                            # every wait() into a spin.
                            self._retire(wid, kill=False)
                            self._spawn()
                            self.respawns += 1
                        continue
                    key = worker.key
                    if not worker.process.is_alive():
                        code = worker.process.exitcode
                        span = now - worker.started
                        self._retire(wid, kill=False)
                        self._spawn()
                        self.respawns += 1
                        settle(
                            key,
                            WorkerFailure(
                                error=None, died=True,
                                message=(
                                    "worker died with exit code "
                                    f"{code}"
                                ),
                            ),
                            span,
                        )
                    elif (worker.deadline is not None
                            and now > worker.deadline):
                        span = now - worker.started
                        self._retire(wid, kill=True)
                        self._spawn()
                        self.respawns += 1
                        settle(
                            key,
                            WorkerFailure(error=None, timed_out=True),
                            span,
                        )
        except BaseException:
            self.close()
            _reset_singleton(self)
            raise
        return results


# -- process-wide singleton --------------------------------------------

_pool: SpecWorkerPool | None = None
_atexit_registered = False


def _reset_singleton(pool: SpecWorkerPool) -> None:
    global _pool
    if _pool is pool:
        _pool = None


def get_pool(jobs: int) -> SpecWorkerPool:
    """The shared warm pool, (re)sized to ``jobs`` workers.

    Every parallel batch calls this; the pool persists between calls —
    resizing (a changed ``--jobs``) is the only thing that recycles
    the workers.
    """
    global _pool, _atexit_registered
    if _pool is not None and _pool.jobs != jobs:
        _pool.close()
        _pool = None
    if _pool is None:
        _pool = SpecWorkerPool(jobs)
        if not _atexit_registered:
            atexit.register(shutdown_pool)
            _atexit_registered = True
    return _pool


def shutdown_pool() -> None:
    """Close the singleton pool (tests and interpreter exit)."""
    global _pool
    if _pool is not None:
        _pool.close()
        _pool = None
