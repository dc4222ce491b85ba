"""Persistent worker pool the gateway multiplexes requests onto.

Each worker is a forked process running a recv → execute → send loop
over a pipe; forking keeps the import-warm interpreter (no re-import of
the encoder/solver stack per request), which is most of the gateway's
cold-request advantage over ``python -m repro ...``.

Crash semantics: a worker that dies mid-request (OOM kill, fault
injection, segfault) is detected by the broken pipe, respawned
immediately, and the request raises :class:`WorkerCrashed` — the server
then degrades to a one-shot in-process solve rather than failing the
client.  A request that outlives its deadline by more than the grace
period gets its worker killed (solver loops are not interruptible from
outside) and raises :class:`DeadlineExceeded`; the replacement worker
is ready before the next request needs it.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

from repro.gateway.requests import RequestError, execute
from repro.obs import trace

#: Extra seconds past the deadline before a busy worker is killed.
KILL_GRACE_S = 5.0


class WorkerCrashed(RuntimeError):
    """The worker died mid-request; a fallback solve may still answer."""


class DeadlineExceeded(RuntimeError):
    """The request outlived its deadline; its worker was recycled."""


def _pool_worker(conn) -> None:
    """Child entry point: serve requests until the pipe closes."""
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return
        if job is None:
            return
        try:
            response = execute(
                job.get("payload") or {},
                warm=job.get("warm"),
                budget_s=job.get("budget_s"),
            )
        except RequestError as exc:
            response = {"ok": False, "error": str(exc), "kind": "request"}
        except Exception as exc:  # noqa: BLE001 — report, keep serving
            response = {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "kind": "internal",
            }
        try:
            conn.send(response)
        except (BrokenPipeError, OSError):
            return


class TaskWorkerPool:
    """Fixed-size pool of long-lived solve workers."""

    def __init__(self, processes: int = 2):
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = processes
        self.crashes = 0
        self._ctx = multiprocessing.get_context("fork")
        self._lock = threading.Condition()
        self._workers: list[tuple] = [
            self._spawn() for _ in range(processes)
        ]
        self._free = list(range(processes))
        self._closed = False

    def _spawn(self):
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_pool_worker, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def worker_pids(self) -> list[int]:
        return [proc.pid for proc, _ in self._workers if proc.is_alive()]

    def alive_count(self) -> int:
        return sum(proc.is_alive() for proc, _ in self._workers)

    def run(
        self,
        payload: dict,
        warm: dict | None = None,
        budget_s: float | None = None,
    ) -> dict:
        """Run one request on a free worker (blocks until one frees up)."""
        with self._lock:
            while not self._free and not self._closed:
                self._lock.wait(timeout=1.0)
            if self._closed:
                raise WorkerCrashed("pool is closed")
            slot = self._free.pop()
        try:
            return self._run_on(slot, payload, warm, budget_s)
        finally:
            with self._lock:
                self._free.append(slot)
                self._lock.notify()

    def _run_on(self, slot, payload, warm, budget_s) -> dict:
        proc, conn = self._workers[slot]
        if not proc.is_alive():
            self._respawn(slot)
            proc, conn = self._workers[slot]
        try:
            conn.send({
                "payload": payload, "warm": warm, "budget_s": budget_s,
            })
            if budget_s is None:
                return conn.recv()
            if conn.poll(budget_s + KILL_GRACE_S):
                return conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            self._note_crash(slot, proc, f"{type(exc).__name__}: {exc}")
            raise WorkerCrashed(str(exc)) from exc
        # Past deadline + grace: the solver cannot be interrupted from
        # here, so recycle the whole worker.
        self._kill(proc)
        self._respawn(slot)
        raise DeadlineExceeded(
            f"request exceeded deadline of {budget_s:.1f}s"
        )

    def _note_crash(self, slot: int, proc, error: str) -> None:
        self.crashes += 1
        trace.event("gateway.worker_crash", pid=proc.pid, error=error)
        self._kill(proc)
        self._respawn(slot)

    def _respawn(self, slot: int) -> None:
        _, old_conn = self._workers[slot]
        try:
            old_conn.close()
        except OSError:
            pass
        self._workers[slot] = self._spawn()

    @staticmethod
    def _kill(proc) -> None:
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
            if proc.is_alive() and proc.pid:
                os.kill(proc.pid, 9)
                proc.join(timeout=2.0)

    def close(self) -> None:
        """Quit every worker; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._lock.notify_all()
        for proc, conn in self._workers:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc, conn in self._workers:
            proc.join(timeout=2.0)
            self._kill(proc)
            try:
                conn.close()
            except OSError:
                pass
