"""One probe session: a growing CNF answered probe by probe.

The optimisation descents (:mod:`repro.opt.minimize`) and the lazy
verification loop (:mod:`repro.encoding.lazy`) share one shape, and a
single-shot solve (:func:`repro.sat.portfolio.solve_portfolio`) is its
one-probe case: solve the
CNF under some assumptions; on SAT let a ``refine`` callback check the
model against lazily deferred constraints, append the clauses it
violates, and re-solve until the model is clean (cf. Engels & Wille's
lazy constraint selection).  Between probes the caller may append clauses
of its own (totalizer layers, checkpointed units).  :class:`ProbeSession`
is that shape, written once:

* ``parallel <= 1``: one incremental in-process :class:`Solver`; every
  probe first loads the clauses appended since the last one.
* ``parallel > 1``: the resident :class:`~repro.sat.service.SolverService`
  races every probe over diversified members and ships the same delta
  itself.  When the service cannot start, or loses every worker, the
  session falls back to an in-process solver loaded from the current CNF
  and carries on (``service.fallbacks``).

``wall_deadline_s`` bounds the whole session; each solve gets
min(per-probe budget, remaining wall budget).  An exhausted budget — also
midway through refinement — returns UNKNOWN with ``timed_out`` set, never
a model the refiner has not passed.  ``with_proof`` makes every solver of
the session, in process or in a service worker, log DRAT from before its
first clause; an UNSAT outcome then carries the steps.
"""

from __future__ import annotations

import copy
import time
from typing import TYPE_CHECKING, Callable

from repro.obs import events as obs_events
from repro.obs import trace
from repro.sat.portfolio import (
    PortfolioMember,
    WorkerReport,
    diversified_members,
)
from repro.sat.proof import ProofLogger
from repro.sat.service import (
    ProbeOutcome,
    ServiceError,
    SolverService,
    min_deadline,
)
from repro.sat.solver import Solver
from repro.sat.types import SolveResult, SolverConfig

if TYPE_CHECKING:
    from repro.logic.cnf import CNF


class WallBudget:
    """Wall-clock budget of one session; probes get the remainder."""

    def __init__(self, wall_deadline_s: float | None):
        self._deadline = (
            time.perf_counter() + wall_deadline_s
            if wall_deadline_s is not None else None
        )

    def remaining(self) -> float | None:
        """Seconds left, or None when the budget is unbounded."""
        if self._deadline is None:
            return None
        return self._deadline - time.perf_counter()

    def exhausted(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0

    def probe_budget(self, per_probe_s: float | None) -> float | None:
        """min(per-probe timeout, remaining wall budget); None = unbounded."""
        remaining = self.remaining()
        if remaining is None:
            return per_probe_s
        remaining = max(remaining, 0.0)
        if per_probe_s is None:
            return remaining
        return min(per_probe_s, remaining)


class ProbeSession:
    """Incremental probes over one growing CNF, serial or raced.

    ``solver`` (serial only) supplies the in-process solver; ``members``
    (parallel only) the service's portfolio.  ``profile`` turns on the
    phase profiler in every solver the session creates.  Read the
    results (:meth:`solver_stats`, :meth:`summary`, :attr:`reports`)
    before :meth:`close`.
    """

    def __init__(
        self,
        cnf: CNF,
        parallel: int = 1,
        members: list[PortfolioMember] | None = None,
        solver: Solver | None = None,
        refine: Callable[[list[int]], int] | None = None,
        wall_deadline_s: float | None = None,
        profile: bool = False,
        with_proof: bool = False,
    ):
        self.cnf = cnf
        self.parallel = parallel
        self.refine = refine
        self.budget = WallBudget(wall_deadline_s)
        #: Solver calls so far (refinement re-solves included).
        self.calls = 0
        #: The in-process solver (serial, or after a service fallback).
        self.solver: Solver | None = None
        self._service: SolverService | None = None
        #: The service members' reports (empty when serial).
        self.reports: list[WorkerReport] = []
        self._with_proof = with_proof
        self._proof: ProofLogger | None = None
        self._shipped = 0
        self._configured_deadline: float | None = None
        self._service_stats: dict = {}
        self._service_info: dict = {}
        self._winners: dict[str, int] = {}
        self._wall = 0.0
        if parallel > 1:
            if members is None:
                base = SolverConfig(profile=True) if profile else None
                members = diversified_members(parallel, base=base)
            self._members = members
            service = SolverService(
                cnf.num_vars, cnf.clauses, members=members,
                processes=parallel, with_proof=with_proof,
            )
            self.reports = service.reports
            try:
                self._service = service.start()
            except ServiceError as exc:
                self._fall_back(exc)
        else:
            self._use_solver(
                solver if solver is not None
                else Solver(SolverConfig(profile=profile))
            )

    # -- lifecycle -----------------------------------------------------

    def _use_solver(self, solver: Solver) -> None:
        """Probe in process from now on; the next probe loads the CNF."""
        if self._with_proof:
            # First: attaching a proof may swap the engine, hooks and all.
            self._proof = ProofLogger()
            solver.attach_proof(self._proof)
        progress = obs_events.progress_callback()
        if progress is not None:
            solver.on_progress(progress)
        if obs_events.enabled():
            solver.on_event(obs_events.emit)
        solver.ensure_var(max(self.cnf.num_vars, 1))
        self.solver = solver
        self._shipped = 0
        self._configured_deadline = solver.config.wall_deadline_s

    def _fall_back(self, exc: ServiceError) -> None:
        """Retire the service and finish on an in-process solver."""
        if self._service is not None:
            self._service_info.update(self._service.summary())
            self._service.close()
            self._service = None
        self._service_info["fallback"] = str(exc)
        trace.event("service.fallback", error=str(exc))
        self._use_solver(Solver(copy.copy(self._members[0].config)))

    def close(self) -> None:
        """Stop the service (idempotent); restore the solver's deadline."""
        if self._service is not None:
            self._service.close()
        if self.solver is not None:
            self.solver.config.wall_deadline_s = self._configured_deadline

    def __enter__(self) -> "ProbeSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- probing -------------------------------------------------------

    def probe(
        self,
        assumptions: list[int] | tuple[int, ...] = (),
        per_probe_s: float | None = None,
    ) -> ProbeOutcome:
        """Solve under ``assumptions``, re-solving until ``refine`` passes
        the model; UNSAT and UNKNOWN answers are returned as they come."""
        while True:
            if self.budget.exhausted():
                return ProbeOutcome(verdict=SolveResult.UNKNOWN,
                                    timed_out=True)
            outcome = self._solve(assumptions,
                                  self.budget.probe_budget(per_probe_s))
            if (
                outcome.verdict is not SolveResult.SAT
                or self.refine is None
                or self.refine(outcome.model or []) == 0
            ):
                return outcome

    def _solve(self, assumptions, timeout_s: float | None) -> ProbeOutcome:
        self.calls += 1
        if self._service is not None:
            try:
                outcome = self._service.probe(assumptions,
                                              timeout_s=timeout_s)
            except ServiceError as exc:
                self._fall_back(exc)
            else:
                self._wall += outcome.wall_time_s
                if outcome.winner_name:
                    self._winners[outcome.winner_name] = (
                        self._winners.get(outcome.winner_name, 0) + 1
                    )
                for key, value in outcome.stats.items():
                    if isinstance(value, (int, float)):
                        self._service_stats[key] = (
                            self._service_stats.get(key, 0) + value
                        )
                return outcome
        solver = self.solver
        assert solver is not None
        clauses = self.cnf.clauses
        for clause in clauses[self._shipped:]:
            solver.add_clause(clause)
        self._shipped = len(clauses)
        solver.config.wall_deadline_s = min_deadline(
            self._configured_deadline, timeout_s
        )
        verdict = solver.solve(list(assumptions))
        unsat = verdict is SolveResult.UNSAT
        return ProbeOutcome(
            verdict=verdict,
            model=solver.model() if verdict is SolveResult.SAT else None,
            unsat_core=solver.unsat_core() if unsat else [],
            proof_steps=(
                list(self._proof.steps)
                if unsat and self._proof is not None else None
            ),
            timed_out=verdict is SolveResult.UNKNOWN and (
                solver.last_stats.deadline_hits > 0
                or self.budget.exhausted()
            ),
        )

    # -- results -------------------------------------------------------

    def learned_units(self, skip_keys: set[tuple[int, ...]]) -> list[int]:
        """Assumption-free unit facts the in-process solver has learned
        (none on the service, whose workers keep theirs)."""
        if self.solver is None:
            return []
        units = self.solver.export_learned(max_lbd=0, max_len=1, limit=256,
                                           skip_keys=skip_keys)
        return [unit[0] for unit in units if len(unit) == 1]

    def solver_stats(self) -> dict:
        """Solver counters summed over every solve of the session."""
        stats = (
            self.solver.stats.as_dict() if self.solver is not None else {}
        )
        for key, value in self._service_stats.items():
            stats[key] = stats.get(key, 0) + value
        return stats

    def summary(self) -> dict | None:
        """Race summary of a parallel session (None when serial)."""
        if self.parallel <= 1:
            return None
        info = dict(self._service_info)
        if self._service is not None:
            info.update(self._service.summary())
        if "fallback" in info:  # a session falls back at most once
            info["counters"] = {
                **info.get("counters", {}), "service.fallbacks": 1,
            }
        return {
            "processes": self.parallel,
            "calls": self.calls,
            "winners": dict(self._winners),
            "wall_time_s": self._wall,
            "service": info,
        }
