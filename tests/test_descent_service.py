"""The persistent incremental solver service and its descent integration.

Covers the learned-clause exchange on the core solver, the
:class:`repro.sat.service.SolverService` session protocol (delta
shipping, cancellation, worker death), the differential agreement of the
serial and service descents on the paper's running example, and the
trace evidence that probes ship O(delta) clauses instead of O(|CNF|).
"""

from __future__ import annotations

import itertools
import os
import signal
import time

import pytest

from repro.casestudies.running_example import running_example
from repro.logic import CNF, VarPool
from repro.logic.totalizer import Totalizer
from repro.obs import trace
from repro.opt import minimize_sum
from repro.sat import PortfolioMember, SolverConfig
from repro.sat.portfolio import fork_available
from repro.sat.service import (
    ServiceError,
    SolverService,
)
from repro.sat.solver import Solver
from repro.sat.types import SolveResult
from repro.tasks import generate_layout, optimize_schedule

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


# --- helpers (module-level: fork-safe) -------------------------------------

class _FragileSolver(Solver):
    """Solves once, then raises — simulates a mid-session worker death."""

    def __init__(self, config=None):
        super().__init__(config)
        self._fragile_solves = 0

    def solve(self, assumptions=()):
        self._fragile_solves += 1
        if self._fragile_solves > 1:
            raise RuntimeError("injected mid-session crash")
        return super().solve(assumptions)


def fragile_factory(config):
    return _FragileSolver(config)


def _wait_until_dead(pid: int, timeout_s: float = 5.0) -> None:
    """Wait until the kernel has delivered a SIGKILL (the process is
    gone or a zombie).  A probe that a live member decides does not
    wait for the others, so a test that asserts the death was seen
    must not race the signal."""
    stat = f"/proc/{pid}/stat"
    if not os.path.exists("/proc/self/stat"):
        time.sleep(0.5)
        return
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        try:
            with open(stat, encoding="ascii") as handle:
                if handle.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return
        except FileNotFoundError:
            return
        time.sleep(0.005)


def _descent_cnf():
    """4 selectable literals, at least two must be true (minimum cost 2)."""
    cnf = CNF(VarPool())
    lits = [cnf.pool.var(("x", i)) for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                cnf.add([lits[i], lits[j], lits[k]])
    return cnf, lits


def _staircase_cnf(n: int = 6):
    """Objective over negated vars: the first model has cost n - 1 and
    the linear descent improves once per level down to cost 2."""
    cnf = CNF(VarPool())
    lits = [cnf.pool.var(("x", i)) for i in range(n)]
    for combo in itertools.combinations(range(n), n - 1):
        cnf.add([-lits[i] for i in combo])
    return cnf, [-lit for lit in lits]


SAT_CLAUSES = [[1, 2], [-1, 3], [-2, -3]]


# --- learned-clause exchange on the core solver ----------------------------

class TestLearnedExchange:
    def _descended_solver(self):
        """A solver that has probed a few bounds (so it learned clauses)."""
        cnf, lits = _descent_cnf()
        totalizer = Totalizer(cnf, lits)
        solver = cnf.to_solver()
        for bound in (3, 2, 1):
            solver.solve([totalizer.bound_literal(bound)])
        return cnf, solver

    def test_exported_clauses_are_entailed(self):
        cnf, solver = self._descended_solver()
        exported = solver.export_learned(max_lbd=16, max_len=32)
        assert exported, "descent produced no exportable clauses"
        for clause in exported[:24]:
            check = cnf.to_solver()
            # phi ∧ ¬C must be UNSAT for every exported clause C.
            verdict = check.solve([-lit for lit in clause])
            assert verdict is SolveResult.UNSAT, (
                f"exported clause {clause} is not implied by the formula"
            )

    def test_export_respects_caps_and_skip_keys(self):
        __, solver = self._descended_solver()
        first = solver.export_learned(max_lbd=16, max_len=32, limit=3)
        assert len(first) <= 3
        seen = {tuple(sorted(c)) for c in first}
        again = solver.export_learned(
            max_lbd=16, max_len=32, skip_keys=set(seen)
        )
        assert not seen.intersection(tuple(sorted(c)) for c in again)

    def test_import_preserves_verdicts(self):
        cnf, lits = _descent_cnf()
        totalizer = Totalizer(cnf, lits)
        donor = cnf.to_solver()
        for bound in (3, 2, 1):
            donor.solve([totalizer.bound_literal(bound)])
        receiver = cnf.to_solver()
        imported = receiver.import_clauses(
            donor.export_learned(max_lbd=16, max_len=32)
        )
        assert imported > 0
        for bound in (3, 2, 1, 0):
            fresh = cnf.to_solver()
            assumption = [totalizer.bound_literal(bound)]
            assert receiver.solve(assumption) is fresh.solve(assumption)


# --- the service itself ----------------------------------------------------

@needs_fork
class TestSolverService:
    def test_session_probes_and_delta_shipping(self):
        clauses = [list(c) for c in SAT_CLAUSES]
        service = SolverService(3, clauses, processes=2)
        with service:
            first = service.probe()
            assert first.verdict is SolveResult.SAT
            assert first.cold
            clauses.append([-1])
            second = service.probe([2])
            assert second.verdict is SolveResult.SAT
            assert not second.cold
            third = service.probe([1])
            assert third.verdict is SolveResult.UNSAT
            assert third.unsat_core == [1]
            counters = service.metrics.as_dict()
            # The initial CNF travelled via fork; only the appended
            # clause was ever shipped over the pipe.
            assert counters["service.clauses_loaded"] == 3
            assert counters["service.clauses_shipped"] == 1
            assert counters["service.probes"] == 3
            assert counters["service.worker_crashes"] == 0
            assert counters["service.warm_probe_wall_s"]["count"] == 2

    def test_probe_after_close_raises(self):
        service = SolverService(3, [list(c) for c in SAT_CLAUSES],
                                processes=2)
        service.start()
        service.close()
        with pytest.raises(ServiceError):
            service.probe()

    def test_sigkill_worker_mid_session(self):
        clauses = [list(c) for c in SAT_CLAUSES]
        service = SolverService(3, clauses, processes=3)
        with service:
            assert service.probe().verdict is SolveResult.SAT
            victim = service.worker_pids()[2]
            assert victim is not None
            os.kill(victim, signal.SIGKILL)
            _wait_until_dead(victim)
            clauses.append([3])
            after = service.probe()
            assert after.verdict is SolveResult.SAT
            assert 3 in (after.model or [])
            assert service.alive_count == 2
            counters = service.metrics.as_dict()
            assert counters["service.worker_crashes"] == 1
            assert service.summary()["workers"][2]["alive"] is False

    def test_all_workers_dead_raises_service_dead(self):
        service = SolverService(3, [list(c) for c in SAT_CLAUSES],
                                processes=2)
        with service:
            service.probe()
            for pid in service.worker_pids():
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(ServiceError):
                service.probe()


# --- descent-level crash handling and fallback -----------------------------

@needs_fork
class TestDescentCrashHandling:
    def test_one_worker_crash_keeps_descent_on_survivors(self):
        # The primary dies at its second solve (a helper would not get
        # to solve at all: on probes this small it is cancelled, and
        # skips, before it starts).  The helper proves the SAT probes
        # of the staircase descent and takes over as primary.
        cnf, lits = _staircase_cnf()
        members = [
            PortfolioMember("fragile", SolverConfig(random_seed=7),
                            solver_factory=fragile_factory),
            PortfolioMember("base", SolverConfig()),
        ]
        result = minimize_sum(cnf, lits, parallel=2,
                              portfolio_members=members)
        assert result.feasible and result.proven_optimal
        assert result.cost == 2
        service = result.portfolio["service"]
        assert service["counters"]["service.worker_crashes"] == 1
        assert "fallback" not in service
        [fragile] = [w for w in service["workers"]
                     if w["name"] == "fragile"]
        assert not fragile["alive"] and fragile["error"]

    def test_all_workers_crash_falls_back_in_process(self):
        cnf, lits = _staircase_cnf()
        members = [
            PortfolioMember("fragile-a", SolverConfig(random_seed=1),
                            solver_factory=fragile_factory),
            PortfolioMember("fragile-b", SolverConfig(random_seed=2),
                            solver_factory=fragile_factory),
        ]
        # Each fragile member dies at its second solve, so within the
        # first three probes of the staircase no worker is left; the
        # descent then finishes on an in-process solver (a plain one,
        # loaded from the current CNF).
        result = minimize_sum(cnf, lits, parallel=2,
                              portfolio_members=members)
        assert result.feasible and result.proven_optimal
        assert result.cost == 2
        service = result.portfolio["service"]
        assert service["counters"]["service.worker_crashes"] == 2
        assert service["counters"]["service.fallbacks"] == 1
        assert service["fallback"]

    def test_fallback_when_service_cannot_start(self, monkeypatch):
        def refuse(self):
            raise ServiceError("injected: fork unavailable")

        monkeypatch.setattr(SolverService, "start", refuse)
        cnf, lits = _descent_cnf()
        result = minimize_sum(cnf, lits, parallel=2)
        assert result.feasible and result.proven_optimal
        assert result.cost == 2
        assert "injected" in result.portfolio["service"]["fallback"]


# --- differential: serial vs service -----------------------------------------

@needs_fork
class TestServiceDifferential:
    def test_running_example_generation_agrees(self):
        study = running_example()
        net = study.discretize()
        serial = generate_layout(net, study.schedule, study.r_t_min)
        service = generate_layout(net, study.schedule, study.r_t_min,
                                  parallel=2)
        assert service.satisfiable == serial.satisfiable
        assert service.objective_value == serial.objective_value
        assert service.proven_optimal == serial.proven_optimal
        counters = service.portfolio["service"]["counters"]
        assert counters["service.probes"] == service.solve_calls
        # record_descent merged the session counters into task metrics.
        assert service.metrics["service.probes"] == counters[
            "service.probes"
        ]

    def test_running_example_optimization_agrees(self):
        study = running_example()
        net = study.discretize()
        serial = optimize_schedule(net, study.schedule, study.r_t_min)
        service = optimize_schedule(net, study.schedule, study.r_t_min,
                                    parallel=2)
        assert service.satisfiable == serial.satisfiable
        assert service.objective_value == serial.objective_value
        assert service.proven_optimal == serial.proven_optimal

    def test_persistent_generation_is_reproducible(self, micro_net,
                                                   crossing_schedule):
        first = generate_layout(micro_net, crossing_schedule, 1.0,
                                parallel=2)
        second = generate_layout(micro_net, crossing_schedule, 1.0,
                                 parallel=2)
        assert first.satisfiable == second.satisfiable
        assert first.objective_value == second.objective_value
        assert first.num_sections == second.num_sections
        assert first.time_steps == second.time_steps


# --- trace round-trip: probes ship O(delta), not O(|CNF|) ------------------

@needs_fork
class TestClausesShippedTrace:
    def test_probe_deltas_in_trace_roundtrip(self, tmp_path):
        trace.install(trace.Tracer())
        try:
            cnf, lits = _descent_cnf()
            base_clauses = cnf.num_clauses
            result = minimize_sum(cnf, lits, parallel=2)
            records = trace.export_spans()
        finally:
            trace.reset()
        assert result.proven_optimal and result.cost == 2

        path = tmp_path / "descent.jsonl"
        trace.write_jsonl(records, str(path))
        records = trace.read_jsonl(str(path))

        shipped = [r for r in records
                   if r["kind"] == "counter"
                   and r["name"] == "service.clauses_shipped"]
        assert len(shipped) == result.solve_calls
        first, rest = shipped[0], shipped[1:]
        # Cold probe: the whole CNF travelled via fork, nothing piped.
        assert first["args"]["shipped"] == 0
        assert first["args"]["skipped"] == base_clauses
        # Warm probes: only the totalizer layers built after session
        # start are ever piped; the base CNF is never re-shipped.
        total_delta = sum(r["args"]["shipped"] for r in rest)
        assert total_delta == cnf.num_clauses - base_clauses
        for record in rest:
            assert record["args"]["skipped"] >= base_clauses
            assert record["args"]["shipped"] < cnf.num_clauses

        probe_spans = [r for r in records
                       if r["kind"] == "span"
                       and r["name"] == "service.probe"]
        assert probe_spans, "worker probe spans were not merged back"
