"""Unit tests for the parallel portfolio runner (repro.sat.portfolio).

``solve_portfolio`` is one probe of a probe session: serial in process,
or raced on the resident solver service.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.sat import (
    PortfolioDisagreementError,
    PortfolioMember,
    Solver,
    SolveResult,
    SolverConfig,
    diversified_members,
    solve_portfolio,
)
from repro.sat.portfolio import fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)

SAT_CNF = (3, [[1, 2], [-1, 3], [-2, -3]])
UNSAT_CNF = (2, [[1, 2], [1, -2], [-1, 2], [-1, -2]])


# --- helpers for failure injection (module-level: fork-safe) ---------------

def crashing_factory(config):
    raise RuntimeError("injected portfolio worker crash")


def slow_factory(config):
    time.sleep(0.8)
    return Solver(config)


class _LyingSolver(Solver):
    """Claims SAT without solving — simulates an unsound member."""

    def solve(self, assumptions=()):
        num_vars = self.num_vars
        self._k = None  # lie through the legacy state, whatever the kernel
        self._model = [0] + [1] * num_vars
        return SolveResult.SAT


def lying_factory(config):
    return _LyingSolver(config)


def crashing_member(name="crash"):
    return PortfolioMember(name, SolverConfig(),
                           solver_factory=crashing_factory)


class TestDiversifiedMembers:
    def test_member_zero_is_the_unmodified_base(self):
        base = SolverConfig(var_decay=0.9, random_seed=42)
        members = diversified_members(5, base=base)
        assert members[0].name == "base"
        assert members[0].config == base

    def test_members_are_actually_diverse(self):
        members = diversified_members(6)
        configs = [m.config for m in members]
        assert len({m.name for m in members}) == 6
        assert len({c.random_seed for c in configs}) == 6

    def test_recipe_list_cycles_for_large_n(self):
        members = diversified_members(12)
        assert len(members) == 12
        assert len({m.name for m in members}) == 12

    def test_rejects_empty_portfolio(self):
        with pytest.raises(ValueError):
            diversified_members(0)

    def test_every_member_is_sound(self):
        num_vars, clauses = UNSAT_CNF
        for member in diversified_members(8):
            solver = Solver(member.config)
            solver.ensure_var(num_vars)
            for clause in clauses:
                solver.add_clause(clause)
            assert solver.solve() is SolveResult.UNSAT, member.name


class TestSerialDegradation:
    def test_processes_one_matches_plain_solver(self):
        num_vars, clauses = SAT_CNF
        result = solve_portfolio(num_vars, clauses, processes=1)
        solver = Solver()
        solver.ensure_var(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve() is SolveResult.SAT
        assert result.verdict is SolveResult.SAT
        assert result.model == solver.model()
        assert result.stats.serial_fallback is False
        assert result.stats.winner == 0

    def test_single_member_runs_in_process(self):
        num_vars, clauses = UNSAT_CNF
        result = solve_portfolio(
            num_vars, clauses,
            members=[PortfolioMember("only", SolverConfig())],
            processes=4,
        )
        assert result.verdict is SolveResult.UNSAT


@needs_fork
class TestRace:
    def test_sat_with_model(self):
        num_vars, clauses = SAT_CNF
        result = solve_portfolio(num_vars, clauses, processes=3)
        assert result.verdict is SolveResult.SAT
        assert result
        true_set = result.true_set()
        for clause in clauses:
            assert any(
                lit in true_set if lit > 0 else abs(lit) not in true_set
                for lit in clause
            )

    def test_unsat(self):
        num_vars, clauses = UNSAT_CNF
        result = solve_portfolio(num_vars, clauses, processes=3)
        assert result.verdict is SolveResult.UNSAT
        assert result.model is None

    def test_unsat_core_under_assumptions(self):
        result = solve_portfolio(2, [[1, 2]], assumptions=[-1, -2],
                                 processes=2)
        assert result.verdict is SolveResult.UNSAT
        assert set(result.unsat_core) <= {-1, -2}

    def test_proof_ships_on_unsat(self):
        from repro.sat import check_rup_proof

        num_vars, clauses = UNSAT_CNF
        result = solve_portfolio(num_vars, clauses, processes=2,
                                 with_proof=True)
        assert result.verdict is SolveResult.UNSAT
        assert result.proof_steps is not None
        assert check_rup_proof(num_vars, clauses, result.proof_steps)

    def test_helper_proves_unsat_with_a_checkable_proof(self):
        from repro.sat import check_rup_proof

        num_vars, clauses = UNSAT_CNF
        members = [
            PortfolioMember("slow-primary", SolverConfig(),
                            solver_factory=slow_factory),
            PortfolioMember("helper", SolverConfig()),
        ]
        result = solve_portfolio(num_vars, clauses, members=members,
                                 processes=2, with_proof=True, timeout_s=30)
        assert result.verdict is SolveResult.UNSAT
        assert result.stats.winner_name == "helper"
        assert result.proof_steps is not None
        assert check_rup_proof(num_vars, clauses, result.proof_steps)

    def test_worker_reports_collected(self):
        num_vars, clauses = SAT_CNF
        result = solve_portfolio(num_vars, clauses, processes=2)
        stats = result.stats
        assert stats.processes == 2
        assert len(stats.workers) == 2
        assert stats.winner is not None
        assert stats.workers[stats.winner].finished
        merged = stats.merged_counters()
        assert merged.get("solve_calls", 0) >= 1


@needs_fork
class TestRobustness:
    def test_one_crashing_member_does_not_hang(self):
        num_vars, clauses = UNSAT_CNF
        members = [
            crashing_member(),
            PortfolioMember("base", SolverConfig()),
        ]
        result = solve_portfolio(num_vars, clauses, members=members,
                                 processes=2, timeout_s=30)
        assert result.verdict is SolveResult.UNSAT
        assert result.stats.winner == 1
        assert "crash" in result.stats.workers[0].error

    def test_all_crashing_members_fall_back_to_serial(self):
        num_vars, clauses = SAT_CNF
        members = [crashing_member("c1"), crashing_member("c2")]
        result = solve_portfolio(num_vars, clauses, members=members,
                                 processes=2, timeout_s=30)
        assert result.verdict is SolveResult.SAT
        assert result.stats.serial_fallback is True

    def test_timeout_returns_unknown(self):
        num_vars, clauses = SAT_CNF
        members = [
            PortfolioMember("slow-1", SolverConfig(),
                            solver_factory=slow_factory),
            PortfolioMember("slow-2", SolverConfig(),
                            solver_factory=slow_factory),
        ]
        start = time.perf_counter()
        result = solve_portfolio(num_vars, clauses, members=members,
                                 processes=2, timeout_s=0.15)
        assert result.verdict is SolveResult.UNKNOWN
        assert time.perf_counter() - start < 5.0

    def test_disagreement_is_detected(self):
        num_vars, clauses = UNSAT_CNF
        members = [
            PortfolioMember("slow-honest", SolverConfig(),
                            solver_factory=slow_factory),
            PortfolioMember("liar", SolverConfig(),
                            solver_factory=lying_factory),
        ]
        with pytest.raises(PortfolioDisagreementError):
            solve_portfolio(num_vars, clauses, members=members,
                            processes=2, timeout_s=30)


@needs_fork
class TestDeterminism:
    def test_sat_model_comes_from_the_primary_member(self):
        num_vars, clauses = SAT_CNF
        serial = solve_portfolio(num_vars, clauses, processes=1)
        for _ in range(3):
            raced = solve_portfolio(num_vars, clauses, processes=3)
            assert raced.model == serial.model

    def test_repeated_races_are_byte_identical(self):
        num_vars, clauses = SAT_CNF
        first = solve_portfolio(num_vars, clauses, processes=3)
        second = solve_portfolio(num_vars, clauses, processes=3)
        assert first.verdict == second.verdict
        assert first.model == second.model


def _no_children_after(call) -> None:
    try:
        call()
    except PortfolioDisagreementError:
        pass
    assert multiprocessing.active_children() == []


@needs_fork
class TestNoLeftoverProcesses:
    """Every path of ``solve_portfolio`` reaps its workers before it
    returns."""

    @pytest.mark.parametrize("path", [
        "serial", "sat", "unsat", "core", "proof", "one-crash",
        "all-crash", "timeout", "disagreement",
    ])
    def test_no_child_process_is_left(self, path):
        sat_vars, sat_clauses = SAT_CNF
        unsat_vars, unsat_clauses = UNSAT_CNF
        slow = [
            PortfolioMember(f"slow-{i}", SolverConfig(),
                            solver_factory=slow_factory)
            for i in (1, 2)
        ]
        calls = {
            "serial": lambda: solve_portfolio(sat_vars, sat_clauses,
                                              processes=1),
            "sat": lambda: solve_portfolio(sat_vars, sat_clauses,
                                           processes=3),
            "unsat": lambda: solve_portfolio(unsat_vars, unsat_clauses,
                                             processes=3),
            "core": lambda: solve_portfolio(2, [[1, 2]],
                                            assumptions=[-1, -2],
                                            processes=2),
            "proof": lambda: solve_portfolio(unsat_vars, unsat_clauses,
                                             processes=2, with_proof=True),
            "one-crash": lambda: solve_portfolio(
                unsat_vars, unsat_clauses,
                members=[crashing_member(),
                         PortfolioMember("base", SolverConfig())],
                processes=2, timeout_s=30),
            "all-crash": lambda: solve_portfolio(
                sat_vars, sat_clauses,
                members=[crashing_member("c1"), crashing_member("c2")],
                processes=2, timeout_s=30),
            "timeout": lambda: solve_portfolio(
                sat_vars, sat_clauses, members=slow, processes=2,
                timeout_s=0.15),
            "disagreement": lambda: solve_portfolio(
                unsat_vars, unsat_clauses,
                members=[slow[0], PortfolioMember(
                    "liar", SolverConfig(), solver_factory=lying_factory)],
                processes=2, timeout_s=30),
        }
        _no_children_after(calls[path])
