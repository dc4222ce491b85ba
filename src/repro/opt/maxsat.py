"""Core-guided minimisation (Fu–Malik), searching from below.

Each objective literal ``l`` becomes a soft unit clause ``(¬l)`` guarded by a
selector assumption.  While the selectors are jointly infeasible the solver
returns an unsat core; every soft clause in the core gets a fresh *blocking*
variable (at most one blocker per round may be true), and the lower bound
rises by one.  When the selectors become satisfiable, the number of completed
rounds equals the optimum (Fu & Malik 2006) — the first model found is
already optimal, which is attractive when models are expensive to improve.

Under ``wall_deadline_s`` the search is *anytime from below*: the deadline is
shipped into every solve, and on expiry the engine falls back to an
unconstrained model with the rounds completed so far as a proven lower bound
(``status="timeout"``).
"""

from __future__ import annotations

import time

from repro.logic.cnf import CNF
from repro.opt.result import STATUS_TIMEOUT, MinimizeResult
from repro.sat.solver import Solver
from repro.sat.types import SolveResult, SolverConfig


def minimize_sum_core_guided(
    cnf: CNF,
    objective_lits: list[int],
    solver: Solver | None = None,
    max_iterations: int = 10_000,
    wall_deadline_s: float | None = None,
    profile: bool = False,
) -> MinimizeResult:
    """Minimise the number of true ``objective_lits`` via Fu–Malik relaxation.

    The hard constraints are the clauses of ``cnf``; auxiliary selector and
    blocking variables are drawn from ``cnf.pool`` (and their clauses are
    recorded in ``cnf`` so the container stays in sync with the solver).

    ``wall_deadline_s`` bounds the whole search; on expiry the result is an
    unconstrained model (any model, cost unoptimised) with ``lower_bound``
    set to the rounds proven so far and ``status="timeout"``.

    ``profile`` turns on the hot-path phase profiler in the engine's
    solver (ignored when an explicit ``solver`` is given).
    """
    if solver is None and profile:
        solver = Solver(SolverConfig(profile=True))
    solver = cnf.to_solver(solver)
    deadline = (
        time.perf_counter() + wall_deadline_s
        if wall_deadline_s is not None else None
    )
    configured_deadline = solver.config.wall_deadline_s

    def arm() -> bool:
        """Point the solver at the remaining budget; False when spent."""
        if deadline is None:
            return True
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return False
        solver.config.wall_deadline_s = (
            remaining if configured_deadline is None
            else min(configured_deadline, remaining)
        )
        return True

    def finish(**fields) -> MinimizeResult:
        """A core-guided result carrying the engine's solver counters."""
        return MinimizeResult(
            strategy="core", solver_stats=solver.stats.as_dict(), **fields
        )

    def timed_out(verdict: SolveResult) -> bool:
        return verdict is SolveResult.UNKNOWN and (
            solver.last_stats.deadline_hits > 0
            or (deadline is not None and time.perf_counter() >= deadline)
        )

    try:
        calls = 1
        arm()
        first = solver.solve()
        if first is not SolveResult.SAT:
            return finish(
                feasible=False, solve_calls=calls,
                status=STATUS_TIMEOUT if timed_out(first) else "",
            )
        first_model = solver.model()
        first_cost = sum(
            1 for lit in objective_lits if solver.model_value(lit)
        )
        if not objective_lits:
            return finish(
                feasible=True,
                cost=0,
                model=first_model,
                proven_optimal=True,
                solve_calls=calls,
            )

        def add(clause: list[int]) -> None:
            cnf.add(clause)
            solver.add_clause(clause)

        def best_effort(
            calls: int, lower_bound: int, deadline_hit: bool = True
        ) -> MinimizeResult:
            """Budget fallback: the first model, bounded from below."""
            proven = first_cost == lower_bound
            status = ""
            if not proven and deadline_hit:
                status = STATUS_TIMEOUT
            return finish(
                feasible=True,
                cost=first_cost,
                model=first_model,
                proven_optimal=proven,
                solve_calls=calls,
                status=status,
                lower_bound=lower_bound,
            )

        # selector -> (objective literal, accumulated blocking variables)
        softs: dict[int, tuple[int, list[int]]] = {}
        for lit in objective_lits:
            selector = cnf.pool.new_aux()
            add([-selector, -lit])
            softs[selector] = (lit, [])

        lower_bound = 0
        for _ in range(max_iterations):
            if not arm():
                return best_effort(calls, lower_bound)
            calls += 1
            verdict = solver.solve(sorted(softs))
            if verdict is SolveResult.SAT:
                model = solver.model()
                cost = sum(
                    1 for lit in objective_lits if solver.model_value(lit)
                )
                return finish(
                    feasible=True,
                    cost=cost,
                    model=model,
                    proven_optimal=cost == lower_bound,
                    solve_calls=calls,
                    lower_bound=lower_bound,
                )
            if verdict is SolveResult.UNKNOWN:
                if timed_out(verdict):
                    return best_effort(calls, lower_bound)
                break  # conflict budget: fall through to the tail solve
            core = [lit for lit in solver.unsat_core() if lit in softs]
            if not core:
                # Hard clauses alone are unsat — impossible after the first
                # SAT call above, but guard against solver misuse.
                return finish(feasible=False, solve_calls=calls)
            lower_bound += 1
            round_blockers: list[int] = []
            for selector in core:
                objective_lit, blockers = softs.pop(selector)
                add([-selector])  # permanently retire the old soft clause
                blocker = cnf.pool.new_aux()
                round_blockers.append(blocker)
                new_blockers = blockers + [blocker]
                new_selector = cnf.pool.new_aux()
                add([-new_selector, -objective_lit, *new_blockers])
                softs[new_selector] = (objective_lit, new_blockers)
            # At most one blocking variable per round may fire.
            for i in range(len(round_blockers)):
                for j in range(i + 1, len(round_blockers)):
                    add([-round_blockers[i], -round_blockers[j]])

        # Iteration budget exhausted: report the first model as-is.
        return best_effort(calls, lower_bound, deadline_hit=False)
    finally:
        solver.config.wall_deadline_s = configured_deadline
