"""Parallel portfolio SAT solving: race diversified configurations.

A *portfolio* runs the same CNF through several differently-configured CDCL
solvers and takes the first definitive answer.  Because every member is a
sound and complete solver, all members provably agree on the SAT/UNSAT
verdict — racing them is verdict-preserving, and on multi-core hardware the
wall time drops to the *fastest* member instead of the default one (cf.
Engels & Wille's observation that solver-strategy choice dominates runtime
on these ETCS moving-block encodings).

This module defines the portfolio — :class:`PortfolioMember`,
:func:`diversified_members` and the report types — and
:func:`solve_portfolio`, the single-shot race (eager ``-j N``
verification, DRAT proofs, fuzz).  A single-shot race is one probe of a
:class:`repro.sat.session.ProbeSession`: ``processes <= 1`` solves in
process with the primary member, ``processes > 1`` races the members on
the resident :class:`repro.sat.service.SolverService`, the same engine
every descent and lazy loop probes.  The service's rules therefore hold:

* an **UNSAT** answer is accepted from whichever member proves it first —
  the verdict is the same no matter who wins, so no nondeterminism leaks;
* a **SAT** answer's *model* is always taken from the primary member
  (index 0, the unmodified base configuration), so the reported model —
  and everything decoded from it — is a pure function of the formula,
  never of scheduling jitter.

Worker crashes never hang the run: the surviving members still produce
the answer, and if *every* member dies the session finishes in process
(``PortfolioStats.serial_fallback``).
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.sat.solver import Solver
from repro.sat.types import SolveResult, SolverConfig

#: Large co-prime stride decorrelating the per-member derived seeds.
_SEED_STRIDE = 0x9E3779B1


class PortfolioError(RuntimeError):
    """The portfolio could not produce a trustworthy answer."""


class PortfolioDisagreementError(PortfolioError):
    """Two members returned contradictory verdicts — a soundness bug."""


@dataclass(frozen=True)
class PortfolioMember:
    """One entry of the portfolio: a solver configuration plus knobs.

    Attributes:
        name: short label for reports ("base", "neg-phase", ...).
        config: the :class:`SolverConfig` this member solves with.
        solver_factory: optional ``config -> Solver`` hook, used by tests to
            inject failing members; defaults to the plain constructor.
    """

    name: str
    config: SolverConfig
    solver_factory: Callable[[SolverConfig], Solver] | None = field(
        default=None, compare=False
    )


def diversified_members(
    n: int,
    base: SolverConfig | None = None,
    seed: int | None = None,
) -> list[PortfolioMember]:
    """Build ``n`` diversified portfolio members.

    Member 0 is always the unmodified ``base`` configuration (so that the
    portfolio's witnesses, and the ``processes=1`` degradation, match the
    serial solver exactly).  Further members vary the random seed, VSIDS
    decay, restart cadence, phase-saving polarity, and random-decision
    frequency — the classic portfolio diversification axes.  The recipe
    list cycles (with reseeding) for large ``n``.
    """
    if n < 1:
        raise ValueError(f"portfolio needs at least one member, got {n}")
    base = base if base is not None else SolverConfig()
    seed = seed if seed is not None else base.random_seed

    def derived(index: int) -> int:
        return (seed + index * _SEED_STRIDE) & 0x7FFFFFFF

    recipes: list[tuple[str, dict]] = [
        ("neg-phase", {"default_phase": True}),
        ("fast-decay", {"var_decay": 0.85, "restart_base": 50}),
        ("neg-slow-decay", {"default_phase": True, "var_decay": 0.99}),
        ("random-walk", {"random_var_freq": 0.05,
                         "use_phase_saving": False}),
        ("slow-restarts", {"restart_base": 500, "var_decay": 0.99}),
        ("jumpy", {"random_var_freq": 0.1, "restart_base": 50,
                   "default_phase": True}),
        ("no-saving", {"use_phase_saving": False, "var_decay": 0.9}),
    ]

    members = [PortfolioMember("base", base)]
    for i in range(1, n):
        name, overrides = recipes[(i - 1) % len(recipes)]
        if i - 1 >= len(recipes):
            name = f"{name}-{(i - 1) // len(recipes) + 1}"
        config = dataclasses.replace(
            base, random_seed=derived(i), **overrides
        )
        members.append(PortfolioMember(name, config))
    return members


@dataclass
class WorkerReport:
    """Per-member outcome, for the merged portfolio report."""

    name: str
    verdict: str = ""  # "sat" / "unsat" / "" (cancelled / still running)
    finished: bool = False
    error: str = ""
    traceback: str = ""  # full worker traceback when the member crashed
    solve_time_s: float = 0.0
    stats: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)  # the member's SolverConfig
    #: The engine that answered: "legacy" / "interpreted" / "compiled".
    #: Cross-kernel disagreements are diagnosable from the report alone.
    kernel: str = ""


@dataclass
class PortfolioStats:
    """Merged report of one portfolio solve."""

    winner: int | None
    winner_name: str
    verdict: SolveResult
    wall_time_s: float
    processes: int
    serial_fallback: bool
    workers: list[WorkerReport] = field(default_factory=list)
    #: Fastest *other* finisher's solve time minus the winner's — how much
    #: the winner beat the field by (negative when the SAT rule picked
    #: the primary over a faster member); None without a second finisher.
    win_margin_s: float | None = None

    def merged_counters(self) -> dict:
        """Sum the solver counters over every member that reported stats."""
        totals: dict = {}
        for report in self.workers:
            for key, value in report.stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def as_dict(self) -> dict:
        return {
            "winner": self.winner,
            "winner_name": self.winner_name,
            "verdict": self.verdict.value,
            "wall_time_s": self.wall_time_s,
            "processes": self.processes,
            "serial_fallback": self.serial_fallback,
            "win_margin_s": self.win_margin_s,
            "workers": [dataclasses.asdict(w) for w in self.workers],
        }


@dataclass
class PortfolioResult:
    """Answer of :func:`solve_portfolio`.

    ``model`` is the winning member's model as a list of true literals
    (DIMACS convention) when SAT, ``unsat_core`` the failed assumption
    subset when UNSAT under assumptions, and ``proof_steps`` the winner's
    DRAT log when a proof was requested and the verdict is UNSAT.
    """

    verdict: SolveResult
    model: list[int] | None = None
    unsat_core: list[int] = field(default_factory=list)
    proof_steps: list | None = None
    stats: PortfolioStats | None = None
    _true_set: set[int] | None = field(
        default=None, repr=False, compare=False
    )

    def __bool__(self) -> bool:
        return self.verdict is SolveResult.SAT

    def true_set(self) -> set[int]:
        """The model's true variables as a set (for decoding).

        Memoized: decode/validate/report paths may each ask for the set,
        and the model never changes after the race ends.
        """
        if self.model is None:
            raise RuntimeError("no model: portfolio verdict was not SAT")
        if self._true_set is None:
            self._true_set = {lit for lit in self.model if lit > 0}
        return self._true_set


def fork_available() -> bool:
    """Whether the platform can fork worker processes."""
    return hasattr(os, "fork")


def default_processes() -> int:
    """Worker count when the caller does not specify one."""
    return min(4, os.cpu_count() or 1)


def member_config_dict(member: PortfolioMember) -> dict:
    """The member's solver configuration as a plain dict (telemetry)."""
    return dataclasses.asdict(member.config)


@dataclass
class _Formula:
    """A fixed CNF: the two attributes a probe session reads of a CNF."""

    num_vars: int
    clauses: list[list[int]]


def _win_margin(
    reports: list[WorkerReport], winner_index: int
) -> float | None:
    """Fastest other finisher's solve time minus the winner's, or None."""
    others = [
        report.solve_time_s
        for i, report in enumerate(reports)
        if i != winner_index and report.finished
    ]
    if not others:
        return None
    return min(others) - reports[winner_index].solve_time_s


def solve_portfolio(
    num_vars: int,
    clauses: list[list[int]],
    assumptions: list[int] | tuple[int, ...] = (),
    members: list[PortfolioMember] | None = None,
    processes: int | None = None,
    timeout_s: float | None = None,
    with_proof: bool = False,
) -> PortfolioResult:
    """Race a portfolio of solver configurations on one CNF.

    Args:
        num_vars: number of variables in the formula.
        clauses: the CNF clauses (DIMACS-style literal lists).
        assumptions: assumption literals, as for :meth:`Solver.solve`.
        members: the portfolio; defaults to
            :func:`diversified_members(processes)`.
        processes: members to race; defaults to
            :func:`default_processes`.  ``processes <= 1`` (or a single
            member) solves in process with the primary member — the exact
            single-solver path.
        timeout_s: overall wall-clock budget; on expiry the verdict is
            :data:`SolveResult.UNKNOWN`.
        with_proof: ship the winner's DRAT log on UNSAT.

    Returns a :class:`PortfolioResult`; raises
    :class:`PortfolioDisagreementError` if two members contradict each other
    (which would mean an unsound solver).
    """
    # Imported here: the session and the service build on this module.
    from repro.sat.session import ProbeSession

    start = time.perf_counter()
    if processes is None:
        processes = default_processes()
    if members is None:
        members = diversified_members(max(processes, 1))
    if not members:
        raise ValueError("empty portfolio")
    members = list(members[: max(processes, 1)])
    primary = members[0]
    solver = None
    if len(members) == 1:
        # A copy: the session sets each probe's deadline on the config.
        factory = primary.solver_factory or Solver
        solver = factory(dataclasses.replace(primary.config))
    with ProbeSession(
        _Formula(num_vars, clauses), parallel=len(members), members=members,
        solver=solver, wall_deadline_s=timeout_s, with_proof=with_proof,
    ) as session:
        outcome = session.probe(assumptions)
        workers = list(session.reports)
        winner = outcome.winner
        winner_name = outcome.winner_name
        summary = session.summary()
        fallback = summary is not None and "fallback" in summary["service"]
        if session.solver is not None:
            # Answered in process: serially, or after the service died.
            name = f"{primary.name}-fallback" if fallback else primary.name
            workers.append(WorkerReport(
                name=name, verdict=outcome.verdict.value, finished=True,
                solve_time_s=time.perf_counter() - start,
                stats=session.solver.stats.as_dict(),
                config=member_config_dict(primary),
                kernel=session.solver.kernel,
            ))
            if outcome.verdict is not SolveResult.UNKNOWN:
                winner, winner_name = len(workers) - 1, name
    stats = PortfolioStats(
        winner=winner, winner_name=winner_name, verdict=outcome.verdict,
        wall_time_s=time.perf_counter() - start, processes=processes,
        serial_fallback=fallback, workers=workers,
        win_margin_s=(
            _win_margin(workers, winner) if winner is not None else None
        ),
    )
    return PortfolioResult(
        verdict=outcome.verdict, model=outcome.model,
        unsat_core=outcome.unsat_core, proof_steps=outcome.proof_steps,
        stats=stats,
    )
