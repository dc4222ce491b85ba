"""A self-contained CDCL SAT solver.

This package substitutes for the Z3 solver used in the paper: the paper's
methodology only requires a sound and complete Boolean satisfiability oracle
(plus incremental solving under assumptions, which the optimization engines
in :mod:`repro.opt` build on).

Public entry points:

* :class:`Solver` — the CDCL solver (add clauses, solve under assumptions,
  read back models and unsat cores).
* :class:`SolveResult` — SAT / UNSAT / UNKNOWN verdicts.
* :class:`SolverService` — the resident parallel portfolio of
  incremental solvers over diversified configs.
* :class:`ProbeSession` — incremental probes over a growing CNF, serial
  or on the service, with a lazy-refinement hook (the descents and the
  lazy verification loop run on it).
* :func:`solve_portfolio` — a single-shot race: one probe of a session.
* :func:`parse_dimacs` / :func:`write_dimacs` — DIMACS CNF interchange.

The solver itself is a facade over two trace-identical engines — the
object-graph legacy loop and the flat-array kernel (optionally compiled
with mypyc); :func:`kernel_build` / :func:`resolve_kind` report and
control the selection (see :mod:`repro.sat.kernel`).
"""

from repro.sat.dimacs import parse_dimacs, parse_dimacs_file, write_dimacs
from repro.sat.kernel import kernel_build, resolve_kind
from repro.sat.portfolio import (
    PortfolioDisagreementError,
    PortfolioError,
    PortfolioMember,
    PortfolioResult,
    PortfolioStats,
    diversified_members,
    solve_portfolio,
)
from repro.sat.proof import ProofLogger, check_rup_proof, parse_drat
from repro.sat.service import (
    ProbeOutcome,
    ServiceDeadError,
    ServiceError,
    ShareConfig,
    SolverService,
)
from repro.sat.session import ProbeSession
from repro.sat.simplify import SimplifyStats, simplify_clauses
from repro.sat.solver import Solver
from repro.sat.types import SolverConfig, SolverStats, SolveResult

__all__ = [
    "Solver",
    "SolveResult",
    "SolverConfig",
    "SolverStats",
    "PortfolioMember",
    "PortfolioResult",
    "PortfolioStats",
    "PortfolioError",
    "PortfolioDisagreementError",
    "diversified_members",
    "solve_portfolio",
    "SolverService",
    "ServiceError",
    "ServiceDeadError",
    "ShareConfig",
    "ProbeOutcome",
    "ProbeSession",
    "ProofLogger",
    "SimplifyStats",
    "simplify_clauses",
    "check_rup_proof",
    "parse_drat",
    "parse_dimacs",
    "parse_dimacs_file",
    "write_dimacs",
    "kernel_build",
    "resolve_kind",
]
