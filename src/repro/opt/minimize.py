"""Model-improving minimisation: linear descent and binary search.

Both strategies build one incremental totalizer over the objective literals
and then tighten its bound with unit *assumptions* — the solver keeps all its
learned clauses across iterations, which is what makes the loop cheap.

Every probe runs through one :class:`repro.sat.session.ProbeSession`:
an incremental in-process solver when ``parallel <= 1``, the resident
incremental solver service (:class:`repro.sat.service.SolverService`)
racing diversified members when ``parallel > 1``.  The service ships only
the assumptions plus the clause delta per probe, its workers keep learned
clauses, activities and phases across probes, and a service that cannot
start or dies mid-descent hands the rest of the descent to an in-process
solver.  The descent itself — first probe, checkpoint and warm restore,
totalizer, linear or binary bound loop — is the same on either backend.

The descent is *anytime*: ``wall_deadline_s`` bounds the whole descent
(each probe gets the remaining budget, shipped all the way into the
solvers' cooperative wall-deadline checks) and an expired budget ends it
at the best model and bounds proven so far (``status="timeout"``), never
with an exception.  With ``checkpoint_path`` every proven fact is
appended to a JSONL checkpoint (:mod:`repro.opt.checkpoint`), and
``resume=True`` restarts a killed descent from its last proven bound.
"""

from __future__ import annotations

from typing import Callable

from repro.logic.cnf import CNF, clauses_satisfied
from repro.logic.totalizer import Totalizer
from repro.obs import events as obs_events
from repro.obs import trace
from repro.opt.checkpoint import (
    CheckpointState,
    DescentCheckpoint,
    descent_fingerprint,
    load_checkpoint,
    warm_compatible,
)
from repro.opt.result import (
    STATUS_FEASIBLE,
    STATUS_OPTIMAL,
    STATUS_RESUMED,
    STATUS_TIMEOUT,
    DescentResult,
)
from repro.sat.portfolio import PortfolioMember
from repro.sat.service import ProbeOutcome
from repro.sat.session import ProbeSession
from repro.sat.solver import Solver
from repro.sat.types import SolveResult


def _descent_status(
    proven: bool, timed_out: bool, resumed: bool, improved: bool
) -> str:
    if proven:
        return STATUS_OPTIMAL
    if timed_out:
        return STATUS_TIMEOUT
    if resumed and not improved:
        return STATUS_RESUMED
    return STATUS_FEASIBLE


def _note_improved(cost: int) -> None:
    """Record a bound improvement on the trace and the event stream."""
    trace.event("descent.improved", cost=cost)
    obs_events.emit("descent.improved", cost=cost)


def _note_timeout() -> None:
    """Record a descent that ended on its wall budget."""
    obs_events.emit("deadline.hit", scope="descent")


def _checkpoint_summary(
    ckpt: DescentCheckpoint | None, state: CheckpointState | None
) -> dict | None:
    if ckpt is None:
        return None
    out = ckpt.summary()
    if state is not None:
        out["restored_cost"] = state.best_cost
        out["restored_lower"] = state.lower_bound
    return out


def _replayed_result(
    state: CheckpointState, strategy: str, checkpoint_path: str
) -> DescentResult:
    """A finished checkpoint resumes to its result without any probe."""
    feasible = state.best_cost is not None
    trace.event("checkpoint.replayed", cost=state.best_cost)
    return DescentResult(
        feasible=feasible,
        cost=state.best_cost or 0,
        model=list(state.best_model),
        proven_optimal=feasible,
        solve_calls=0,
        strategy=strategy,
        status=STATUS_OPTIMAL,
        lower_bound=state.lower_bound,
        resumed=True,
        checkpoint={
            "path": checkpoint_path, "writes": 0, "write_failures": 0,
            "restored_cost": state.best_cost,
            "restored_lower": state.lower_bound,
        },
    )


def minimize_sum(
    cnf: CNF,
    objective_lits: list[int],
    strategy: str = "linear",
    solver: Solver | None = None,
    on_improvement: Callable[[int], None] | None = None,
    parallel: int = 1,
    portfolio_members: list[PortfolioMember] | None = None,
    descent_timeout_s: float | None = None,
    wall_deadline_s: float | None = None,
    checkpoint_path: str | None = None,
    resume: bool = False,
    refine: Callable[[list[int]], int] | None = None,
    profile: bool = False,
    warm_model: list[int] | None = None,
    warm_fingerprint: dict | None = None,
) -> DescentResult:
    """Minimise the number of true literals among ``objective_lits``.

    The hard constraints are the clauses of ``cnf``.  Returns a
    :class:`DescentResult`; when ``feasible`` and ``proven_optimal`` are both
    True the reported cost is the exact minimum.

    ``on_improvement`` (if given) is called with each strictly better cost as
    it is discovered — useful for logging long optimisations.

    ``parallel > 1`` races every solve over that many diversified
    configurations (``portfolio_members`` overrides them) on a resident
    incremental solver service started once per descent; when the
    service cannot start or dies, the descent finishes on an in-process
    solver.  ``descent_timeout_s`` bounds
    each *bound-probing* call; ``wall_deadline_s`` bounds the whole
    descent — on expiry the result carries the best model and bounds
    found so far with ``status="timeout"``.  ``parallel=1`` is exactly
    the serial incremental path.

    ``checkpoint_path`` appends every proven fact (improving models,
    lower bounds, learned unit facts) to a JSONL checkpoint;
    ``resume=True`` restores the latest state from that file first —
    raising :class:`repro.opt.checkpoint.CheckpointError` when the file
    belongs to a different formula — and continues the descent from the
    restored bounds (``solve_calls`` counts only the new run's probes).

    ``refine`` hooks a lazy-encoding check into every SAT answer
    (typically :meth:`repro.encoding.lazy.LazyRefiner.refine`): it
    receives the model and returns the number of clauses it appended to
    ``cnf`` (0 = the model is clean).  The descent re-solves after every
    non-zero refinement — incrementally in process, as an O(delta)
    probe on the service — so only *clean* models are ever accepted as
    improvements, and relaxation UNSATs remain sound lower bounds.

    ``profile`` turns on the hot-path phase profiler
    (:mod:`repro.obs.profile`) in every solver the descent creates —
    ignored when an explicit ``solver`` or ``portfolio_members`` already
    fixes the configuration.

    ``warm_model`` seeds the descent with a model cached from a
    delta-close instance (the solve gateway's warm-start path,
    :mod:`repro.gateway`): when it still satisfies this formula —
    re-checked literally, clause by clause, plus one ``refine`` round
    for lazily deferred families — the descent skips its initial
    unconstrained probe and descends straight from the replayed cost.
    A model that no longer satisfies is silently discarded (cold
    start).  ``warm_fingerprint`` optionally carries the cached
    descent's :func:`~repro.opt.checkpoint.descent_fingerprint`; a
    mismatch against this formula's fingerprint rejects the model
    before the clause check (variables may have been renumbered).
    Ignored while resuming from a checkpoint.
    """
    if strategy not in ("linear", "binary"):
        raise ValueError(f"unknown strategy {strategy!r}")

    fingerprint = descent_fingerprint(
        cnf.num_vars, cnf.num_clauses, objective_lits, strategy
    )
    state: CheckpointState | None = None
    ckpt: DescentCheckpoint | None = None
    if checkpoint_path:
        if resume:
            state = load_checkpoint(checkpoint_path)
            if state is not None:
                state.check(fingerprint)
                trace.event("checkpoint.resumed", cost=state.best_cost,
                            lower=state.lower_bound,
                            units=len(state.units))
                if state.done_status == STATUS_OPTIMAL:
                    return _replayed_result(state, strategy,
                                            checkpoint_path)
        ckpt = DescentCheckpoint(checkpoint_path)
        ckpt.open(fingerprint, resumed=state is not None)

    warm: CheckpointState | None = None
    if warm_model is not None and state is None:
        warm = _validated_warm_state(
            cnf, objective_lits, warm_model, warm_fingerprint,
            fingerprint, refine,
        )

    session = ProbeSession(
        cnf, parallel=parallel, members=portfolio_members, solver=solver,
        refine=refine, wall_deadline_s=wall_deadline_s, profile=profile,
    )
    try:
        result = _descend(
            session, objective_lits, strategy, on_improvement,
            descent_timeout_s, ckpt, state, warm,
        )
        result.fingerprint = fingerprint
        return result
    finally:
        session.close()
        if ckpt is not None:
            ckpt.close()


def _validated_warm_state(
    cnf: CNF,
    objective_lits: list[int],
    warm_model: list[int],
    warm_fingerprint: dict | None,
    fingerprint: dict,
    refine: Callable[[list[int]], int] | None,
) -> CheckpointState | None:
    """Re-certify a cached model against *this* formula, or reject it.

    The ladder: fingerprint compatibility (cheap, catches renumbered
    variables), then one lazy-refinement round (deferred families are
    not in ``cnf.clauses`` yet — clauses a dirty model provokes stay in
    the CNF, they are valid constraints either way), then the literal
    clause-by-clause check.  Only a model that passes all three seeds
    the descent.
    """
    if not warm_compatible(warm_fingerprint, fingerprint):
        trace.event("descent.warm_rejected", reason="fingerprint mismatch")
        return None
    if refine is not None and refine(warm_model) > 0:
        trace.event("descent.warm_rejected", reason="deferred violations")
        return None
    true_vars = {lit for lit in warm_model if lit > 0}
    if not clauses_satisfied(cnf.clauses, true_vars):
        trace.event("descent.warm_rejected", reason="clause check failed")
        return None
    # A cached model is a true set: every variable it omits is false, so
    # price that closed-world completion (a negative objective literal
    # such as the makespan's ``-done_all(t)`` is true when its variable
    # is missing).
    cost = sum(
        1 for lit in objective_lits if (lit > 0) == (abs(lit) in true_vars)
    )
    trace.event("descent.warm_start", cost=cost)
    obs_events.emit("descent.warm_start", cost=cost)
    return CheckpointState.warm(cost, warm_model, warm_fingerprint)


def _descend(
    session: ProbeSession,
    objective_lits: list[int],
    strategy: str,
    on_improvement: Callable[[int], None] | None,
    per_probe_s: float | None,
    ckpt: DescentCheckpoint | None,
    state: CheckpointState | None,
    warm: CheckpointState | None,
) -> DescentResult:
    """The descent: one first probe, then a linear or binary bound loop.

    Bounds are unit assumptions on one incremental totalizer built into
    the session's CNF, so every solver keeps its learned clauses across
    probes.
    """
    model_cost = _cost_counter(objective_lits)
    unit_keys: set[tuple[int, ...]] = set()
    resumed = state is not None
    start_state = state if state is not None else warm
    improved = False
    timed_out = False
    lower = state.lower_bound if state else 0
    best_model: list[int] = []
    best_cost = 0

    def finish(feasible: bool, proven: bool) -> DescentResult:
        if feasible:
            status = _descent_status(proven, timed_out, resumed, improved)
        else:
            # An UNSAT first solve is a *proven* conclusion; only a
            # timed-out one leaves feasibility genuinely open.
            status = STATUS_TIMEOUT if timed_out else STATUS_OPTIMAL
        if status == STATUS_TIMEOUT:
            _note_timeout()
        if ckpt is not None:
            ckpt.done(status, best_cost if feasible else None)
        return DescentResult(
            feasible=feasible,
            cost=best_cost,
            model=best_model,
            proven_optimal=proven,
            solve_calls=session.calls,
            strategy=strategy,
            solver_stats=session.solver_stats(),
            portfolio=session.summary(),
            status=status,
            lower_bound=lower,
            resumed=resumed,
            checkpoint=_checkpoint_summary(ckpt, state),
            warm_started=warm is not None,
        )

    def probe(bound: int | None = None) -> ProbeOutcome:
        assumptions = (
            [totalizer.bound_literal(bound)] if bound is not None else []
        )
        with trace.span("descent.probe", call=session.calls + 1,
                        bound=bound) as probe_span:
            outcome = session.probe(
                assumptions, per_probe_s if bound is not None else None
            )
            probe_span.add(verdict=outcome.verdict.name)
        return outcome

    def accept(model: list[int]) -> None:
        nonlocal best_model, best_cost, improved
        best_model = model
        best_cost = model_cost(model)
        _note_improved(best_cost)
        improved = True
        # Checkpoint before notifying: a callback that dies (or kills
        # the process) never loses the improvement it was told about.
        if ckpt is not None:
            ckpt.improved(best_cost, best_model, session.calls)
            ckpt.units(session.learned_units(unit_keys))
        if on_improvement:
            on_improvement(best_cost)

    if start_state is not None and start_state.best_cost is not None:
        best_model = list(start_state.best_model)
        best_cost = start_state.best_cost
        trace.event("descent.restored", cost=best_cost, lower=lower)
        if on_improvement:
            on_improvement(best_cost)
    else:
        first = probe()
        if first.verdict is not SolveResult.SAT:
            timed_out = first.timed_out
            return finish(False, False)
        accept(first.model or [])
    if best_cost == 0 or not objective_lits:
        return finish(True, True)

    # The checkpoint fingerprint was taken before the totalizer, so
    # resumed runs rebuild byte-identical totalizer literals.
    totalizer = Totalizer(session.cnf, objective_lits)
    if state is not None and state.units:
        # Assumption-free consequences from the killed run warm-start the
        # solver(s): they travel with the next probe's clause delta.
        for lit in state.units:
            session.cnf.add([lit])
        trace.event("checkpoint.units_imported", count=len(state.units))

    low, high = lower, best_cost
    while low < high:
        if session.budget.exhausted():
            timed_out = True
            break
        bound = high - 1 if strategy == "linear" else (low + high) // 2
        outcome = probe(bound)
        if outcome.verdict is SolveResult.SAT:
            accept(outcome.model or [])
            high = best_cost
        elif outcome.verdict is SolveResult.UNSAT:
            low = bound + 1
            if ckpt is not None:
                ckpt.lower(low, session.calls)
        else:  # UNKNOWN under a conflict or wall budget
            timed_out = outcome.timed_out
            break
    proven = low >= high
    lower = best_cost if proven else max(lower, low)
    return finish(True, proven)


def _cost_counter(objective_lits: list[int]) -> Callable[[list[int]], int]:
    """Build the model→cost function for one descent.

    Precomputes the objective-literal set once (plus per-literal
    multiplicities for the weighted duplication path, where a literal
    occurs ``weight`` times), so each improvement costs one set
    intersection instead of rebuilding ``set(model)`` and re-scanning
    the objective.
    """
    objective_set = set(objective_lits)
    if len(objective_set) == len(objective_lits):
        return lambda model: len(objective_set.intersection(model))
    counts: dict[int, int] = {}
    for lit in objective_lits:
        counts[lit] = counts.get(lit, 0) + 1
    return lambda model: sum(
        counts[lit] for lit in objective_set.intersection(model)
    )
