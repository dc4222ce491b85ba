"""The probe session that every descent and lazy-verification loop runs on.

* the serial and the service descent agree — optimum, ``proven_optimal``
  and, in deterministic mode, the model — for both strategies, eager and
  lazily refined, on the Running Example and ten fuzz scenarios;
* a refined probe only ever answers with a clean model, and a spent
  budget answers UNKNOWN;
* a service that loses its only member finishes the descent in process;
* a warm start prices its cached true-set model under the closed world.
"""

from __future__ import annotations

import itertools

import pytest

from repro.casestudies.running_example import running_example
from repro.logic import CNF, VarPool
from repro.opt import minimize_sum
from repro.sat.portfolio import diversified_members, fork_available
from repro.sat.session import ProbeSession
from repro.sat.types import SolveResult
from repro.scenarios.fuzz import fuzz_scenario
from repro.tasks import optimize_schedule
from repro.testing import FaultPlan, injected

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


def _staircase(n: int = 6):
    """Objective over negated vars: first model cost n - 1, optimum 2."""
    cnf = CNF(VarPool())
    lits = [cnf.pool.var(("x", i)) for i in range(n)]
    for combo in itertools.combinations(range(n), n - 1):
        cnf.add([-lits[i] for i in combo])
    return cnf, [-lit for lit in lits]


_SCENARIOS = ["running-example"] + [f"fuzz-{i}" for i in range(10)]


def _scenario(name: str):
    if name == "running-example":
        return running_example()
    return fuzz_scenario(0, int(name.split("-")[1]))


# --- serial vs service -----------------------------------------------------


@needs_fork
@pytest.mark.parametrize("scenario", _SCENARIOS)
@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("strategy", ["linear", "binary"])
def test_serial_and_service_descents_agree(strategy, lazy, scenario):
    study = _scenario(scenario)
    net = study.discretize()
    serial, service = (
        optimize_schedule(net, study.schedule, study.r_t_min,
                          strategy=strategy, lazy=lazy, parallel=parallel)
        for parallel in (1, 2)
    )
    assert service.satisfiable == serial.satisfiable
    assert service.objective_value == serial.objective_value
    assert service.time_steps == serial.time_steps
    assert service.proven_optimal == serial.proven_optimal
    assert service.portfolio["service"]["counters"]["service.probes"] > 0
    # SAT models only come from the primary member, whose search is the
    # serial one for as long as no helper cancelled it by proving an
    # UNSAT probe first — always so in a linear descent, where the only
    # UNSAT probe is the last.
    winners = set(service.portfolio["winners"])
    if strategy == "linear" or winners == {"base"}:
        assert service.model == serial.model


# --- the refine loop and the budget ----------------------------------------


@pytest.mark.parametrize("parallel", [
    1, pytest.param(2, marks=needs_fork),
], ids=["serial", "service"])
class TestProbe:
    def test_refined_probe_returns_only_clean_models(self, parallel):
        cnf = CNF(VarPool())
        x, y = cnf.pool.var("x"), cnf.pool.var("y")
        cnf.add([x, y])
        rounds = []

        def refine(model):
            # Deferred constraint "not x", added once a model breaks it.
            rounds.append(sorted(model))
            if x in model:
                cnf.add([-x])
                return 1
            return 0

        with ProbeSession(cnf, parallel=parallel, refine=refine) as session:
            outcome = session.probe()
            assert outcome.verdict is SolveResult.SAT
            assert -x in outcome.model and y in outcome.model
            assert session.calls == len(rounds)
            assert session.probe([x]).verdict is SolveResult.UNSAT

    def test_spent_budget_answers_unknown(self, parallel):
        cnf, __ = _staircase()
        with ProbeSession(cnf, parallel=parallel,
                          wall_deadline_s=0.0) as session:
            outcome = session.probe()
        assert outcome.verdict is SolveResult.UNKNOWN
        assert outcome.timed_out
        assert session.calls == 0


# --- fallback --------------------------------------------------------------


@needs_fork
class TestFallback:
    def test_dead_only_member_finishes_in_process(self):
        cnf, obj = _staircase()
        serial = minimize_sum(cnf, obj)
        cnf, obj = _staircase()
        with injected(FaultPlan(kill_member="base", kill_probe=2)):
            result = minimize_sum(cnf, obj, parallel=2,
                                  portfolio_members=diversified_members(1))
        assert serial.proven_optimal and result.proven_optimal
        assert result.cost == serial.cost
        service = result.portfolio["service"]
        assert service["counters"]["service.fallbacks"] == 1
        assert service["counters"]["service.worker_crashes"] == 1
        assert "fallback" in service


# --- warm start --------------------------------------------------------------


class TestWarmStart:
    def test_true_set_model_is_priced_closed_world(self):
        # The objective holds negative literals (like the makespan's
        # ``-done_all(t)``); the cached model lists true variables only.
        cnf, obj = _staircase()
        cold = minimize_sum(cnf, obj)
        assert cold.proven_optimal and cold.cost == 2
        cnf, obj = _staircase()
        warm = minimize_sum(cnf, obj, warm_model=sorted(cold.true_set()),
                            warm_fingerprint=cold.fingerprint)
        assert warm.warm_started
        assert warm.cost == cold.cost
        assert warm.proven_optimal
        assert warm.solve_calls == 1  # one UNSAT probe below the cost
