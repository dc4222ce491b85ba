"""Kernel-vs-legacy lockstep: the array engine must be trace-identical.

The array kernel (:mod:`repro.sat._kernel`) is not "another solver that
happens to agree" — it implements the *same* CDCL algorithm as the
legacy object-graph engine, decision for decision.  Under a fixed seed
the two must therefore produce byte-identical verdicts, models, cores,
level-0 trails, and search counters (propagations, conflicts,
decisions, restarts) on any input.  This suite certifies that on
hypothesis-generated CNFs, on incremental/assumption workloads, and on
the CNFs of 25 fuzz scenarios, plus the kernel selection machinery
(config, ``REPRO_KERNEL`` override, proof-logging fallback).
"""

from __future__ import annotations

import heapq
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat.kernel import (
    ENV_VAR,
    VALID_KINDS,
    kernel_build,
    load_kernel,
    resolve_kind,
)
from repro.sat.solver import Solver
from repro.sat.types import InvalidLiteralError, SolveResult, SolverConfig
from repro.sat.wire import pack_clauses, unpack_clauses

KERNEL_KIND = kernel_build()  # "interpreted" here; "compiled" in the CI leg


@pytest.fixture(autouse=True, scope="module")
def _unforced_kernel():
    """Neutralize a process-wide ``REPRO_KERNEL`` for this module.

    The suite's whole point is comparing the two engines against each
    other, so the env override (which would collapse both sides of
    every ``_pair`` onto one engine and make lockstep vacuous) is
    lifted here; the selection tests below re-set it per-test.
    """
    saved = os.environ.pop(ENV_VAR, None)
    yield
    if saved is not None:
        os.environ[ENV_VAR] = saved


def _pair(**config):
    """One legacy and one kernel solver with identical configuration."""
    return (
        Solver(SolverConfig(kernel="legacy", **config)),
        Solver(SolverConfig(kernel=KERNEL_KIND, **config)),
    )


def _fingerprint(solver, verdict):
    """Everything lockstep promises to keep identical, in one tuple."""
    stats = solver.stats
    return (
        verdict,
        stats.propagations,
        stats.conflicts,
        stats.decisions,
        stats.restarts,
        stats.learned_clauses,
        stats.minimized_literals,
        stats.max_decision_level,
        sorted(solver.root_literals()),
        solver.model() if verdict is SolveResult.SAT else None,
        sorted(solver.unsat_core()) if verdict is SolveResult.UNSAT else None,
    )


def _assert_lockstep(cnf, assumption_rounds=((),)):
    legacy, kernel = _pair()
    assert legacy.kernel == "legacy"
    assert kernel.kernel == KERNEL_KIND
    for solver in (legacy, kernel):
        for lits in cnf:
            solver.add_clause(list(lits))
    for assumptions in assumption_rounds:
        verdict_l = legacy.solve(list(assumptions))
        verdict_k = kernel.solve(list(assumptions))
        assert _fingerprint(legacy, verdict_l) == (
            _fingerprint(kernel, verdict_k)
        )


clauses_strategy = st.lists(
    st.lists(
        st.integers(-25, 25).filter(bool), min_size=1, max_size=5
    ),
    min_size=1,
    max_size=120,
)


class TestLockstepProperties:
    @given(clauses_strategy)
    @settings(max_examples=60, deadline=None)
    def test_random_cnfs_are_trace_identical(self, cnf):
        _assert_lockstep(cnf)

    @given(clauses_strategy, st.lists(st.integers(-25, 25).filter(bool),
                                      max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_assumption_solves_are_trace_identical(self, cnf, assumptions):
        _assert_lockstep(cnf, assumption_rounds=(assumptions, ()))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_incremental_growth_is_trace_identical(self, seed):
        rng = random.Random(seed)
        nv = rng.randint(8, 40)
        legacy, kernel = _pair()
        for _round in range(3):
            batch = [
                [rng.randint(1, nv) * rng.choice([1, -1])
                 for __ in range(rng.choice([2, 2, 3, 3, 4]))]
                for __ in range(rng.randint(5, 40))
            ]
            assumptions = [
                rng.randint(1, nv) * rng.choice([1, -1])
                for __ in range(rng.randint(0, 2))
            ]
            for solver in (legacy, kernel):
                for lits in batch:
                    solver.add_clause(list(lits))
            verdict_l = legacy.solve(list(assumptions))
            verdict_k = kernel.solve(list(assumptions))
            assert _fingerprint(legacy, verdict_l) == (
                _fingerprint(kernel, verdict_k)
            )

    def test_config_variants_stay_in_lockstep(self):
        rng = random.Random(4242)
        cnf = [
            [rng.randint(1, 30) * rng.choice([1, -1])
             for __ in range(rng.choice([2, 3, 3, 4]))]
            for __ in range(140)
        ]
        for config in (
            {"use_minimization": False},
            {"use_phase_saving": False, "default_phase": True},
            {"random_var_freq": 0.05},
            {"restart_base": 10},
            {"use_clause_deletion": False},
        ):
            legacy, kernel = _pair(**config)
            for solver in (legacy, kernel):
                for lits in cnf:
                    solver.add_clause(list(lits))
            verdict_l = legacy.solve()
            verdict_k = kernel.solve()
            assert _fingerprint(legacy, verdict_l) == (
                _fingerprint(kernel, verdict_k)
            ), config


def _reference_ensure_var(k, var):
    """Variable growth one ``new_var`` at a time (the loader's original
    shape: one append per array and one ``heappush`` per variable)."""
    if var <= 0:
        raise InvalidLiteralError(f"variables must be positive, got {var}")
    while k._nv < var:
        v = k._nv + 1
        if v > k._cap:
            k._grow(v)
        k._nv = v
        k._level.append(0)
        k._reason.append(-1)
        k._activity.append(0.0)
        k._saved_phase.append(1 if k.config.default_phase else 0)
        k._seen.append(0)
        heapq.heappush(k._order_heap, (0.0, v))


def _reference_add_clause(k, lits):
    """Clause loading through ``ensure_var`` per literal and the generic
    ``_store`` / ``_attach`` helpers (the loader's original shape)."""
    if not k._ok:
        return False
    k._backtrack(0)
    simplified = []
    seen_here = set()
    for lit in lits:
        if not isinstance(lit, int) or lit == 0:
            raise InvalidLiteralError(f"invalid literal {lit!r}")
        _reference_ensure_var(k, abs(lit))
        if -lit in seen_here:
            return True
        if lit in seen_here:
            continue
        value = k._assigns[k._off + lit]
        if value == 1:
            return True
        if value == -1:
            continue
        seen_here.add(lit)
        simplified.append(lit)
    if not simplified:
        k._ok = False
        return False
    if len(simplified) == 1:
        k._enqueue(simplified[0], -1)
        k._ok = k._propagate() < 0
        return k._ok
    ref = k._store(simplified, False, 0)
    k._clause_refs.append(ref)
    k._attach(ref)
    return True


def _outcome(add, lits):
    try:
        return add(list(lits))
    except InvalidLiteralError:
        return InvalidLiteralError


def _kernel_state(k):
    """Every array the loader writes, exactly."""
    return (
        k._nv, k._cap, k._off, k._ok, k._qhead,
        list(k._arena), list(k._clause_refs),
        [list(w) for w in k._watches], list(k._assigns),
        list(k._trail), list(k._level), list(k._reason),
        list(k._activity), bytes(k._saved_phase), bytes(k._seen),
        list(k._order_heap),
    )


def _kernel_watches(k):
    """Per literal: (clause literals, blocker) pairs, engine-neutral."""
    arena = k._arena
    out = {}
    for var in range(1, k._nv + 1):
        for lit in (var, -var):
            flat = k._watches[k._off + lit]
            pairs = []
            for i in range(0, len(flat), 2):
                ref = flat[i] >> 1
                size = arena[ref]
                pairs.append(
                    (tuple(arena[ref + 2:ref + 2 + size]), flat[i + 1])
                )
            out[lit] = pairs
    return out


def _legacy_watches(solver):
    out = {}
    for var in range(1, solver.num_vars + 1):
        for lit in (var, -var):
            flat = solver._watches[solver._lit_index(lit)]
            out[lit] = [
                (tuple(flat[i].lits), flat[i + 1])
                for i in range(0, len(flat), 2)
            ]
    return out


def _pop_order(heap):
    heap = list(heap)
    return [heapq.heappop(heap) for __ in range(len(heap))]


#: Dense literals (units, duplicates, tautologies, literals already
#: false at level 0), sparse ones (growth past the kernel's initial
#: 16-variable capacity, and literal 0), and clauses holding a 0.
load_literal = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.integers(-70, 70),
)
load_clauses_strategy = st.lists(
    st.one_of(
        st.lists(load_literal, min_size=1, max_size=5),
        st.sampled_from([[0], [3, 0], [-2, 0, 40], [5, -5, 90]]),
    ),
    min_size=1,
    max_size=40,
)


class TestClauseLoading:
    """The one-step ``ensure_var`` and inlined ``add_clause`` write
    exactly what per-variable growth plus ``_store``/``_attach`` wrote,
    and stay in lockstep with the legacy engine."""

    @given(load_clauses_strategy, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_loader_matches_reference_and_legacy(self, cnf, phase):
        config = SolverConfig(default_phase=phase)
        kernel = load_kernel(KERNEL_KIND).Kernel(config)
        reference = load_kernel("interpreted").Kernel(config)
        legacy = Solver(SolverConfig(kernel="legacy", default_phase=phase))
        for lits in cnf:
            was_ok = kernel._ok
            got = _outcome(kernel.add_clause, lits)
            assert got == _outcome(
                lambda c: _reference_add_clause(reference, c), lits
            )
            assert got == _outcome(legacy.add_clause, lits)
            if lits[0] == 0 and was_ok:
                # (A later 0 may sit behind an early tautology or
                # level-0-satisfied return, on every engine alike.)
                assert got is InvalidLiteralError
            assert _kernel_state(kernel) == _kernel_state(reference)
            assert kernel._trail == legacy._trail
            assert kernel._ok == legacy._ok
            assert kernel.num_vars == legacy.num_vars
        assert kernel.problem_clauses() == [
            list(clause.lits) for clause in legacy._clauses
        ]
        assert _kernel_watches(kernel) == _legacy_watches(legacy)
        assert _pop_order(kernel._order_heap) == (
            _pop_order(legacy._order_heap)
        )
        verdicts = [
            solver.solve() for solver in (kernel, reference, legacy)
        ]
        fingerprints = [
            _fingerprint(solver, verdict)
            for solver, verdict in zip((kernel, reference, legacy), verdicts)
        ]
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]

    def test_ensure_var_past_capacity_matches_new_var_loop(self):
        kernel = load_kernel(KERNEL_KIND).Kernel()
        reference = load_kernel("interpreted").Kernel()
        for var in (3, 3, 17, 16, 64, 65, 200):
            kernel.ensure_var(var)
            _reference_ensure_var(reference, var)
            assert _kernel_state(kernel) == _kernel_state(reference)
        assert kernel.new_var() == 201
        with pytest.raises(InvalidLiteralError):
            kernel.ensure_var(0)


class TestLockstepFuzzScenarios:
    """The 25-scenario differential the acceptance criteria call for."""

    @pytest.mark.parametrize("index", range(25))
    def test_fuzz_scenario_cnf_is_trace_identical(self, index):
        from repro.scenarios.fuzz import fuzz_scenario
        from repro.tasks.common import build_encoding

        scenario = fuzz_scenario(run_seed=8, index=index)
        encoding = build_encoding(
            scenario.discretize(), scenario.schedule, scenario.r_t_min,
            None,
        )
        _assert_lockstep(encoding.cnf.clauses)


class TestKernelSelection:
    def test_build_is_reported(self):
        assert kernel_build() in ("interpreted", "compiled")

    def test_resolve_kind_maps_auto_to_build(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_kind("auto") == kernel_build()
        assert resolve_kind("legacy") == "legacy"

    def test_env_var_overrides_config(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "legacy")
        assert resolve_kind("auto") == "legacy"
        solver = Solver(SolverConfig(kernel="interpreted"))
        assert solver.kernel == "legacy"

    def test_unknown_kind_rejected(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        with pytest.raises(ValueError):
            resolve_kind("turbo")
        monkeypatch.setenv(ENV_VAR, "turbo")
        with pytest.raises(ValueError):
            resolve_kind("auto")

    def test_valid_kinds_all_resolve(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        for kind in VALID_KINDS:
            assert resolve_kind(kind) in (
                "legacy", "interpreted", "compiled"
            )

    def test_forcing_missing_compiled_build_raises(self):
        if kernel_build() == "compiled":
            pytest.skip("compiled build installed")
        with pytest.raises(RuntimeError):
            load_kernel("compiled")

    def test_interpreted_module_always_loadable(self):
        module = load_kernel("interpreted")
        assert module.KERNEL_KIND == "interpreted"

    def test_stats_record_the_active_kernel(self):
        legacy, kernel = _pair()
        for solver in (legacy, kernel):
            solver.add_clause([1, 2])
            solver.solve()
        assert legacy.stats.kernel == "legacy"
        assert kernel.stats.kernel == KERNEL_KIND
        assert legacy.stats.as_dict()["kernel.legacy"] == 1
        assert kernel.stats.as_dict()[f"kernel.{KERNEL_KIND}"] == 1

    def test_attach_proof_falls_back_to_legacy(self):
        from repro.sat.proof import ProofLogger, check_rup_proof

        cnf = [[1, 2], [-1, 2], [1, -2], [-1, -2]]
        solver = Solver(SolverConfig(kernel=KERNEL_KIND))
        for lits in cnf:
            solver.add_clause(list(lits))
        assert solver.kernel == KERNEL_KIND
        logger = ProofLogger()
        solver.attach_proof(logger)
        assert solver.kernel == "legacy"
        assert solver.solve() is SolveResult.UNSAT
        assert check_rup_proof(2, cnf, logger.steps)


class TestWireFormat:
    @given(st.lists(st.lists(st.integers(-(2 ** 30), 2 ** 30),
                             max_size=6), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, clauses):
        assert unpack_clauses(pack_clauses(clauses)) == clauses

    def test_empty_block(self):
        assert pack_clauses([]) == b""
        assert unpack_clauses(b"") == []

    def test_corrupt_buffers_rejected(self):
        with pytest.raises(ValueError):
            unpack_clauses(b"\x01")  # misaligned
        buf = pack_clauses([[1, 2, 3]])
        with pytest.raises(ValueError):
            unpack_clauses(buf[:-4])  # truncated literal
