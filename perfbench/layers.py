"""Timing wrappers around each layer's public functions, and the
per-layer metrics computed from the spans they record.

Nothing under ``src/`` is edited: :func:`install` swaps the layer entry
points for wrappers (class methods in place; module functions in every
loaded ``repro`` module that bound them by name) and returns the undo.

Layers and the calls that time them:

=================  ====================================================
layer              wrapped calls (span name)
=================  ====================================================
encoding.encoder   ``EtcsEncoding.build`` (encoder.build)
encoding.lazy      ``LazyRefiner.refine`` / ``.stats`` (lazy.refine,
                   lazy.stats)
sat                ``Solver.add_clause`` (sat.load, coalesced),
                   ``Solver.solve`` (sat.solve)
opt                ``minimize_sum``, ``minimize_sum_core_guided``
                   (opt.descent)
logic.totalizer    ``Totalizer`` construction, ``assert_at_most`` /
                   ``assert_at_least`` (totalizer.build)
encoding.decode    ``EtcsEncoding.decode`` (decode)
encoding.validate  ``validate_solution`` (validate)
sat.service        ``SolverService.start`` / ``.probe`` (service.start,
                   service.probe)
sat.portfolio      ``solve_portfolio`` (portfolio.solve)
gateway            ``exact_key`` / ``family_key`` (gateway.fingerprint),
                   ``ResultCache`` lookups and put (gateway.cache),
                   ``TaskWorkerPool.run`` (gateway.worker)
tasks              the benchmark's call into the task API (tasks.*) or,
                   on the gateway, the client request (gateway.request)
=================  ====================================================
"""

from __future__ import annotations

import contextvars
import sys
import time

from perfbench.spans import Tracer, ancestors, self_times

#: The gateway request being processed on the event loop (set by the
#: ``Gateway.process`` wrapper; read by the fingerprint/cache wrappers).
_REQUEST: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None
)

#: Span names that are solver probes when nested in a descent.
PROBE_SPANS = ("sat.solve", "service.probe", "portfolio.solve")

#: Root span names: one per timed task or gateway request.
ROOT_PREFIXES = ("tasks.", "gateway.request")


class Patches:
    """Reversible attribute swaps."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls, name: str, factory) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, factory(original))
        self._undo.append((cls, name, original))

    def function(self, module, name: str, factory) -> None:
        """Replace ``module.name`` wherever a ``repro`` module bound it."""
        original = getattr(module, name)
        wrapper = factory(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            bound = [
                attr for attr, value in list(vars(mod).items())
                if value is original
            ]
            for attr in bound:
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, original))

    def undo(self) -> None:
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()


def _timed(tracer: Tracer, name: str, after=None, parent_of=None):
    """Wrapper factory: one span per call; ``after(span, args, result)``
    adds attributes; ``parent_of(args, kwargs)`` picks an explicit
    (cross-thread) parent and skips the span when it returns None."""

    def factory(original):
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            parent = None
            if parent_of is not None:
                parent = parent_of(args, kwargs)
                if parent is None:
                    return original(*args, **kwargs)
            span = tracer.open(name, parent=parent)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    return factory


def install(tracer: Tracer) -> Patches:
    """Wrap every layer entry point; call ``.undo()`` to restore."""
    from repro.encoding import validate as validate_mod
    from repro.encoding.encoder import EtcsEncoding
    from repro.encoding.lazy import LazyRefiner
    from repro.gateway import server as gateway_server
    from repro.gateway.cache import ResultCache
    from repro.gateway.pool import TaskWorkerPool
    from repro.logic.totalizer import Totalizer
    from repro.opt import maxsat as maxsat_mod
    from repro.opt import minimize as minimize_mod
    from repro.sat import portfolio as portfolio_mod
    from repro.sat.service import ServiceError, SolverService
    from repro.sat.solver import Solver

    patches = Patches()
    perf = time.perf_counter

    # encoding.encoder / encoding.decode / encoding.validate
    def clause_count(span, args, result):
        span.attrs["clauses"] = len(args[0].cnf.clauses)

    patches.method(EtcsEncoding, "build",
                   _timed(tracer, "encoder.build", after=clause_count))
    patches.method(EtcsEncoding, "decode", _timed(tracer, "decode"))
    patches.function(validate_mod, "validate_solution",
                     _timed(tracer, "validate"))

    # encoding.lazy
    def added(span, args, result):
        span.attrs["added"] = int(result)

    patches.method(LazyRefiner, "refine",
                   _timed(tracer, "lazy.refine", after=added))
    patches.method(LazyRefiner, "stats", _timed(tracer, "lazy.stats"))

    # sat: clause loading is coalesced, one span per parent.
    def load_factory(original):
        def add_clause(self, lits):
            if not tracer.enabled:
                return original(self, lits)
            start = perf()
            result = original(self, lits)
            tracer.accumulate("sat.load", start, perf())
            return result

        return add_clause

    def solve_stats(span, args, result):
        last = args[0].last_stats
        span.attrs.update(verdict=result.name,
                          propagations=last.propagations,
                          conflicts=last.conflicts)

    patches.method(Solver, "add_clause", load_factory)
    patches.method(Solver, "solve",
                   _timed(tracer, "sat.solve", after=solve_stats))

    # opt
    patches.function(minimize_mod, "minimize_sum",
                     _timed(tracer, "opt.descent"))
    patches.function(maxsat_mod, "minimize_sum_core_guided",
                     _timed(tracer, "opt.descent"))

    def improved_factory(original):
        def note(*args, **kwargs):
            if tracer.enabled:
                tracer.count("opt.improvements")
            return original(*args, **kwargs)

        return note

    patches.function(minimize_mod, "_note_improved", improved_factory)

    # logic.totalizer
    def totalizer_factory(original):
        def wrapper(self, *args, **kwargs):
            if not tracer.enabled:
                return original(self, *args, **kwargs)
            cnf = args[0] if original.__name__ == "__init__" else self._cnf
            before = len(cnf.clauses)
            with tracer.span("totalizer.build") as span:
                result = original(self, *args, **kwargs)
            span.attrs["clauses"] = len(cnf.clauses) - before
            return result

        return wrapper

    for name in ("__init__", "assert_at_most", "assert_at_least"):
        patches.method(Totalizer, name, totalizer_factory)

    # sat.service / sat.portfolio
    def service_start_factory(original):
        def start(self):
            if not tracer.enabled:
                return original(self)
            try:
                with tracer.span("service.start"):
                    return original(self)
            except ServiceError:
                tracer.count("service.fallbacks")
                raise

        return start

    def service_probe_factory(original):
        def probe(self, *args, **kwargs):
            if not tracer.enabled:
                return original(self, *args, **kwargs)
            before = [report.solve_time_s for report in self.reports]
            try:
                with tracer.span("service.probe") as span:
                    outcome = original(self, *args, **kwargs)
            except ServiceError:
                tracer.count("service.fallbacks")
                raise
            spent = [
                report.solve_time_s - was
                for report, was in zip(self.reports, before)
            ]
            span.attrs.update(
                verdict=outcome.verdict.name,
                worker_solve_s=(
                    spent[outcome.winner] if outcome.winner is not None
                    else max(spent, default=0.0)
                ),
            )
            return outcome

        return probe

    def portfolio_verdict(span, args, result):
        span.attrs["verdict"] = result.verdict.name

    patches.method(SolverService, "start", service_start_factory)
    patches.method(SolverService, "probe", service_probe_factory)
    patches.function(portfolio_mod, "solve_portfolio",
                     _timed(tracer, "portfolio.solve",
                            after=portfolio_verdict))

    # gateway: the request span lives on the client thread; server-side
    # spans find it through the request id the benchmark tags payloads
    # with (the gateway ignores unknown top-level fields).
    roots = tracer.requests

    def process_factory(original):
        async def process(self, payload):
            token = _REQUEST.set(roots.get(payload.get("request_id")))
            try:
                return await original(self, payload)
            finally:
                _REQUEST.reset(token)

        return process

    def on_loop(args, kwargs):
        return _REQUEST.get()

    def of_payload(args, kwargs):
        return roots.get(args[1].get("request_id"))

    patches.method(gateway_server.Gateway, "process", process_factory)
    for name in ("exact_key", "family_key"):
        patches.function(gateway_server, name, _timed(
            tracer, "gateway.fingerprint", parent_of=on_loop))
    for name in ("lookup_exact", "lookup_family", "put"):
        patches.method(ResultCache, name, _timed(
            tracer, "gateway.cache", parent_of=on_loop))
    patches.method(TaskWorkerPool, "run", _timed(
        tracer, "gateway.worker", parent_of=of_payload))
    return patches


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

#: Self-time groups: span name -> layer row of the self-time table.
SELF_LAYERS = {
    "encoder.build": "encoding.encoder",
    "lazy.refine": "encoding.lazy",
    "lazy.stats": "encoding.lazy",
    "sat.load": "sat",
    "sat.solve": "sat",
    "opt.descent": "opt",
    "totalizer.build": "logic.totalizer",
    "decode": "encoding.decode",
    "validate": "encoding.validate",
    "service.start": "sat.service",
    "service.probe": "sat.service",
    "portfolio.solve": "sat.portfolio",
    "gateway.fingerprint": "gateway",
    "gateway.cache": "gateway",
    "gateway.worker": "gateway",
}


#: Unit of every per-layer metric (``BENCHMARK.json`` order).
PER_LAYER_UNITS = {
    "encoder.build_s": "s",
    "encoder.clauses": "count",
    "lazy.refine_s": "s",
    "lazy.rounds": "count",
    "lazy.constraints_added": "count",
    "lazy.stats_s": "s",
    "sat.load_s": "s",
    "sat.clauses_loaded": "count",
    "sat.solve_s": "s",
    "sat.solve_calls": "count",
    "sat.propagations": "count",
    "sat.conflicts": "count",
    "sat.props_per_s": "1/s",
    "opt.descent_s": "s",
    "opt.probes": "count",
    "opt.probe_sat_s": "s",
    "opt.probe_unsat_s": "s",
    "opt.improving_ratio": "ratio",
    "opt.self_s": "s",
    "totalizer.build_s": "s",
    "totalizer.clauses": "count",
    "decode.s": "s",
    "validate.s": "s",
    "service.start_s": "s",
    "service.probes": "count",
    "service.probe_s": "s",
    "service.worker_solve_s": "s",
    "service.overhead_s": "s",
    "service.fallbacks": "count",
    "gateway.fingerprint_s": "s",
    "gateway.cache_lookup_s": "s",
    "gateway.worker_s": "s",
    "gateway.queue_wait_s": "s",
    "gateway.hit_ratio": "ratio",
    "gateway.warm_ratio": "ratio",
    "gateway.rejected": "count",
    "gateway.worker_crashes": "count",
    "tasks.self_s": "s",
    "trace.tasks_per_s": "1/s",
    "trace.overhead": "ratio",
}


#: Gateway-only metrics: reported by the ``gateway`` workload alone.
GATEWAY = frozenset(k for k in PER_LAYER_UNITS if k.startswith("gateway."))


def is_root(name: str) -> bool:
    return name.startswith(ROOT_PREFIXES)


def layer_metrics(spans, counters, gateway_status=None) -> dict:
    """Per-layer metrics, per task (per request on the gateway).

    Times are seconds per task, counts are per task, ratios are plain
    ratios; ``service.fallbacks``, ``gateway.rejected`` and
    ``gateway.worker_crashes`` are totals over the traced phase.
    """
    selfs = self_times(spans)
    lineage = ancestors(spans)
    roots = [s for s in spans if is_root(s.name)]
    tasks = max(len(roots), 1)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name, attr=None):
        group = by_name.get(name, [])
        if attr is None:
            return sum(s.dur for s in group)
        return sum(s.attrs.get(attr, 0) for s in group)

    def calls(name):
        return len(by_name.get(name, []))

    probes = [
        s for s in spans
        if s.name in PROBE_SPANS and "opt.descent" in lineage[s.sid]
    ]
    probe_s = {"SAT": 0.0, "UNSAT": 0.0}
    for probe in probes:
        verdict = probe.attrs.get("verdict")
        if verdict in probe_s:
            probe_s[verdict] += probe.dur
    solve_s = total("sat.solve")
    propagations = total("sat.solve", "propagations")
    service_probe_s = total("service.probe")
    worker_solve_s = total("service.probe", "worker_solve_s")

    out = {
        "encoder.build_s": total("encoder.build") / tasks,
        "encoder.clauses": total("encoder.build", "clauses") / tasks,
        "lazy.refine_s": total("lazy.refine") / tasks,
        "lazy.rounds": calls("lazy.refine") / tasks,
        "lazy.constraints_added": total("lazy.refine", "added") / tasks,
        "lazy.stats_s": total("lazy.stats") / tasks,
        "sat.load_s": total("sat.load") / tasks,
        "sat.clauses_loaded": total("sat.load", "calls") / tasks,
        "sat.solve_s": solve_s / tasks,
        "sat.solve_calls": calls("sat.solve") / tasks,
        "sat.propagations": propagations / tasks,
        "sat.conflicts": total("sat.solve", "conflicts") / tasks,
        "sat.props_per_s": propagations / solve_s if solve_s else 0.0,
        "opt.descent_s": total("opt.descent") / tasks,
        "opt.probes": len(probes) / tasks,
        "opt.probe_sat_s": probe_s["SAT"] / tasks,
        "opt.probe_unsat_s": probe_s["UNSAT"] / tasks,
        "opt.improving_ratio": (
            counters.get("opt.improvements", 0) / len(probes)
            if probes else 0.0
        ),
        "opt.self_s": sum(
            selfs[s.sid] for s in by_name.get("opt.descent", [])
        ) / tasks,
        "totalizer.build_s": total("totalizer.build") / tasks,
        "totalizer.clauses": total("totalizer.build", "clauses") / tasks,
        "decode.s": total("decode") / tasks,
        "validate.s": total("validate") / tasks,
        "service.start_s": total("service.start") / tasks,
        "service.probes": calls("service.probe") / tasks,
        "service.probe_s": service_probe_s / tasks,
        "service.worker_solve_s": worker_solve_s / tasks,
        "service.overhead_s": (service_probe_s - worker_solve_s) / tasks,
        "service.fallbacks": counters.get("service.fallbacks", 0),
        "tasks.self_s": sum(selfs[s.sid] for s in roots) / tasks,
    }
    fingerprint_s = total("gateway.fingerprint")
    cache_s = total("gateway.cache")
    worker_s = total("gateway.worker")
    requests = by_name.get("gateway.request", [])
    status = gateway_status or {}
    hits = status.get("hits", 0)
    candidates = status.get("warm_hits", 0)
    out.update({
        "gateway.fingerprint_s": fingerprint_s / tasks,
        "gateway.cache_lookup_s": cache_s / tasks,
        "gateway.worker_s": worker_s / tasks,
        "gateway.queue_wait_s": (
            (sum(s.dur for s in requests) - fingerprint_s - cache_s
             - worker_s) / tasks
        ) if requests else 0.0,
        "gateway.hit_ratio": (
            hits / status["requests"] if status.get("requests") else 0.0
        ),
        "gateway.warm_ratio": (
            status.get("warm_starts", 0) / candidates if candidates else 0.0
        ),
        "gateway.rejected": status.get("rejected", 0),
        "gateway.worker_crashes": status.get("worker_crashes", 0),
    })
    return out


def self_time_table(spans) -> tuple[dict[str, float], float]:
    """Layer -> summed self time, plus the summed root (task) wall time.

    Root spans' own self time is the ``tasks`` row; by construction the
    rows add up to the root wall time.
    """
    selfs = self_times(spans)
    table: dict[str, float] = {}
    wall = 0.0
    for span in spans:
        if is_root(span.name):
            layer = "tasks"
            wall += span.dur
        else:
            layer = SELF_LAYERS.get(span.name, span.name)
        table[layer] = table.get(layer, 0.0) + selfs[span.sid]
    return table, wall
