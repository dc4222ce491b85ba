"""Seeded task lists and gateway request streams.

Everything here derives from the benchmark seed: the same seed always
gives the same tasks, in the same order, with byte-identical inputs.
The program under test only ever receives the generated inputs.

Generated scenarios come from the repo's scenario generator
(:func:`repro.scenarios.generator.generate_scenario`) in three fixed
shape classes; the seed draws each scenario's own generator seed.
Fixed shapes keep the per-scenario cost spread narrow, so the mix — and
hence throughput — is comparable from one seed to the next.

The registered workloads use loop-less lines only: on generated
scenarios with a passing loop the program has open defects (the lazy
and eager verification paths disagree, and some decoded solutions swap
two trains), so a run over them fails on some seeds.  ``LOOP_SHAPES``
keeps those shapes for the ``verify-loops`` and ``design-loops``
workloads, which show the defects until they are fixed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

#: Shape classes of generated scenarios: name -> (trains, passing loops,
#: corridor tracks, spur probability).  All small enough to solve in
#: a few to tens of milliseconds and to mix SAT and UNSAT verdicts.
#: Many small instances rather than fewer large ones keep the cost of a
#: seed's list, its median and its tail close from one seed to the next.
SHAPES = {
    "two-train-single": (2, 0, 1, 0.0),
    "two-train-line": (2, 0, 2, 0.25),
    "three-train-single": (3, 0, 1, 0.0),
}

#: Shapes with a passing loop, on which the program has open defects
#: (see the module docstring); used only by the ``*-loops`` workloads.
LOOP_SHAPES = {
    "two-train-loop": (2, 1, 2, 0.25),
    "three-train-line": (3, 0, 2, 0.25),
    "two-train-short": (2, 1, 1, 0.0),
}

#: Deadline slack (steps over each train's earliest arrival) of the
#: verification instances: 0 is tight (a mix of verdicts), 3 loose.
VERIFY_HEADROOMS = (0, 3)

#: Deadline slack of the layout-generation instances.
GENERATE_HEADROOM = 0

#: Case-study keys in paper order.
CASES = ("running-example", "simple-layout", "complex-layout",
         "nordlandsbanen")

#: Case-study design rows run in the timed loop: (task, case, parallel).
#: Simple Layout and Nordlandsbanen optimization (about 40 s and 5 s
#: here) do not fit one run; ``run.py --table1`` checks and times them.
#: The ``parallel=2`` rows run the persistent solver-service descent.
DESIGN_CASE_ROWS = (
    ("generate", "running-example", 1),
    ("generate", "simple-layout", 1),
    ("generate", "complex-layout", 1),
    ("generate", "nordlandsbanen", 1),
    ("optimize", "running-example", 1),
    ("optimize", "complex-layout", 1),
    ("optimize", "running-example", 2),
    ("optimize", "complex-layout", 2),
)

#: Gateway case-study requests (inline, so deadlines can be nudged).
GATEWAY_CASES = ("running-example",)


@dataclass
class Instance:
    """One scenario, discretised, as the task API takes it."""

    name: str
    net: object  # repro.network.discretize.DiscreteNetwork
    schedule: object  # repro.trains.schedule.Schedule
    r_s: float
    r_t: float
    network: object  # repro.network.topology.RailwayNetwork
    case: str | None = None  # Table I key for paper case studies


@dataclass
class Task:
    """One call of the task API."""

    kind: str  # "verify" | "generate" | "optimize"
    instance: Instance
    parallel: int = 1

    @property
    def key(self) -> str:
        suffix = f"-j{self.parallel}" if self.parallel > 1 else ""
        return f"{self.kind}{suffix}:{self.instance.name}"


def case_instances() -> dict[str, Instance]:
    """The four paper case studies, discretised."""
    from repro.casestudies import all_case_studies

    out = {}
    for study, key in zip(all_case_studies(), CASES):
        out[key] = Instance(
            name=key, net=study.discretize(), schedule=study.schedule,
            r_s=study.r_s_km, r_t=study.r_t_min, network=study.network,
            case=key,
        )
    return out


def _scenario_seeds(seed: int, stream: str, count: int) -> list[int]:
    rng = random.Random(f"perfbench-{stream}-{seed}")
    return [rng.randrange(1 << 30) for _ in range(count)]


def generated_scenarios(seed: int, stream: str, per_shape: int,
                        shapes: dict = SHAPES) -> list:
    """``per_shape`` seeded scenarios of every shape class, interleaved
    (no deadlines yet)."""
    from repro.scenarios.generator import generate_scenario
    from repro.scenarios.spec import ScenarioSpec

    seeds = _scenario_seeds(seed, stream, per_shape * len(shapes))
    out = []
    for i, sub_seed in enumerate(seeds):
        trains, loops, tracks, spur = list(shapes.values())[i % len(shapes)]
        out.append(generate_scenario(ScenarioSpec(
            seed=sub_seed, loops=loops, corridor_tracks=tracks,
            spur_probability=spur, trains=trains,
        )))
    return out


def _instance(scenario, suffix: str = "") -> Instance:
    return Instance(
        name=f"{scenario.name}{suffix}", net=scenario.discretize(),
        schedule=scenario.schedule, r_s=scenario.r_s_km,
        r_t=scenario.r_t_min, network=scenario.network,
    )


def verify_tasks(seed: int, per_shape: int = 96,
                 shapes: dict = SHAPES) -> list[Task]:
    """The four case studies, then seeded scenarios at both headrooms."""
    from repro.scenarios.generator import with_headroom

    tasks = [Task("verify", inst) for inst in case_instances().values()]
    for scenario in generated_scenarios(seed, "verify", per_shape, shapes):
        for headroom in VERIFY_HEADROOMS:
            tasks.append(Task("verify", _instance(
                with_headroom(scenario, headroom), f"/h{headroom}"
            )))
    return tasks


def design_tasks(seed: int, per_shape: int = 40,
                 shapes: dict = SHAPES) -> list[Task]:
    """Case-study design rows, then a seeded generate + optimize pair per
    scenario."""
    from repro.scenarios.generator import with_headroom

    cases = case_instances()
    tasks = [
        Task(kind, cases[case], parallel)
        for kind, case, parallel in DESIGN_CASE_ROWS
    ]
    scenarios = generated_scenarios(seed, "design", per_shape, shapes)
    for scenario in scenarios:
        tasks.append(Task("generate", _instance(
            with_headroom(scenario, GENERATE_HEADROOM),
            f"/h{GENERATE_HEADROOM}",
        )))
        tasks.append(Task("optimize", _instance(scenario)))
    return tasks


# ----------------------------------------------------------------------
# Gateway request stream
# ----------------------------------------------------------------------

#: Repeats and variants refer back this many fresh requests, so with two
#: clients in flight their original has almost always been answered
#: (and cached) by the time they are sent.
BACKREF = 4


@dataclass
class Request:
    """One gateway request of the stream."""

    kind: str  # "fresh" | "repeat" | "variant"
    task: Task  # the instance the request describes
    payload: dict
    original: int | None = None  # stream index of the fresh original


def inline_payload(task: Task) -> dict:
    """Gateway payload describing ``task`` inline."""
    from repro.network.io import network_to_json
    from repro.trains.io import schedule_to_json

    inst = task.instance
    return {
        "task": task.kind,
        "network": json.loads(network_to_json(inst.network)),
        "schedule": json.loads(schedule_to_json(inst.schedule)),
        "r_s": inst.r_s,
        "r_t": inst.r_t,
        "params": {"guarded_arrivals": True},
    }


def nudged(task: Task, rng: random.Random) -> Task:
    """``task`` with one train's arrival deadline moved by one step,
    staying after its departure and within the scenario duration."""
    from dataclasses import replace

    from repro.trains.schedule import Schedule

    inst = task.instance
    schedule = inst.schedule
    step = inst.r_t
    options = []
    for i, run in enumerate(schedule.runs):
        if run.arrival_min is None:
            continue
        if run.arrival_min + step <= schedule.duration_min:
            options.append((i, run.arrival_min + step))
        if run.arrival_min - step > run.departure_min:
            options.append((i, run.arrival_min - step))
    if not options:
        raise ValueError(f"{inst.name}: no arrival deadline to nudge")
    index, arrival = rng.choice(options)
    runs = list(schedule.runs)
    runs[index] = replace(runs[index], arrival_min=arrival)
    moved = Schedule(runs, schedule.duration_min)
    return Task(task.kind, replace(
        inst, name=f"{inst.name}/nudge{index}{arrival:+g}",
        schedule=moved, case=None,
    ))


def gateway_stream(seed: int, per_shape: int = 9) -> list[Request]:
    """Fresh / exact-repeat / delta-close requests in rotation.

    Fresh requests cover verify, generate and optimize on the running
    example and on seeded scenarios (each with deadlines at the tight
    headroom).  Fresh request ``i`` is followed by an exact repeat of
    fresh request ``i - BACKREF`` and a deadline-nudged variant of it,
    so each kind makes up a third of the stream.
    """
    from repro.scenarios.generator import with_headroom

    cases = case_instances()
    instances = [cases[key] for key in GATEWAY_CASES]
    for scenario in generated_scenarios(seed, "gateway", per_shape):
        instances.append(_instance(with_headroom(scenario, 0), "/h0"))
    fresh = [
        Task(kind, inst) for inst in instances
        for kind in ("verify", "generate", "optimize")
    ]
    rng = random.Random(f"perfbench-gateway-nudge-{seed}")
    stream: list[Request] = []
    fresh_at: list[int] = []
    for i in range(len(fresh) + BACKREF):
        if i < len(fresh):
            fresh_at.append(len(stream))
            stream.append(Request("fresh", fresh[i], inline_payload(fresh[i])))
        back = i - BACKREF
        if back < 0:
            continue
        origin = fresh[back]
        stream.append(Request(
            "repeat", origin, inline_payload(origin), fresh_at[back]
        ))
        variant = nudged(origin, rng)
        stream.append(Request(
            "variant", variant, inline_payload(variant), fresh_at[back]
        ))
    return stream
