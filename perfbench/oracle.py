"""Correctness oracle, run outside the timed phase.

* Paper case studies are checked against Table I: verification UNSAT on
  all four, minimum sections 5 / 14 / 23 / 52 from generation, makespan
  7 / 13 / 15 / 30 from optimization, with optimality proven.
* Generated scenarios are checked against a serial eager reference
  solve of the same instance (``lazy=False``; design tasks use the
  ``binary`` descent, which probes other bounds than the default
  ``linear`` one, so agreement is not one code path agreeing with
  itself).
* Every SAT answer is re-checked with ``validate_solution`` against a
  freshly built encoding of its instance.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Table I of the paper: case -> (verify SAT?, generate min sections,
#: optimize makespan).
TABLE1 = {
    "running-example": (False, 5, 7),
    "simple-layout": (False, 14, 13),
    "complex-layout": (False, 23, 15),
    "nordlandsbanen": (False, 52, 30),
}


@dataclass(frozen=True)
class Answer:
    """What a task answered, in comparable form.

    ``value`` is the generated layout's section count (generate) or the
    makespan in steps (optimize); verification has none.  ``proven`` is
    whether an optimisation task certified its optimum.
    """

    satisfiable: bool
    value: int | None = None
    proven: bool | None = None


def answer_of(kind: str, result) -> Answer:
    """Answer of a :class:`repro.tasks.TaskResult`."""
    if kind == "verify":
        return Answer(bool(result.satisfiable))
    if not result.satisfiable:
        return Answer(False, None, bool(result.proven_optimal))
    value = result.num_sections if kind == "generate" else result.time_steps
    return Answer(True, value, bool(result.proven_optimal))


def answer_of_response(kind: str, response: dict) -> Answer:
    """Answer of a gateway response."""
    if kind == "verify":
        return Answer(bool(response["satisfiable"]))
    proven = response.get("status") == "optimal"
    if not response["satisfiable"]:
        return Answer(False, None, proven)
    key = "num_sections" if kind == "generate" else "time_steps"
    return Answer(True, response[key], proven)


def check_table1(kind: str, case: str, answer: Answer) -> list[str]:
    """Problems of a case-study answer against Table I."""
    sat, sections, makespan = TABLE1[case]
    if kind == "verify":
        if answer.satisfiable != sat:
            return [f"{case} verify: got {_verdict(answer)}, Table I says "
                    f"{'SAT' if sat else 'UNSAT'}"]
        return []
    expected = sections if kind == "generate" else makespan
    problems = []
    if not answer.satisfiable or answer.value != expected:
        got = answer.value if answer.satisfiable else "UNSAT"
        problems.append(f"{case} {kind}: got {got}, Table I says {expected}")
    if not answer.proven:
        problems.append(f"{case} {kind}: optimum not proven")
    return problems


def check_against(kind: str, name: str, answer: Answer,
                  reference: Answer) -> list[str]:
    """Problems of an answer against the reference answer."""
    if answer.satisfiable != reference.satisfiable:
        return [f"{kind} {name}: got {_verdict(answer)}, reference says "
                f"{_verdict(reference)}"]
    problems = []
    if kind != "verify" and answer.satisfiable:
        if answer.value != reference.value:
            problems.append(f"{kind} {name}: got {answer.value}, "
                            f"reference says {reference.value}")
        if not answer.proven:
            problems.append(f"{kind} {name}: optimum not proven")
    return problems


def _verdict(answer: Answer) -> str:
    return "SAT" if answer.satisfiable else "UNSAT"


def reference_answer(task) -> Answer:
    """Serial eager solve of ``task`` through the public task API."""
    from repro.tasks import generate_layout, optimize_schedule, verify_schedule

    inst = task.instance
    if task.kind == "verify":
        result = verify_schedule(inst.net, inst.schedule, inst.r_t,
                                 lazy=False)
    elif task.kind == "generate":
        result = generate_layout(inst.net, inst.schedule, inst.r_t,
                                 strategy="binary", lazy=False)
    else:
        result = optimize_schedule(inst.net, inst.schedule, inst.r_t,
                                   strategy="binary", lazy=False)
    return answer_of(task.kind, result)


class Validator:
    """Re-checks SAT answers with ``validate_solution``.

    Encodings are built once per (task kind, instance) and reused.
    """

    def __init__(self):
        self._encodings: dict[tuple, object] = {}

    def encoding(self, task, guarded: bool = False):
        from repro.encoding.encoder import EncodingOptions
        from repro.tasks.common import build_encoding

        key = (task.kind, task.instance.name, guarded)
        if key not in self._encodings:
            inst = task.instance
            schedule = (
                inst.schedule.without_deadlines()
                if task.kind == "optimize" else inst.schedule
            )
            options = EncodingOptions(guarded_arrivals=guarded)
            self._encodings[key] = build_encoding(
                inst.net, schedule, inst.r_t, options
            )
        return self._encodings[key]

    def check_solution(self, task, answer: Answer, solution) -> list[str]:
        """Problems of a task's decoded solution (SAT answers only)."""
        from repro.encoding.validate import validate_solution

        if not answer.satisfiable:
            return []
        if solution is None:
            return [f"{task.key}: SAT without a solution"]
        problems = validate_solution(self.encoding(task), solution)
        return [f"{task.key}: {p}" for p in problems[:3]]

    def check_model(self, task, model: list[int]) -> list[str]:
        """Problems of a gateway model (decoded against the guarded
        encoding the gateway's requests ask for)."""
        from repro.encoding.validate import validate_solution

        encoding = self.encoding(task, guarded=True)
        solution = encoding.decode({lit for lit in model if lit > 0})
        problems = validate_solution(encoding, solution)
        return [f"{task.key}: {p}" for p in problems[:3]]
