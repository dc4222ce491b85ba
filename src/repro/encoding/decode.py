"""Decoding SAT models into VSS layouts and train trajectories."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.network.sections import VSSLayout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.encoding.encoder import EtcsEncoding


@dataclass
class TrainTrajectory:
    """The decoded movement of one train.

    Attributes:
        name: the train's name.
        steps: per time step, the set of occupied segment ids (empty when
            the train is outside the network).
        arrival_step: first step at which the train occupied a goal segment
            (None if it never arrived).
        gone_from: first step at which the train had left the network after
            its run (None if it stayed until the end of the scenario).
    """

    name: str
    steps: list[frozenset[int]]
    arrival_step: int | None
    gone_from: int | None

    def position_at(self, step: int) -> frozenset[int]:
        return self.steps[step]

    @property
    def present_steps(self) -> list[int]:
        """Steps at which the train is inside the network."""
        return [t for t, occupied in enumerate(self.steps) if occupied]


@dataclass
class Solution:
    """A decoded scenario solution.

    Attributes:
        layout: the VSS layout in force (decoded borders).
        trajectories: one per train, in schedule order.
        makespan: number of steps until all trains had reached their final
            stops (the paper's ``Σ_t ¬done^t``); equals ``t_max`` when some
            train never arrives.
        t_max: scenario length in steps.
    """

    layout: VSSLayout
    trajectories: list[TrainTrajectory]
    makespan: int
    t_max: int

    def trajectory_of(self, train_name: str) -> TrainTrajectory:
        for trajectory in self.trajectories:
            if trajectory.name == train_name:
                return trajectory
        raise KeyError(f"no trajectory for train {train_name!r}")

    @property
    def num_sections(self) -> int:
        """TTD/VSS section count of the decoded layout (Table I column)."""
        return self.layout.num_sections


def decode_solution(encoding: "EtcsEncoding", true_vars: set[int]) -> Solution:
    """Build a :class:`Solution` from the set of true variable numbers."""
    net = encoding.net
    reg = encoding.reg

    borders: set[int] = set(net.forced_borders)
    for vertex in range(net.num_vertices):
        var = reg.lookup_border(vertex)
        if var is not None and var in true_vars:
            borders.add(vertex)
    layout = VSSLayout(net, borders)

    # Trains dwell, so most steps repeat an earlier occupied set; one
    # shared frozenset per distinct set keeps retained solutions small.
    interned: dict[frozenset[int], frozenset[int]] = {}
    trajectories: list[TrainTrajectory] = []
    for i, run in enumerate(encoding.runs):
        steps: list[frozenset[int]] = []
        goal_set = set(run.goal_segments)
        arrival_step: int | None = None
        gone_from: int | None = None
        for t in range(encoding.t_max):
            occupied = frozenset(
                e
                for e in encoding.cone.at(i, t)
                if (var := reg.lookup_occupies(i, e, t)) is not None
                and var in true_vars
            )
            occupied = interned.setdefault(occupied, occupied)
            steps.append(occupied)
            if arrival_step is None and occupied & goal_set:
                arrival_step = t
            if (
                gone_from is None
                and t >= run.departure_step
                and not occupied
                and (var := reg.lookup_gone(i, t)) is not None
                and var in true_vars
            ):
                gone_from = t
        trajectories.append(
            TrainTrajectory(
                name=run.name,
                steps=steps,
                arrival_step=arrival_step,
                gone_from=gone_from,
            )
        )

    arrivals = [traj.arrival_step for traj in trajectories]
    if any(a is None for a in arrivals):
        makespan = encoding.t_max
    else:
        makespan = max(arrivals) if arrivals else 0
    return Solution(
        layout=layout,
        trajectories=trajectories,
        makespan=makespan,
        t_max=encoding.t_max,
    )
