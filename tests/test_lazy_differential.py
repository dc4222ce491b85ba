"""Differential suite: lazy CEGAR vs eager encoding on the case studies.

On all four §IV case studies the two modes must agree on the
verification verdict *and* on the optimal border count of the
generation task — the acceptance bar for the lazy encoding (its model
set provably equals the eager one; these tests check the
implementation, not the theorem).
"""

from __future__ import annotations

import pytest

from repro.casestudies.base import all_case_studies
from repro.tasks import generate_layout, verify_schedule

STUDIES = {study.name: study for study in all_case_studies()}


@pytest.fixture(params=sorted(STUDIES), scope="module")
def study(request):
    return STUDIES[request.param]


def test_verification_verdict_agrees(study):
    net = study.discretize()
    eager = verify_schedule(net, study.schedule, study.r_t_min, lazy=False)
    lazy = verify_schedule(net, study.schedule, study.r_t_min, lazy=True)
    assert lazy.satisfiable == eager.satisfiable, study.name
    # The relaxation never instantiates more than the eager formula.
    assert lazy.clauses <= eager.clauses, study.name


def test_generation_optimum_agrees(study):
    net = study.discretize()
    eager = generate_layout(net, study.schedule, study.r_t_min, lazy=False)
    lazy = generate_layout(net, study.schedule, study.r_t_min, lazy=True)
    assert lazy.satisfiable == eager.satisfiable, study.name
    assert lazy.objective_value == eager.objective_value, study.name
    assert lazy.proven_optimal == eager.proven_optimal, study.name
