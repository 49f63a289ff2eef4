"""The benchmark's workloads (perfbench/workloads.py) still find every
junctionflow name they import or capture, and the audit still draws its
selections in the call form the audit workload reads. Deleting or renaming
one of them breaks this test rather than `perfbench/run.py`."""

import sys
from pathlib import Path

import junctionflow.functionals
import junctionflow.optimality
from junctionflow import LEAST_AT_ZERO, MOST_AT_ZERO, Control, hj_junction
from junctionflow.functionals import CostSpec, make_box_weight
from junctionflow.optimality import check_optimality

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402  (its own imports resolve every name it calls)


def test_captured_names_resolve():
    # the fields workload captures the alias, the audit workload the field
    assert junctionflow.functionals.value_grid is hj_junction.value_grid
    assert junctionflow.optimality.trajectory_field is hj_junction.trajectory_field


def test_check_optimality_draws_both_selectors_on_the_mesh_positionally():
    case, mesh = workloads.cases()["symq"], workloads.box_mesh()
    spec = CostSpec(make_box_weight(**workloads.BOX))
    A = Control((0.0, 1.5, workloads.T), (0.0, case.A0))
    with workloads.capture(junctionflow.optimality, "trajectory_field") as seen:
        check_optimality(case.model, case.u0, A, spec, mesh)
    # the audit workload reads the mesh as args[3] and the selector as args[4]
    on_mesh = {args[4] for args, _, _ in seen if len(args) == 5 and args[3] is mesh}
    assert on_mesh == {MOST_AT_ZERO, LEAST_AT_ZERO}
