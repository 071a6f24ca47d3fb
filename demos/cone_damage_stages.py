"""Pull-out analog: imposed cone damage, hanging interface, warm restart.

Stage one solves the box with the damage band at h = -400 from a cold
start; stage two grows the band to h = -395 on the same mesh and restarts
from the previous fine-scale solution, which cuts the iteration count.
Both stages run with untouched coarse elements around the refined zone, so
the hanging-node elimination and the transition patches are exercised.
"""

from twoscalefem.bench import CaseSpec, build_cone_box_problem
from twoscalefem.reference import assemble_reference
from twoscalefem.runtime import partition_mesh
from twoscalefem.twoscale import TsConfig, solve_case

cfg = TsConfig(eps=1e-7, max_iterations=200)


def stage(cone_h):
    problem = build_cone_box_problem(CaseSpec(kind="cone-damage-box", sp_depth=2, cone_h=cone_h))
    system = assemble_reference(problem.nested, problem.partition, problem.material,
                                problem.loads)
    return problem, system


problem1, system1 = stage(-400.0)
n = problem1
print(f"stage 1 (h=-400): SP={len(n.sp_info.sp_elements)} NSP={len(n.sp_info.nsp_elements)} "
      f"hanging={len(n.nested.hanging)} dofs={n.partition.n_ref_free}")
plan = partition_mesh(problem1.nested, problem1.sp_info, 2)
res1 = solve_case(problem1, plan, cfg, n_ranks=2)
print(f"stage 1: {res1.iterations} iterations, resi {res1.resi_history[-1]:.2e}")

# stage 2: the damage front advances on the same mesh, so the plan and the
# stage-1 solution carry over; its stiffness must differ, or the warm start
# would restart from the exact solution
problem2, system2 = stage(-395.0)
assert problem2.partition.n_ref_free == problem1.partition.n_ref_free
changed = (system2.A_rr != system1.A_rr).nnz
assert changed, "stage 2 assembles the same A_rr as stage 1"
print(f"stage 2 (h=-395): {changed} of {system2.A_rr.nnz} A_rr entries changed")
cold = solve_case(problem2, plan, cfg, n_ranks=2)
warm = solve_case(problem2, plan, cfg, n_ranks=2, warm_u_r=res1.u_r)
print(f"stage 2 cold: {cold.iterations} iterations; warm from stage 1: {warm.iterations}")
print(f"warm start residual entry point {warm.resi_history[0]:.2e} "
      f"vs cold {cold.resi_history[0]:.2e}")
