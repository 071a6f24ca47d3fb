"""The Schur-complement solver standing alone on the reference system.

Distributes the reference problem of a small plate over three simulated
ranks, condenses each domain on its boundary and solves the interface
problem with block-Jacobi CG; the result matches the sparse direct solve.
Each rank builds its dd layout (dof split, ownership, exchange tables and
assembly pattern) once and both solves reuse it.
"""

import numpy as np

from twoscalefem.bench import CaseSpec, build_cubic_problem, reference_oracle
from twoscalefem.ddsolver import dd_layout, dd_solve_from_triplets, reference_rank_triplets
from twoscalefem.runtime import partition_mesh, run_ranks

problem, exact = build_cubic_problem(CaseSpec(sp_depth=1), base=(3, 2, 1))
u_R, system, _ = reference_oracle(problem)
n = problem.partition.n_ref_free
plan = partition_mesh(problem.nested, problem.sp_info, 3)
print(f"{n} free dofs over 3 domains; element counts per rank:",
      [len(plan.elements_of(r)) for r in range(3)])


def prog(ctx):
    # one item: the reference assembly over the rank's elements
    trips, bv = reference_rank_triplets(problem.nested, problem.partition,
                                        problem.material, problem.loads, plan, ctx.rank)
    layout = dd_layout(ctx, trips, bv)
    out = dd_solve_from_triplets(ctx, n, trips, bv, 1e-10, layout=layout)
    # a second solve of the same system restarts from the boundary solution
    again = dd_solve_from_triplets(ctx, n, trips, bv, 1e-10, warm=out.warm, layout=layout)
    return out, again


out, again = run_ranks(3, prog)[0]
d = out.x - u_R
err = np.sqrt(d @ system.A_rr @ d) / np.sqrt(u_R @ system.A_rr @ u_R)
print(f"dd vs direct solve: energy-norm gap {err:.2e} "
      f"after {out.report.iterations} CG iterations")
print(f"warm restart on the unchanged system: {again.report.loop_bodies} loop body")
