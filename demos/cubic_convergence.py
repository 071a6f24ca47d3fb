"""Cubic-plate walkthrough: the scale loop against its monolithic oracle.

Builds the plate with the known cubic displacement field, runs the
two-scale solver on two simulated ranks, and prints the per-iteration
residual next to the energy errors.  The E(ts, C) column plateaus at the
discretization error E(R, C) while E(ts, R) keeps falling with resi.
"""

from twoscalefem.bench import CaseSpec, build_cubic_problem, error_reports, reference_oracle
from twoscalefem.runtime import partition_mesh
from twoscalefem.twoscale import TsConfig, solve_case

spec = CaseSpec(kind="cubic-plate", coarse_level=0, sp_depth=2, eps=1e-7)
problem, exact = build_cubic_problem(spec, base=(2, 1, 1))
print(f"mesh: {problem.nested.coarse.n_elements} macro elements, "
      f"{problem.partition.n_ref_free} free reference dofs, "
      f"{len(problem.sp_info.patches)} patches")

u_R, system, _ = reference_oracle(problem)
print(f"monolithic reference solved, resi(u_R) = {system.residual(u_R):.2e}\n")

plan = partition_mesh(problem.nested, problem.sp_info, 2)
cfg = TsConfig(eps=1e-7, max_iterations=120, record_iterates=True)
res = solve_case(problem, plan, cfg, n_ranks=2)

print(f"{'it':>4} {'resi':>12} {'E(ts,R)':>12} {'E(ts,C)':>12} {'identity defect':>16}")
shown = [0, 1, 2, 4, 9, len(res.iterates) - 1]
reps = error_reports(problem, [res.iterates[k] for k in shown] + [res.u_r], u_R, system, exact)
for k, rep in zip(shown, reps):
    print(f"{k + 1:>4} {res.resi_history[k]:>12.3e} {rep.E_ts_R:>12.3e} "
          f"{rep.E_ts_C:>12.3e} {rep.identity_defect:>16.2e}")

rep = reps[-1]
print(f"\nconverged in {res.iterations} iterations")
print(f"discretization error E(R,C) = {rep.E_R_C:.4e}; plateau gap "
      f"{abs(rep.E_ts_C - rep.E_R_C) / rep.E_R_C:.1e}")
print(f"conservative: E(ts,R) = {rep.E_ts_R:.2e} <= eps = {cfg.eps:.0e}")
