"""Two-scale global-local finite element solver for linear elasticity.

A coarse partition-of-unity problem is enriched by numerically computed
local solutions; local Dirichlet data comes back from the coarse solution,
and the loop is controlled by the relative residual of the reference
system.  Ranks are simulated in process with deterministic collectives.
"""

from .costmodel import cost_ts, nb_dof, optimal_coarse_level, ts_ratio
from .elasticity import LoadSet, Material
from .mesh import (
    BoundaryConditions,
    CoarseMesh,
    DofPartition,
    NestedMesh,
    Patch,
    box_mesh,
    build_partition,
    classify_sp,
    read_mesh,
    refine,
    write_mesh,
)
from .reference import assemble_reference, solve_reference
from .runtime import PartitionPlan, RankContext, partition_mesh, run_ranks
from .scheduler import PatchGraph, Schedule, build_schedule, validate
from .sparsela import CgReport, Factor, factorize, pcg, solve
from .twoscale import ProblemSetup, TsConfig, TsResult, solve_case

__all__ = [
    "BoundaryConditions", "CoarseMesh", "DofPartition", "NestedMesh", "Patch",
    "box_mesh", "build_partition", "classify_sp", "read_mesh", "refine", "write_mesh",
    "LoadSet", "Material",
    "Factor", "CgReport", "factorize", "solve", "pcg",
    "assemble_reference", "solve_reference",
    "PartitionPlan", "RankContext", "partition_mesh", "run_ranks",
    "PatchGraph", "Schedule", "build_schedule", "validate",
    "ProblemSetup", "TsConfig", "TsResult", "solve_case",
    "nb_dof", "cost_ts", "ts_ratio", "optimal_coarse_level",
]

__version__ = "0.1.0"
