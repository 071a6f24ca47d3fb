"""Benchmark workloads, the timing loop, the correctness gate and the trace run.

Untraced runs give the end-to-end metrics; a separate traced run gives the
per-layer ones.  Every solve goes through the gate in ``check`` and a solve
that fails it is counted in ``failed`` and its time is dropped.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import twoscalefem
from twoscalefem import bench, reference, runtime, twoscale
from twoscalefem.twoscale import TsConfig

from tracing import COARSE_CALLS, PHASES, PROGRAM, RECV, Tracer, fold

EPS = 1e-7
SIDE_REPEATS = 3       # set-ups and oracle solves timed after each solve
RESI_RTOL = 1e-6      # solver-reported resi against the monolithic residual
ORACLE_RESI = 1e-9    # residual the monolithic direct solve must reach
BUSY_REMAINDER = 0.05  # share of solve_s the per-rank busy times may miss
STRATEGY = {"ts": "tsd", "tsdd": "tsdd"}

END_TO_END = {"solve_s": "s", "setup_s": "s", "oracle_s": "s", "peak_rss_mb": "MB"}

SELF_TIMED = (
    "transfer.update_tfe", "transfer.coarse_triplets_enrichment",
    "transfer.coarse_system_build", "transfer.build_tfk", "twoscale.update_macro_prb",
    "twoscale.micro_scale_resolution", "twoscale.compute_residual",
    "twoscale.update_micro_dofs", "twoscale.build_coarse_on_root", "twoscale.ts_init",
    "elasticity.assemble_element_block", "elasticity.assemble_nsp",
    "elasticity.batch_leaf_stiffness", "sparsela.factorize", "sparsela.solve",
    "sparsela.pcg", "ddsolver.dd_solve", "reference.assemble_reference",
    "reference.solve_reference", "scheduler.build_schedule", "mesh.refine",
    "mesh.classify_sp", "mesh.build_partition", "runtime.partition_mesh",
)
CALLED = ("transfer.update_tfe", "elasticity.assemble_element_block", "sparsela.factorize",
          "sparsela.solve", "ddsolver.dd_solve", "runtime.split_by_color")
COUNTED = {"sparsela.factor_flops": "flop", "sparsela.solve_flops": "flop",
           "sparsela.pcg.bodies": "count", "sparsela.pcg.unconverged": "count",
           "runtime.messages": "count", "runtime.bytes": "B"}
PER_LAYER = {
    **{f"{n}.s": "s" for n in SELF_TIMED},
    **{f"{n}.calls": "count" for n in CALLED},
    **COUNTED,
    "twoscale.coarse_solve.s": "s",
    "twoscale.iter_ms.p50": "ms",
    "twoscale.iter_ms.p90": "ms",
    "twoscale.iterations": "count",
    "runtime.recv_wait_s": "s",
    "runtime.rank0.busy_s": "s",
    "runtime.rank1.busy_s": "s",
    "runtime.busy_remainder_s": "s",
    "scheduler.n_sequences": "count",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    levels: tuple          # (coarse level, fine target)
    solver: str            # ts | tsdd
    ranks: int
    seed_drives: str       # jitter (region moduli) | schedule (rank shuffle) | nothing

    def spec(self, seed) -> bench.CaseSpec:
        jitter = self.seed_drives == "jitter"
        return bench.CaseSpec(
            kind=self.kind, coarse_level=self.levels[0], sp_depth=self.levels[1], eps=EPS,
            solver=self.solver, ranks=self.ranks, perturb_percent=1.0 if jitter else 0.0,
            seed=seed if jitter else 0)

    def history_key(self, seed) -> str:
        """Runs sharing this key must produce the same residual history.

        The key starts with the digest of the solver sources, so only runs of
        the same code are compared: a change that legitimately alters the
        history (reordered sums, fewer iterations) starts a fresh entry.
        """
        case = f"{self.name}/seed={seed}" if self.seed_drives == "jitter" else self.name
        return f"{source_digest()}/{case}"


def source_digest() -> str:
    """Hash of every .py file of the imported solver package, path and content."""
    root = Path(twoscalefem.__file__).parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


WORKLOADS = {w.name: w for w in (
    Workload("micro-ts-r1", "micro-structure", (0, 2), "ts", 1, "jitter"),
    Workload("cone-tsdd-r2", "cone-damage-box", (0, 2), "tsdd", 2, "schedule"),
    Workload("cubic3-ts-r1", "cubic-plate", (0, 3), "ts", 1, "nothing"),
)}


# ---------------------------------------------------------------------------
# the three timed steps


def set_up(workload, seed):
    spec = workload.spec(seed)
    problem, _exact = bench.build_problem(spec)
    plan = runtime.partition_mesh(problem.nested, problem.sp_info, spec.ranks)
    return problem, plan


def solve(workload, seed, problem, plan):
    config = TsConfig(eps=EPS, coarse_strategy=STRATEGY[workload.solver], max_iterations=400)
    shuffle = seed if workload.seed_drives == "schedule" else None
    return twoscale.solve_case(problem, plan, config, n_ranks=workload.ranks, seed=shuffle)


# ---------------------------------------------------------------------------
# correctness gate


def history_hash(resi_history) -> str:
    return hashlib.sha256(np.asarray(resi_history, dtype=np.float64).tobytes()).hexdigest()[:16]


class HistoryBook:
    """(iterations, history hash) per history key, kept across runs in out_dir."""

    def __init__(self, out_dir):
        self.path = Path(out_dir) / "histories.json"
        self.book = json.loads(self.path.read_text()) if self.path.is_file() else {}

    def get(self, key):
        value = self.book.get(key)
        return tuple(value) if value is not None else None

    def record(self, key, value):
        self.book[key] = list(value)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.book, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def check(res, system, expect) -> list[str]:
    """Failed conditions of one solve (empty when it passes the gate).

    expect is the (iterations, history hash) every solve under the same
    history key must reproduce, or None while no solve has set it.
    """
    errors = []
    final = res.resi_history[-1] if res.resi_history else float("inf")
    if not (res.converged and final < EPS):
        errors.append(f"not converged: resi {final:.3e} after {res.iterations} iterations")
    mono = system.residual(res.u_r)
    if not abs(mono - final) <= RESI_RTOL * final:
        errors.append(f"monolithic residual {mono:.9e} differs from reported {final:.9e}")
    got = (res.iterations, history_hash(res.resi_history))
    if expect is not None and got != expect:
        errors.append(f"history {got} differs from {expect}")
    return errors


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Gate:
    """Runs the check on every solve and keeps the run's tally.

    ``failed`` counts solves that raised or failed the check; ``problems``
    also holds failures of the run as a whole, which only make it incorrect.
    """

    def __init__(self, workload, seed, out_dir):
        self.book = HistoryBook(out_dir)
        self.key = workload.history_key(seed)
        self.expect = self.book.get(self.key)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def admit(self, res, system) -> bool:
        self.attempted += 1
        errors = check(res, system, self.expect)
        if not errors and self.expect is None:
            self.expect = (res.iterations, history_hash(res.resi_history))
            self.book.record(self.key, self.expect)
        self.failed += bool(errors)
        self.problems.extend(errors)
        return not errors

    def check_oracle(self, system, u_R):
        resi = system.residual(u_R)
        if not resi <= ORACLE_RESI:
            self.problems.append(f"oracle residual {resi:.3e} above {ORACLE_RESI}")

    def timed_solve(self, workload, seed, problem, plan, system_of):
        """One gated solve; returns (seconds, passed)."""
        t0 = perf_counter()
        try:
            res = solve(workload, seed, problem, plan)
        except Exception as exc:  # a solve that raises is a failed attempt, not a crash
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"solve raised {exc!r}")
            return perf_counter() - t0, False
        dt = perf_counter() - t0
        return dt, self.admit(res, system_of())


# ---------------------------------------------------------------------------
# runs


def measure(workload, seed, seconds, out_dir):
    """Untraced run: the end-to-end metrics.

    The run is a series of rounds while less than ``seconds`` have passed:
    one solve, then SIDE_REPEATS timed set-ups (thrown away) and oracle
    solves.  Spreading the short set-up and oracle samples over the whole
    run, instead of taking them back to back, keeps one burst of load from
    another tenant of the machine from deciding their values.  Peak RSS is
    read after the first solve and its check, before the oracle factorizes
    anything, so it is the high-water mark of build, solve and check.

    ``solve_s`` and ``oracle_s`` are means over the run's rounds, not
    medians: on a host whose speed switches between two levels every few
    seconds, the samples of one round share a level, and the median of a
    few rounds jumps to whichever level most rounds hit, while the mean
    blends them.  ``setup_s`` is the median of all set-ups.
    """
    t0 = perf_counter()
    problem, plan = set_up(workload, seed)
    setup = [perf_counter() - t0]

    gate = Gate(workload, seed, out_dir)
    system = None

    def system_of():
        nonlocal system
        if system is None:
            system = reference.assemble_reference(problem.nested, problem.partition,
                                                  problem.material, problem.loads)
        return system

    durations, passed, oracle, peak = [], [], [], None
    started = perf_counter()
    while not durations or perf_counter() - started < seconds:
        dt, ok = gate.timed_solve(workload, seed, problem, plan, system_of)
        durations.append(dt)
        if ok:
            passed.append(dt)
        if peak is None:
            peak = peak_rss_mb()
        for _ in range(SIDE_REPEATS):
            t0 = perf_counter()
            set_up(workload, seed)
            setup.append(perf_counter() - t0)
            t0 = perf_counter()
            u_R, system_R, _factor = bench.reference_oracle(problem)
            oracle.append(perf_counter() - t0)
    gate.check_oracle(system_R, u_R)

    values = {
        "solve_s": statistics.fmean(passed) if passed else None,
        "setup_s": statistics.median(setup),
        "oracle_s": statistics.fmean(oracle),
        "peak_rss_mb": peak,
    }
    return report(gate, values, END_TO_END,
                  {"setup_s": setup, "solve_s": durations, "oracle_s": oracle})


def trace(workload, seed, out_dir, spans_path=None):
    """Traced run: the per-layer metrics.

    Set-up is traced once; then an untraced warm-up solve pays the
    process's one-off costs, a second untraced solve gives the baseline for
    ``trace.overhead`` and the history the traced solve must reproduce
    bitwise, and then the solve and the oracle run under the tracer.
    """
    tracer = Tracer()
    leaked: list[str] = []

    def traced(fn, *args):
        tracer.install()
        try:
            return fn(*args)
        finally:
            leaked.extend(tracer.remove())

    def solve_then_oracle():
        t0 = perf_counter()
        res = solve(workload, seed, problem, plan)
        return res, perf_counter() - t0, bench.reference_oracle(problem)

    problem, plan = traced(set_up, workload, seed)
    warm = solve(workload, seed, problem, plan)
    t0 = perf_counter()
    base = solve(workload, seed, problem, plan)
    base_s = perf_counter() - t0
    res, traced_s, (u_R, system, _factor) = traced(solve_then_oracle)

    gate = Gate(workload, seed, out_dir)
    gate.admit(warm, system)
    gate.admit(base, system)
    gate.admit(res, system)
    gate.check_oracle(system, u_R)
    if leaked:
        gate.problems.append(f"names not restored after tracing: {leaked}")
    if np.asarray(res.resi_history).tobytes() != np.asarray(base.resi_history).tobytes():
        gate.problems.append("traced resi_history differs from the untraced one")

    times = fold(tracer.spans)
    values = {f"{n}.s": times.self_s.get(n, 0.0) for n in SELF_TIMED}
    values.update({f"{n}.calls": times.calls.get(n, 0) for n in CALLED})
    values.update({n: tracer.counts.get(n, 0) for n in COUNTED})
    busy = defaultdict(float)
    coarse = covered = 0.0
    for span, b in zip(tracer.spans, times.busy):
        name, parent = span[0], span[3]
        if name == PROGRAM:
            busy[span[4]] += b
        elif name in PHASES:
            covered += b
        elif name in COARSE_CALLS and parent is not None and parent[0] == PROGRAM:
            coarse += b
    remainder = traced_s - sum(busy.values())
    if not 0.0 <= remainder <= BUSY_REMAINDER * traced_s:
        gate.problems.append(
            f"per-rank busy times leave {remainder:.4f} s of {traced_s:.4f} s unaccounted")
    iter_ms = [1e3 * r.wall_time for r in base.records]
    values.update({
        "twoscale.coarse_solve.s": coarse,
        "twoscale.iter_ms.p50": float(np.percentile(iter_ms, 50)),
        "twoscale.iter_ms.p90": float(np.percentile(iter_ms, 90)),
        "twoscale.iterations": base.iterations,
        "runtime.recv_wait_s": times.self_s.get(RECV, 0.0),
        "runtime.rank0.busy_s": busy[0],
        "runtime.rank1.busy_s": busy[1],
        "runtime.busy_remainder_s": remainder,
        "scheduler.n_sequences": base.schedule.n_sequences,
        "trace.overhead": traced_s / base_s,
        "trace.coverage": (covered + coarse) / traced_s,
    })
    if spans_path is not None:
        tracer.dump(spans_path)
    return report(gate, values, PER_LAYER, {"solve_s": [base_s], "traced_solve_s": [traced_s]})


def report(gate, values, units, samples):
    """The result line plus what the run record keeps beside it."""
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
    correct = not gate.problems and all(m["value"] is not None for m in metrics.values())
    return {
        "result": {"correct": correct, "attempted": gate.attempted,
                   "failed": gate.failed, "metrics": metrics},
        "fail_ratio": gate.failed / gate.attempted,
        "problems": gate.problems,
        "samples": samples,
    }


# ---------------------------------------------------------------------------
# run environment


def git_commit(root: Path):
    """HEAD of the checkout's own repository, or None outside one."""
    try:
        out = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path, blas_thread_vars) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "src_digest": source_digest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py")),
        "blas_threads": {v: os.environ.get(v) for v in blas_thread_vars},
    }
