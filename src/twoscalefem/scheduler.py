"""Static sequencing of distributed patches over ranks.

Distributed patches sharing a rank cannot be solved concurrently, so a
rank pipeline colors one independent set of the conflict graph per
sequence.  Rank 0 initiates picks; its column of choices travels up the
rank order, freezing participants, while two steering weights flow along
the pipeline so that local fill-in picks stay comparable to the
distributed work of the same sequence.  Variants: V2 is the full
algorithm, V1 keeps the weight-sorted groups but drops the steering
weights, V0 drops the sorting too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .runtime import RankContext

__all__ = ["PatchGraph", "Schedule", "ScheduleError", "build_schedule", "validate", "schedule_stats", "dump_json", "schedule_on_ranks"]


class ScheduleError(ValueError):
    pass


@dataclass
class PatchGraph:
    """Global patch -> (weight, participant ranks) view of the conflict graph."""

    n_ranks: int
    weights: dict[int, int]
    participants: dict[int, tuple[int, ...]]

    @classmethod
    def of(cls, sp_info, plan):
        """The patches of sp_info, each with the ranks owning its elements under plan."""
        participants = {pi: tuple(np.unique(plan.element_rank[list(patch.elements)]).tolist())
                        for pi, patch in enumerate(sp_info.patches)}
        return cls(plan.n_ranks, {pi: patch.weight for pi, patch in enumerate(sp_info.patches)},
                   participants)

    def rank_view(self, rank):
        """(D, L) lists for one rank, in construction (dict) order."""
        D = [(p, self.weights[p], self.participants[p])
             for p in self.weights if rank in self.participants[p] and len(self.participants[p]) >= 2]
        L = [(p, self.weights[p]) for p in self.weights
             if self.participants[p] == (rank,)]
        return D, L

    def check(self):
        for p, parts in self.participants.items():
            if len(parts) != len(set(parts)):
                raise ScheduleError(f"patch {p} lists duplicate ranks")
            if not parts:
                raise ScheduleError(f"patch {p} has no participants")
            if any(r < 0 or r >= self.n_ranks for r in parts):
                raise ScheduleError(f"patch {p} references an unknown rank")
            if self.weights[p] <= 0:
                raise ScheduleError(f"patch {p} has non-positive weight")


@dataclass
class Schedule:
    """Sequencing output: the color matrix M plus ordered per-rank lists."""

    M: np.ndarray                  # (n_ranks, n_seq); patch id or -1
    D_o: list[list[int]]           # distributed patches in execution order
    L_o: list[list[int]]           # local patches in execution order

    @property
    def n_sequences(self):
        return self.M.shape[1]

    @property
    def n_ranks(self):
        return self.M.shape[0]


def _sorted_group(items, variant):
    if variant == "V0":
        return list(items)
    return sorted(items, key=lambda t: (-t[1], t[0]))


def build_schedule(ctx: RankContext, D, L, variant="V2") -> Schedule:
    """Run the sequencing pipeline on the calling rank; returns the gathered schedule.

    D: [(patch id, weight, participant ranks)] of this rank's distributed
    patches; L: [(patch id, weight)] of its local patches.  Collective over
    ctx; every rank receives the same Schedule.
    """
    if variant not in ("V0", "V1", "V2"):
        raise ScheduleError(f"unknown variant {variant}")
    pid, npid = ctx.rank, ctx.size
    use_weights = variant == "V2"

    D = [(int(p), int(w), tuple(sorted(parts))) for p, w, parts in _sorted_group(D, variant)]
    L = [(int(p), int(w)) for p, w in _sorted_group(L, variant)]
    for p, w, parts in D:
        if pid not in parts:
            raise ScheduleError(f"rank {pid} holds patch {p} but is not a participant")

    D_o: list[int] = []
    L_o: list[int] = []
    my_cols: list[int] = []

    def compute_wg():
        if not use_weights:
            return 0
        mxwg = 0
        if pid < npid - 1:
            mxwg = ctx.recv(pid + 1, tag=11)
        if D:
            mxwg = max(mxwg, max(w for _, w, _ in D))
        if pid > 0:
            ctx.send(pid - 1, mxwg, tag=11)
        return mxwg

    def pick_local(crit):
        if not L:
            return None
        if use_weights:
            for i, (p, w) in enumerate(L):
                if w < crit:
                    return L.pop(i)
            return L.pop(-1)  # none light enough: take the lightest
        return L.pop(0)

    def pick_first(col, mxwg):
        mxwl = 0
        if D:
            p, w, parts = D.pop(0)
            for l in parts:
                if l >= pid:
                    col[l - pid] = p
            D_o.append(p)
            mxwl = w
        else:
            got = pick_local(mxwg)
            if got is not None:
                col[0] = got[0]
                L_o.append(got[0])
                mxwl = got[1]
        return mxwl

    def pick(col, mxwg, mxwl):
        chosen = None
        for i, (p, w, parts) in enumerate(D):
            if parts[0] != pid:
                continue  # initiated by a lower rank when it becomes free
            if any(col[l - pid] != -1 for l in parts):
                continue  # a participant is already busy in this sequence
            chosen = D.pop(i)
            break
        if chosen is not None:
            p, w, parts = chosen
            for l in parts:
                col[l - pid] = p
            D_o.append(p)
            return max(mxwl, w)
        got = pick_local(max(mxwg, mxwl))
        if got is not None:
            col[0] = got[0]
            L_o.append(got[0])
            return max(mxwl, got[1])
        return mxwl

    nbs = ctx.all_reduce_max(len(D))
    sid = 1
    nbe = nbs
    prev_left = ctx.all_reduce_sum(len(D))
    while True:
        nbs = nbe
        while sid <= nbs:
            mxwg = compute_wg()
            if pid == 0:
                col = [-1] * npid
                mxwl = pick_first(col, mxwg)
            else:
                col, mxwl = ctx.recv(pid - 1, tag=12)
                if col[0] >= 0:
                    match = [i for i, (p, _, _) in enumerate(D) if p == col[0]]
                    if not match:
                        raise ScheduleError(
                            f"rank {pid} frozen on patch {col[0]} it does not hold")
                    p, w, parts = D.pop(match[0])
                    D_o.append(p)
                else:
                    mxwl = pick(col, mxwg, mxwl)
            if pid < npid - 1:
                ctx.send(pid + 1, (col[1:], mxwl), tag=12)
            my_cols.append(col[0])
            sid += 1
        left = ctx.all_reduce_sum(len(D))
        nbe = ctx.all_reduce_max(nbe + len(D))
        if not (nbs < nbe):
            break
        if left == prev_left and left > 0:
            raise ScheduleError("sequencing makes no progress")
        prev_left = left
    L_o.extend(p for p, _ in L)
    L.clear()

    all_cols = ctx.allgather(my_cols)
    all_do = ctx.allgather(D_o)
    all_lo = ctx.allgather(L_o)
    n_seq = max((len(c) for c in all_cols), default=0)
    M = np.full((npid, n_seq), -1, dtype=np.int64)
    for r, colr in enumerate(all_cols):
        M[r, : len(colr)] = colr
    return Schedule(M, all_do, all_lo)


def schedule_on_ranks(graph: PatchGraph, variant="V2", n_ranks=None):
    """Convenience driver: run the pipeline on simulated ranks for a global graph."""
    from .runtime import run_ranks

    graph.check()
    n = n_ranks or graph.n_ranks

    def prog(ctx):
        D, L = graph.rank_view(ctx.rank)
        return build_schedule(ctx, D, L, variant)

    return run_ranks(n, prog)[0]


def validate(schedule: Schedule, graph: PatchGraph):
    """Invariant report: violations list plus Table-1 style statistics."""
    graph.check()
    violations = []
    M = schedule.M
    dist = {p for p, parts in graph.participants.items() if len(parts) >= 2}
    seen: dict[int, int] = {}
    for s in range(schedule.n_sequences):
        col = M[:, s]
        by_patch: dict[int, list[int]] = {}
        for r, p in enumerate(col):
            if p >= 0:
                by_patch.setdefault(int(p), []).append(r)
        for p, rows in by_patch.items():
            if p in dist:
                expect = sorted(graph.participants[p])
                if rows != expect:
                    violations.append(
                        f"sequence {s}: patch {p} on ranks {rows}, participants {expect}")
                if p in seen:
                    violations.append(f"patch {p} selected in sequences {seen[p]} and {s}")
                seen[p] = s
            else:
                if len(rows) != 1:
                    violations.append(f"sequence {s}: local patch {p} on several ranks")
                if p in seen:
                    violations.append(f"local patch {p} repeated (sequences {seen[p]}, {s})")
                seen[p] = s
    missing = dist - set(seen)
    if missing:
        violations.append(f"distributed patches never scheduled: {sorted(missing)}")
    return violations


def schedule_stats(schedule: Schedule, graph: PatchGraph):
    """Per-sequence activity fractions (active ranks / distributed patches)."""
    dist = {p for p, parts in graph.participants.items() if len(parts) >= 2}
    rows = []
    M = schedule.M
    for s in range(schedule.n_sequences):
        col = M[:, s]
        patches = {int(p) for p in col if p >= 0}
        act_dist = {p for p in patches if p in dist}
        active_ranks = int((col >= 0).sum())
        weights = [graph.weights[p] for p in patches]
        rows.append({
            "sequence": s + 1,
            "active_patches": len(patches),
            "active_distributed": len(act_dist),
            "pct_active_distributed": 100.0 * len(act_dist) / max(len(patches), 1),
            "active_ranks": active_ranks,
            "pct_active_ranks": 100.0 * active_ranks / schedule.n_ranks,
            "weight_spread": (max(weights) - min(weights)) if len(weights) > 1 else 0,
        })
    return rows


def dump_json(schedule: Schedule, graph: PatchGraph) -> str:
    payload = {
        "n_ranks": schedule.n_ranks,
        "n_sequences": schedule.n_sequences,
        "columns": schedule.M.tolist(),
        "distributed_order": schedule.D_o,
        "local_order": schedule.L_o,
        "stats": schedule_stats(schedule, graph),
    }
    return json.dumps(payload, indent=2)
