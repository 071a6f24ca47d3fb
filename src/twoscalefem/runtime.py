"""Cooperative in-process rank simulation and the weighted coordinate-bisection partitioner.

Ranks run as threads but exactly one is active at a time; control is handed
over only at blocking receives, so every communication pattern expressible
with blocking point-to-point messages runs deterministically.  Collectives
are built on gather/broadcast (two ranks swap their items instead), with
rank-ascending, key-sorted accumulation so reductions are bitwise
reproducible across rank counts.  Macro elements go to ranks by weighted
recursive coordinate bisection of their centroids, which keeps most patches
on one rank.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from dataclasses import dataclass
from random import Random

import numpy as np

__all__ = [
    "RankContext",
    "PartitionPlan",
    "DeadlockError",
    "run_ranks",
    "partition_elements",
    "partition_mesh",
]


class DeadlockError(RuntimeError):
    pass


class _Abort(BaseException):
    pass


class _Simulator:
    def __init__(self, n, seed=None):
        self.n = n
        self.rng = Random(seed) if seed is not None else None
        self.channels: dict[tuple, deque] = {}
        self.sent = Counter()
        self.received = Counter()
        # held locks as one-shot signals (each release meets one acquire):
        # they hand the turn over faster than a Python-level Semaphore
        self.rank_sem = [threading.Lock() for _ in range(n)]
        self.control = threading.Lock()
        for lock in (*self.rank_sem, self.control):
            lock.acquire()
        self.state = ["ready"] * n        # ready | waiting | done
        self.wait_key = [None] * n
        self.errors: list = []
        self.abort = False

    def channel(self, key):
        ch = self.channels.get(key)
        if ch is None:
            ch = self.channels[key] = deque()
        return ch

    def runnable(self):
        out = []
        for r in range(self.n):
            if self.state[r] == "ready":
                out.append(r)
            elif self.state[r] == "waiting" and self.channels.get(self.wait_key[r]):
                out.append(r)
        return out

    def hand_off(self):
        """Wake the next runnable rank; wake the run loop when none is (or on abort).

        Called by the rank giving up the turn, so a handover costs one thread
        switch; the pick is the one the run loop would make.
        """
        cand = self.runnable()
        if not cand or self.abort:
            self.control.release()
            return
        pick = self.rng.choice(cand) if self.rng is not None else cand[0]
        self.state[pick] = "ready"
        self.wait_key[pick] = None
        self.rank_sem[pick].release()

    def run(self, program, args_list):
        results = [None] * self.n

        def entry(rank, args):
            self.rank_sem[rank].acquire()
            try:
                if not self.abort:
                    results[rank] = program(RankContext(self, rank), *args)
            except _Abort:
                pass
            except BaseException as exc:  # propagate the first failure
                self.errors.append((rank, exc))
                self.abort = True
            finally:
                self.state[rank] = "done"
                self.hand_off()

        threads = [
            threading.Thread(target=entry, args=(r, args_list[r]), daemon=True)
            for r in range(self.n)
        ]
        for t in threads:
            t.start()
        while True:
            if all(s == "done" for s in self.state):
                break
            cand = self.runnable()
            if not cand or self.abort:
                pending = [r for r in range(self.n) if self.state[r] != "done"]
                if not pending:
                    break
                detail = ", ".join(
                    f"rank {r} blocked on recv{self.wait_key[r]}" for r in pending
                )
                self.abort = True
                for r in pending:  # wake them into the abort path
                    self.state[r] = "ready"
                    self.rank_sem[r].release()
                    self.control.acquire()
                if self.errors:
                    break  # a rank failure caused the stall; re-raised below
                raise DeadlockError(f"all ranks blocked: {detail}")
            self.hand_off()
            self.control.acquire()
        for t in threads:
            t.join()
        if self.errors:
            rank, exc = self.errors[0]
            raise exc
        leftover = {k: len(v) for k, v in self.channels.items() if v}
        if leftover:
            raise RuntimeError(f"undelivered messages at teardown: {leftover}")
        if self.sent != self.received:
            raise RuntimeError("message conservation violated")
        return results


class RankContext:
    """Per-rank handle: point-to-point messages, collectives, subgroup split."""

    def __init__(self, sim: _Simulator, rank: int, members=None, namespace=()):
        self._sim = sim
        self.rank = rank if members is None else members.index(rank)
        self._world_rank = rank
        self._members = members if members is not None else list(range(sim.n))
        self._namespace = namespace
        self._split_count = 0

    @property
    def size(self):
        return len(self._members)

    def _world(self, rank):
        return self._members[rank]

    def send(self, dst, obj, tag=0):
        key = (self._world_rank, self._world(dst), (self._namespace, tag))
        self._sim.channel(key).append(obj)
        self._sim.sent[key] += 1

    def recv(self, src, tag=0):
        sim = self._sim
        key = (self._world(src), self._world_rank, (self._namespace, tag))
        ch = sim.channel(key)
        while not ch:
            if sim.abort:
                raise _Abort()
            sim.state[self._world_rank] = "waiting"
            sim.wait_key[self._world_rank] = key
            sim.hand_off()
            sim.rank_sem[self._world_rank].acquire()
            if sim.abort:
                raise _Abort()
        sim.received[key] += 1
        return ch.popleft()

    # collectives (all built on ordered point-to-point)
    def gather(self, obj, root=0):
        if self.rank == root:
            out = []
            for r in range(self.size):
                out.append(obj if r == root else self.recv(r, tag=-1))
            return out
        self.send(root, obj, tag=-1)
        return None

    def bcast(self, obj, root=0):
        if self.rank == root:
            for r in range(self.size):
                if r != root:
                    self.send(r, obj, tag=-2)
            return obj
        return self.recv(root, tag=-2)

    def scatter(self, objs, root=0):
        if self.rank == root:
            for r in range(self.size):
                if r != root:
                    self.send(r, objs[r], tag=-3)
            return objs[root]
        return self.recv(root, tag=-3)

    def _all_reduce(self, item, op):
        """op of every rank's item in rank order, on every rank.

        Two ranks swap their items and both apply op: the 2 messages of a
        gather and a bcast, but each rank waits at most once where those hand
        the turn over twice.  Larger groups gather to rank 0, which applies op
        and broadcasts the result: 2(n-1) messages where a full exchange would
        send n(n-1).
        """
        if self.size > 2:
            items = self.gather(item, 0)
            return self.bcast(None if items is None else op(items), 0)
        for r in range(self.size):
            if r != self.rank:
                self.send(r, item, tag=-4)
        return op([item if r == self.rank else self.recv(r, tag=-4) for r in range(self.size)])

    def allgather(self, obj):
        return self._all_reduce(obj, list)

    def all_reduce_sum(self, value):
        return self._all_reduce(value, _sum_in_order)

    def all_reduce_max(self, value):
        return self._all_reduce(value, max)

    def all_reduce_ordered_sum(self, items):
        """Sum of (keys, values) array contributions in globally sorted key order.

        The values are added one by one from 0.0 in stable key order (equal
        keys in rank order), so when the keys are distinct the result is
        bitwise identical for any rank count.
        """
        return self._all_reduce(items, _ordered_sum)

    def all_reduce_permuted_sum(self, values, order):
        """all_reduce_ordered_sum given the stable key order (the same on every
        rank) of the values concatenated in rank order: the keys are not sent."""
        return self._all_reduce(values, lambda parts: _sum_from_zero(np.concatenate(parts)[order]))

    def split_by_color(self, colors):
        """Subgroup communicator of the ranks whose color equals this rank's.

        colors holds every rank's color, the same list on every rank, so the
        split sends no message.  Collective over the current group; a rank
        whose color is None gets None back.  Subgroup rank order follows the
        parent order.
        """
        self._split_count += 1
        color = colors[self.rank]
        if color is None:
            return None
        members = [self._world(r) for r, c in enumerate(colors) if c == color]
        ns = self._namespace + (self._split_count, _color_key(color))
        return RankContext(self._sim, self._world_rank, members, ns)


def _sum_in_order(vals):
    acc = vals[0]
    for v in vals[1:]:
        acc = acc + v
    return acc


def _ordered_sum(pieces):
    keys = np.concatenate([p[0] for p in pieces])
    return _sum_from_zero(np.concatenate([p[1] for p in pieces])[np.argsort(keys, kind="stable")])


def _sum_from_zero(vals):
    return float(np.cumsum(np.concatenate([[0.0], vals]))[-1])


def _color_key(color):
    return color if isinstance(color, (int, str, tuple)) else repr(color)


def run_ranks(n, program, args=(), seed=None):
    """Run an SPMD program on n simulated ranks; returns per-rank results.

    ``seed`` shuffles the cooperative scheduling order; outcomes must not
    depend on it (validated in the test suite).
    """
    return _Simulator(n, seed).run(program, [tuple(args)] * n)


@dataclass
class PartitionPlan:
    """Macro element -> rank assignment with per-rank weight totals."""

    element_rank: np.ndarray
    rank_weights: np.ndarray

    @property
    def n_ranks(self):
        return len(self.rank_weights)

    def elements_of(self, rank):
        return np.nonzero(self.element_rank == rank)[0]


def partition_elements(weights, centroids, n_ranks) -> PartitionPlan:
    """Weighted recursive coordinate bisection of elements given their centroids.

    A group of elements bound for k ranks is ordered along its widest
    centroid extent (ties to the lower element id) and cut where its running
    weight comes closest to the share of the first k // 2 ranks, leaving at
    least one element per rank on each side (Berger & Bokhari, IEEE Trans.
    Comput. C-36 (1987) 570-580).
    """
    weights, centroids = np.asarray(weights, dtype=np.float64), np.asarray(centroids)
    ne = len(weights)
    if n_ranks > ne:
        raise ValueError(f"rank count {n_ranks} exceeds element count {ne}")
    rank_of = np.zeros(ne, dtype=np.int64)
    groups = [(np.arange(ne), 0, n_ranks)]  # (elements, first rank, rank count)
    while groups:
        els, first, k = groups.pop()
        if k == 1:
            rank_of[els] = first
            continue
        pts = centroids[els]
        els = els[np.lexsort((els, pts[:, np.argmax(np.ptp(pts, axis=0))]))]
        cum, half = np.cumsum(weights[els]), k // 2
        cut = np.clip(np.argmin(np.abs(cum - cum[-1] * half / k)) + 1, half, len(els) - k + half)
        groups += [(els[:cut], first, half), (els[cut:], first + half, k - half)]
    return PartitionPlan(rank_of, np.bincount(rank_of, weights, minlength=n_ranks))


def partition_mesh(nested, sp_info, n_ranks) -> PartitionPlan:
    """Partition macro elements weighted by micro count plus enriched nodes."""
    mesh = nested.coarse
    weights = (np.array([len(m) for m in nested.micro])
               + np.isin(mesh.tets, sp_info.enriched_nodes).sum(axis=1)).astype(np.float64)
    return partition_elements(weights, mesh.vertices[mesh.tets].mean(axis=1), n_ranks)
