"""Span tracer that wraps the solver's public functions from outside.

Installing the tracer rebinds each target name (a module global or a class
attribute) to a wrapper that records a span around the original call;
removing it puts the original objects back.  The solver's own code is not
touched, so a call is traced only when it goes through the rebound name:
each target is the name the *calling* module looks up at call time (for
example ``twoscale.update_tfe``, which ``update_macro_prb`` calls, and not
``transfer.update_tfe``).

A span is ``[name, start, end, parent, rank]``.  Parents follow the call
nesting of the thread that opened the span; the rank is the simulated rank
running that thread, taken from the ``ctx`` argument of ``ts_program``
(``None`` on the driving thread).  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import threading
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np
import scipy.sparse as sp

from twoscalefem import (bench, ddsolver, elasticity, reference, runtime, sparsela, transfer,
                         twoscale)

RECV = "runtime.recv"
PROGRAM = "twoscale.ts_program"
# sparsela/ddsolver calls made directly by the scale loop are its coarse solve
COARSE_CALLS = ("sparsela.factorize", "sparsela.solve", "sparsela.pcg", "ddsolver.dd_solve")
# spans that partition the scale loop; their busy time over solve_s is the coverage
PHASES = (
    "twoscale.ts_init",
    "twoscale.micro_scale_resolution",
    "twoscale.update_macro_prb",
    "twoscale.build_coarse_on_root",
    "twoscale.update_micro_dofs",
    "twoscale.compute_residual",
)


_SCALARS = (int, float, np.number)


def payload_bytes(obj) -> int:
    """Computed size of a message payload: array bytes plus 8 per scalar.

    Payloads are often dicts of many dof -> value pairs, so scalars inside a
    container are counted inline rather than by a call each.
    """
    if isinstance(obj, _SCALARS):
        return 8
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return _items_bytes(obj.keys()) + _items_bytes(obj.values())
    if isinstance(obj, (list, tuple)):
        return _items_bytes(obj)
    if sp.issparse(obj):
        return sum(getattr(obj, a).nbytes for a in ("data", "indices", "indptr", "row", "col")
                   if hasattr(obj, a))
    return 0


def _items_bytes(items) -> int:
    n = 0
    for v in items:
        n += 8 if isinstance(v, _SCALARS) else payload_bytes(v)
    return n


def _factor_flops(counts, args, kwargs, out, pre):
    counts["sparsela.factor_flops"] += out.factor_flops


def _solve_pre(args):
    return args[0].solve_flops


def _solve_flops(counts, args, kwargs, out, pre):
    counts["sparsela.solve_flops"] += args[0].solve_flops - pre


def _pcg_report(counts, args, kwargs, out, pre):
    report = out[1]
    counts["sparsela.pcg.bodies"] += report.loop_bodies
    counts["sparsela.pcg.unconverged"] += not report.converged


def _message(counts, args, kwargs, out, pre):
    counts["runtime.messages"] += 1
    counts["runtime.bytes"] += payload_bytes(args[2] if len(args) > 2 else kwargs["obj"])


@dataclass(frozen=True)
class Target:
    owner: object                 # module or class holding the name
    attr: str
    span: str
    pre: Callable | None = None   # args -> value handed to post
    post: Callable | None = None  # (counts, args, kwargs, result, pre) -> None
    binds_rank: bool = False      # first argument is the rank's ctx


TARGETS = (
    # set-up: the case builders call these through bench's namespace
    Target(bench, "refine", "mesh.refine"),
    Target(bench, "classify_sp", "mesh.classify_sp"),
    Target(bench, "build_partition", "mesh.build_partition"),
    Target(runtime, "partition_mesh", "runtime.partition_mesh"),
    # scale loop
    Target(twoscale, "ts_program", PROGRAM, binds_rank=True),
    Target(twoscale, "ts_init", "twoscale.ts_init"),
    Target(twoscale, "micro_scale_resolution", "twoscale.micro_scale_resolution"),
    Target(twoscale, "update_macro_prb", "twoscale.update_macro_prb"),
    Target(twoscale, "build_coarse_on_root", "twoscale.build_coarse_on_root"),
    Target(twoscale, "update_micro_dofs", "twoscale.update_micro_dofs"),
    Target(twoscale, "compute_residual", "twoscale.compute_residual"),
    Target(twoscale, "build_schedule", "scheduler.build_schedule"),
    # transfer and element assembly
    Target(twoscale, "update_tfe", "transfer.update_tfe"),
    Target(twoscale, "coarse_triplets_enrichment", "transfer.coarse_triplets_enrichment"),
    Target(twoscale, "build_tfk", "transfer.build_tfk"),
    Target(transfer.CoarseSystem, "build", "transfer.coarse_system_build"),
    Target(twoscale, "assemble_element_block", "elasticity.assemble_element_block"),
    Target(twoscale, "assemble_nsp", "elasticity.assemble_nsp"),
    Target(elasticity, "batch_leaf_stiffness", "elasticity.batch_leaf_stiffness"),
    Target(reference, "batch_leaf_stiffness", "elasticity.batch_leaf_stiffness"),
    # linear algebra, under every module that calls it
    Target(twoscale, "factorize", "sparsela.factorize", post=_factor_flops),
    Target(ddsolver, "factorize", "sparsela.factorize", post=_factor_flops),
    Target(reference, "factorize", "sparsela.factorize", post=_factor_flops),
    Target(twoscale, "solve", "sparsela.solve", pre=_solve_pre, post=_solve_flops),
    Target(ddsolver, "solve", "sparsela.solve", pre=_solve_pre, post=_solve_flops),
    # Factor.solve (the oracle's solve) calls sparsela's own global
    Target(sparsela, "solve", "sparsela.solve", pre=_solve_pre, post=_solve_flops),
    Target(twoscale, "pcg", "sparsela.pcg", post=_pcg_report),
    Target(ddsolver, "pcg", "sparsela.pcg", post=_pcg_report),
    Target(ddsolver, "dd_solve_from_triplets", "ddsolver.dd_solve"),
    # monolithic oracle
    Target(bench, "assemble_reference", "reference.assemble_reference"),
    Target(bench, "solve_reference", "reference.solve_reference"),
    # simulated message passing; send is a span so that sizing its payload
    # is not charged to the caller's self time
    Target(runtime.RankContext, "send", "runtime.send", post=_message),
    Target(runtime.RankContext, "recv", RECV),
    Target(runtime.RankContext, "split_by_color", "runtime.split_by_color"),
)


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.origin = perf_counter()
        self._local = threading.local()
        self._saved: list[tuple] = []

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for t in TARGETS:
            orig = getattr(t.owner, t.attr)
            self._saved.append((t, orig))
            setattr(t.owner, t.attr, self._wrapper(t, orig))

    def remove(self) -> list[str]:
        """Restore every rebound name; returns the names left not restored."""
        for t, orig in reversed(self._saved):
            setattr(t.owner, t.attr, orig)
        leaked = [f"{getattr(t.owner, '__name__', t.owner)}.{t.attr}"
                  for t, orig in self._saved if getattr(t.owner, t.attr) is not orig]
        self._saved = []
        return leaked

    def _wrapper(self, target, orig):
        spans, counts, local = self.spans, self.counts, self._local

        def traced(*args, **kwargs):
            if target.binds_rank:
                local.rank = args[0].rank
            stack = local.__dict__.setdefault("stack", [])
            span = [target.span, 0.0, 0.0, stack[-1] if stack else None,
                    getattr(local, "rank", None)]
            spans.append(span)
            stack.append(span)
            pre = target.pre(args) if target.pre else None
            span[1] = perf_counter()
            try:
                out = orig(*args, **kwargs)
                if target.post:
                    target.post(counts, args, kwargs, out, pre)
            finally:
                span[2] = perf_counter()
                stack.pop()
            return out

        traced.__wrapped__ = orig
        return traced

    def dump(self, path):
        """Write the spans as [name, start, end, parent index, rank] rows."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[n, round(t0 - self.origin, 7), round(t1 - self.origin, 7),
                 None if p is None else index[id(p)], r]
                for n, t0, t1, p, r in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "rank"],
                       "spans": rows, "counts": dict(self.counts)}, fh)


@dataclass
class SpanTimes:
    """Per-span durations folded up the call tree."""

    self_s: dict      # span name -> summed self time
    calls: Counter    # span name -> number of spans
    busy: list        # per span: duration minus recv waits beneath it


def fold(spans) -> SpanTimes:
    """Self time (span minus child spans) and busy time (minus recv waits).

    A child is always recorded after its parent, so one reverse pass
    accumulates every span's children before the span itself is visited.
    """
    index = {id(s): i for i, s in enumerate(spans)}
    child = [0.0] * len(spans)
    wait = [0.0] * len(spans)
    self_s: dict = {}
    calls: Counter = Counter()
    for i in range(len(spans) - 1, -1, -1):
        name, t0, t1, parent, _ = spans[i]
        dur = t1 - t0
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        calls[name] += 1
        if parent is not None:
            p = index[id(parent)]
            child[p] += dur
            wait[p] += dur if name == RECV else wait[i]
    busy = [s[2] - s[1] - w for s, w in zip(spans, wait)]
    return SpanTimes(self_s, calls, busy)
