import numpy as np
import pytest

from twoscalefem.bench import CaseSpec, build_problem
from twoscalefem.mesh import NestedMesh, box_mesh, classify_sp, refine
from twoscalefem.runtime import (
    DeadlockError,
    partition_elements,
    partition_mesh,
    run_ranks,
)
from twoscalefem.scheduler import PatchGraph


def barrier(ctx):
    """Every rank waits until all have arrived."""
    ctx.bcast(ctx.gather(None, 0) and None, 0)


def imbalance(plan):
    """Heaviest over lightest rank weight of a partition."""
    w = plan.rank_weights
    return float(w.max() / max(w.min(), 1e-300))


def test_reduce_sum_rank_ids():
    def prog(ctx):
        return ctx.all_reduce_sum(ctx.rank)

    assert run_ranks(4, prog) == [6, 6, 6, 6]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_allgather_sends_as_many_messages_as_gather_and_bcast(n):
    def prog(ctx):
        return ctx.allgather(10 * ctx.rank), ctx._sim.sent.total()

    out = run_ranks(n, prog)
    assert [items for items, _ in out] == [[10 * r for r in range(n)]] * n
    assert max(sent for _, sent in out) == 2 * (n - 1)


def test_split_by_color_sends_nothing():
    def prog(ctx):
        sub = ctx.split_by_color([r % 2 for r in range(ctx.size)])
        return (sub.size, sub.rank, ctx._sim.sent.total())  # no rank sends anything

    assert run_ranks(4, prog) == [(2, 0, 0), (2, 0, 0), (2, 1, 0), (2, 1, 0)]


def test_split_by_color_distinct():
    def prog(ctx):
        sub = ctx.split_by_color(list(range(ctx.size)))  # distinct colors: groups of one
        return (sub.size, sub.rank)

    assert run_ranks(3, prog) == [(1, 0)] * 3


def test_split_by_color_groups():
    def prog(ctx):
        sub = ctx.split_by_color([r % 2 for r in range(ctx.size)])
        total = sub.all_reduce_sum(ctx.rank)
        none_sub = ctx.split_by_color([7] + [None] * (ctx.size - 1))
        assert (none_sub is None) == (ctx.rank > 0)
        return total

    assert run_ranks(4, prog) == [2, 4, 2, 4]


def test_send_recv_ordering():
    def prog(ctx):
        if ctx.rank == 0:
            for i in range(5):
                ctx.send(1, i, tag=3)
            return None
        return [ctx.recv(0, tag=3) for _ in range(5)]

    assert run_ranks(2, prog)[1] == list(range(5))


def test_deadlock_detection():
    def prog(ctx):
        return ctx.recv((ctx.rank + 1) % ctx.size, tag=9)

    with pytest.raises(DeadlockError):
        run_ranks(2, prog)


def test_scheduling_order_independence():
    def prog(ctx):
        # irregular communication: chained exchange plus collectives
        nxt, prv = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
        ctx.send(nxt, ctx.rank * 1.5)
        val = ctx.recv(prv)
        total = ctx.all_reduce_sum(np.float64(val))
        mx = ctx.all_reduce_max(val + ctx.rank)
        i = np.arange(2)
        tot2 = ctx.all_reduce_ordered_sum((ctx.rank * 2 + i, 0.1 * (ctx.rank + i)))
        return (val, total, mx, tot2)

    base = run_ranks(4, prog)
    for seed in (1, 2, 3, 11):
        assert run_ranks(4, prog, seed=seed) == base


def test_ordered_reduction_bitwise_across_rank_counts():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=24)

    def prog(ctx):
        mine = np.arange(ctx.rank, 24, ctx.size)
        return ctx.all_reduce_ordered_sum((mine, vals[mine]))

    r1 = run_ranks(1, prog)[0]
    r2 = run_ranks(2, prog)[0]
    r4 = run_ranks(4, prog)[0]
    assert r1 == r2 == r4  # bitwise identical


def test_ordered_sum_equals_left_fold_in_stable_key_order():
    rng = np.random.default_rng(9)
    keys = rng.permutation(40)[:30]
    keys[::7] = keys[0]  # repeated keys are summed in rank order
    vals = rng.normal(size=30) * 10.0 ** rng.integers(-8, 8, size=30)

    def prog(ctx):
        mine = np.arange(ctx.rank, 30, ctx.size)
        order = np.argsort(np.concatenate([keys[r::ctx.size] for r in range(ctx.size)]),
                           kind="stable")
        return (ctx.all_reduce_ordered_sum((keys[mine], vals[mine])),
                ctx.all_reduce_permuted_sum(vals[mine], order))

    for n in (1, 2, 3):
        arrived = [i for r in range(n) for i in range(r, 30, n)]
        expect = 0.0
        for i in sorted(arrived, key=lambda i: keys[i]):  # stable: rank order on ties
            expect = expect + float(vals[i])
        for got in run_ranks(n, prog):
            assert got == (expect, expect) and all(isinstance(g, float) for g in got)


def test_gather_scatter_roundtrip():
    def prog(ctx):
        data = ctx.gather(ctx.rank * 10, root=1)
        if ctx.rank == 1:
            out = ctx.scatter([x + 1 for x in data], root=1)
        else:
            out = ctx.scatter(None, root=1)
        return out

    assert run_ranks(3, prog) == [1, 11, 21]


def test_partition_single_rank():
    plan = partition_elements([1.0, 1.0, 1.0], np.zeros((3, 3)), 1)
    assert np.array_equal(plan.element_rank, [0, 0, 0])


def test_partition_uniform_box_two_ranks():
    mesh = box_mesh(1, 1, 1)
    nested = NestedMesh.from_coarse(mesh)
    sp_info = classify_sp(nested)
    plan = partition_mesh(nested, sp_info, 2)
    counts = [len(plan.elements_of(0)), len(plan.elements_of(1))]
    assert abs(counts[0] - counts[1]) <= 1  # weight imbalance <= 1 element
    assert sorted(counts) == [3, 3]


def test_partition_weighted_balance_ratio():
    # measured property of the bisection on meshes >= 100 elements
    mesh = box_mesh(4, 3, 2)  # 144 elements
    nested = refine(NestedMesh.from_coarse(mesh), range(24), 1)
    sp_info = classify_sp(nested)
    for n_ranks in (2, 3, 4):
        plan = partition_mesh(nested, sp_info, n_ranks)
        assert imbalance(plan) <= 1.3, plan.rank_weights


def test_partition_too_many_ranks():
    with pytest.raises(ValueError):
        partition_elements([1.0], np.zeros((1, 3)), 2)


def test_partition_keeps_every_rank_non_empty():
    nested = NestedMesh.from_coarse(box_mesh(2, 1, 1))
    sp_info = classify_sp(nested)
    for n_ranks in range(1, 13):
        plan = partition_mesh(nested, sp_info, n_ranks)
        assert (np.bincount(plan.element_rank, minlength=n_ranks) > 0).all(), n_ranks
    # one element outweighs the rest together: each light one still gets a rank
    plan = partition_elements([100.0, 1.0, 1.0, 1.0], np.zeros((4, 3)), 4)
    assert sorted(plan.element_rank) == [0, 1, 2, 3]


def test_partition_ties_go_to_the_lower_element_id():
    plan = partition_elements(np.ones(4), np.zeros((4, 3)), 2)
    assert np.array_equal(plan.element_rank, [0, 0, 1, 1])


def test_partition_deterministic():
    plans = []
    for _ in range(2):
        nested = NestedMesh.from_coarse(box_mesh(3, 2, 2))
        plans.append(partition_mesh(nested, classify_sp(nested), 4))
    assert np.array_equal(plans[0].element_rank, plans[1].element_rank)
    assert np.array_equal(plans[0].rank_weights, plans[1].rank_weights)


def test_partition_keeps_most_cone_patches_on_one_rank():
    # regression guard: the greedy growth plan left 79 of the 83 patches distributed
    problem, _ = build_problem(CaseSpec(kind="cone-damage-box", sp_depth=2, ranks=2))
    graph = PatchGraph.of(problem.sp_info, partition_mesh(problem.nested, problem.sp_info, 2))
    distributed = sum(len(p) >= 2 for p in graph.participants.values())
    assert len(graph.participants) == 83 and distributed <= 20


def test_rank_error_propagates():
    def prog(ctx):
        if ctx.rank == 1:
            raise ValueError("boom")
        barrier(ctx)

    with pytest.raises(ValueError, match="boom"):
        run_ranks(2, prog)
