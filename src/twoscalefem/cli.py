"""Command-line entry points: benchmark runs, cost grids, schedule dumps."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np


def _parse_levels(text):
    try:
        lc, l = text.split(":")
        lc, l = int(lc), int(l)
    except ValueError:
        raise argparse.ArgumentTypeError("levels must look like Lc:L, e.g. 0:2")
    if l <= lc:
        raise argparse.ArgumentTypeError("need L > Lc in Lc:L")
    return lc, l


def _refuse(reason):
    """An invalid configuration is refused before any work, in one line."""
    print(f"error: {reason}", file=sys.stderr)
    return 2


def cmd_run(args):
    from .bench import CaseSpec, run_case

    lc, l = args.levels
    try:
        spec = CaseSpec(
            kind=args.case,
            coarse_level=lc,
            sp_depth=l - lc,
            eps=args.eps,
            solver=args.solver,
            ranks=args.ranks,
            warm_start=args.warm_start,
            perturb_percent=args.perturb,
            n_planes=args.planes,
            cone_h=args.cone_h,
        )
    except ValueError as exc:
        return _refuse(exc)
    summary = run_case(spec, outdir=args.outdir)
    json.dump(summary, sys.stdout, indent=2)
    print()
    return 0


def cmd_cost(args):
    from . import costmodel as cm

    try:  # a sweep runs L from sweep_min, which is checked as L_c is: within 0..L
        cm.CostParams(args.L, args.sweep_min if args.sweep else args.Lc, args.nl, args.sr, args.sr)
    except ValueError as exc:
        return _refuse(exc)
    if args.sweep:
        text = cm.sweep_csv(range(args.sweep_min, args.L + 1), args.nl, args.sr, args.sr)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    info = {
        "L": args.L,
        "L_c": args.Lc,
        "nb_dof": cm.nb_dof(args.L),
        "cost_ts": cm.cost_ts(args.Lc, args.L, args.nl, args.sr, args.sr),
        "cost_full_rank": cm.cost_full_rank(args.L, args.nl, args.sr),
        "ratio": cm.ts_ratio(args.Lc, args.L, args.nl, args.sr, args.sr),
        "optimal_Lc": cm.optimal_coarse_level(args.L, args.nl, args.sr, args.sr)[0],
    }
    json.dump(info, sys.stdout, indent=2)
    print()
    return 0


def cmd_schedule(args):
    from .scheduler import PatchGraph, dump_json, schedule_on_ranks

    if args.ranks < 1 or args.patches < 0:
        return _refuse("need --ranks >= 1 and --patches >= 0")
    rng = np.random.default_rng(args.seed)
    weights, participants = {}, {}
    for p in range(args.patches):
        k = int(rng.integers(1, min(4, args.ranks) + 1))
        participants[p] = tuple(sorted(rng.choice(args.ranks, size=k, replace=False).tolist()))
        weights[p] = int(rng.integers(1, 101))
    graph = PatchGraph(args.ranks, weights, participants)
    sched = schedule_on_ranks(graph, args.variant)
    text = dump_json(sched, graph)
    if args.dump and args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="twoscalefem",
        description="Two-scale global-local finite element solver (desk scale)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one benchmark case")
    p_run.add_argument("--case", default="cubic-plate",
                       choices=["cubic-plate", "micro-structure", "cone-damage-box"])
    p_run.add_argument("--solver", default="ts", choices=["ts", "tsi", "tsdd", "dd", "fr"])
    p_run.add_argument("--ranks", type=int, default=1)
    p_run.add_argument("--eps", type=float, default=1e-7)
    p_run.add_argument("--levels", type=_parse_levels, default=(0, 2),
                       help="Lc:L — coarse level and fine target level")
    p_run.add_argument("--warm-start", action="store_true")
    p_run.add_argument("--perturb", type=float, default=0.0,
                       help="stiffness perturbation percent for the warm rerun")
    p_run.add_argument("--planes", type=int, default=16)
    p_run.add_argument("--cone-h", type=float, default=-400.0)
    p_run.add_argument("--outdir", default=None)
    p_run.set_defaults(func=cmd_run)

    p_cost = sub.add_parser("cost", help="evaluate the analytic flop model")
    p_cost.add_argument("--L", type=int, default=8)
    p_cost.add_argument("--Lc", type=int, default=5)
    p_cost.add_argument("--sr", type=float, default=0.017)
    p_cost.add_argument("--nl", type=int, default=30)
    p_cost.add_argument("--sweep", action="store_true", help="emit the CSV grid")
    p_cost.add_argument("--sweep-min", type=int, default=2)
    p_cost.add_argument("--out", default=None)
    p_cost.set_defaults(func=cmd_cost)

    p_sched = sub.add_parser("schedule", help="sequence a random patch graph")
    p_sched.add_argument("--dump", action="store_true")
    p_sched.add_argument("--ranks", type=int, default=4)
    p_sched.add_argument("--patches", type=int, default=24)
    p_sched.add_argument("--seed", type=int, default=0)
    p_sched.add_argument("--variant", default="V2", choices=["V0", "V1", "V2"])
    p_sched.add_argument("--out", default=None)
    p_sched.set_defaults(func=cmd_schedule)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
