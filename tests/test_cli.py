import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twoscalefem.bench import CaseSpec, _perturbed_problem, build_problem, run_case
from twoscalefem.cli import main
from twoscalefem.elasticity import leaf_moduli

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

GOLDEN_SPECS = {
    "cubic_L0_L2": CaseSpec(kind="cubic-plate", coarse_level=0, sp_depth=2,
                            eps=1e-7, solver="ts", ranks=2),
    "micro_16planes": CaseSpec(kind="micro-structure", sp_depth=1, n_planes=16,
                               eps=1e-7, solver="ts", ranks=2),
    "cone_box": CaseSpec(kind="cone-damage-box", sp_depth=1, cone_h=-400.0,
                         eps=1e-7, solver="ts", ranks=2),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_golden_runs(name):
    """Frozen first-build summaries; regenerate deliberately if the solver changes."""
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as fh:
        expect = json.load(fh)
    got = run_case(GOLDEN_SPECS[name])
    got.pop("wall_time", None)
    for key, val in expect.items():
        if isinstance(val, float):
            assert got[key] == pytest.approx(val, rel=1e-6), key
        else:
            assert got[key] == val, key


def test_cli_run_outputs(tmp_path):
    rc = main([
        "run", "--case", "cubic-plate", "--solver", "ts", "--ranks", "2",
        "--eps", "1e-6", "--levels", "0:1", "--outdir", str(tmp_path),
    ])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["converged"] and summary["reason"] == "converged"
    assert 0 < summary["setup_time"] and 0 < summary["wall_time"]
    with open(tmp_path / "resi_history.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == summary["iterations"]
    assert float(rows[-1]["resi"]) == pytest.approx(summary["final_resi"], rel=1e-12)
    assert {"iteration", "resi", "coarse_kind", "pcg_iterations",
            "wall_time", "factor_flops", "solve_flops",
            "shifted", "refinement_steps", "pcg_fallback"} <= set(rows[0])
    assert list(rows[0])[-3:] == ["shifted", "refinement_steps", "pcg_fallback"]
    assert all(r["pcg_fallback"] in ("0", "1") and r["shifted"] in ("0", "1")
               and int(r["refinement_steps"]) >= 0 for r in rows)
    field = (tmp_path / "field_u.txt").read_text().splitlines()
    assert field[0].startswith("# node")
    assert len(field) - 1 == summary["n_nodes"]  # one row per node
    assert all(len(row.split()) == 7 for row in field[1:])
    sched = json.loads((tmp_path / "schedule.json").read_text())
    assert "columns" in sched and "stats" in sched


def run_cli(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "twoscalefem", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def assert_refused_in_one_line(proc):
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["--ranks", "0"], ["--solver", "tsdd", "--ranks", "1"],
                                  ["--eps", "-1"],
                                  ["--case", "cubic-plate", "--levels", "0:1", "--ranks", "60"],
                                  ["--case", "micro-structure", "--planes", "-3"],
                                  ["--case", "micro-structure", "--planes", "65"],
                                  ["--levels=-1:1"], ["--perturb", "-150", "--warm-start"],
                                  ["--case", "micro-structure", "--perturb", "150"]])
def test_cli_rejects_invalid_run_in_one_line(argv):
    assert_refused_in_one_line(run_cli(["run", *argv]))


@pytest.mark.parametrize("argv", [["cost", "--sr", "0"], ["cost", "--Lc", "9", "--L", "8"],
                                  ["cost", "--nl", "0"], ["cost", "--Lc", "-1"],
                                  ["cost", "--sweep", "--L", "4", "--sweep-min", "5"],
                                  ["schedule", "--ranks", "0"], ["schedule", "--patches", "-1"]])
def test_cli_rejects_invalid_cost_and_schedule_in_one_line(argv):
    assert_refused_in_one_line(run_cli(argv))


def test_cli_run_dd_and_fr(tmp_path):
    rc = main(["run", "--case", "cubic-plate", "--solver", "fr",
               "--levels", "0:1", "--outdir", str(tmp_path / "fr")])
    assert rc == 0
    s = json.loads((tmp_path / "fr" / "summary.json").read_text())
    assert s["final_resi"] <= 1e-10
    rc = main(["run", "--case", "cubic-plate", "--solver", "dd", "--ranks", "2",
               "--levels", "0:1", "--outdir", str(tmp_path / "dd")])
    assert rc == 0
    s = json.loads((tmp_path / "dd" / "summary.json").read_text())
    assert s["converged"]


def test_cli_cost_grid(tmp_path):
    out = tmp_path / "grid.csv"
    rc = main(["cost", "--L", "4", "--sweep", "--sweep-min", "2", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert {"L", "L_c", "cost_ts", "cost_full_rank", "ratio"} == set(rows[0])
    assert len(rows) == sum(L + 1 for L in range(2, 5))
    rc = main(["cost", "--L", "2", "--Lc", "1"])
    assert rc == 0


def test_cli_schedule_dump(tmp_path, capsys):
    rc = main(["schedule", "--dump", "--ranks", "3", "--patches", "10",
               "--out", str(tmp_path / "s.json")])
    assert rc == 0
    payload = json.loads((tmp_path / "s.json").read_text())
    assert payload["n_ranks"] == 3
    assert len(payload["columns"]) == 3


def test_cli_warm_start_summary(capsys):
    rc = main(["run", "--case", "micro-structure", "--solver", "ts", "--ranks", "2",
               "--levels", "0:1", "--planes", "8", "--warm-start", "--perturb", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["perturbed_warm_iterations"] < out["perturbed_cold_iterations"]
    # the twin is another problem: its leaf moduli differ from the main problem's
    spec = CaseSpec(kind="micro-structure", sp_depth=1, ranks=2, n_planes=8, perturb_percent=1.0)
    moduli = [leaf_moduli(p.nested.points, np.concatenate(p.nested.micro), p.material)
              for p in (build_problem(spec)[0], _perturbed_problem(spec))]
    assert not np.array_equal(*moduli)


def test_cli_levels_validation():
    with pytest.raises(SystemExit):
        main(["run", "--levels", "2:1"])
