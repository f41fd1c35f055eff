#!/usr/bin/env python3
"""Write ``reference.json``: the expected ``mean_abs_x`` of every row the
benchmark's workloads report.

Usage, from the root of a repository checkout::

    python3 perfbench/record_reference.py

Every row is also run once at a large trial count with a fixed seed, and
its mean and standard error are recorded.  A row's expectation is the
closed form of ``analytic_errors`` where one exists and the recorded mean
agrees with it; otherwise it is the recorded mean, with its standard error
entering the gate's tolerance.  Run it on the commit whose numbers the gate
should hold; it takes a few minutes on two cores.  The rows run on every
core: ``monte_carlo`` gives the same results for any ``--jobs``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import checks
from workloads import WORKLOADS, command_argv, write_coco

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 20191107
# Trials per row, by command group; the rno rows cost ~2.5 ms each.
TRIALS = {
    "topdown/analytic": 200_000,
    "bottomup/analytic": 200_000,
    "topdown/heatmap": 40_000,
    "bottomup/heatmap": 10_000,
    "coco/analytic": 100_000,
}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from keypose import analytic_errors, cli
    from keypose.biaslab import describe_config

    configs = {}
    for preset, rows in (("topdown", cli._topdown_presets()), ("bottomup", cli._bottomup_presets())):
        for row_id, cfg in rows:
            configs[(preset, f"{row_id}:{describe_config(cfg)}")] = cfg

    work = ROOT / ".bench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    coco = work / "coco.json"
    write_coco(coco, SEED)
    commands = {}
    for workload in WORKLOADS.values():
        for cmd in workload.commands:
            commands[cmd.group, cmd.argv] = cmd

    out = {}
    for (group, _), cmd in commands.items():
        trials = TRIALS[group]
        report = work / "report.csv"
        argv = command_argv(cmd, trials, SEED, report, coco)
        argv[argv.index("--jobs") + 1] = str(os.cpu_count() or 1)
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise SystemExit(f"keypose {' '.join(argv)} failed")
        for row in checks.parse_report(report.read_bytes()):
            if group.startswith("coco/"):
                cfg = cli._config_from_args(cli.build_parser().parse_args(argv))
            else:
                cfg = configs[(group.split("/")[0], row["label"])]
            closed = analytic_errors(cfg)["mean_abs_x"]
            sem = math.sqrt(row["var_abs_x"] / row["n_trials"])
            entry = {"recorded_mean": row["mean_abs_x"], "recorded_sem": sem,
                     "recorded_n": row["n_trials"]}
            agrees = closed is not None and (
                abs(row["mean_abs_x"] - closed) <= checks.K_SEM * sem + checks.FLOOR)
            if agrees:
                entry.update(expect=closed, sem=0.0, source="closed_form")
            else:
                entry.update(expect=row["mean_abs_x"], sem=sem, source="recorded")
                if closed is not None:
                    entry["closed_form"] = closed
            key = f"{group}/{row['label']}"
            out[key] = entry
            print(f"{key}: {entry['source']} expect={entry['expect']:.9g} "
                  f"recorded={row['mean_abs_x']:.9g} sem={sem:.3g}")

    doc = {"seed": SEED, "trials": TRIALS, "k_sem": checks.K_SEM, "floor": checks.FLOOR,
           "rows": dict(sorted(out.items()))}
    checks.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
