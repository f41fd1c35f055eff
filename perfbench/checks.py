"""Correctness checks on the reports a workload writes.

* Row gate: each row's ``mean_abs_x`` must lie within
  ``K_SEM * sqrt(sem_row**2 + sem_ref**2) + FLOOR`` of its expected value.
  The expectation is the closed form of ``keypose.analytic_errors`` where
  that exists, else the mean recorded from a long run at the seed commit
  (``reference.json``, written by ``record_reference.py``).  The floor
  covers rows whose error is exactly zero up to rounding (|error| ~ 1e-15
  with SEM ~ 3e-17), which a pure z-score would reject, and the 9
  significant digits of the report format.
* Digest: the sha256 of a workload's report bytes must be the same for
  every iteration of a run, and for every run of one seed on one source
  tree and toolchain.
"""

from __future__ import annotations

import csv
import fcntl
import hashlib
import io
import json
import math
import os
from pathlib import Path

K_SEM = 5.0
FLOOR = 1e-9

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["rows"]


def parse_report(data: bytes) -> list[dict]:
    """Rows of a CSV report, with numeric columns converted."""
    rows = []
    for raw in csv.DictReader(io.StringIO(data.decode("ascii"))):
        row = {"label": raw["label"]}
        for key, value in raw.items():
            if key != "label":
                row[key] = int(value) if key.startswith("n_") else float(value)
        rows.append(row)
    return rows


def attempted(row: dict) -> int:
    return row["n_trials"] + row["n_skipped"] + row["n_decode_failed"]


def check_row(row: dict, ref: dict | None) -> tuple[bool, str]:
    """Gate one report row against its reference entry.

    ``ref`` holds ``expect`` and ``sem`` (0 for a closed form); a row with
    no reference entry fails, so a renamed or added row is never passed
    unchecked.
    """
    if ref is None:
        return False, f"{row['label']}: no reference value"
    sem = math.sqrt(max(row["var_abs_x"], 0.0) / row["n_trials"])
    tol = K_SEM * math.hypot(sem, ref["sem"]) + FLOOR
    diff = abs(row["mean_abs_x"] - ref["expect"])
    ok = diff <= tol
    detail = (f"{row['label']}: mean_abs_x={row['mean_abs_x']:.9g} "
              f"expect={ref['expect']:.9g} diff={diff:.3g} tol={tol:.3g}")
    return ok, detail


def digest(reports: list[bytes]) -> str:
    h = hashlib.sha256()
    for data in reports:
        h.update(data)
    return h.hexdigest()


def record_digest(path: Path, key: str, value: str) -> str | None:
    """Store ``value`` under ``key`` in the JSON file at ``path``.

    Returns the previously stored digest when it differs from ``value``,
    else ``None``.  ``key`` names everything that fixes the report bytes
    (workload, seed, sources, toolchain), so a mismatch means the same code
    gave different report bytes.
    """
    with open(path.with_name(path.name + ".lock"), "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # runs in parallel must not lose entries
        seen = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        previous = seen.get(key)
        if previous is not None and previous != value:
            return previous
        seen[key] = value
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(seen, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)
    return None
