#!/usr/bin/env python3
"""Benchmark of the keypose bias lab.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop with one client: one process runs the workload's
``keypose`` commands in-process, one after the other, with ``--jobs 1`` and
single-threaded BLAS/OpenMP pools, repeating the whole list for ``S``
seconds.  Each repetition is an iteration; every iteration must give the
same report bytes, and every report row must pass the correctness gate
(``checks.py``).

``--trace 0`` reports the end-to-end metrics: ``trials_per_s`` (median over
iterations of trials attempted / time spent in the Monte Carlo rows; argument
parsing, config building, annotation loading and report writing are set-up
and output, not trials), ``setup_s``
(median over separate processes of the time from process start to the
first trial, see ``probe.py``) and ``peak_rss_mb`` (resident high-water
mark of a separate process that runs one iteration, see ``probe.py``).
Both times are scaled to a fixed reference machine speed measured before
and after each iteration and each set-up process (``calibrate.py``); the
raw figures are in the diagnostics line.  ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics of
``tracer.py`` (times and counts per iteration, medians over traced
iterations, scaled likewise) plus ``trace.overhead_ratio``.

Earlier stdout lines carry the report digest, the provenance block and
per-row diagnostics; the last line is the result JSON.  Exit code 0 when
everything is correct, 1 when a check fails, 2 when no keypose sources are
found next to the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, command_argv, write_coco  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 7
MIN_ITERATIONS = 3
WARMUP_TRIALS = 8


def declared_metrics() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics ``BENCHMARK.json`` names."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def import_keypose() -> dict:
    """Import the keypose sources of this checkout, never an installed copy."""
    if not (SRC / "keypose" / "__init__.py").is_file():
        print(f"perfbench: no keypose sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import keypose
    from keypose import biaslab, cli, codec, dataio, geometry, pipeline, raster

    if SRC.resolve() not in Path(keypose.__file__).resolve().parents:
        print(f"perfbench: imported keypose from {keypose.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return {"cli": cli, "biaslab": biaslab, "codec": codec, "dataio": dataio,
            "geometry": geometry, "pipeline": pipeline, "raster": raster}


class Runner:
    """Runs one workload's command list in-process."""

    def __init__(self, mods: dict, workload, seed: int, workdir: Path, calib: Calibrator) -> None:
        self.cli = mods["cli"]
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.calib = calib
        self.coco = workdir / "coco.json" if workload.uses_coco else None
        self.row_rates: dict[str, list[float]] = {}
        self._group = ""
        self._rows_wall = 0.0

    def argv(self, index: int, trials: int) -> list[str]:
        cmd = self.workload.commands[index]
        return command_argv(cmd, trials, self.seed, self.workdir / f"report{index}.csv", self.coco)

    def iteration(self, trials: int) -> list[bytes]:
        """Run every command once; returns the report bytes."""
        sink = io.StringIO()
        for i, cmd in enumerate(self.workload.commands):
            self._group = cmd.group
            argv = self.argv(i, trials)
            with contextlib.redirect_stdout(sink):
                code = self.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"keypose {' '.join(argv)} exited with {code}")
        return [(self.workdir / f"report{i}.csv").read_bytes()
                for i in range(len(self.workload.commands))]

    def timed_iteration(self, trials: int) -> tuple[list[bytes], float, float]:
        """Run every command once, untraced.

        Returns (report bytes, wall seconds, seconds scaled to the reference
        speed).  The times are those of the Monte Carlo rows, which hold all
        trials; the machine speed is calibrated before and after the
        iteration.
        """
        self._rows_wall = 0.0
        with self._row_timer():
            reports, _, slowness = self.calib.timed(self.iteration, trials)
        return reports, self._rows_wall, self._rows_wall / slowness

    @contextlib.contextmanager
    def _row_timer(self):
        original = self.cli.monte_carlo

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            stats = original(*args, **kwargs)
            wall = time.perf_counter() - t0
            self._rows_wall += wall
            attempted = stats.n_trials + stats.n_skipped + stats.n_decode_failed
            key = f"{self._group}/{stats.label}"
            self.row_rates.setdefault(key, []).append(attempted / wall)
            return stats

        self.cli.monte_carlo = timed
        try:
            yield
        finally:
            self.cli.monte_carlo = original


def _probe(mode: str, args: list[str]) -> float:
    """Run ``probe.py`` and return the number it prints last."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), mode, str(ROOT), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    lines = proc.stdout.split()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} probe failed: {proc.stderr.strip()}")
    return float(lines[-1])


def _setup_probe(argv: list[str]) -> float:
    t0 = time.monotonic()
    return _probe("setup", argv) - t0


def measure_setup(runner: Runner, calib: Calibrator) -> tuple[list[float], list[float]]:
    """Process start to first trial of the workload's first command.

    Returns (raw seconds, seconds scaled to the reference speed) per probe.
    """
    argv = runner.argv(0, runner.workload.trials)
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        sample, _, slowness = calib.timed(_setup_probe, argv)
        raw.append(sample)
        scaled.append(sample / slowness)
    return raw, scaled


def measure_rss_mb(runner: Runner) -> float:
    """Peak resident memory of a process that runs one iteration."""
    argvs = [json.dumps(runner.argv(i, runner.workload.trials))
             for i in range(len(runner.workload.commands))]
    return _probe("rss", argvs) / 1024.0


def gate(workload, reports: list[bytes], reference: dict) -> tuple[bool, int, int, list[str]]:
    """Check every row; returns (ok, attempted, failed trials, failures)."""
    ok, attempted, failed, failures = True, 0, 0, []
    for cmd, data in zip(workload.commands, reports):
        for row in checks.parse_report(data):
            n = checks.attempted(row)
            attempted += n
            row_ok, detail = checks.check_row(row, reference.get(f"{cmd.group}/{row['label']}"))
            if row_ok:
                failed += row["n_decode_failed"]
            else:
                ok = False
                failed += n
                failures.append(detail)
    return ok, attempted, failed, failures


def source_digest(extra: tuple[Path, ...] = ()) -> str:
    h = hashlib.sha256()
    for path in [*sorted((SRC / "keypose").glob("*.py")), *extra]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def inputs_key(workload, seed: int) -> str:
    """What fixes a workload's report bytes: the seed, the keypose sources,
    the workload definitions and COCO generator, and the Python and numpy
    versions."""
    import numpy

    code = source_digest((HERE / "workloads.py",))
    return f"{workload.name}:{seed}:{code}:py{platform.python_version()}:np{numpy.__version__}"


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def provenance(mods: dict, seed: int) -> dict:
    import numpy

    model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind != "Instruction" and level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "keypose": getattr(sys.modules.get("keypose"), "__version__", None),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
    }


def run(args) -> int:
    mods = import_keypose()
    workload = WORKLOADS[args.workload]
    reference = checks.load_reference()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run(args, mods, workload, reference, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, mods, workload, reference, workdir) -> int:
    calib = Calibrator()
    runner = Runner(mods, workload, args.seed, workdir, calib)
    facts = write_coco(runner.coco, args.seed) if runner.coco else None
    setup_raw, setup = measure_setup(runner, calib) if args.trace == 0 else ([], [])
    peak_rss_mb = measure_rss_mb(runner) if args.trace == 0 else None
    runner.iteration(WARMUP_TRIALS)

    untraced: list[float] = []  # scaled seconds per iteration
    untraced_raw: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    digests: set[str] = set()
    first_reports = None
    tracer = Tracer(mods)
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(untraced) < MIN_ITERATIONS:
        if args.trace:
            # Whole iterations, like the traced ones they are compared with.
            reports, wall, slowness = calib.timed(runner.iteration, workload.trials)
            scaled = wall / slowness
        else:
            reports, wall, scaled = runner.timed_iteration(workload.trials)
        untraced.append(scaled)
        untraced_raw.append(wall)
        digests.add(checks.digest(reports))
        first_reports = first_reports or reports
        if args.trace:
            tracer.reset()
            with tracer:
                reports, wall, slowness = calib.timed(runner.iteration, workload.trials)
            traced.append(wall / slowness)
            layers.append({key: value / slowness if key.endswith("_s") else value
                           for key, value in tracer.snapshot().items()})
            digests.add(checks.digest(reports))

    ok, per_iter, failed_per_iter, failures = gate(workload, first_reports, reference)
    iterations = len(untraced) + len(traced)
    report_digest = checks.digest(first_reports)
    for text in failures:
        print(f"FAIL row {text}", file=sys.stderr)
    if len(digests) != 1:
        ok = False
        print(f"FAIL report digests differ between iterations: {sorted(digests)}", file=sys.stderr)
    previous = checks.record_digest(WORK / "digests.json", inputs_key(workload, args.seed),
                                    report_digest)
    if previous is not None:
        ok = False
        print(f"FAIL report digest {report_digest} differs from an earlier run "
              f"of this seed, source tree and toolchain: {previous}", file=sys.stderr)

    trials_per_s = statistics.median(per_iter / dt for dt in untraced)
    failed_ratio = failed_per_iter / per_iter
    print(f"digest {workload.name} seed={args.seed} sha256={report_digest}")
    meta = provenance(mods, args.seed)
    meta.update({"workload": workload.name, "trials_per_row": workload.trials,
                 "trials_per_iteration": per_iter, "iterations": iterations,
                 "untraced_iterations": len(untraced), "traced_iterations": len(traced)})
    if facts:
        rows = [r for data in first_reports for r in checks.parse_report(data)]
        facts["observed_skip_share"] = sum(r["n_skipped"] for r in rows) / per_iter
        meta["coco"] = facts
    print("provenance " + json.dumps(meta, sort_keys=True))
    row_rates = {label: statistics.median(v) for label, v in runner.row_rates.items()}
    print("diagnostics " + json.dumps({
        "raw_row_trials_per_s": row_rates, "failed_ratio": failed_ratio,
        "raw_trials_per_s": statistics.median(per_iter / dt for dt in untraced_raw),
        "raw_setup_s": statistics.median(setup_raw) if setup_raw else None,
        "slowness": calib.factors, "iteration_s": untraced_raw, "iteration_scaled_s": untraced,
        "setup_samples_s": setup_raw,
    }, sort_keys=True))

    if args.trace == 0:
        setup_s = statistics.median(setup)
        metrics = {"trials_per_s": trials_per_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        print(f"{workload.name}: trials_per_s={trials_per_s:.1f} trials/s  setup_s={setup_s:.4f} s  "
              f"peak_rss_mb={peak_rss_mb:.1f} MiB  failed_ratio={failed_ratio:.3g} ratio")
        units = declared_metrics()[0]
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        values = {key: statistics.median(snap[key] for snap in layers)
                  for key in sorted(set().union(*layers))}
        # untraced / traced trials_per_s, i.e. traced / untraced wall time
        values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        units = declared_metrics()[1]
        absent = sorted(set(units) - set(values))
        if absent:
            print(f"absent layer metrics (boundary not found): {', '.join(absent)}", file=sys.stderr)
        total = sum(v for k, v in values.items() if k.endswith("_s"))
        shares = {k: round(v / total, 4) for k, v in values.items() if k.endswith("_s")}
        print("traced time shares " + json.dumps(shares, sort_keys=True))
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items() if k in units}

    print(json.dumps({"correct": ok, "attempted": per_iter * iterations,
                      "failed": failed_per_iter * iterations, "metrics": result_metrics}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
