"""cuspdeform benchmark: seeded closed-loop job streams through the public
entry points, with every job's output checked.

    python3 perfbench/run.py --workload exact|numeric|orbit --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One client runs jobs back to back (closed loop, concurrency
1) in this process, with BLAS/OpenMP pinned to one thread.  A job is
``cuspdeform.cli.main(argv)`` with stdout captured in memory, or a
direct ``rs1_probe`` call.  Input files are written before timing, and
one warm-up job of every kind runs untimed.

Job and import times are process CPU times (the jobs are single
threaded and do no I/O), rescaled to a reference machine speed by a
calibration run around every job and import (see speed.py); raw CPU and
wall times of the jobs are kept in the results file.

``--trace 0`` runs a fixed number of whole blocks (see workloads.py),
set by the workload and ``--seconds`` alone, so that every commit is
timed on the same job list, and reports the end-to-end metrics.  It
then runs the reproduction jobs of every known program defect
(workloads.KNOWN_DEFECTS), untimed and outside attempted/failed, and
prints whether each still shows.
``--trace 1`` runs a fixed job list (the first block) once untraced and
once with the layer tracer installed, and reports the per-layer
metrics, so that call counts repeat exactly for a given seed.  Metric names and units come from
BENCHMARK.json.  The last stdout line is the JSON result; a results file
and, for traced runs, the span dump go to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from speed import calibrate, rescale

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = Path(".perfbench_work") / str(os.getpid())  # concurrent runs do not collide
OUTDIR = Path(".perfbench_out")

MIN_JOBS = 100          # p90 then has at least 10 samples beyond it
# blocks per 10 s of --seconds; on the reference machine they take about
# that much job time
BLOCKS_PER_10_S = {"exact": 3, "numeric": 4, "orbit": 3}
TRACE_BLOCKS = 1
SETUP_SAMPLES = 7
ABORT_WALL_S = 150.0    # stop after the current job, and say so, after this


def intended_calls(workload: str) -> frozenset[str]:
    """Calls each traced run should find inside the workload's own
    layers: those named by the .calls and .s metrics of the layer_map
    entries in baseline.json marked intended for the workload."""
    layer_map = json.loads((Path(__file__).with_name("baseline.json")).read_text())["layer_map"]
    return frozenset(m.rpartition(".")[0] for e in layer_map
                     if e["intended"] and workload in e["workload"].split(", ")
                     for m in e["metrics"] if m.endswith((".calls", ".s")))


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def measure_setup() -> list[float]:
    """CPU time of ``import cuspdeform`` in fresh interpreters (one
    untimed import first, so compiled bytecode is in place), at
    reference speed.  The import itself cannot be bracketed in its own
    process without importing NumPy first, so each sample is bracketed
    by calibrations in this process (median of three on each side)."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.process_time(); "
            "import cuspdeform; print(repr(time.process_time() - t))")
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        before = statistics.median(calibrate() for _ in range(3))
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=os.environ,
                              capture_output=True, text=True, timeout=120)
        after = statistics.median(calibrate() for _ in range(3))
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()}")
        if k:
            samples.append(rescale(float(proc.stdout), before, after))
    return samples


class Runner:
    """Runs jobs, checks them, and keeps timings and failures."""

    def __init__(self, workload: str, seed: int, spec: dict):
        import cuspdeform.cli
        import cuspdeform.heisenberg
        import oracles
        import workloads
        self.cli = cuspdeform.cli
        self.heis = cuspdeform.heisenberg
        self.oracles = oracles
        self.workloads = workloads
        self.workload = workload
        self.seed = seed
        self.spec = spec
        self.check_rng = random.Random(f"check:{workload}:{seed}")
        self.blocks: list[list] = []
        self.attempted = 0
        self.failures: list[dict] = []
        self.out_bytes = 0

    def block(self, index: int) -> list:
        while len(self.blocks) <= index:
            jobs = self.workloads.make_block(self.workload, self.seed, len(self.blocks),
                                             WORKDIR)
            self.workloads.write_inputs(jobs)
            self.blocks.append(jobs)
        return self.blocks[index]

    def run(self, job, tracer=None, job_id: int = 0) -> tuple[float, float]:
        """Run one job, check its output and record the outcome.
        Returns the job's process CPU time and wall time, in seconds."""
        cpu, wall, cause = self.execute(job, tracer, job_id)
        self.attempted += 1
        if cause:
            self.failures.append({"job": job.label(), "cause": cause})
            print(f"FAIL {job.label()}: {cause}", file=sys.stderr)
        return cpu, wall

    def execute(self, job, tracer=None, job_id: int = 0) -> tuple[float, float, str | None]:
        """Run one job and check its output.  Returns the job's process
        CPU time, wall time, and the oracle's cause of failure or None."""
        args = self.oracles.rs1_elements(job.meta) if job.argv is None else None
        out, err = io.StringIO(), io.StringIO()
        cause = None
        if tracer is not None:
            tracer.install(job_id)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if job.argv is not None:
                    rc = self.cli.main(list(job.argv))
                else:
                    gap = self.heis.rs1_probe(*args, n_elements=job.meta["n_elements"])
        except Exception as exc:  # a job that raises is a failed job
            cause = f"raised {type(exc).__name__}: {exc}"
        cpu, wall = time.process_time() - c0, time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        if cause is None:
            text = out.getvalue()
            self.out_bytes += len(text)
            try:
                cause = self.check(job, rc if job.argv else 0,
                                   text if job.argv else gap)
            except Exception as exc:  # malformed output can break the parser
                cause = f"output check raised {type(exc).__name__}: {exc}"
            if cause and err.getvalue().strip():
                cause += f" | stderr: {err.getvalue().strip()[-200:]}"
        return cpu, wall, cause

    def check(self, job, rc, result):
        o = self.oracles
        if job.kind == "rs1-probe":
            return o.check_rs1(job, result)
        command = job.argv[0]
        if command == "verify":
            return o.check_verify(job, rc, result)
        if command == "sweep":
            return o.check_sweep(job, rc, result)
        if command == "orbit":
            return o.check_orbit(job, rc, result, self.check_rng)
        return o.check_classify(job, rc, result)

    def warm_up(self) -> None:
        jobs = self.workloads.warmup_jobs(self.workload, self.seed, WORKDIR)
        self.workloads.write_inputs(jobs)
        for job in jobs:
            self.run(job)

    def known_defects(self) -> list[dict]:
        """Run every known defect's reproduction jobs (untimed, not
        counted in attempted/failed): whether each defect still shows,
        and the oracle's cause for each job that shows it."""
        report = []
        for defect in self.workloads.KNOWN_DEFECTS:
            causes = {}
            for job in defect.repro:
                cause = self.execute(job)[2]
                if cause:
                    causes[job.label()] = cause
            report.append({"defect": defect.name, "reproduces": bool(causes),
                           "program_fault": defect.cause, "jobs": causes})
        return report


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(runner: Runner, seconds: float, start: float) -> tuple[dict, dict]:
    times: list[float] = []     # CPU seconds at reference speed
    raws: list[float] = []
    walls: list[float] = []
    by_kind: dict[str, list[float]] = defaultdict(list)
    busy = 0.0                  # raw CPU seconds
    log = []
    per_block = len(runner.block(0))
    blocks = max(-(-MIN_JOBS // per_block),
                 round(BLOCKS_PER_10_S[runner.workload] * seconds / 10))
    aborted = False
    before = calibrate()
    for index in range(blocks):
        for job in runner.block(index):
            t0 = time.perf_counter()
            cpu, wall = runner.run(job)
            after = calibrate()
            log.append({"job": job.label(), "start_s": t0 - start, "wall_s": wall,
                        "cpu_s": cpu, "calibration_s": (before, after)})
            dt = rescale(cpu, before, after)
            before = after
            times.append(dt)
            raws.append(cpu)
            walls.append(wall)
            by_kind[job.kind].append(dt)
            busy += cpu
            aborted = time.perf_counter() - start > ABORT_WALL_S
            if aborted:
                break
        if aborted:
            print(f"perfbench: aborted after {ABORT_WALL_S:.0f} s in block {index + 1} "
                  f"of {blocks}; the job list is cut short", file=sys.stderr)
            break
    values = {
        "jobs_per_s": len(times) / sum(times),
        "job_p50_ms": 1000 * statistics.median(times),
        "job_p90_ms": 1000 * _quantile(times, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"jobs_per_s": len(times), "job_p50_ms": len(times),
               "job_p90_ms": len(times), "peak_rss_mb": 1}
    detail = {
        "blocks": blocks, "aborted": aborted, "raw_cpu_busy_s": busy, "timed_jobs": len(times),
        "samples": samples, "wall_busy_s": sum(walls),
        "jobs": log,
        "raw_cpu_p50_ms": 1000 * statistics.median(raws),
        "raw_cpu_p90_ms": 1000 * _quantile(raws, 90),
        "wall_p50_ms": 1000 * statistics.median(walls),
        "wall_p90_ms": 1000 * _quantile(walls, 90),
        "per_kind": {k: {"n": len(v), "p50_ms": 1000 * statistics.median(v),
                         "max_ms": 1000 * max(v)} for k, v in sorted(by_kind.items())},
    }
    return values, detail


def traced(runner: Runner) -> tuple[dict, dict, object]:
    from tracing import Tracer
    jobs = [job for b in range(TRACE_BLOCKS) for job in runner.block(b)]

    def timed(job, *trace_args) -> tuple[float, float]:
        before = calibrate()
        cpu, wall = runner.run(job, *trace_args)
        return rescale(cpu, before, calibrate()), wall

    plain = sum(timed(job)[0] for job in jobs)
    tracer = Tracer(intended_calls(runner.workload))
    # per-job counts of the calls behind the per_grid_point / per_orbit_job ratios
    watched = {m["name"].rpartition(".")[0] for m in runner.spec["per_layer"]
               if m["name"].endswith((".per_grid_point", ".per_orbit_job"))}
    per_kind: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    traced_s = traced_wall = 0.0
    runner.out_bytes = 0
    for job_id, job in enumerate(jobs):
        before = {n: tracer.count(n) for n in watched}
        dt, wall = timed(job, tracer, job_id)
        traced_s += dt
        traced_wall += wall
        acc = per_kind[job.kind]
        acc["jobs"] += 1
        acc["points"] += job.meta.get("count", 0)
        for n in watched:
            acc[n] += tracer.count(n) - before[n]

    def ratio(name: str, kinds: tuple[str, ...], base: str) -> float:
        den = sum(per_kind[k][base] for k in kinds if k in per_kind)
        return sum(per_kind[k][name] for k in kinds if k in per_kind) / den if den else 0.0

    sweeps = ("sweep-figure8", "sweep-bianchi-su31", "sweep-bianchi-so41")
    special = {
        "matrices.Mat.evaluate.per_grid_point": ratio("matrices.Mat.evaluate", sweeps, "points"),
        "figure8.build_family.per_grid_point": ratio("figure8.build_family",
                                                     ("sweep-figure8",), "points"),
        "bending.bianchi_family.per_grid_point": ratio("bending.bianchi_family",
                                                       sweeps[1:], "points"),
        "heisenberg.orbit_points.per_orbit_job": ratio("heisenberg.orbit_points",
                                                       ("orbit-su31", "orbit-so41"), "jobs"),
        "cli.self_s": tracer.self_s["cli.main"],
        "cli.out_bytes": runner.out_bytes,
        "trace.overhead_ratio": traced_s / plain,
        "trace.intended_share": tracer.intended_s / traced_wall,  # span clock is wall
    }
    for layer, s in tracer.layer_self_s().items():
        special.setdefault(f"{layer}.self_s", s)
    for key, v in tracer.extra.items():
        special.setdefault(key, v)
    detail = {"jobs": len(jobs), "untraced_s": plain, "traced_s": traced_s,
              "spans": len(tracer.spans),
              "per_kind": {k: dict(v) for k, v in sorted(per_kind.items())}}
    return special, detail, tracer


def per_layer_value(name: str, special: dict, tracer) -> float:
    if name in special:
        return special[name]
    base, _, field = name.rpartition(".")
    if field == "calls":
        return tracer.count(base)
    if field == "s":
        return tracer.seconds(base)
    if field in ("indeterminate", "errors", "pairs", "bytes"):
        return 0
    raise KeyError(f"no measurement for per-layer metric {name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if not (SRC / "cuspdeform" / "__init__.py").is_file():
        return _fail(f"no package source at {SRC}/cuspdeform; run from a source checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    if not args.seconds > 0:
        return _fail("--seconds must be positive")

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import cuspdeform
    if Path(cuspdeform.__file__).resolve().parent != (SRC / "cuspdeform").resolve():
        return _fail(f"imported cuspdeform from {cuspdeform.__file__}, not {SRC}")
    import numpy
    import scipy

    shutil.rmtree(WORKDIR, ignore_errors=True)
    OUTDIR.mkdir(exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, spec)
        runner.warm_up()
        if args.trace:
            special, detail, tracer = traced(runner)
            declared = spec["per_layer"]
            values = {m["name"]: per_layer_value(m["name"], special, tracer)
                      for m in declared}
            tracer.write_spans(OUTDIR / f"spans-{args.workload}.csv")
            samples = {m["name"]: detail["jobs"] for m in declared}
        else:
            values, detail = end_to_end(runner, args.seconds, start)
            setup = measure_setup()
            values["setup_s"] = statistics.median(setup)
            detail["setup_samples_s"] = setup
            declared = spec["end_to_end"]
            samples = dict(detail.pop("samples"), setup_s=len(setup))
            detail["known_defects"] = runner.known_defects()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.parent.rmdir()

    failed = len(runner.failures)
    env = {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "threads": os.environ["OMP_NUM_THREADS"],
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record = {"env": env, "attempted": runner.attempted, "failed": failed,
              "failed_ratio": failed / runner.attempted, "failures": runner.failures,
              "metrics": metrics, "samples": samples, "detail": detail}
    (OUTDIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    print("# env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']} (n={samples[name]})")
    print(f"# failed_ratio = {failed}/{runner.attempted} = {failed / runner.attempted:.4g}")
    for f in runner.failures:
        print(f"# FAIL {f['job']}: {f['cause']}")
    for k in detail.get("known_defects", ()):
        state = "reproduces" if k["reproduces"] else "no longer reproduces"
        print(f"# known defect {k['defect']} {state} (untimed, kept out of the job stream): "
              f"{k['program_fault']}")
        for label, cause in k["jobs"].items():
            print(f"#   {label}: {cause}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
