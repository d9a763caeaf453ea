"""fiscalforge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Generates the workload's inputs from the
seed, then runs `fiscalforge pipeline` in fresh Python processes for S
seconds after one untimed warm-up run, checks every run directory, and
prints one JSON result as its last line: end-to-end metrics with
--trace 0, per-layer metrics of traced runs with --trace 1. See
perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_run, digest, quality
from workloads import WORKLOADS, write_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench-work"

MIN_TIMED_RUNS = 3
# Past this many seconds of timed runs the loop stops even short of
# MIN_TIMED_RUNS, so that a much slower program still ends in time.
MAX_LOOP_S = 100
# Timings are the fastest of the run's identical samples. Other tenants
# of a shared machine only ever slow a run down, at timescales of
# seconds to minutes: on the 2-CPU machine measured here the medians of
# 30-s windows of back-to-back pipelines drifted 14-20% while their
# minima stayed within 4-8%.
fastest = min
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "train_steps_per_s": "steps/s",
    "refine_genomes_per_s": "genomes/s",
    "peak_rss_mb": "MiB",
    "train_final_penalty": "reward",
    "eval_cosine": "1",
}
QUALITY_LAYER_UNITS = {
    "quantum_ga.refine_gain": "reward",
    "evaluation.mae": "1",
    "evaluation.kl_divergence": "nats",
}


def layer_unit(name: str) -> str:
    if name in QUALITY_LAYER_UNITS:
        return QUALITY_LAYER_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith(("bytes", "bytes_written")):
        return "B"
    if name.endswith("computed_gflop"):
        return "GFLOP"
    if name.endswith("achieved_gflops"):
        return "GFLOP/s"
    if name.endswith("forward_passes_per_update"):
        return "passes/update"
    if name.endswith(("_share", "_coverage")):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # The networks are 64 wide: BLAS threads only add synchronisation,
    # and a single thread keeps runs steady on a shared machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["FISCALFORGE_LOG"] = "error"
    return env


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
    }


class Session:
    """Inputs, run directories and outcomes of one benchmark run."""

    def __init__(self, workload, seed: int):
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs = self.dir / "inputs"
        write_inputs(workload, seed, self.inputs)
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict | None = None
        self.quality: dict | None = None
        self.samples: dict = {}

    def _child(self, args: list[str]) -> dict | None:
        self.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), *args], cwd=self.inputs, env=self.env,
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self._fail(f"{args[0]}: no result within {CHILD_TIMEOUT_S} s")
            return None
        if proc.returncode != 0:
            self._fail(f"{args[0]}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        return json.loads(proc.stdout.splitlines()[-1])

    def _fail(self, *problems: str) -> None:
        self.failed += 1
        self.problems.extend(problems)

    def setup(self) -> dict | None:
        return self._child(["setup", "config.json"])

    def pipeline(self, index: int, spans: Path | None = None) -> dict | None:
        out = self.dir / "runs" / f"r{index}"
        extra = [str(spans), f"{self.dir.name}/r{index}"] if spans else []
        result = self._child(["pipeline", "config.json", str(out), *extra])
        if result is None:
            return None
        problems = ([f"pipeline exit code {result['rc']}"] if result["rc"] != 0
                    else check_run(out))
        if not problems:
            files = digest(out)
            if self.reference is None:
                self.reference, self.quality = files, quality(out)
            elif files != self.reference:
                differ = sorted(n for n in files.keys() | self.reference.keys()
                                if files.get(n) != self.reference.get(n))
                problems = [f"differs from the first run at this seed: {differ}"]
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self._fail(*(f"run r{index}: {p}" for p in problems))
            return None
        return result


def repeat(seconds: float, step) -> None:
    """Call step(1), step(2), ... until seconds have passed and
    MIN_TIMED_RUNS calls are made."""
    start = time.perf_counter()
    index = 1
    while True:
        step(index)
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and index >= MIN_TIMED_RUNS) or elapsed >= MAX_LOOP_S:
            return
        index += 1


def end_to_end(session: Session, seconds: float) -> dict:
    session.pipeline(0)  # warm-up: checked, not timed
    setups, runs = [], []

    def step(index):
        setups.append(session.setup())
        runs.append(session.pipeline(index))

    repeat(seconds, step)
    setups = [s["setup_s"] for s in setups if s]
    runs = [r for r in runs if r]
    session.samples = {"setup_s": setups, "runs": runs}
    if not setups or not runs:
        return {}
    return {
        "setup_s": fastest(setups),
        "pipeline_s": fastest(r["pipeline_s"] for r in runs),
        "train_steps_per_s": runs[0]["train_steps"] / fastest(r["train_s"] for r in runs),
        "refine_genomes_per_s":
            runs[0]["refine_genomes"] / fastest(r["refine_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        **{k: v for k, v in session.quality.items() if k in END_TO_END_UNITS},
    }


def per_layer(session: Session, seconds: float) -> dict:
    """Alternate traced and untraced runs; counts must repeat exactly."""
    spans = session.dir / "spans.jsonl"
    session.pipeline(0)  # warm-up: checked, not timed
    traced, untraced = [], []

    def step(index):
        if index % 2:
            traced.append(session.pipeline(index, spans))
        else:
            untraced.append(session.pipeline(index))

    repeat(seconds, step)
    traced = [r for r in traced if r]
    untraced = [r for r in untraced if r]
    if not traced or not untraced:
        return {}
    for r in traced[1:]:
        changed = sorted(k for k in r["counts"] if r["counts"][k] != traced[0]["counts"][k])
        if changed:
            session.problems.append(f"counts differ between traced runs: {changed}")
    # Times come from one run, the fastest traced one, so that its
    # self times add up to its wall time.
    best = min(traced, key=lambda r: r["pipeline_s"])
    untraced_s = fastest(r["pipeline_s"] for r in untraced)
    metrics = {**best["counts"], **best["times"]}
    metrics.update({
        "trace.pipeline_s": best["pipeline_s"],
        "trace.untraced_pipeline_s": untraced_s,
        "trace.overhead_s": best["pipeline_s"] - untraced_s,
    })
    metrics.update({k: v for k, v in session.quality.items() if k in QUALITY_LAYER_UNITS})
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "fiscalforge" / "cli.py").is_file():
        print(f"perfbench: fiscalforge sources not found under {SRC}", file=sys.stderr)
        return 2

    session = Session(WORKLOADS[args.workload], args.seed)
    machine = machine_info()
    probe = session.setup()  # also warms the import for the timed set-ups
    if probe is None:
        print("perfbench: set-up failed:\n" + "\n".join(session.problems), file=sys.stderr)
        return 1
    machine.update(numpy=probe["numpy"], blas=probe["blas"])

    if args.trace:
        values = per_layer(session, args.seconds)
        units = {name: layer_unit(name) for name in values}
    else:
        values = end_to_end(session, args.seconds)
        units = END_TO_END_UNITS
    for problem in session.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if not values:
        print("perfbench: no run succeeded", file=sys.stderr)
        return 1

    result = {
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    (session.dir / "result.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "machine": machine, **result, "samples": session.samples},
                   indent=2) + "\n", encoding="utf-8")
    print("machine " + json.dumps(machine))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
