"""Solver benchmark for nematicflow: time to solution of `runner.run`, end
to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in `workloads.py`, or `all` to run each in
turn.  Every sample is a fresh interpreter (`sample.py`), one process at a
time, importing the package from the checkout's `src/`; the workload seed
reaches the program only as `scenario.seed` in the generated config.
Every sample's outputs are checked; a sample that fails a check counts as
failed.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are end to end, each the mean over the
samples of one run after the lowest and the highest tenth are dropped
(`central`):

    run_s        s    wall time of runner.run(config) to t_max
    steps_per_s  1/s  accepted steps / run_s, per sample
    setup_s      s    import nematicflow + load_config + build_scenario
    peak_rss_mb  MiB  ru_maxrss of the sample process

The lines before it also give energy_residual and fail_rate.  With
`--trace 1` untraced and traced samples alternate; the metrics are the
per-layer ones of `spans.Tracer.layer_metrics` (medians over the traced
samples), `diagnostics.energy_residual` and `trace.overhead_ratio`, the
median of each traced sample's run_s over that of the untraced sample run
right after it.  The traced samples must give identical call and
transform counts.

Results and the spans of the first traced sample are written under
`.perfbench_out/` in the checkout.
"""

from __future__ import annotations

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

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# A run starts no sample that would end after --seconds, but takes at
# least these many, even where one sample outlasts --seconds.
MIN_SAMPLES = 3
MIN_SETUPS = 9
MIN_TRACED = 2
SAMPLE_TIMEOUT_S = 100

END_TO_END = {"run_s": "s", "steps_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MiB"}

# The end-to-end metric, and the workload, each layer metric should move.
MOVES = {
    "spectral.fft.calls_per_step":
        "run_s, steps_per_s on rk4_2d_256 and rk2_3d_64",
    "spectral.fft.arrays_per_step":
        "run_s, steps_per_s on rk4_2d_256 and rk2_3d_64",
    "spectral.fft.calls_per_record": "run_s on monitor_2d_64 only",
    "spectral.fft.arrays_per_record": "run_s on monitor_2d_64 only",
    "spectral.fft.s": "run_s on rk4_2d_256 and rk2_3d_64",
    "spectral.fft.share": "run_s on rk4_2d_256 and rk2_3d_64",
    "spectral.fft.bytes": "run_s and peak_rss_mb on rk2_3d_64",
    "dynamics.step.ms": "run_s, steps_per_s on rk4_2d_256 and rk2_3d_64",
    "dynamics.step.self_ms": "run_s on rk4_2d_256 and rk2_3d_64",
    "dynamics._nonlinear.ms": "run_s, steps_per_s on rk4_2d_256 and rk2_3d_64",
    "dynamics._nonlinear.calls_per_step":
        "run_s on rk4_2d_256 and rk2_3d_64",
    "dynamics.suggest_dt.ms": "run_s on monitor_2d_64 only (about 0 at fixed dt)",
    "state.normalize_director.ms": "run_s on rk4_2d_256 and rk2_3d_64 (about 2%)",
    "diagnostics.blowup_integrand.ms":
        "run_s on monitor_2d_64; almost no change on rk4_2d_256",
    "diagnostics.measure.ms":
        "run_s on monitor_2d_64; almost no change on rk4_2d_256",
    "diagnostics.share": "run_s on monitor_2d_64; almost no change on rk4_2d_256",
    "diagnostics.energy_residual": "none: a guard on the physics",
    "scenarios.build_scenario.s": "setup_s on every workload, most on rk2_3d_64",
    "config.load_config.ms": "setup_s on every workload",
    "runner.write_snapshot.ms": "run_s on monitor_2d_64 only",
    "runner.write_snapshot.bytes": "run_s on monitor_2d_64 only",
    "runner.write_timeseries.ms": "run_s on monitor_2d_64 only",
    "runner.write_timeseries.bytes": "run_s on monitor_2d_64 only",
    "runner.self_s": "run_s on monitor_2d_64 only",
    "trace.overhead_ratio": "none: the cost of tracing itself",
}

# Printed, but kept out of the result: snapshots are written on
# monitor_2d_64 only, and every workload reports the same metrics.
DETAIL_ONLY = ("runner.write_snapshot.ms", "runner.write_snapshot.bytes")


class Samples:
    """Runs sample processes one at a time and keeps their results."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.results = []
        self.errors = []
        self.spans_file = None

    def run(self, mode: str):
        """One fresh interpreter; returns its result, or None if it failed
        to run or failed a check."""
        out_dir = OUT / f"{self.name}-{self.seed}-{len(self.results)}-{mode}"
        shutil.rmtree(out_dir, ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("SIM_OUTPUT_DIR", None)
        cmd = [sys.executable, str(HERE / "sample.py"), mode, self.name,
               str(self.seed), str(out_dir), str(SRC)]
        started = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=SAMPLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        wall_s = time.perf_counter() - started
        try:
            if proc is None:
                self.errors.append(f"{mode}: timed out after {SAMPLE_TIMEOUT_S} s")
                result = {"mode": mode, "failures": ["timeout"]}
            elif proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
                self.errors.append(f"{mode}: exit {proc.returncode}: {tail[0]}")
                result = {"mode": mode, "failures": ["crashed"]}
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.errors += [f"{mode}: {f}" for f in result["failures"]]
                if mode == "trace" and self.spans_file is None:
                    self.spans_file = OUT / f"spans-{self.name}-seed{self.seed}.json"
                    shutil.copyfile(out_dir / "spans.json", self.spans_file)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        result["wall_s"] = wall_s
        self.results.append(result)
        return None if result["failures"] else result

    def ok(self, mode: str) -> list:
        return [r for r in self.results if r["mode"] == mode and not r["failures"]]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r["failures"])


def central(values) -> float:
    """Mean of the values left after dropping the lowest and the highest
    tenth.  On a shared 2-core virtual machine the same sample ran at
    speeds up to 1.5x apart, each holding for 10 to 20 s; the median of one
    run's samples jumps to whichever speed held for more than half of the
    run, while this mean moves in proportion to the time spent at each."""
    values = sorted(values)
    cut = len(values) // 10
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)


def measure_end_to_end(samples: Samples, seconds: float) -> dict:
    """Run samples until the next one, with the set-up samples still
    needed after it, would end after `seconds`."""
    deadline = time.perf_counter() + seconds
    while True:
        n_runs = len(samples.results)
        if n_runs >= MIN_SAMPLES or samples.failed:
            last = samples.results[-1]
            setups_left = max(0, MIN_SETUPS - n_runs - 1)
            setup_wall = last["wall_s"] - last.get("run_s", 0.0)
            needed = last["wall_s"] + setups_left * setup_wall
            if time.perf_counter() + needed > deadline:
                break
        samples.run("run")
    runs = samples.ok("run")
    setups = [r["setup_s"] for r in runs]
    while len(setups) < MIN_SETUPS and not samples.failed:
        result = samples.run("setup")
        if result is not None:
            setups.append(result["setup_s"])
    if not runs or not setups:
        return {}
    return {
        "run_s": [r["run_s"] for r in runs],
        "steps_per_s": [r["steps"] / r["run_s"] for r in runs],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "energy_residual": [r["energy_residual"] for r in runs],
    }


def measure_layers(samples: Samples, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    n_traced = n_plain = 0
    while True:
        if n_traced >= MIN_TRACED and n_plain >= 1 or samples.failed:
            needed = max(r["wall_s"] for r in samples.results[-2:])
            if time.perf_counter() + needed > deadline:
                break
        if n_traced <= n_plain:
            samples.run("trace")
            n_traced += 1
        else:
            samples.run("run")
            n_plain += 1
    traced, plain = samples.ok("trace"), samples.ok("run")
    # each traced sample against the untraced one run right after it
    overhead = [t["run_s"] / p["run_s"]
                for t, p in zip(samples.results, samples.results[1:])
                if t["mode"] == "trace" and p["mode"] == "run"
                and not t["failures"] and not p["failures"]]
    if len(traced) < MIN_TRACED or not overhead:
        return {}
    if any(r["counts"] != traced[0]["counts"] for r in traced[1:]):
        samples.errors.append("trace: call or transform counts differ "
                              "between two traced runs")
    values = {}
    for r in traced:
        for name, (value, unit) in r["layers"].items():
            values.setdefault((name, unit), []).append(value)
    values[("diagnostics.energy_residual", "1")] = \
        [r["energy_residual"] for r in traced + plain]
    values[("trace.overhead_ratio", "1")] = overhead
    return values


def machine() -> dict:
    """Provenance shared by every sample of this invocation."""
    info = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if "THREAD" in k or k.endswith("_WORKERS")},
        "git_commit": None,
        "cpu_model": None,
        "caches": {},
    }
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
        if proc.returncode == 0:
            info["git_commit"] = proc.stdout.strip()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return info


def _summary(values) -> str:
    if len(values) < 4:
        return f"n={len(values)}, min {min(values):.6g}, max {max(values):.6g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"n={len(values)}, min {min(values):.6g}, q1 {q1:.6g}, "
            f"q3 {q3:.6g}, max {max(values):.6g}")


def bench(name: str, seed: int, seconds: float, trace: bool):
    """Measure one workload and print the details.  Returns the result
    line, with metrics as {name: {value, unit}}, and the full record."""
    samples = Samples(name, seed)
    metrics = {}
    if trace:
        for (metric, unit), values in measure_layers(samples, seconds).items():
            value = statistics.median(values)
            if metric not in DETAIL_ONLY:
                metrics[metric] = {"value": value, "unit": unit}
            print(f"{name}  {metric} = {value:.6g} {unit}  ({_summary(values)}; "
                  f"moves {MOVES.get(metric, '?')})")
        missing = sorted({m for r in samples.ok("trace") for m in r["missing"]})
        if missing:
            print(f"{name}  missing trace targets: {', '.join(missing)}")
    else:
        values = measure_end_to_end(samples, seconds)
        for metric, unit in list(END_TO_END.items()) + [("energy_residual", "1")]:
            if metric in values:
                value = central(values[metric])
                if metric in END_TO_END:
                    metrics[metric] = {"value": value, "unit": unit}
                print(f"{name}  {metric} = {value:.6g} {unit}  "
                      f"({_summary(values[metric])})")
    attempted, failed = len(samples.results), samples.failed
    print(f"{name}  fail_rate = {failed / attempted:.6g} 1  "
          f"({failed} of {attempted} samples failed)")
    for error in samples.errors:
        print(f"{name}  FAILED {error}")
    provenance = next((r["provenance"] for r in samples.results
                       if "provenance" in r), {})
    correct = not samples.errors and bool(metrics)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=name, seed=seed, trace=int(trace),
                  provenance=provenance, samples=samples.results,
                  spans_file=samples.spans_file and str(samples.spans_file))
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nematicflow" / "__init__.py").is_file():
        print(f"error: no nematicflow package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    info = machine()
    print("machine " + json.dumps(info, sort_keys=True))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, record = bench(name, args.seed, args.seconds, bool(args.trace))
        record["machine"] = info
        provenance = record["provenance"]
        print(f"{name}  provenance " + json.dumps(provenance, sort_keys=True))
        package = provenance.get("nematicflow_file")
        if package is not None and SRC.resolve() not in Path(package).parents:
            print(f"error: the package was not imported from {SRC}", file=sys.stderr)
            return 2
        out = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, value in result["metrics"].items():
            combined["metrics"][prefix + metric] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
