"""One benchmark sample, run in a fresh interpreter by `run.py`.

    python3 perfbench/sample.py MODE WORKLOAD SEED OUT_DIR SRC_DIR

MODE is `setup` (time set-up only), `run` (set-up, then one timed
`runner.run` with every output check) or `trace` (as `run`, with spans and
transform counters installed).  Prints one JSON object as its last line.

Nothing outside the standard library is imported before `import
nematicflow` is timed, so that set-up time includes the package's own
imports (numpy, and scipy if a backend pulls it in).
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent

# The pinned timeseries.csv header (acceptance criterion 10).
CSV_HEADER = ("t,u_l2,grad_d_l2,omega_l2,omega_linf,grad_d_linf,hess_d_l2,"
              "energy,dissipation,monitor_integrand,monitor_accum,"
              "sphere_norm_err,sphere_identity_err")

# Unit length of the director after the per-step renormalization: a few
# ulps of |d| = 1.
ROUNDOFF = 1e-12

# The energy identity must hold to this relative defect on every workload.
ENERGY_RESIDUAL_MAX = 1e-2

# Final record against the stored reference at the default seed.  On the
# default seed, computing the same transforms with scipy.fft (2 workers)
# moved the final record by at most 6e-14 relative; swapping IF-RK4 and
# IF-RK2 moved it by 1.2e-8 to 3e-5, and raising nu by 1e-6 relative by
# 2e-8 to 2e-6.  The tolerance sits between the two.
REFERENCE_RTOL = 1e-10

# Records that are roundoff by construction are checked against ROUNDOFF
# or not at all, never against the reference.
ROUNDOFF_FIELDS = ("sphere_norm_err", "sphere_identity_err")

def main(argv) -> int:
    mode, name, seed, out_dir, src = argv[1:6]
    seed = int(seed)
    out_dir = Path(out_dir)
    workload = workloads.WORKLOADS[name]

    tracer = None
    if mode == "trace":
        import spans
        tracer = spans.Tracer()
        tracer.install_fft_counters()

    t0 = time.perf_counter()
    import nematicflow
    from nematicflow import config, runner, scenarios
    missing = tracer.install_layer_wrappers() if tracer else []
    text = workloads.config_text(name, seed, str(out_dir))
    cfg = config.load_config(text)
    state = scenarios.build_scenario(cfg.grid(), cfg.scenario)
    setup_s = time.perf_counter() - t0
    del state

    failures = []
    package_file = Path(nematicflow.__file__).resolve()
    if Path(src).resolve() not in package_file.parents:
        failures.append(f"nematicflow imported from {package_file}, not {src}")
    if cfg.scenario.parameters.get("seed") != seed:
        failures.append("the workload seed did not reach scenario.seed")

    result = {
        "mode": mode, "workload": name, "seed": seed, "setup_s": setup_s,
        "provenance": {
            "nematicflow_file": str(package_file),
            "numpy": _version("numpy"),
            "scipy": _version("scipy"),
        },
    }
    if mode != "setup":
        t1 = time.perf_counter()
        report = runner.run(cfg)
        run_s = time.perf_counter() - t1
        steps = workload["steps"] or len(report.history) - 1
        failures += check_outputs(name, seed, cfg, report, steps, out_dir, runner)
        result.update(run_s=run_s, steps=steps,
                      energy_residual=report.energy_residual)
        if tracer is not None:
            failures += check_firing(tracer, cfg, report, steps, seed)
            result.update(layers=tracer.layer_metrics(),
                          counts=tracer.counts(), missing=missing)
            index = {id(s): i for i, s in enumerate(tracer.spans)}
            with open(out_dir / "spans.json", "w", encoding="utf-8") as fh:
                json.dump([[s.name, s.start, s.end,
                            index.get(id(s.parent)), s.extra]
                           for s in tracer.spans], fh)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["failures"] = failures
    print(json.dumps(result))
    return 0


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def check_outputs(name, seed, cfg, report, steps, out_dir, runner) -> list:
    """Every check behind fail_rate; returns the failed ones."""
    import numpy as np

    failures = []
    if report.halt_reason != "t_max_reached":
        failures.append(f"halt_reason {report.halt_reason}")
    if report.final_time != cfg.t_max:
        failures.append(f"final_time {report.final_time!r} != t_max {cfg.t_max!r}")

    csv = out_dir / "timeseries.csv"
    with open(csv, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    if header != CSV_HEADER:
        failures.append(f"CSV header {header!r}")
    elif runner.read_timeseries(csv) != list(report.history):
        failures.append("timeseries.csv does not read back as the history")

    for rec in report.history:
        if not all(math.isfinite(v) for v in rec.as_tuple()):
            failures.append(f"non-finite record at t = {rec.t}")
            break
        if rec.sphere_norm_err > ROUNDOFF:
            failures.append(f"sphere_norm_err {rec.sphere_norm_err} at t = {rec.t}")
            break
    if not report.energy_residual <= ENERGY_RESIDUAL_MAX:
        failures.append(f"energy_residual {report.energy_residual}")

    every = cfg.snapshot_every
    expected = {f"snapshot_{i:08d}.bin" for i in range(every, steps + 1, every)} \
        if every else set()
    found = sorted(out_dir.glob("snapshot_*.bin"))
    if {p.name for p in found} != expected:
        failures.append(f"{len(found)} snapshots, expected {len(expected)}")
    shape = cfg.grid().shape
    for path in found:
        snap = runner.read_snapshot(path)
        if snap.u.phys.shape != (cfg.dim,) + shape or \
                snap.d.phys.shape != (3,) + shape:
            failures.append(f"{path.name}: wrong shape")
            break
        norm = np.sqrt(np.sum(snap.d.phys ** 2, axis=0))
        if float(np.max(np.abs(norm - 1.0))) > ROUNDOFF:
            failures.append(f"{path.name}: director not unit length")
            break

    if seed == workloads.DEFAULT_SEED:
        with open(HERE / "reference.json", encoding="utf-8") as fh:
            reference = json.load(fh)[name]
        final = report.final_record
        for field, ref in reference.items():
            if field in ROUNDOFF_FIELDS:
                continue
            value = getattr(final, field)
            if not abs(value - ref) <= REFERENCE_RTOL * abs(ref):
                failures.append(f"final {field} {value!r}, reference {ref!r}")
    return failures


def check_firing(tracer, cfg, report, steps, seed) -> list:
    """Self-check of the traced run: every wrapper fires as often as the
    config says it must, and nowhere else."""
    import spans

    calls, suggest_dt_ffts = {}, 0
    for key, (n, _arrays) in tracer.counts().items():
        top, phase, span_name = key.split("/")
        if top == spans.ROOT_SPAN:
            calls[span_name] = calls.get(span_name, 0) + n
            if span_name == spans.FFT_SPAN and phase == "dynamics.suggest_dt":
                suggest_dt_ffts += n
    # Exact where the benchmark's own arithmetic depends on it (steps_per_s
    # divides by the step count); otherwise only whether a wrapper fires,
    # so that a refactor may change how often a layer is called.
    exact = {"runner.run": 1, "dynamics.step": steps}
    fires = {name: True for name in (
        "scenarios.build_scenario", "dynamics.suggest_dt",
        "state.normalize_director", "dynamics._nonlinear",
        "diagnostics.blowup_integrand", "diagnostics.measure",
        "runner.write_timeseries")}
    fires["runner.write_snapshot"] = bool(cfg.snapshot_every)
    failures = []
    for span_name, count in exact.items():
        got = calls.get(span_name, 0)
        if span_name not in tracer.absent and got != count:
            failures.append(f"{span_name} fired {got} times, expected {count}")
    for span_name, should in fires.items():
        got = calls.get(span_name, 0)
        if span_name not in tracer.absent and bool(got) != should:
            failures.append(f"{span_name} fired {got} times on this workload")
    adaptive = cfg.dt is None
    if "dynamics.suggest_dt" not in tracer.absent and \
            bool(suggest_dt_ffts) != adaptive:
        failures.append("suggest_dt transforms where dt is fixed, or none "
                        "where it is adaptive")
    seeds = {(s.extra or {}).get("seed") for s in tracer.spans
             if s.name == "scenarios.build_scenario"}
    if seeds != {seed}:
        failures.append(f"build_scenario saw seeds {seeds}, expected {seed}")
    return failures


if __name__ == "__main__":
    sys.exit(main(sys.argv))
