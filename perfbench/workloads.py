"""Workload definitions shared by `run.py` and `sample.py`.  Standard
library only: the sample process imports this module before it times
`import nematicflow`.

Every workload uses the `random_smooth` scenario; the workload seed is the
only thing that varies between runs of one workload and it reaches the
program as `scenario.seed` in the generated config text.  Why each
workload was chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

DEFAULT_SEED = 7

# The fixed-dt workloads use a power-of-two step, so that t_max is reached
# exactly after a whole number of steps.
_DT = 2.0 ** -10

# Larger than every step count below: only the records at the two ends.
_ENDS_ONLY = 1000

WORKLOADS = {
    "rk4_2d_256": {
        "steps": 4,
        "config": {
            "dim": 2, "res": 256, "scenario": "random_smooth",
            "dt": _DT, "t_max": 4 * _DT, "integrator": "IF-RK4",
            "record_every": _ENDS_ONLY,
        },
    },
    "rk2_3d_64": {
        "steps": 2,
        "config": {
            "dim": 3, "res": 64, "scenario": "random_smooth",
            "dt": _DT, "t_max": 2 * _DT, "integrator": "IF-RK2",
            "record_every": _ENDS_ONLY,
        },
    },
    "monitor_2d_64": {
        # adaptive dt: the step count is read from the history, which has
        # one record per step plus the initial one.  suggest_dt floors the
        # transport speed at 1, so with amplitude 1 every seed takes the
        # same 46 steps (seeds 1-10 at amplitude 2 took 40 to 50), and
        # run_s varies with the program, not with the seed.
        "steps": None,
        "config": {
            "dim": 2, "res": 64, "scenario": "random_smooth",
            "scenario.amplitude": 1.0, "cfl_factor": 0.1, "t_max": 0.45,
            "integrator": "IF-RK4", "record_every": 1,
            "oversample_linf": True, "snapshot_every": 10,
        },
    },
}


def config_text(name: str, seed: int, output_dir: str) -> str:
    """The `key = value` config the program receives for one run."""
    values = dict(WORKLOADS[name]["config"])
    values["scenario.seed"] = int(seed)
    values["output_dir"] = output_dir
    lines = []
    for key, value in values.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
