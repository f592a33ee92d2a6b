"""Regenerate `reference.json`: the final diagnostics record of every
workload at the default seed, against which `sample.py` checks each run.

    python3 perfbench/make_reference.py

Run it only when the physics is meant to change; a speed-up must pass
against the stored reference as it is.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from nematicflow import config, runner  # noqa: E402


def main() -> int:
    out_dir = ROOT / ".perfbench_out" / "reference"
    reference = {}
    for name in workloads.WORKLOADS:
        text = workloads.config_text(name, workloads.DEFAULT_SEED, str(out_dir))
        report = runner.run(config.load_config(text))
        reference[name] = dataclasses.asdict(report.final_record)
        shutil.rmtree(out_dir)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
