"""Compare two checkouts of the package: same outputs, and code lines.

    python tools/parity.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts, for instance the working
tree and a copy of its parent commit (`git worktree add ../parent HEAD~1`
or `git archive HEAD~1 | tar -x -C ../parent`).  Each config of `CONFIGS`
runs as `python -m nematicflow.cli run` in a fresh interpreter per
checkout, importing from that checkout's `src/`, and the tool compares
`timeseries.csv`, every snapshot, stdout and the exit status byte for
byte.  Each verify suite of `SUITES` runs the same way, as
`python -m nematicflow.cli verify --suite NAME`, and the tool compares its
stdout and exit status byte for byte.  Where a CSV differs it prints the
largest relative change of each column, |b - a| / max(|a|, |b|) over the
rows, and its largest absolute change |b - a|, since a column that moves
from exact 0 to roundoff reads as a relative change of 1.  The bench
workloads' config text comes from `perfbench/workloads.py` next to this
tool.

It also counts the code lines of each checkout's `src/nematicflow`, in all
and per module: the non-blank lines that are neither comments nor
docstrings (a module's, class's or function's leading string).

And it measures tracemalloc peaks on the three bench workloads (`PEAKED`),
each in a fresh interpreter per checkout, after the imports and the config
are loaded (`peaks`):
- the whole run's peak is the peak during `runner.run(config)` above the
  memory traced just before the call;
- a phase's peak is the largest, over the phase's calls, of the peak during
  the call above the memory traced at its start.  The phases (`PHASES`) are
  wrapped where the runner looks them up, as perfbench wraps them.  Each
  call resets the peak, so the phases run in a second interpreter of their
  own and the whole run's peak is not lost.
The peaks are information only: they do not change the exit status.  A
run that fails (a checkout whose package does not import) gives null
peaks, printed as "n/a", and the report is still printed.

It prints a short table, one row per config and per verify suite, and
then, as its last line, one JSON object.  The exit status is 0 when every
config and every suite is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import csv
import importlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tokenize
import tracemalloc
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

# a power-of-two step reaches t_max exactly after a whole number of steps
_DT = 2.0 ** -10

# the phases whose tracemalloc peaks are measured, by the module whose
# global the runner looks them up in
PHASES = {"step": "runner", "suggest_dt": "runner",
          "blowup_integrand": "diagnostics", "measure": "diagnostics"}


def _workloads():
    """perfbench's workload module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "_parity_workloads", _ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench(name):
    return lambda output_dir: _workloads().config_text(name, 7, output_dir)


def _config(**values):
    def text(output_dir):
        lines = [f"{key} = {value}" for key, value in values.items()]
        return "\n".join(lines + [f"output_dir = {output_dir}"]) + "\n"
    return text


# name -> config text for an output directory; each runs a few steps
CONFIGS = {
    "rk4_2d_256": _bench("rk4_2d_256"),
    "rk2_3d_64": _bench("rk2_3d_64"),
    "monitor_2d_64": _bench("monitor_2d_64"),
    "winding_2d_32": _config(
        dim=2, res=32, scenario="winding_director", **{"scenario.k": 2},
        dt=repr(_DT), t_max=repr(4 * _DT), record_every=1),
    "taylor_green_3d_16": _config(
        dim=3, res=16, scenario="taylor_green", dt=repr(_DT),
        t_max=repr(4 * _DT), integrator="IF-RK4", record_every=1,
        oversample_linf="true"),
    "random_smooth_3d_16": _config(
        dim=3, res=16, scenario="random_smooth", nu=0.3, dt=repr(_DT),
        t_max=repr(4 * _DT), integrator="IF-RK2", record_every=1,
        snapshot_every=1),
}


# the configs whose tracemalloc peaks are measured: the bench workloads
PEAKED = ("rk4_2d_256", "rk2_3d_64", "monitor_2d_64")

# the `simulate verify` suites; on a 2-core host energy takes about 40 s,
# dynamics 6 s and the other two under 1 s
SUITES = ("spectral", "dynamics", "energy", "monitor")


def _env(checkout) -> dict:
    """This environment, importing the package from `checkout`'s src/."""
    return dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))


def _cli(checkout, *args) -> subprocess.CompletedProcess:
    """`python -m nematicflow.cli ARGS` with the package of `checkout`."""
    return subprocess.run([sys.executable, "-m", "nematicflow.cli", *args],
                          env=_env(checkout), capture_output=True,
                          check=False)


def run_config(checkout, name, output_dir) -> dict:
    """Runs config `name` with the package of `checkout` into `output_dir`:
    {"status", "stdout", "files"}, the files by name, as bytes."""
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True)
    path = output_dir / "run.cfg"
    path.write_text(CONFIGS[name](output_dir), encoding="utf-8")
    done = _cli(checkout, "run", "--config", str(path))
    files = {p.name: p.read_bytes() for p in sorted(output_dir.iterdir())
             if p != path}
    return {"status": done.returncode, "stdout": done.stdout,
            "files": files}


def run_suite(checkout, suite) -> dict:
    """Runs verify suite `suite` with the package of `checkout`: {"status",
    "stdout", "files"}, no files."""
    done = _cli(checkout, "verify", "--suite", suite)
    return {"status": done.returncode, "stdout": done.stdout, "files": {}}


def _absolute(a: str, b: str):
    """|b - a| of two CSV fields: 0 for equal text or equal numbers ("0"
    and "-0.0"), None for fields that are not two finite numbers."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y:
        return 0.0
    return abs(y - x) if math.isfinite(x) and math.isfinite(y) else None


def _relative(a: str, b: str):
    """|b - a| / max(|a|, |b|) of two CSV fields, 0 and None as in
    `_absolute`."""
    change = _absolute(a, b)
    if not change:
        return change
    return change / max(abs(float(a)), abs(float(b)))


def csv_changes(a: bytes, b: bytes, change=_relative) -> dict:
    """The largest change of each column of two CSVs with one header row,
    relative by default or by the field rule `change` (None where a field
    is not comparable), or {"<shape>": None} when their headers or row
    counts differ."""
    rows_a, rows_b = (list(csv.reader(io.StringIO(text.decode("utf-8"))))
                      for text in (a, b))
    if not rows_a or rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b):
        return {"<shape>": None}
    changes = dict.fromkeys(rows_a[0], 0.0)
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for column, x, y in zip(rows_a[0], row_a, row_b):
            new, old = change(x, y), changes[column]
            changes[column] = None if None in (new, old) else max(new, old)
    return changes


def compare_outputs(parent: dict, change: dict) -> dict:
    """What differs between two `run_config` results: a list of the parts
    that differ ("status", "stdout", file names), and per differing CSV
    the largest relative and absolute change of each column."""
    differ = [part for part in ("status", "stdout")
              if parent[part] != change[part]]
    names = sorted(set(parent["files"]) | set(change["files"]))
    differ += [name for name in names
               if parent["files"].get(name) != change["files"].get(name)]
    csv_diffs = {}
    for name in differ:
        if name.endswith(".csv"):
            texts = (parent["files"].get(name, b""),
                     change["files"].get(name, b""))
            relative, absolute = (csv_changes(*texts, rule)
                                  for rule in (_relative, _absolute))
            csv_diffs[name] = {column: {"relative": relative[column],
                                        "absolute": absolute[column]}
                               for column in relative}
    return {"identical": not differ, "differ": differ, "csv": csv_diffs,
            "files": len(names)}


def _compared(runs: list) -> dict:
    """`compare_outputs` of the parent's and the change's run, with both
    exit statuses."""
    return {**compare_outputs(*runs),
            "status": [run["status"] for run in runs]}


def compare(parent, change, names=None) -> dict:
    """Runs each config of `names` (all of `CONFIGS` by default) with both
    checkouts and compares them (`compare_outputs`), by name."""
    names = list(CONFIGS) if names is None else names
    with tempfile.TemporaryDirectory() as tmp:
        results = {}
        for name in names:
            results[name] = _compared([
                run_config(root, name, Path(tmp) / side / name)
                for side, root in (("parent", parent), ("change", change))])
    return results


def compare_suites(parent, change, suites=SUITES) -> dict:
    """Runs each verify suite of `suites` with both checkouts and compares
    their stdout and exit status, by "verify NAME"."""
    return {f"verify {suite}": _compared([run_suite(root, suite)
                                          for root in (parent, change)])
            for suite in suites}


def traced_peaks(name, phases: bool) -> dict:
    """The tracemalloc peaks, in bytes, of a run of config `name` in this
    interpreter with the package it imports: {"run": peak} or, with
    `phases`, the peak of each phase of `PHASES` (0 for a phase that
    allocates nothing)."""
    # numpy loads these on first use; imported here, their modules stay out
    # of the run's peak
    import numpy.fft
    import numpy.random

    from nematicflow import runner
    from nematicflow.config import load_config

    found = dict.fromkeys(PHASES, 0)

    def traced(phase, fn):
        def wrapper(*args, **kwargs):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                found[phase] = max(found[phase],
                                   tracemalloc.get_traced_memory()[1] - start)
        return wrapper

    if phases:
        for phase, module in PHASES.items():
            module = importlib.import_module(f"nematicflow.{module}")
            setattr(module, phase, traced(phase, getattr(module, phase)))
    with tempfile.TemporaryDirectory() as tmp:
        config = load_config(CONFIGS[name](tmp))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            runner.run(config)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    return found if phases else {"run": peak}


# runs `traced_peaks` of this file in a fresh interpreter: argv is the
# file, the config name and "phases" or "run"
_PEAKS_MAIN = ("import json, runpy, sys; "
               "peaks = runpy.run_path(sys.argv[1])['traced_peaks']; "
               "name, mode = sys.argv[2:]; "
               "print(json.dumps(peaks(name, mode == 'phases')))")


def peaks(checkout, name) -> dict:
    """The tracemalloc peaks of config `name` with the package of
    `checkout`, in MB to 2 decimals: the whole run's ("run") and each
    phase's, from two fresh interpreters (`traced_peaks`); None for each
    peak of an interpreter that fails."""
    found = {}
    for mode, keys in (("run", ("run",)), ("phases", PHASES)):
        done = subprocess.run(
            [sys.executable, "-c", _PEAKS_MAIN, __file__, name, mode],
            env=_env(checkout), capture_output=True, check=False, text=True)
        found.update(json.loads(done.stdout.splitlines()[-1])
                     if done.returncode == 0 else dict.fromkeys(keys))
    return {key: None if value is None else round(value / 1e6, 2)
            for key, value in found.items()}


def _mb(value) -> str:
    return "n/a" if value is None else f"{value:.2f}"


_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The non-blank lines of `source` that are neither comments nor
    docstrings; a multi-line expression counts each of its lines."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                        first.value.value, str):
                lines.difference_update(
                    range(first.lineno, first.end_lineno + 1))
    return len(lines)


def module_lines(checkout) -> dict:
    """`code_lines` of each module of `checkout`'s package, by file name."""
    package = Path(checkout) / "src" / "nematicflow"
    return {path.name: code_lines(path.read_text("utf-8"))
            for path in sorted(package.glob("*.py"))}


def _table(results: dict, lines: tuple, peak: dict) -> str:
    out = [f"{'config':<22} {'result':<10} {'exit':<6} differs"]
    for name, result in results.items():
        verdict = "identical" if result["identical"] else "DIFFERENT"
        status = "/".join(str(code) for code in result["status"])
        out.append(f"{name:<22} {verdict:<10} {status:<6} "
                   f"{', '.join(result['differ']) or '-'}")
        for csv_name, changes in result["csv"].items():
            for column, change in changes.items():
                if change["absolute"] != 0.0:
                    value = "not comparable" if change["absolute"] is None \
                        else (f"{change['relative']:.3g} "
                              f"(abs {change['absolute']:.3g})")
                    out.append(f"    {csv_name} {column}: {value}")
    out.append(f"code lines: {lines[0]} -> {lines[1]}")
    out.append(f"{'tracemalloc peak, MB':<22} "
               + " ".join(f"{name:<16}" for name in PEAKED).rstrip())
    for key in ("run", *PHASES):
        cells = (f"{_mb(peak['parent'][name][key])} -> "
                 f"{_mb(peak['change'][name][key])}" for name in PEAKED)
        out.append(f"{key:<22} " + " ".join(f"{c:<16}" for c in cells)
                   .rstrip())
    return "\n".join(out)


def _module_table(by_module: dict) -> str:
    """The code lines of each module, parent -> change, "-" for a module
    that one side does not have."""
    out = ["code lines by module:"]
    for name in sorted(set(by_module["parent"]) | set(by_module["change"])):
        cells = (str(by_module[side].get(name, "-"))
                 for side in ("parent", "change"))
        out.append(f"    {name:<18} {' -> '.join(cells)}")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    results = compare(args.parent, args.change)
    suites = compare_suites(args.parent, args.change)
    by_module = {side: module_lines(root)
                 for side, root in (("parent", args.parent),
                                    ("change", args.change))}
    lines = tuple(sum(found.values()) for found in by_module.values())
    peak = {side: {name: peaks(root, name) for name in PEAKED}
            for side, root in (("parent", args.parent),
                               ("change", args.change))}
    print(_table({**results, **suites}, lines, peak))
    print(_module_table(by_module))
    identical = all(result["identical"]
                    for result in (*results.values(), *suites.values()))
    print(json.dumps({"identical": identical, "configs": results,
                      "suites": suites,
                      "code_lines": {"parent": lines[0],
                                     "change": lines[1]},
                      "code_lines_by_module": by_module,
                      "peaks_mb": peak}))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
