"""Compare two checkouts of the package: same outputs, and code lines.

    python tools/parity.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts, for instance the working
tree and a copy of its parent commit (`git worktree add ../parent HEAD~1`
or `git archive HEAD~1 | tar -x -C ../parent`).  Each config of `CONFIGS`
runs as `python -m nematicflow.cli run` in a fresh interpreter per
checkout, importing from that checkout's `src/`, and the tool compares
`timeseries.csv`, every snapshot, stdout and the exit status byte for
byte.  Where a CSV differs it prints the largest relative change of each
column, |b - a| / max(|a|, |b|) over the rows.  The bench workloads' config
text comes from `perfbench/workloads.py` next to this tool.

It also counts the code lines of each checkout's `src/nematicflow`: the
non-blank lines that are neither comments nor docstrings (a module's,
class's or function's leading string).

It prints a short table and then, as its last line, one JSON object.  The
exit status is 0 when every config is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

# a power-of-two step reaches t_max exactly after a whole number of steps
_DT = 2.0 ** -10


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


def run_config(checkout, name, output_dir) -> dict:
    """Runs config `name` with the package of `checkout` into `output_dir`:
    {"status", "stdout", "files"}, the files by name, as bytes."""
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True)
    path = output_dir / "run.cfg"
    path.write_text(CONFIGS[name](output_dir), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "nematicflow.cli", "run", "--config",
         str(path)], env=env, capture_output=True, check=False)
    files = {p.name: p.read_bytes() for p in sorted(output_dir.iterdir())
             if p != path}
    return {"status": done.returncode, "stdout": done.stdout,
            "files": files}


def _relative(a: str, b: str):
    """|b - a| / max(|a|, |b|) of two CSV fields: 0 for equal text or equal
    numbers ("0" and "-0.0"), None for fields that are not two finite
    numbers."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y:
        return 0.0
    return abs(y - x) / max(abs(x), abs(y)) if math.isfinite(x) and \
        math.isfinite(y) else None


def csv_changes(a: bytes, b: bytes) -> dict:
    """The largest relative change of each column of two CSVs with one
    header row (`_relative`, None where a field is not comparable), or
    {"<shape>": None} when their headers or row counts differ."""
    rows_a, rows_b = (list(csv.reader(io.StringIO(text.decode("utf-8"))))
                      for text in (a, b))
    if not rows_a or rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b):
        return {"<shape>": None}
    changes = dict.fromkeys(rows_a[0], 0.0)
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for column, x, y in zip(rows_a[0], row_a, row_b):
            change, old = _relative(x, y), changes[column]
            changes[column] = None if None in (change, old) else \
                max(change, old)
    return changes


def compare_outputs(parent: dict, change: dict) -> dict:
    """What differs between two `run_config` results: a list of the parts
    that differ ("status", "stdout", file names), and per differing CSV
    the largest relative change of each column."""
    differ = [part for part in ("status", "stdout")
              if parent[part] != change[part]]
    names = sorted(set(parent["files"]) | set(change["files"]))
    differ += [name for name in names
               if parent["files"].get(name) != change["files"].get(name)]
    csv_diffs = {name: csv_changes(parent["files"].get(name, b""),
                                   change["files"].get(name, b""))
                 for name in differ if name.endswith(".csv")}
    return {"identical": not differ, "differ": differ, "csv": csv_diffs,
            "files": len(names)}


def compare(parent, change, names=None) -> dict:
    """Runs each config of `names` (all of `CONFIGS` by default) with both
    checkouts and compares them (`compare_outputs`), by name."""
    names = list(CONFIGS) if names is None else names
    with tempfile.TemporaryDirectory() as tmp:
        results = {}
        for name in names:
            runs = [run_config(root, name, Path(tmp) / side / name)
                    for side, root in (("parent", parent),
                                       ("change", change))]
            results[name] = compare_outputs(*runs)
            results[name]["status"] = [run["status"] for run in runs]
    return results


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


def package_lines(checkout) -> int:
    """`code_lines` summed over the modules of `checkout`'s package."""
    package = Path(checkout) / "src" / "nematicflow"
    return sum(code_lines(path.read_text("utf-8"))
               for path in sorted(package.glob("*.py")))


def _table(results: dict, lines: tuple) -> str:
    out = [f"{'config':<22} {'result':<10} {'exit':<6} differs"]
    for name, result in results.items():
        verdict = "identical" if result["identical"] else "DIFFERENT"
        status = "/".join(str(code) for code in result["status"])
        out.append(f"{name:<22} {verdict:<10} {status:<6} "
                   f"{', '.join(result['differ']) or '-'}")
        for csv_name, changes in result["csv"].items():
            for column, change in changes.items():
                if change != 0.0:
                    value = "not comparable" if change is None else \
                        f"{change:.3g}"
                    out.append(f"    {csv_name} {column}: {value}")
    out.append(f"code lines: {lines[0]} -> {lines[1]}")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    results = compare(args.parent, args.change)
    lines = (package_lines(args.parent), package_lines(args.change))
    print(_table(results, lines))
    identical = all(result["identical"] for result in results.values())
    print(json.dumps({"identical": identical, "configs": results,
                      "code_lines": {"parent": lines[0],
                                     "change": lines[1]}}))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
