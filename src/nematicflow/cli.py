"""Command-line interface.

    simulate run --config PATH [--set key=value]...
    simulate verify --suite {spectral,dynamics,energy,monitor}

Exit codes: 0 on success, 1 when a run halts by overflow or director
degeneracy (or a verify check fails), 2 on configuration errors, a grid
too large for memory among them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config
from .errors import ConfigError
from .runner import HALT_DEGENERATE, HALT_OVERFLOW, run
from .verify import SUITES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Pseudo-spectral nematic liquid crystal flow solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a simulation from a config file")
    run_p.add_argument("--config", required=True, type=Path,
                       help="path to a key = value config file")
    run_p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config key (applied after the file)")

    ver_p = sub.add_parser("verify", help="run a built-in verification suite")
    ver_p.add_argument("--suite", required=True, choices=sorted(SUITES),
                       help="which verification suite to run")
    return parser


def _cmd_run(args) -> int:
    try:
        text = args.config.read_text(encoding="utf-8-sig")
    except OSError as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        config = load_config(text, overrides=args.overrides)
        report = run(config)
    except (ConfigError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    rec = report.final_record
    print(f"halt_reason = {report.halt_reason}")
    print(f"final_time = {report.final_time:.9g}")
    print(f"monitor_accum = {rec.monitor_accum:.9g}")
    print(f"energy = {rec.energy:.9g}")
    print(f"energy_residual = {report.energy_residual:.3e}")
    if report.gronwall_c is None:
        print("gronwall_c = undefined")
    else:
        print(f"gronwall_c = {report.gronwall_c:.9g}")
    if report.halt_reason in (HALT_OVERFLOW, HALT_DEGENERATE):
        return 1
    return 0


def _cmd_verify(args) -> int:
    results = SUITES[args.suite]()
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        failed += not ok
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
