"""Command line entry point.

Subcommands: `run NAME` executes one experiment, `list` prints the
catalog, `verify-all` runs every experiment.  Exit codes: 0 all
assertions pass, 1 an assertion fails, 2 configuration or usage error,
or a config the program cannot run (a ValueError from the run).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import REGISTRY, ConfigError, run_experiment

__all__ = ["main"]


def _parse_kv(text: str) -> tuple:
    if "=" not in text:
        raise ConfigError(f"expected key=value, got {text!r}")
    key, _, value = text.partition("=")
    key = key.strip()
    value = value.strip()
    if not key:
        raise ConfigError(f"empty key in {text!r}")
    return key, value


def read_config_file(path: str | Path) -> dict:
    """Flat key=value lines; blank lines and #-comments are skipped."""
    overrides = {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} does not exist")
    for lineno, line in enumerate(p.read_text().splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            key, value = _parse_kv(stripped)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        overrides[key] = value
    return overrides


def _print_report(report):
    status = "PASS" if report.passed else "FAIL"
    print(f"[{status}] {report.name} ({report.wall_time:.2f}s)")
    for a in report.assertions:
        mark = "pass" if a.passed else "FAIL"
        print(f"    {mark}: {a.name}")
        if not a.passed:
            print(f"          measured {a.measured!r}, expected {a.expected!r}"
                  + (f" (tol {a.tolerance!r})" if a.tolerance is not None else ""))
    for art in report.artifacts:
        print(f"    artifact: {art}")


def cmd_run(args) -> int:
    overrides = {}
    if args.config:
        overrides.update(read_config_file(args.config))
    for item in args.set or []:
        key, value = _parse_kv(item)
        overrides[key] = value
    report = run_experiment(args.name, overrides, args.out)
    _print_report(report)
    return 0 if report.passed else 1


def cmd_list(_args) -> int:
    width = max(len(n) for n in REGISTRY)
    for name in sorted(REGISTRY):
        spec = REGISTRY[name]
        print(f"{name:<{width}}  [{spec.module}]  {spec.description}")
    return 0


def cmd_verify_all(args) -> int:
    failures = 0
    base = Path(args.out) if args.out else Path("chernlab_out")
    for name in sorted(REGISTRY):
        report = run_experiment(name, {}, base / name)
        _print_report(report)
        if not report.passed:
            failures += 1
    print(f"\n{len(REGISTRY) - failures}/{len(REGISTRY)} experiments passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chernlab",
        description="Numerical verification laboratory for singular Chern "
                    "characters on Holder algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("name", help="experiment name (see `chernlab list`)")
    run_p.add_argument("--config", help="flat key=value config file")
    run_p.add_argument("--out", help="artifact output directory")
    run_p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a single config key (repeatable)")
    run_p.set_defaults(func=cmd_run)

    list_p = sub.add_parser("list", help="print the experiment catalog")
    list_p.set_defaults(func=cmd_list)

    all_p = sub.add_parser("verify-all", help="run every experiment")
    all_p.add_argument("--out", help="base artifact directory")
    all_p.set_defaults(func=cmd_verify_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError) as exc:
        # a config the program cannot run, such as an oversized window
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
