"""Command line entry points.

Three commands: ``run`` executes one scenario from a YAML config file
and writes its CSV artifacts, ``verify-all`` runs the ten numbered
acceptance checks, ``list-scenarios`` prints the registry with each
scenario's description, its parameters and their defaults.  Exit codes:
0 on success, 1 when a scenario check or acceptance criterion fails,
2 on a configuration problem (for ``verify-all``, a negative ``--seed``
or an ``--only`` that names no criterion).  Setting the environment
variable named by ``PDRWM_OUTPUT_DIR`` redirects all scenario output.
A reader that closes stdout early ends the command there, with exit
code 0 and no traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, ParameterError, PDRWMError
from .experiments import OUTPUT_DIR_ENV, list_scenarios, load_config, run_scenario
from .experiments import scenario_parameters
from .verify import verify_all


def _config_error(exc: PDRWMError) -> int:
    key = f" (key: {exc.key})" if getattr(exc, "key", None) else ""
    print(f"config error{key}: {exc}", file=sys.stderr)
    return 2


def _cmd_run(config_path: str) -> int:
    try:
        config = load_config(config_path)
        result = run_scenario(config)
    except (ConfigError, ParameterError) as exc:
        # a ParameterError from a scenario body can only come from a
        # config value, so it is a config error too
        return _config_error(exc)
    except PDRWMError as exc:
        print(f"scenario {config.scenario} failed: {exc}", file=sys.stderr)
        return 1

    print(f"scenario {result.scenario} (config={result.digest} seed={result.seed})")
    for path in result.files:
        print(f"  wrote {path}")
    for check in result.checks:
        mark = "PASS" if check.passed else "FAIL"
        print(f"  check {check.name}: {mark} ({check.detail})")
    return 0 if result.passed else 1


def _cmd_verify_all(seed: int, only: list[int] | None) -> int:
    try:
        results = verify_all(seed=seed, indices=only)
    except ConfigError as exc:
        return _config_error(exc)
    failed = [r.index for r in results if not r.passed]
    total = sum(r.elapsed for r in results)
    print(
        f"{len(results) - len(failed)}/{len(results)} criteria passed "
        f"in {total:.1f}s"
        + (f"; failing: {', '.join(str(i) for i in failed)}" if failed else "")
    )
    return 1 if failed else 0


def _cmd_list_scenarios() -> int:
    for name, desc in list_scenarios():
        first, *rest = desc.splitlines() or [""]
        params = scenario_parameters(name)
        print(f"{name:<14} {first}")
        for line in rest + ([""] + params if params else []):
            print(f"{'':<15}{line}".rstrip())
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdrwm",
        description="Position-dependent random walk Metropolis: scenarios and checks.",
        epilog=f"Set {OUTPUT_DIR_ENV} to redirect scenario output directories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario from a YAML config file")
    p_run.add_argument("config", help="path to the scenario config")

    p_verify = sub.add_parser("verify-all", help="run the ten acceptance checks")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for every check")
    p_verify.add_argument(
        "--only", type=int, action="append", metavar="N",
        help="restrict to criterion N (repeatable)",
    )

    sub.add_parser(
        "list-scenarios",
        help="list registered scenarios with what each shows and its parameters",
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            code = _cmd_run(args.config)
        elif args.command == "verify-all":
            code = _cmd_verify_all(args.seed, args.only)
        else:
            code = _cmd_list_scenarios()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`pdrwm list-scenarios | head`): point
        # stdout at devnull, so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return code


if __name__ == "__main__":
    raise SystemExit(main())
