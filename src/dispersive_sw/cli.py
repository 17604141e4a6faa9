"""Command line entry point.

    dispersive-sw run --scenario soliton --model bbm_bbm --order 4 ...
    dispersive-sw run --config config.yaml --check

Exit codes: 0 success, 1 configuration error (a malformed command line,
such as an unknown flag or a value argparse cannot parse, a config file
that cannot be read or an output directory that cannot be written
included; an output path on a file is refused before the run), 2
runtime/solver failure (a failed factorization included), 3 threshold
failure in --check mode.  No given value falls back to a default: a config file
value not of its key's type (a string for a number, say), an empty
string, n_nodes below 3, a t_end, dt, atol, rtol, wavenumber or gauge
interval that is not positive and finite, a non-finite gauge, empty or
repeated orders, fewer than two resolutions and a Dingemans gauge
outside the domain exit 1 before the run; a missing or malformed
Dingemans --experimental-data file exits 2 before the run.  A given key
that the run does not read exits 1 before the run (see ``config``),
among them --relaxation or --no-relaxation for reflecting_bump (it runs
an unrelaxed and a relaxed half), --atol and --rtol in a fixed-step run
(--dt given, or lake_at_rest) and --gauge-interval without --gauges.
A run prints its info, including the integrator counters summed over its
integrations (n_steps, n_rhs, n_rejected, relaxation_fallbacks; see
scenarios.RUN_COUNTERS).

Importing this module loads numpy, scipy's LAPACK extension and the
standard-library modules that a run calls, nothing more: each run starts
a fresh interpreter and pays every import again.  Optional heavy
dependencies (sympy, scipy.optimize, yaml) are imported inside the
functions that need them, never at module level.  Neither the scipy
package nor scipy.linalg is imported: ``linsolve`` loads only the LAPACK
extension, without their package ``__init__``.  ``logging`` is imported
only when a relaxation fallback is logged.  Importing runs no generated
code: records are plain classes with written-out ``__init__`` methods,
not classes whose methods a decorator generates and compiles at import.
Every ``run`` flag but ``--config`` and ``--no-relaxation`` is generated
from ``config.KEYS``, the one table of run keys: its name, type, choices
(``config.CHOICES``) and help text.  The parser reads the terminal width
once per build; the rest of the parser's share of a run's start-up is
argparse's own work.
"""

from __future__ import annotations

import argparse
import functools
import shutil
import sys

from .config import CHOICES, KEYS, config_from_mapping, load_config_file
from .errors import ConfigurationError, DispersiveSwError
from .scenarios import run_scenario


def _parse_list(text, cast):
    try:
        return [cast(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {cast.__name__} list: {text!r}") from None


def _int_list(text):
    return _parse_list(text, int)


def _float_list(text):
    return _parse_list(text, float)


# the converter of a key's value, by the first option of its type; str keys
# (and bool flags) take none
_VALUE_TYPES = {"int": int, "float": float, "list[int]": _int_list, "list[float]": _float_list}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's usage exit 2; subparsers too
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    # the width the stock formatter computes, read once: argparse builds a
    # formatter per add_argument, and each would probe the terminal again
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(
        prog="dispersive-sw",
        description="Structure-preserving solvers for dispersive shallow water models",
        formatter_class=formatter,
    )
    # a given prog spares add_subparsers formatting the whole usage to find it
    sub = parser.add_subparsers(dest="command", required=True, prog="dispersive-sw")
    run = sub.add_parser("run", help="run a scenario", formatter_class=formatter)
    run.add_argument("--config", help="YAML config file; flags override its values")
    for name, (kind, _, text) in KEYS.items():
        flag = "--" + name.replace("_", "-")
        if kind == "bool":
            run.add_argument(flag, action="store_true", default=None, help=text)
        else:
            run.add_argument(flag, type=_VALUE_TYPES.get(kind.split(" | ")[0]),
                             choices=CHOICES.get(name), help=text)
        if name == "relaxation":
            run.add_argument("--no-relaxation", dest="relaxation", action="store_false")
    return parser


def run_cli(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        mapping = load_config_file(args.config) if args.config else {}
        mapping.update((key, value) for key, value in vars(args).items()
                       if key not in ("command", "config") and value is not None)
        cfg = config_from_mapping(mapping)
        result = run_scenario(cfg)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DispersiveSwError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2

    for key, value in sorted(result.info.items()):
        print(f"{key}: {value}")
    if cfg.output_dir:
        print(f"outputs written to {cfg.output_dir}")
    if cfg.check:
        for check in result.checks:
            print(f"{'PASS' if check.passed else 'FAIL'}: {check.name} "
                  f"value={check.value:.6e} threshold={check.threshold:.6e}")
        if not all(check.passed for check in result.checks):
            return 3
    return 0


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
