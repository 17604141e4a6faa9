"""One measured CLI run in a fresh interpreter; run.py starts this script.

    python3 perfbench/child.py --workload NAME --out-dir DIR --result FILE --trace 0|1

Times ``import dispersive_sw.cli``, then calls ``run_cli`` the way the
``dispersive-sw`` entry point does, and writes its measurements as JSON to
FILE.  The reference kernel of ``calibrate.py`` runs before the import and
after the run, to measure how fast this process ran.  Exit code 4 means a
hook is missing or a layer that must work saw no call; any failure of the
CLI itself is reported in FILE, not as an exit code.
"""

import sys
import time

import calibrate

REFERENCE_TIMES = calibrate.chunk_times(calibrate.CALIBRATE_S)

_t_import = time.perf_counter()
import dispersive_sw.cli as cli  # noqa: E402  (the import is what is timed)

IMPORT_S = time.perf_counter() - _t_import

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import HookError, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, cli_argv  # noqa: E402

HOOK_EXIT = 4


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", help="write the spans of a traced run here")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    tracer = Tracer()
    try:
        tracer.install(traced=bool(args.trace))
    except HookError as exc:
        print(f"hook error: {exc}", file=sys.stderr)
        return HOOK_EXIT

    error = None
    cli_stdout = io.StringIO()
    t_call = time.perf_counter()
    try:
        with redirect_stdout(cli_stdout):
            rc = cli.run_cli(cli_argv(workload, args.out_dir))
    except Exception:  # a crash counts as a failed run, reported with its traceback
        rc, error = None, traceback.format_exc()
    t_done = time.perf_counter()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    REFERENCE_TIMES.extend(calibrate.chunk_times(calibrate.CALIBRATE_S))

    integrate_spans = [s for s in tracer.spans if s[0] == "timestepping.integrate"]
    steps = sum(r["n_steps"] for r in tracer.integrations)
    integrate_s = sum(end - start for _, start, end, _ in integrate_spans)
    record = {
        "cli_rc": rc,
        "error": error,
        "cli_stdout": cli_stdout.getvalue(),
        "import_s": IMPORT_S,
        "wall_s": t_done - t_call,
        "setup_s": (integrate_spans[0][1] - t_call) if integrate_spans else None,
        "integrate_s": integrate_s,
        "steps": steps,
        "steps_per_s": steps / integrate_s if integrate_s > 0 else None,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "slowdown": calibrate.slowdown(REFERENCE_TIMES),
        "versions": {
            name: sys.modules[name].__version__
            for name in ("numpy", "scipy", "sympy", "yaml")
            if name in sys.modules
        },
        "dispersive_sw_file": cli.__file__,
    }
    hook_error = None
    if rc == 0:
        try:
            if args.trace:
                tracer.check_busy(workload.busy_hooks, workload.name)
            else:
                tracer.check_busy(["dispersive_sw.scenarios.integrate"], workload.name)
        except HookError as exc:
            hook_error = exc
    if args.trace:
        record["layers"] = layer_metrics(tracer.spans, tracer.counters,
                                         tracer.integrations)
        record["hook_calls"] = dict(tracer.hook_calls)
        record["counters"] = dict(tracer.counters)
        if args.spans:
            tracer.dump(args.spans)
    Path(args.result).write_text(json.dumps(record))
    if hook_error is not None:
        print(f"hook error: {hook_error}", file=sys.stderr)
        return HOOK_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
