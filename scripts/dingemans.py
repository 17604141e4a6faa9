"""Wave-tank run over the trapezoidal bar with gauge records.

Gauge positions are supplied on the command line of this script (the
experiment's measurement coordinates are not bundled); edit GAUGES or
pass --experimental-data to compare against an external file with
columns gauge_id, t, eta.
"""

import sys

from dispersive_sw.cli import run_cli

GAUGES = "3.04,9.44,20.04,26.04,30.44,37.04"

if __name__ == "__main__":
    extra = sys.argv[1:]
    rc = 0
    for model in ("bbm_bbm", "svaerd_kalisch"):
        rc |= run_cli([
            "run", "--scenario", "dingemans", "--model", model,
            "--gauges", GAUGES, "--relaxation", "--check",
            "--output-dir", f"results/dingemans/{model}",
        ] + extra)
    rc |= run_cli([
        "run", "--scenario", "dingemans", "--model", "svaerd_kalisch",
        "--variant", "periodic_upwind", "--gauges", GAUGES, "--check",
        "--output-dir", "results/dingemans/svaerd_kalisch_upwind",
    ] + extra)
    sys.exit(rc)
