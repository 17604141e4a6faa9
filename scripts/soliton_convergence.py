"""Solitary-wave convergence study and long-run invariant comparison.

Writes EOC tables for orders 2/4/6 and invariant time series with and
without relaxation into results/soliton/.
"""

import sys

from dispersive_sw.cli import run_cli

BASE = ["run", "--scenario", "soliton", "--model", "bbm_bbm", "--check"]

if __name__ == "__main__":
    rc = run_cli(BASE + [
        "--eoc", "--orders", "2,4,6", "--resolutions", "128,256,512",
        "--t-end", "1.0", "--output-dir", "results/soliton/eoc",
    ])
    rc |= run_cli(BASE + [
        "--order", "8", "--n-nodes", "512", "--relaxation",
        "--output-dir", "results/soliton/relaxed",
    ])
    rc |= run_cli(BASE + [
        "--order", "8", "--n-nodes", "512",
        "--output-dir", "results/soliton/baseline",
    ])
    sys.exit(rc)
