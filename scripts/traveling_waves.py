"""Traveling-wave phase-speed comparison for k = 0.8, 5, 15.

The long k = 0.8 run demonstrates that the Svärd-Kalisch set 2
coefficients track the reference speed; at k = 5 and 15 the BBM-BBM
phase error becomes visible in the fitted speeds.
"""

import sys

from dispersive_sw.cli import run_cli

if __name__ == "__main__":
    rc = 0
    for model in ("bbm_bbm", "svaerd_kalisch"):
        for k in ("0.8", "5", "15"):
            # the coefficient set is a Svärd-Kalisch option only
            sk_set = ["--parameter-set", "set2"] if model == "svaerd_kalisch" else []
            rc |= run_cli([
                "run", "--scenario", "traveling_wave", "--model", model,
                "--wavenumber", k, *sk_set, "--check",
                "--output-dir", f"results/traveling_wave/{model}_k{k}",
            ])
    sys.exit(rc)
