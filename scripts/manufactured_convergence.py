"""Manufactured-solution convergence for both models, periodic upwind
operators, plus the reflecting-wall variant with its reduced orders."""

import sys

from dispersive_sw.cli import run_cli

if __name__ == "__main__":
    rc = 0
    for model in ("bbm_bbm", "svaerd_kalisch"):
        rc |= run_cli([
            "run", "--scenario", "manufactured", "--model", model,
            "--orders", "2,3,4", "--resolutions", "64,128,256", "--check",
            "--output-dir", f"results/manufactured/{model}",
        ])
        rc |= run_cli([
            "run", "--scenario", "manufactured", "--model", model,
            "--reflecting", "--orders", "4,6", "--resolutions", "65,129,257", "--check",
            "--output-dir", f"results/manufactured/{model}_reflecting",
        ])
    sys.exit(rc)
