"""Workload table: CLI arguments, expected outputs and the hooks that must see work.

Every workload is one ``dispersive-sw run`` invocation.  Inputs are
deterministic PDE initial data, so no workload depends on a random seed.
"""

from __future__ import annotations

from dataclasses import dataclass

# one period of the BBM-BBM soliton on (-35, 35) at depth 2,
# repr of dispersive_sw.scenarios.soliton_period()
SOLITON_PERIOD = "6.321330973800232"

# hook ids shared by several workloads (see spans.HOOKS)
_APPLY = "dispersive_sw.sbp.DerivativeOperator.apply"
_PERIODIC = "dispersive_sw.scenarios.periodic_operators"
_BBM_BUILD = "dispersive_sw.bbm_bbm.build_bbm_discretization"
_BBM_RHS = "dispersive_sw.bbm_bbm.BbmBbmDiscretization.rhs"
_BBM_ENERGY = ("dispersive_sw.bbm_bbm.BbmEnergyFunctional.value",
               "dispersive_sw.bbm_bbm.BbmEnergyFunctional.delta")
_SK_BUILD = "dispersive_sw.svaerd_kalisch.build_sk_discretization"
_SK_RHS = "dispersive_sw.svaerd_kalisch.SkDiscretization.rhs"
_FACTOR = "dispersive_sw.linsolve.factor"
_SHIFTED_FACTOR = "dispersive_sw.linsolve.ShiftedSolver.factor"
_SOLVE = "dispersive_sw.linsolve.<factorization>.solve"
_INTEGRATE = "dispersive_sw.scenarios.integrate"
_RK_STEP = "dispersive_sw.timestepping.rk_step"
_WRITE = "dispersive_sw.scenarios.write_outputs"
_INV_REC = ("dispersive_sw.scenarios.InvariantRecorder.start",
            "dispersive_sw.scenarios.InvariantRecorder.__call__")
_EVERY_RUN = (_APPLY, _INTEGRATE, _RK_STEP, _SOLVE, _WRITE)


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple  # CLI arguments after "run"; --check and --output-dir are added
    tables: frozenset  # CSV files (without .csv) the run must write
    busy_hooks: tuple  # hook ids that must record at least one call when traced
    exact_rest: bool = False  # errors.csv must hold exactly 0.0 (lake at rest)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sk_lake_at_rest",
            args=("--scenario", "lake_at_rest", "--model", "svaerd_kalisch",
                  "--variant", "periodic_central_split", "--parameter-set", "set2",
                  "--order", "4", "--n-nodes", "200", "--t-end", "0.1",
                  "--dt", "2e-4", "--no-relaxation"),
            tables=frozenset({"errors"}),
            busy_hooks=_EVERY_RUN + (_PERIODIC, _SK_BUILD, _SK_RHS, _SHIFTED_FACTOR),
            exact_rest=True,
        ),
        Workload(
            name="bbm_soliton_relaxed",
            args=("--scenario", "soliton", "--model", "bbm_bbm",
                  "--variant", "periodic_const_narrow", "--order", "8",
                  "--n-nodes", "512", "--t-end", SOLITON_PERIOD, "--relaxation"),
            tables=frozenset({"invariants", "snapshot"}),
            busy_hooks=_EVERY_RUN + (_PERIODIC, _BBM_BUILD, _BBM_RHS, _FACTOR)
            + _BBM_ENERGY + _INV_REC,
        ),
    )
}


def cli_argv(workload: Workload, output_dir) -> list:
    return ["run", *workload.args, "--check", "--output-dir", str(output_dir)]
