"""Spans around the public functions of each dispersive_sw layer.

A hook replaces a function at the module or class attribute its caller
resolves (``scenarios`` imports ``integrate`` and ``periodic_operators``
by name, so those are patched on ``scenarios``).  Each patched call
appends one span (layer, start, end, parent index) to an in-memory list;
self time is a span's duration minus the durations of its direct
children.  Spans are written out only after the run.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

MIB = float(1 << 20)


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str
    qualname: str

    @property
    def id(self) -> str:
        return f"{self.module}.{self.qualname}"


HOOKS = (
    Hook("sbp.apply", "dispersive_sw.sbp", "DerivativeOperator.apply"),
    Hook("sbp.build", "dispersive_sw.scenarios", "periodic_operators"),
    Hook("sbp.build", "dispersive_sw.scenarios", "bounded_operators"),
    Hook("bbm_bbm.build", "dispersive_sw.bbm_bbm", "build_bbm_discretization"),
    Hook("bbm_bbm.rhs", "dispersive_sw.bbm_bbm", "BbmBbmDiscretization.rhs"),
    Hook("svaerd_kalisch.build", "dispersive_sw.svaerd_kalisch", "build_sk_discretization"),
    Hook("svaerd_kalisch.rhs", "dispersive_sw.svaerd_kalisch", "SkDiscretization.rhs"),
    Hook("linsolve.factor", "dispersive_sw.linsolve", "factor"),
    Hook("linsolve.factor", "dispersive_sw.linsolve", "ShiftedSolver.factor"),
    Hook("timestepping.integrate", "dispersive_sw.scenarios", "integrate"),
    Hook("timestepping.stage", "dispersive_sw.timestepping", "rk_step"),
    Hook("timestepping.relax", "dispersive_sw.bbm_bbm", "BbmEnergyFunctional.value"),
    Hook("timestepping.relax", "dispersive_sw.bbm_bbm", "BbmEnergyFunctional.delta"),
    Hook("timestepping.relax", "dispersive_sw.svaerd_kalisch",
         "SkModifiedEntropyFunctional.value"),
    Hook("timestepping.relax", "dispersive_sw.svaerd_kalisch",
         "SkModifiedEntropyFunctional.delta"),
    Hook("scenarios.record", "dispersive_sw.scenarios", "InvariantRecorder.start"),
    Hook("scenarios.record", "dispersive_sw.scenarios", "InvariantRecorder.__call__"),
    Hook("scenarios.record", "dispersive_sw.scenarios", "GaugeRecorder.start"),
    Hook("scenarios.record", "dispersive_sw.scenarios", "GaugeRecorder.__call__"),
    Hook("scenarios.write", "dispersive_sw.scenarios", "write_outputs"),
)

#: the only hook an untraced run patches: it times the integrate calls
UNTRACED_LAYERS = frozenset({"timestepping.integrate"})

#: pseudo-hook: ``.solve`` of every factorization a factor hook returns
SOLVE_HOOK_ID = "dispersive_sw.linsolve.<factorization>.solve"


class HookError(RuntimeError):
    """A hooked function is missing, or saw no call where work is predicted."""


def resolve(hook: Hook):
    """(owner, attribute, function) for a hook; HookError naming it if missing."""
    try:
        owner = importlib.import_module(hook.module)
        *path, attr = hook.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError) as exc:
        raise HookError(f"hooked function {hook.id} is missing ({exc})") from None


def array_bytes(root) -> int:
    """Bytes of the distinct numpy arrays reachable from a dispersive_sw object."""
    seen, total, todo = set(), 0, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if isinstance(obj.base, np.ndarray):
                todo.append(obj.base)  # a view shares its base's memory
            else:
                total += obj.nbytes
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif type(obj).__module__.startswith("dispersive_sw") and hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
    return total


class Tracer:
    """In-memory span recorder plus the counters the hooks derive from results."""

    def __init__(self):
        self.spans = []  # (layer, start, end, parent index or -1)
        self._stack = []
        self.hook_calls = Counter()  # hook id -> calls
        self.counters = Counter()
        self.integrations = []  # one dict per integrate call

    def wrap(self, layer, hook_id, fn, on_result=None):
        spans, stack, calls = self.spans, self._stack, self.hook_calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[hook_id] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- result handlers: counts measured where the work happens -----------

    def _on_integrate(self, result):
        self.integrations.append({
            "n_steps": result.n_steps,
            "n_rejected": result.n_rejected,
            "n_rhs": result.n_rhs,
            "relaxed_steps": len(result.gammas),
            "relaxation_fallbacks": result.relaxation_fallbacks,
        })

    def _on_factor(self, factorization):
        self.counters[f"linsolve.path.{type(factorization).__name__}"] += 1
        if isinstance(factorization, self._dense_type):
            self.counters["linsolve.dense_paths"] += 1
        factorization.solve = self.wrap(
            "linsolve.solve", SOLVE_HOOK_ID, factorization.solve
        )

    def _on_build(self, operator_set):
        self.counters["sbp.operator_bytes"] += array_bytes(operator_set)

    def _on_write(self, paths):
        self.counters["scenarios.csv_bytes"] += sum(Path(p).stat().st_size for p in paths)

    def install(self, traced: bool):
        """Resolve every hook; patch all of them, or only the untraced set."""
        from dispersive_sw import linsolve

        # the dense fallback counted by linsolve.dense_paths; once the class is
        # gone no factorization can take that path
        self._dense_type = getattr(linsolve, "DenseFactorization", ())
        handlers = {
            "timestepping.integrate": self._on_integrate,
            "linsolve.factor": self._on_factor,
            "sbp.build": self._on_build,
            "scenarios.write": self._on_write,
        }
        targets = [(hook, *resolve(hook)) for hook in HOOKS]
        for hook, owner, attr, fn in targets:
            if traced or hook.layer in UNTRACED_LAYERS:
                setattr(owner, attr, self.wrap(
                    hook.layer, hook.id, fn, handlers.get(hook.layer)
                ))

    def check_busy(self, hook_ids, workload):
        """HookError naming every listed hook that recorded zero calls."""
        idle = [h for h in hook_ids if self.hook_calls[h] == 0]
        if idle:
            raise HookError(
                f"workload {workload}: predicted work but zero calls recorded by "
                + ", ".join(idle)
            )

    def dump(self, path):
        """Write the spans as JSON lines: layer, start, end, parent."""
        with open(path, "w") as handle:
            for layer, start, end, parent in self.spans:
                handle.write(json.dumps([layer, start, end, parent]) + "\n")


def self_times(spans):
    """Per layer: (self seconds, calls not nested inside the same layer)."""
    child_time = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    seconds, calls = defaultdict(float), Counter()
    for index, (layer, start, end, parent) in enumerate(spans):
        seconds[layer] += (end - start) - child_time[index]
        if parent < 0 or spans[parent][0] != layer:
            calls[layer] += 1
    return seconds, calls


def layer_metrics(spans, counters, integrations) -> dict:
    """The per-layer metrics of one traced run."""
    seconds, calls = self_times(spans)
    counters = Counter(counters)
    steps = sum(r["n_steps"] for r in integrations)
    relaxed = sum(r["relaxed_steps"] for r in integrations)
    apply_calls = calls["sbp.apply"]
    return {
        "sbp.apply_calls": apply_calls,
        "sbp.apply_s": seconds["sbp.apply"],
        "sbp.apply_us": 1e6 * seconds["sbp.apply"] / apply_calls if apply_calls else 0.0,
        "sbp.build_s": seconds["sbp.build"],
        "sbp.operator_mb": counters["sbp.operator_bytes"] / MIB,
        "bbm_bbm.build_s": seconds["bbm_bbm.build"],
        "bbm_bbm.rhs_self_s": seconds["bbm_bbm.rhs"],
        "svaerd_kalisch.build_s": seconds["svaerd_kalisch.build"],
        "svaerd_kalisch.rhs_self_s": seconds["svaerd_kalisch.rhs"],
        "linsolve.factor_calls": calls["linsolve.factor"],
        "linsolve.factor_s": seconds["linsolve.factor"],
        "linsolve.solve_calls": calls["linsolve.solve"],
        "linsolve.solve_s": seconds["linsolve.solve"],
        "linsolve.dense_paths": counters["linsolve.dense_paths"],
        "timestepping.steps": steps,
        "timestepping.rejected": sum(r["n_rejected"] for r in integrations),
        "timestepping.rhs_per_step":
            sum(r["n_rhs"] for r in integrations) / steps if steps else 0.0,
        "timestepping.stage_self_s": seconds["timestepping.stage"],
        "timestepping.integrate_self_s": seconds["timestepping.integrate"],
        "timestepping.relax_evals_per_step":
            calls["timestepping.relax"] / relaxed if relaxed else 0.0,
        "timestepping.relax_s": seconds["timestepping.relax"],
        "timestepping.relax_fallbacks":
            sum(r["relaxation_fallbacks"] for r in integrations),
        "scenarios.record_s": seconds["scenarios.record"],
        "scenarios.write_s": seconds["scenarios.write"],
        "scenarios.csv_mb": counters["scenarios.csv_bytes"] / MIB,
    }
