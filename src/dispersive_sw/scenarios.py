"""Scenario catalog: experiment setups, recorders, EOC study, CSV output.

Every scenario returns a ScenarioResult holding machine-readable tables
(written as CSV when an output directory is configured) and its measured
values.  ``GATES`` is the one list of --check gates: which measured value
each bounds, how, in which runs and why; ``apply_gates`` turns a run's
measured values into applied gates and reported (out-of-scope) values.
Floats are written with 17 significant digits so identical configurations
produce byte-identical files.  Optional heavy dependencies (sympy via
``manufactured``, scipy.optimize) are imported inside the functions that
need them.

Both convergence scenarios (``soliton --eoc``, ``manufactured``) run the one
EOC study ``_eoc_study``.  A recorder gets ``start(t, y)`` with the initial
state and a call per accepted step; dense output is computed only when a
GaugeRecorder is present, which Dingemans adds only for non-empty gauges.

Every scenario turns its config into a discretization through one helper,
``_discretize``.  The variant is ``cfg.variant``, else the scenario's own
default (soliton: periodic_const_narrow; periodic manufactured:
periodic_upwind), else the first row of the grid's kind in the model's
``VARIANTS``; its row picks the operators.  A scenario at still-water
level h0 starts from disc.eta0 + perturbation: Svärd-Kalisch takes
eta0 = h0, while BBM-BBM fixes eta0 = 0 and runs on bathymetry - h0, so
Dingemans shifts its eta and b outputs back by h0 - disc.eta0.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from . import bbm_bbm, svaerd_kalisch as sk
from .config import ScenarioConfig
from .errors import ConfigurationError, IngestionError
from .grid import l2_norm, make_uniform_grid, split_flat, variant_row
from .sbp import bounded_operators, periodic_operators
from .timestepping import DOPRI5, RK4, integrate

GRAVITY = 9.81


# ---------------------------------------------------------------------------
# the --check gates, results, output

_EOC = "the finest pair's EOC is within 0.3 of the design order (ROADMAP aim 3)"
_MASS = "mass is a linear invariant of every variant, kept to roundoff"
_RELAXED = "relaxation keeps the functional to its root tolerance"
_REST = "every stencil maps constants to 0.0, so a lake stays exactly at rest"

#: every --check gate, by scenario: name -> (measured key, bound kind, bound,
#: scope, reason).  A gate whose key the run measured applies when the run
#: declares every tag of its scope (see ``_run``); otherwise its value is
#: reported and never fails the run.  at_most: value <= bound.  within: the
#: value maps each design order p to an EOC, gated as {name}_p{p} by
#: |EOC - p| <= bound.
GATES = {
    "soliton": {
        "soliton_eoc_eta": ("eoc_eta", "within", 0.3, "periodic", _EOC),
        "soliton_eoc_v": ("eoc_v", "within", 0.3, "periodic", _EOC),
        "soliton_mass_drift": ("mass_drift", "at_most", 1e-13, "", _MASS),
        "soliton_energy_drift_relaxed": ("energy_drift", "at_most", 1e-12, "relaxed", _RELAXED),
        "soliton_gamma_max": (
            "gamma_max_excess", "at_most", 1e-6, "relaxed conserves",
            "only where the variant conserves is gamma - 1 the time-stepping error alone"),
        "soliton_gamma_min": (
            "gamma_min_deficit", "at_most", 0.0, "relaxed conserves",
            "the time stepping loses energy, so gamma >= 1; the root search is exact "
            "to 1 ulp, so a gamma < 1 is the root of that step's computed cubic"),
    },
    "manufactured": {
        "manufactured_eoc_eta": ("eoc_eta", "within", 0.3, "periodic", _EOC),
        "manufactured_eoc_v": ("eoc_v", "within", 0.3, "periodic", _EOC),
    },
    "lake_at_rest": {
        "lake_at_rest_eta": ("l2_error_eta", "at_most", 0.0, "", _REST),
        "lake_at_rest_v": ("l2_error_v", "at_most", 0.0, "", _REST),
    },
    "reflecting_bump": {
        "bump_mass_drift_baseline": ("mass_drift_baseline", "at_most", 1e-13, "", _MASS),
        "bump_mass_drift_relaxed": ("mass_drift_relaxed", "at_most", 1e-13, "", _MASS),
        "bump_energy_drift_relaxed": (
            "functional_drift_relaxed", "at_most", 1e-12, "", _RELAXED),
    },
    "traveling_wave": {
        "traveling_phase_speed_vs_linear": (
            "phase_speed_error", "at_most", 2e-3, "long_wave",
            "the initial data is the Euler wave, so it carries a left-going wave: for "
            "BBM-BBM |left| / |right| is 0.33 at k = 5 and 0.55 at k = 15, and at "
            "amplitude 1e-4 the fit still reads c = 0.0573 against 0.1121 at k = 15"),
    },
    "dingemans": {
        "dingemans_mass_drift": ("mass_drift", "at_most", 1e-13, "", _MASS),
        "dingemans_energy_relaxed": (
            "energy_drift", "at_most", 1e-12, "relaxed", _RELAXED),
        "dingemans_modified_entropy_relaxed": (
            "modified_entropy_drift", "at_most", 1e-12, "relaxed", _RELAXED),
        "dingemans_modified_entropy_baseline": (
            "modified_entropy_drift", "at_most", 1e-6, "unrelaxed conserves",
            "what drifts is the time stepping's error at the 1e-7 default tolerances"),
        "dingemans_upwind_monotone": (
            "functional_increase", "at_most", 1e-9, "dissipates",
            "a dissipating variant's functional grows by no more than the stepping error"),
    },
}


class CheckResult:
    """A GATES row applied to a measured value; ``missing`` lists the scope
    tags that the run did not declare, empty when the gate applies."""

    def __init__(self, name, value, threshold, target, missing):
        self.name, self.value, self.threshold = name, float(value), threshold
        self.target, self.missing = target, missing  # target: a within gate's p
        # NaN fails both comparisons
        self.passed = bool(self.value <= threshold if target is None
                           else abs(self.value - target) <= threshold)


def apply_gates(scenario, measured, declared):
    """(applied, reported) CheckResults of the rows of GATES[scenario] whose
    key is measured, scoped by the declared tags; EOC gates order by order."""
    applied, reported = [], []
    for name, (key, kind, bound, scope, _) in GATES[scenario].items():
        if key in measured:
            missing = [tag for tag in scope.split() if tag not in declared]
            values = measured[key].items() if kind == "within" else [(None, measured[key])]
            for target, value in values:
                label = name if target is None else f"{name}_p{target}"
                (reported if missing else applied).append(
                    CheckResult(label, value, bound, target, missing))
    return (sorted(applied, key=lambda check: check.target or 0),
            sorted(reported, key=lambda check: check.target or 0))


class ScenarioResult:
    """A run's CSV tables, measured values, declared scope tags and info."""

    def __init__(self, scenario, tables=None):
        self.scenario = scenario
        self.tables = {} if tables is None else tables  # name -> (header, rows)
        self.measured, self.declared, self.info = {}, set(), {}

    @property
    def checks(self):
        """The applied gates: the GATES rows in this run's scope."""
        return apply_gates(self.scenario, self.measured, self.declared)[0]


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_outputs(result: ScenarioResult, output_dir) -> list:
    out = Path(output_dir)
    written = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in result.tables.items():
            path = out / f"{name}.csv"
            with open(path, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([_fmt(v) for v in row])
            written.append(path)
    except OSError as exc:
        raise ConfigurationError(f"cannot write outputs to {out}: {exc}") from exc
    return written


# ---------------------------------------------------------------------------
# recorders


class InvariantRecorder:
    """Collect (t, invariants..., gamma) rows at every accepted step."""

    def __init__(self, disc):
        self.disc = disc
        self.names = disc.invariant_names
        self.header = ["t", *self.names, "gamma"]
        self.rows = []

    def start(self, t, y):
        self._append(t, y, 1.0)

    def __call__(self, record):
        self._append(record.t_new, record.y_new, record.gamma)

    def _append(self, t, y, gamma):
        inv = self.disc.invariants(y)
        self.rows.append((t, *[inv[k] for k in self.names], gamma))

    def series(self, name):
        """The column of the rows under header name: t, an invariant or gamma."""
        j = self.header.index(name)
        return np.array([r[j] for r in self.rows])

    def drift(self, name, floor=0.0):
        """max |x - x0| / max(floor, |x0|) over the series of invariant name."""
        x = self.series(name)
        return np.max(np.abs(x - x[0])) / max(floor, abs(x[0]))


class GaugeRecorder:
    """Sample eta at fixed positions at t = 0, interval, 2 interval, ...

    States between accepted steps come from cubic Hermite interpolation,
    so the records must carry endpoint derivatives (``_run`` asks for dense
    output when a GaugeRecorder is present); the spatial sample is linear
    interpolation on the grid (gauges are diagnostics, not accuracy-critical).
    """

    def __init__(self, grid, positions, interval, eta_shift=0.0):
        self.grid = grid
        self.positions = list(positions)
        self.interval = interval
        self.eta_shift = eta_shift
        self.times = []
        self.samples = [[] for _ in self.positions]

    def start(self, t, y):
        self._take(t, y)

    def _take(self, t, y):
        eta = split_flat(y)[0] + self.eta_shift
        xs = self.grid.nodes
        if self.grid.is_periodic:  # close the period: x_max carries eta[0]
            xs, eta = np.append(xs, self.grid.x_max), np.append(eta, eta[0])
        self.times.append(t)
        for series, v in zip(self.samples, np.interp(self.positions, xs, eta)):
            series.append(float(v))

    def __call__(self, record):
        # the k-th sample is due at k * interval
        while (tq := len(self.times) * self.interval) <= record.t_new + 1e-12:
            self._take(tq, record.y_old if tq <= record.t_old
                       else record.interpolate(min(tq, record.t_new)))


# ---------------------------------------------------------------------------
# EOC study


class EocTable:
    """(N, L2 errors) rows with pairwise observed orders."""

    def __init__(self, order, entries):
        ns = [e[0] for e in entries]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ConfigurationError("EOC resolutions must increase")
        if any(e[1] <= 0 or e[2] <= 0 for e in entries):
            raise ConfigurationError("EOC errors must be positive")
        self.order = order
        self.entries = entries  # (n_nodes, err_eta, err_v)

    def eoc(self):
        out = []
        for (n0, e0, v0), (n1, e1, v1) in zip(self.entries, self.entries[1:]):
            ratio = math.log2(n1 / n0)
            out.append((math.log2(e0 / e1) / ratio, math.log2(v0 / v1) / ratio))
        return out

    def rows(self):
        eocs = [(float("nan"), float("nan"))] + self.eoc()
        return [(self.order, *entry, *pair) for entry, pair in zip(self.entries, eocs)]


EOC_HEADER = ["order", "n_nodes", "l2_error_eta", "l2_error_v", "eoc_eta", "eoc_v"]


def _l2_errors(mass, y, exact_pair):
    """(eta, v) L2 errors of the state y against the exact pair."""
    return tuple(l2_norm(field - exact, mass)
                 for field, exact in zip(split_flat(y), exact_pair))


def _eoc_study(result, cfg, orders, resolutions, t_end, tol, case):
    """Run case(order, n) -> (disc, y0, exact) for every order and
    resolution to t_end at atol = rtol = tol; exact(t) is the (eta, v)
    reference.  Adds the eoc table, and measures eoc_eta and eoc_v: each
    order's EOC of the finest pair."""
    # every case is built before the first run, so a refused order exits 1 first
    cases = {(order, n): case(order, n) for order in orders for n in resolutions}
    rows = []
    for order in orders:
        entries = []
        for n in resolutions:
            disc, y0, exact = cases[order, n]
            run = _run(result, disc, y0, t_end, cfg, tol=tol)
            entries.append((n, *_l2_errors(disc.operators.mass, run.y, exact(run.t))))
        table = EocTable(order, entries)
        rows.extend(table.rows())
        for key, value in zip(("eoc_eta", "eoc_v"), table.eoc()[-1]):
            result.measured.setdefault(key, {})[order] = value
    result.tables["eoc"] = (EOC_HEADER, rows)


# ---------------------------------------------------------------------------
# model construction helpers


#: each model's VARIANTS table, and the model's name in its messages
_VARIANTS = {"bbm_bbm": (bbm_bbm.VARIANTS, "BBM-BBM"), "svaerd_kalisch": (sk.VARIANTS, "SK")}


def _operators(grid, upwind, order):
    """Bounded operators on a bounded grid, periodic ones otherwise, with the
    upwind pair when asked.  Calls go through this module's globals."""
    build = periodic_operators if grid.is_periodic else bounded_operators
    return build(grid, order, upwind=upwind)


def _discretize(cfg: ScenarioConfig, grid, bathymetry, h0, order=None,
                default=None, pset="set2", source_terms=None):
    """The discretization of cfg.model on grid at the still-water level h0;
    the module docstring states the variant defaults and the level rule.
    ``pset`` is the scenario's default Svärd-Kalisch parameter set."""
    variants, model = _VARIANTS[cfg.model]
    variant = cfg.variant or default or next(
        name for name, row in variants.items() if row[0] == grid.bc_kind)
    _, upwind, _ = variant_row(variants, model, variant, grid.bc_kind)  # before any work
    ops = _operators(grid, upwind, cfg.order if order is None else order)
    if cfg.model == "bbm_bbm":
        return bbm_bbm.build_bbm_discretization(
            grid, ops, lambda x: bathymetry(x) - h0, GRAVITY, variant,
            source_terms=source_terms)
    return sk.build_sk_discretization(
        grid, ops, bathymetry, GRAVITY, h0, cfg.parameter_set or pset, variant,
        source_terms=source_terms)


def _snapshot(disc, y, shift):
    """Final x, eta, v, b table, with eta and b back on the surface level."""
    eta, v = split_flat(y)
    return ["x", "eta", "v", "b"], list(zip(disc.grid.nodes, eta + shift, v,
                                            disc.bathymetry + shift))


# integrator counters summed over a scenario's integrate calls into its info
RUN_COUNTERS = ("n_steps", "n_rhs", "n_rejected", "relaxation_fallbacks")


def _run(result: ScenarioResult, disc, y0, t_end, cfg: ScenarioConfig, *, dt=None,
         tol=None, recorders=(), dt_max=np.inf):
    """RK4 at the step cfg.dt (else dt) when one is given, else DOPRI5 at
    cfg.atol and cfg.rtol, each defaulting to tol (else 1e-7).  Adds the
    run's scope tags to result.declared: relaxed or unrelaxed, the grid's
    periodic or bounded, the variant's conserves, dissipates or neither, and
    long_wave for a wavenumber (read by traveling-wave runs) up to 1."""
    result.declared |= {"relaxed" if cfg.relaxation else "unrelaxed",
                        disc.grid.bc_kind, disc.balance}
    if cfg.wavenumber <= 1.0:
        result.declared.add("long_wave")
    dt = cfg.dt if cfg.dt is not None else dt
    for rec in recorders:
        rec.start(0.0, y0)

    def on_step(record):
        for rec in recorders:
            rec(record)

    run = integrate(
        disc.rhs, y0, (0.0, t_end), DOPRI5 if dt is None else RK4, dt=dt,
        atol=cfg.atol if cfg.atol is not None else (tol or 1e-7),
        rtol=cfg.rtol if cfg.rtol is not None else (tol or 1e-7),
        dt_max=dt_max,
        functional=disc.functional() if cfg.relaxation else None,
        on_step=on_step if recorders else None,
        dense_output=any(isinstance(r, GaugeRecorder) for r in recorders),
    )
    for name in RUN_COUNTERS:
        result.info[name] = result.info.get(name, 0) + getattr(run, name)
    return run


# ---------------------------------------------------------------------------
# soliton scenario


SOLITON_DOMAIN = (-35.0, 35.0)
SOLITON_DEPTH = 2.0


def soliton_reference(t, grid):
    """Exact solitary wave folded into the periodic domain."""
    c = bbm_bbm.bbm_soliton_speed(GRAVITY, SOLITON_DEPTH)
    length = grid.length
    disp = grid.nodes - c * t
    disp = (disp + 0.5 * length) % length - 0.5 * length
    return bbm_bbm.bbm_soliton(0.0, disp, GRAVITY, SOLITON_DEPTH)


def _soliton_case(cfg, order, n_nodes):
    """(disc, y0, exact) of BBM-BBM at the still-water level 0."""
    grid = make_uniform_grid(*SOLITON_DOMAIN, n_nodes, "periodic")
    disc = _discretize(
        cfg, grid, lambda x: np.full_like(x, -SOLITON_DEPTH), 0.0, order,
        default="periodic_const_narrow",
    )
    eta, v = bbm_bbm.bbm_soliton(0.0, grid.nodes, GRAVITY, SOLITON_DEPTH)
    return disc, np.concatenate([disc.eta0 + eta, v]), lambda t: soliton_reference(t, grid)


def soliton_period():
    length = SOLITON_DOMAIN[1] - SOLITON_DOMAIN[0]
    return length / bbm_bbm.bbm_soliton_speed(GRAVITY, SOLITON_DEPTH)


def scenario_soliton(cfg: ScenarioConfig) -> ScenarioResult:
    """Solitary-wave accuracy and invariant-conservation runs."""
    if cfg.model != "bbm_bbm":
        raise ConfigurationError(
            "the soliton scenario runs model bbm_bbm only: its exact solution "
            f"is the BBM-BBM solitary wave (got model {cfg.model})"
        )
    result = ScenarioResult("soliton")
    if cfg.eoc:
        _eoc_study(
            result, cfg, cfg.orders or [2, 4, 6],
            cfg.resolutions or [128, 256, 512],
            cfg.t_end if cfg.t_end is not None else 1.0, 1e-11,
            lambda order, n: _soliton_case(cfg, order, n),
        )
        return result

    t_end = cfg.t_end if cfg.t_end is not None else 5 * soliton_period()
    disc, y0, exact = _soliton_case(cfg, cfg.order, cfg.n_nodes or 512)
    mass = disc.operators.mass
    recorder = InvariantRecorder(disc)
    run = _run(result, disc, y0, t_end, cfg, recorders=[recorder])
    result.tables["invariants"] = (recorder.header, recorder.rows)
    result.tables["snapshot"] = _snapshot(disc, run.y, 0.0)
    errs = _l2_errors(mass, run.y, exact(run.t))
    result.info.update(final_time=run.t, end_time_overshoot=run.t - t_end,
                       l2_error_eta=errs[0], l2_error_v=errs[1])
    # the solitary wave has zero net mass, so normalize the drift by the
    # quadrature scale of |eta| (the roundoff floor of evaluating 1^T M eta)
    mass_scale = max(1.0, float(mass.diagonal @ np.abs(split_flat(y0)[0])))
    gammas = recorder.series("gamma")[1:]
    result.measured.update(
        mass_drift=recorder.drift("mass", mass_scale),
        energy_drift=recorder.drift(disc.conserved),
        gamma_max_excess=np.max(gammas) - 1.0,
        gamma_min_deficit=1.0 - np.min(gammas),
    )
    result.info["energy_drift"] = result.measured["energy_drift"]
    return result


# ---------------------------------------------------------------------------
# manufactured-solution scenario


def scenario_manufactured(cfg: ScenarioConfig) -> ScenarioResult:
    """Convergence study against manufactured solutions with sources.

    The exact fields steepen exponentially in time; on the coarsest grids
    the Svärd-Kalisch runs go dry before t = 1, so that model defaults to
    the shorter span t = 0.5 (the observed orders are identical).
    """
    variants, model = _VARIANTS[cfg.model]
    row = variants.get(cfg.variant)
    reflecting = cfg.reflecting or (row is not None and row[0] == "bounded")
    bc = "bounded" if reflecting else "periodic"
    if cfg.variant:  # refused before sympy is imported
        variant_row(variants, model, cfg.variant, bc)
    from .manufactured import bbm_manufactured, sk_manufactured

    pset = "set5" if reflecting else "set3"
    if cfg.model == "bbm_bbm":
        solution = bbm_manufactured(bc, GRAVITY)
    else:
        solution = sk_manufactured(bc, GRAVITY, cfg.parameter_set or pset)

    def case(order, n):
        grid = make_uniform_grid(0.0, 1.0, n, bc)
        disc = _discretize(
            cfg, grid, lambda x: solution.bathymetry(0.0, x), 0.0, order,
            default=None if reflecting else "periodic_upwind", pset=pset,
            source_terms=solution.source,
        )
        eta, v = solution.exact(0.0, grid.nodes)
        return (disc, np.concatenate([disc.eta0 + eta, v]),
                lambda t: solution.exact(t, grid.nodes))

    default_t = 1.0 if cfg.model == "bbm_bbm" else 0.5
    result = ScenarioResult("manufactured")
    _eoc_study(
        result, cfg, cfg.orders or ([4, 6] if reflecting else [2, 3, 4]),
        cfg.resolutions or ([65, 129, 257] if reflecting else [64, 128, 256]),
        cfg.t_end if cfg.t_end is not None else default_t, 1e-9, case,
    )
    result.info["reflecting"] = reflecting
    return result


# ---------------------------------------------------------------------------
# lake-at-rest scenario


LAKE_SURFACE = 2.0


def lake_bathymetry(x):
    x = np.asarray(x, dtype=float)
    b = np.ones_like(x)
    inside = (x >= 0.5) & (x <= 0.75)
    b[inside] = 1.5 + 0.5 * np.sin(2 * np.pi * x[inside])
    return b


def scenario_lake_at_rest(cfg: ScenarioConfig) -> ScenarioResult:
    """Well-balancedness over discontinuous bathymetry: errors stay at zero."""
    n = cfg.n_nodes or 200
    grid = make_uniform_grid(-1.0, 1.0, n, "periodic")
    result = ScenarioResult("lake_at_rest")
    disc = _discretize(cfg, grid, lake_bathymetry, LAKE_SURFACE)
    y0 = np.concatenate([np.full(n, disc.eta0), np.zeros(n)])
    bbm = cfg.model == "bbm_bbm"
    dt = cfg.dt if cfg.dt is not None else (0.5 if bbm else 2e-4)
    t_end = cfg.t_end if cfg.t_end is not None else (10.0 if bbm else 1.0)
    run = _run(result, disc, y0, t_end, cfg, dt=dt)
    err_eta, err_v = _l2_errors(disc.operators.mass, run.y, split_flat(y0))
    result.tables["errors"] = (
        ["model", "order", "n_nodes", "t_end", "l2_error_eta", "l2_error_v"],
        [(cfg.model, cfg.order, n, run.t, err_eta, err_v)],
    )
    result.measured.update(l2_error_eta=err_eta, l2_error_v=err_v)
    result.info.update(l2_error_eta=err_eta, l2_error_v=err_v)
    return result


# ---------------------------------------------------------------------------
# reflecting bump scenario


BUMP_SURFACE = 1.0


def scenario_reflecting_bump(cfg: ScenarioConfig) -> ScenarioResult:
    """Wall-bounded bump release; mass and energy conservation with walls."""
    n = cfg.n_nodes or 512
    t_end = cfg.t_end if cfg.t_end is not None else 1.0
    grid = make_uniform_grid(-1.0, 1.0, n, "bounded")
    result = ScenarioResult("reflecting_bump")
    disc = _discretize(
        cfg, grid, lambda x: 0.3 * np.cos(np.pi * x), BUMP_SURFACE, pset="set5"
    )
    y0 = np.concatenate([disc.eta0 + np.exp(-50.0 * grid.nodes**2), np.zeros(n)])
    for relaxed in (False, True):
        recorder = InvariantRecorder(disc)
        run = _run(result, disc, y0, t_end,
                   ScenarioConfig(**dict(vars(cfg), relaxation=relaxed)), recorders=[recorder])
        tag = "relaxed" if relaxed else "baseline"
        result.tables[f"invariants_{tag}"] = (recorder.header, recorder.rows)
        energy_drift = recorder.drift(disc.conserved)
        result.measured[f"mass_drift_{tag}"] = recorder.drift("mass", 1.0)
        result.info[f"energy_drift_{tag}"] = energy_drift
        result.info[f"final_time_{tag}"] = run.t
    result.measured["functional_drift_relaxed"] = result.info["energy_drift_relaxed"]
    return result


# ---------------------------------------------------------------------------
# traveling wave scenario


TRAVELING_H0 = 0.8
TRAVELING_AMPLITUDE = 0.02


def traveling_wave_initial(grid, k):
    eta = TRAVELING_AMPLITUDE * np.cos(k * grid.nodes)
    v = np.sqrt(GRAVITY / k * np.tanh(k * TRAVELING_H0)) * eta / TRAVELING_H0
    return np.concatenate([eta, v])


class PhaseRecorder:
    """Track the complex amplitude of one Fourier mode of eta over time."""

    def __init__(self, mode_index):
        self.mode, self.times, self.coefficients = mode_index, [], []

    def start(self, t, y):
        self.times.append(t)
        self.coefficients.append(np.fft.rfft(split_flat(y)[0])[self.mode])

    def __call__(self, record):
        self.start(record.t_new, record.y_new)


N_WAVES = 5


def scenario_traveling_wave(cfg: ScenarioConfig) -> ScenarioResult:
    """Phase-speed comparison against the linear water-wave reference."""
    k = cfg.wavenumber
    h0 = TRAVELING_H0
    length = N_WAVES * 2 * np.pi / k
    n = cfg.n_nodes or 512
    grid = make_uniform_grid(0.0, length, n, "periodic")
    default_t = {0.8: 50.0, 5.0: 1.0, 15.0: 0.75}.get(k, 1.0)
    t_end = cfg.t_end if cfg.t_end is not None else default_t
    disc = _discretize(cfg, grid, lambda x: np.full_like(x, -h0), 0.0)
    y0 = traveling_wave_initial(grid, k)
    y0[:n] += disc.eta0
    recorder = PhaseRecorder(N_WAVES)
    result = ScenarioResult("traveling_wave")
    run = _run(result, disc, y0, t_end, cfg, recorders=[recorder], dt_max=0.2 / k)

    coefficients = np.array(recorder.coefficients)
    phases = np.unwrap(np.angle(coefficients))
    c_fit = -np.polyfit(np.array(recorder.times), phases, 1)[0] / k
    c_euler = float(sk.euler_phase_speed(k, h0, GRAVITY))
    c_model = (float(bbm_bbm.bbm_phase_speed(k, h0, GRAVITY)) if cfg.model == "bbm_bbm"
               else sk.sk_dispersion_omega(k, disc.params, h0, GRAVITY) / k)
    amp = 2.0 * np.abs(coefficients) / n
    result.tables["phase_report"] = (
        ["model", "k", "t_end", "c_fit", "c_model_linear", "c_euler",
         "phase_error_vs_euler", "amplitude_ratio"],
        [(cfg.model, k, run.t, c_fit, c_model, c_euler,
          abs(c_fit - c_euler) * k * run.t, amp[-1] / amp[0])],
    )
    result.info.update(
        c_fit=c_fit, c_model=c_model, c_euler=c_euler,
        amplitude_ratio=float(amp[-1] / amp[0]),
    )
    result.measured["phase_speed_error"] = abs(c_fit - c_model) / c_model
    return result


# ---------------------------------------------------------------------------
# Dingemans wave-tank scenario


DINGEMANS_DOMAIN = (-138.0, 46.0)
DINGEMANS_H0 = 0.8
DINGEMANS_AMPLITUDE = 0.02


def dingemans_bathymetry(x):
    """Trapezoidal bar: up 1:20 from x=11.01 to 0.6, down 1:10 after x=27.04."""
    x = np.asarray(x, dtype=float)
    b = np.zeros_like(x)
    up = (x > 11.01) & (x < 23.04)
    b[up] = (x[up] - 11.01) * 0.6 / (23.04 - 11.01)
    top = (x >= 23.04) & (x <= 27.04)
    b[top] = 0.6
    down = (x > 27.04) & (x < 33.07)
    b[down] = 0.6 - (x[down] - 27.04) * 0.6 / (33.07 - 27.04)
    return b


def dingemans_wavenumber():
    """k solving omega^2 = g k tanh(k h0) for omega = 2 pi / (2.02 sqrt 2)."""
    from scipy.optimize import brentq

    omega = 2.0 * np.pi / (2.02 * np.sqrt(2.0))
    return brentq(
        lambda k: GRAVITY * k * np.tanh(k * DINGEMANS_H0) - omega**2, 1e-6, 10.0
    )


def dingemans_initial(grid, x_tilde, eta0=DINGEMANS_H0):
    """Wave packet of 15 waves ending on cosine zero crossings."""
    k, h0 = dingemans_wavenumber(), DINGEMANS_H0
    xi = grid.nodes - x_tilde
    eta = np.full(grid.n_nodes, float(eta0))
    packet = (xi > -34.5 * np.pi / k) & (xi < -4.5 * np.pi / k)
    eta[packet] += DINGEMANS_AMPLITUDE * np.cos(k * xi[packet])
    v = np.sqrt(GRAVITY / k * np.tanh(k * h0)) * (eta - eta0) / h0
    return np.concatenate([eta, v])


def scenario_dingemans(cfg: ScenarioConfig) -> ScenarioResult:
    """Wave propagation over the trapezoidal bar with gauge records."""
    x_min, x_max = DINGEMANS_DOMAIN
    outside = [x for x in cfg.gauges if not x_min <= x <= x_max]
    if outside:
        raise ConfigurationError(
            f"gauges {outside} lie outside the dingemans domain [{x_min}, {x_max}]"
        )
    # read before the run, so a missing or malformed file fails at once
    experimental = (read_experimental_gauges(cfg.experimental_data)
                    if cfg.experimental_data else None)
    n = cfg.n_nodes or 512
    t_end = cfg.t_end if cfg.t_end is not None else 70.0
    grid = make_uniform_grid(*DINGEMANS_DOMAIN, n, "periodic")
    result = ScenarioResult("dingemans")
    disc = _discretize(cfg, grid, dingemans_bathymetry, DINGEMANS_H0)
    shift = DINGEMANS_H0 - disc.eta0  # eta and b back on the surface level
    x_tilde = 2.7 if cfg.model == "bbm_bbm" else 2.2
    y0 = dingemans_initial(grid, x_tilde, eta0=disc.eta0)
    inv_rec = InvariantRecorder(disc)
    gauge_rec = GaugeRecorder(grid, cfg.gauges, cfg.gauge_interval, eta_shift=shift)
    recorders = [inv_rec, gauge_rec] if cfg.gauges else [inv_rec]
    run = _run(result, disc, y0, t_end, cfg, recorders=recorders)
    result.tables["invariants"] = (inv_rec.header, inv_rec.rows)
    for idx, (pos, series) in enumerate(zip(gauge_rec.positions, gauge_rec.samples)):
        result.tables[f"gauge_{idx:02d}"] = (
            ["t", "eta"], list(zip(gauge_rec.times, series))
        )
        result.info[f"gauge_{idx:02d}_x"] = pos
    result.tables["snapshot"] = _snapshot(disc, run.y, shift)
    functional = inv_rec.series(disc.conserved)
    drift_key = f"{disc.conserved}_drift"
    result.measured.update({
        "mass_drift": inv_rec.drift("mass", 1.0), drift_key: inv_rec.drift(disc.conserved),
        "functional_increase": np.max(np.diff(functional), initial=0.0) / abs(functional[0]),
    })
    result.info[drift_key] = result.measured[drift_key]
    if experimental is not None:
        result.tables["experimental"] = experimental
    result.info["final_time"] = run.t
    return result


def read_experimental_gauges(path):
    """Read an external gauge file with columns gauge_id, t, eta.

    Blank and ``#`` comment lines are skipped; the first other row is a
    header when its second field is not a number.
    """
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"experimental data file not found: {path}")
    rows = []
    first = True
    with open(path, newline="") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or row[0].strip().startswith("#"):
                continue
            header = first and not _is_number(row[1] if len(row) > 1 else "")
            first = False
            if header:
                continue
            if len(row) != 3:
                raise IngestionError(f"{path}:{lineno}: expected 3 columns (gauge_id, t, "
                                     f"eta), got {len(row)}", line_number=lineno)
            try:
                rows.append((row[0].strip(), float(row[1]), float(row[2])))
            except ValueError as exc:
                raise IngestionError(f"{path}:{lineno}: {exc}", line_number=lineno) from None
    return ["gauge_id", "t", "eta"], rows


def _is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


SCENARIO_FUNCTIONS = {
    "soliton": scenario_soliton,
    "manufactured": scenario_manufactured,
    "lake_at_rest": scenario_lake_at_rest,
    "reflecting_bump": scenario_reflecting_bump,
    "traveling_wave": scenario_traveling_wave,
    "dingemans": scenario_dingemans,
}


def _check_output_dir(output_dir):
    """ConfigurationError, before any run, when output_dir or its nearest
    existing ancestor is not a directory; creates nothing."""
    out = Path(output_dir)
    existing = next((p for p in (out, *out.parents) if p.exists()), out)
    if not existing.is_dir():
        raise ConfigurationError(
            f"cannot write outputs to {out}: {existing} is not a directory"
        )


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    if cfg.output_dir:
        _check_output_dir(cfg.output_dir)
    result = SCENARIO_FUNCTIONS[cfg.scenario](cfg)
    if cfg.output_dir:
        write_outputs(result, cfg.output_dir)
    return result
