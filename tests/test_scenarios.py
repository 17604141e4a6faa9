import numpy as np
import pytest

from dispersive_sw import bbm_bbm, scenarios
from dispersive_sw import svaerd_kalisch as sk
from dispersive_sw.config import ScenarioConfig, config_from_mapping
from dispersive_sw.errors import ConfigurationError, IngestionError
from dispersive_sw.scenarios import (
    EocTable,
    GaugeRecorder,
    dingemans_bathymetry,
    dingemans_initial,
    dingemans_wavenumber,
    lake_bathymetry,
    read_experimental_gauges,
    run_scenario,
    scenario_lake_at_rest,
    scenario_traveling_wave,
    soliton_reference,
    write_outputs,
)
from dispersive_sw.grid import make_uniform_grid


def test_lake_bathymetry_shape():
    # jump of 0.5 at x = 0.5, continuous at x = 0.75
    left = lake_bathymetry(np.array([0.499999]))[0]
    right = lake_bathymetry(np.array([0.500001]))[0]
    assert left == 1.0 and right == pytest.approx(1.5, abs=1e-4)
    assert lake_bathymetry(np.array([0.75]))[0] == pytest.approx(1.0, abs=1e-12)
    assert lake_bathymetry(np.array([-0.3]))[0] == 1.0


def test_lake_at_rest_bbm_exact():
    cfg = ScenarioConfig(scenario="lake_at_rest", model="bbm_bbm", order=2)
    res = scenario_lake_at_rest(cfg)
    assert res.info["l2_error_eta"] <= 1e-12
    assert res.info["l2_error_v"] <= 1e-12
    assert res.info["n_steps"] == 20  # dt = 0.5 up to t = 10
    assert all(c.passed for c in res.checks)


def test_lake_at_rest_sk_short():
    cfg = ScenarioConfig(
        scenario="lake_at_rest", model="svaerd_kalisch", order=4, t_end=0.01
    )
    res = scenario_lake_at_rest(cfg)
    assert all(c.passed for c in res.checks)


def test_soliton_reference_wraps_periodically():
    grid = make_uniform_grid(-35.0, 35.0, 128, "periodic")
    period = 70.0 / (2.5 * np.sqrt(9.81 * 2.0))
    ref0 = soliton_reference(0.0, grid)
    ref1 = soliton_reference(period, grid)
    for a, b in zip(ref0, ref1):
        np.testing.assert_allclose(a, b, atol=1e-8)


def test_dingemans_geometry():
    # k solves the linear dispersion relation for the wave maker frequency
    k = dingemans_wavenumber()
    assert k == pytest.approx(0.84, abs=5e-3)
    omega = 2 * np.pi / (2.02 * np.sqrt(2.0))
    assert 9.81 * k * np.tanh(0.8 * k) == pytest.approx(omega**2, rel=1e-12)
    b = dingemans_bathymetry(np.array([0.0, 11.01, 17.0, 25.0, 30.0, 33.07, 40.0]))
    assert b[0] == 0.0 and b[1] == 0.0
    assert 0.0 < b[2] < 0.6
    assert b[3] == 0.6
    assert 0.0 < b[4] < 0.6
    assert b[5] == pytest.approx(0.0, abs=1e-12) and b[6] == 0.0


def test_dingemans_packet_continuous_at_ends():
    grid = make_uniform_grid(-138.0, 46.0, 4096, "periodic")
    y = dingemans_initial(grid, 2.2)
    eta = y[:4096]
    k = dingemans_wavenumber()
    edges = np.array([2.2 - 34.5 * np.pi / k, 2.2 - 4.5 * np.pi / k])
    near = np.min(np.abs(grid.nodes[:, None] - edges[None, :]), axis=1) < 0.05
    assert np.max(np.abs(eta[near] - 0.8)) <= 0.02 * 0.12
    # 15 waves: count interior crests above the rest level
    interior = eta[1:-1]
    crests = np.sum(
        (interior > eta[:-2]) & (interior > eta[2:]) & (interior > 0.8 + 0.01)
    )
    assert crests == 15


def test_eoc_table_validation():
    with pytest.raises(ConfigurationError):
        EocTable(2, [(64, 1.0, 1.0), (32, 0.5, 0.5)])
    with pytest.raises(ConfigurationError):
        EocTable(2, [(32, 1.0, 1.0), (64, 0.0, 0.5)])
    table = EocTable(2, [(32, 1.0, 2.0), (64, 0.25, 0.5)])
    eoc = table.eoc()[0]
    assert eoc[0] == pytest.approx(2.0) and eoc[1] == pytest.approx(2.0)


def test_gauge_recorder_interpolates_between_steps():
    from dispersive_sw.timestepping import RK4, integrate

    grid = make_uniform_grid(0.0, 1.0, 32, "periodic")
    rec = GaugeRecorder(grid, [0.25, 0.5], interval=0.05)
    n = grid.n_nodes

    def rhs(t, y):
        out = np.zeros_like(y)
        out[:n] = 1.0  # eta rises linearly in time
        return out

    y0 = np.zeros(2 * n)
    rec.start(0.0, y0)
    integrate(rhs, y0, (0.0, 0.52), RK4, dt=0.13, on_step=rec, dense_output=True)
    times = np.array(rec.times)
    np.testing.assert_allclose(times, np.arange(len(times)) * 0.05, atol=1e-12)
    for series in rec.samples:
        np.testing.assert_allclose(np.array(series), times, atol=1e-10)


def test_traveling_wave_small_case():
    cfg = ScenarioConfig(
        scenario="traveling_wave", model="bbm_bbm", wavenumber=0.8,
        n_nodes=128, t_end=5.0,
    )
    res = scenario_traveling_wave(cfg)
    assert all(c.passed for c in res.checks), [c for c in res.checks if not c.passed]
    assert res.info["c_fit"] == pytest.approx(res.info["c_model"], rel=2e-3)


def test_traveling_wave_svaerd_kalisch_compares_with_its_own_dispersion_relation():
    # the model's linear speed is omega / k of its flat-bottom dispersion
    # relation (parameter set2 by default), not the BBM-BBM speed
    k = 0.8
    cfg = ScenarioConfig(
        scenario="traveling_wave", model="svaerd_kalisch", wavenumber=k,
        n_nodes=128, t_end=5.0,
    )
    res = scenario_traveling_wave(cfg)
    h0, g = scenarios.TRAVELING_H0, scenarios.GRAVITY
    c_model = sk.sk_dispersion_omega(k, sk.PARAMETER_SETS["set2"], h0, g) / k
    assert res.info["c_model"] == c_model
    assert abs(c_model - bbm_bbm.bbm_phase_speed(k, h0, g)) > 5e-3
    assert [c.name for c in res.checks] == ["traveling_phase_speed_vs_linear"]
    assert all(c.passed for c in res.checks), res.checks[0].value
    assert res.info["c_fit"] == pytest.approx(c_model, rel=2e-3)


def test_dingemans_writes_the_experimental_gauges(tmp_path):
    # a header and three rows, copied to experimental.csv beside the run's tables
    data = tmp_path / "gauges.csv"
    data.write_text("gauge_id,t,eta\ng1,0.0,0.8\ng1,0.5,0.81\ng2,0.25,-0.002\n")
    out = tmp_path / "out"
    cfg = ScenarioConfig(scenario="dingemans", model="bbm_bbm", n_nodes=64, t_end=0.01,
                         experimental_data=str(data), output_dir=str(out))
    res = run_scenario(cfg)
    assert res.tables["experimental"] == (
        ["gauge_id", "t", "eta"],
        [("g1", 0.0, 0.8), ("g1", 0.5, 0.81), ("g2", 0.25, -0.002)],
    )
    assert (out / "experimental.csv").read_text().splitlines() == [
        "gauge_id,t,eta", "g1,0,0.80000000000000004", "g1,0.5,0.81000000000000005",
        "g2,0.25,-0.002",
    ]


def test_csv_output_deterministic(tmp_path):
    cfg = ScenarioConfig(
        scenario="lake_at_rest", model="bbm_bbm", order=2,
        output_dir=str(tmp_path / "a"),
    )
    run_scenario(cfg)
    cfg2 = ScenarioConfig(
        scenario="lake_at_rest", model="bbm_bbm", order=2,
        output_dir=str(tmp_path / "b"),
    )
    run_scenario(cfg2)
    a = (tmp_path / "a" / "errors.csv").read_bytes()
    b = (tmp_path / "b" / "errors.csv").read_bytes()
    assert a == b
    assert b"l2_error_eta" in a


def test_experimental_gauge_ingestion(tmp_path):
    good = tmp_path / "gauges.csv"
    good.write_text("gauge_id,t,eta\ng1,0.0,0.8\ng1,0.5,0.81\n")
    header, rows = read_experimental_gauges(good)
    assert header == ["gauge_id", "t", "eta"]
    assert rows == [("g1", 0.0, 0.8), ("g1", 0.5, 0.81)]

    # the header is the first row that is not a comment, wherever it stands
    commented = tmp_path / "commented.csv"
    commented.write_text("# note\ngauge_id,t,eta\ng1,0.0,0.01\n")
    assert read_experimental_gauges(commented) == (
        ["gauge_id", "t", "eta"], [("g1", 0.0, 0.01)]
    )
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("# note\ngauge_id,t,eta\ngauge_id,t,eta\n")
    with pytest.raises(IngestionError) as err:
        read_experimental_gauges(repeated)
    assert err.value.line_number == 3

    bad = tmp_path / "bad.csv"
    bad.write_text("g1,0.0,0.8\ng1,oops,0.81\n")
    with pytest.raises(IngestionError) as err:
        read_experimental_gauges(bad)
    assert err.value.line_number == 2

    short = tmp_path / "short.csv"
    short.write_text("g1,0.0\n")
    with pytest.raises(IngestionError) as err:
        read_experimental_gauges(short)
    assert err.value.line_number == 1

    with pytest.raises(IngestionError):
        read_experimental_gauges(tmp_path / "missing.csv")


def test_config_validation():
    with pytest.raises(ConfigurationError):
        config_from_mapping({"scenario": "soliton", "not_a_key": 1})
    with pytest.raises(ConfigurationError):
        config_from_mapping({"scenario": "warp_drive"})
    with pytest.raises(ConfigurationError):
        config_from_mapping({})
    with pytest.raises(ConfigurationError):
        config_from_mapping({"scenario": "soliton", "model": "kdv"})
    with pytest.raises(ConfigurationError):
        ScenarioConfig(scenario="soliton", dt=-0.1)
    # a NaN tolerance would reject every step until MAX_STEPS
    for key in ("atol", "rtol"):
        with pytest.raises(ConfigurationError, match=key):
            config_from_mapping({"scenario": "soliton", key: float("nan")})
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        ScenarioConfig(scenario="manufactured", resolutions=[128, 64])
    # a float is no operator order, as `order: 4.0` is none
    with pytest.raises(ConfigurationError, match="orders must be"):
        config_from_mapping({"scenario": "manufactured", "orders": [2.0, 4]})
    cfg = config_from_mapping({"scenario": "dingemans", "gauges": [1, 2.5]})
    assert cfg.gauges == [1.0, 2.5]


@pytest.mark.parametrize("mapping, message", [
    ({"scenario": "lake_at_rest", "order": 4.0}, "order must be int, got 4.0"),
    ({"scenario": "lake_at_rest", "t_end": "soon"}, "t_end must be float | None, got 'soon'"),
    ({"scenario": "manufactured", "orders": [2.0, 4]},
     "orders must be list[int] | None, got [2.0, 4]"),
    ({"scenario": "dingemans", "gauges": [3.04, True]},
     "gauges must be list[float], got [3.04, True]"),
], ids=["plain", "or_none", "list_or_none", "list"])
def test_config_type_error_names_the_key_and_its_type(mapping, message):
    with pytest.raises(ConfigurationError) as info:
        config_from_mapping(mapping)
    assert str(info.value) == message


def test_write_outputs_formats_17_digits(tmp_path):
    from dispersive_sw.scenarios import ScenarioResult

    res = ScenarioResult("demo", tables={"t": (["a", "b"], [(np.pi, 1)])})
    write_outputs(res, tmp_path)
    text = (tmp_path / "t.csv").read_text()
    assert "3.1415926535897931" in text


def test_relaxed_soliton_reports_end_time_overshoot():
    cfg = ScenarioConfig(scenario="soliton", model="bbm_bbm", order=4,
                         n_nodes=128, t_end=0.5, relaxation=True)
    res = run_scenario(cfg)
    overshoot = res.info["end_time_overshoot"]
    assert overshoot == res.info["final_time"] - 0.5
    assert overshoot != 0.0 and abs(overshoot) <= 1e-6 * 0.5


@pytest.mark.parametrize("variant", sorted({*bbm_bbm.VARIANTS, *sk.VARIANTS}))
def test_operator_set_follows_the_variant(variant, monkeypatch):
    # bc from the prefix, upwind from the suffix, through the module globals
    calls = []
    for name in ("periodic_operators", "bounded_operators"):
        def recording(*args, _name=name, _real=getattr(scenarios, name), **kwargs):
            calls.append((_name, kwargs))
            return _real(*args, **kwargs)
        monkeypatch.setattr(scenarios, name, recording)
    bc = "bounded" if variant.startswith("reflecting") else "periodic"
    ops = scenarios._operators(make_uniform_grid(-1.0, 1.0, 64, bc), variant, 4)
    upwind = variant.endswith("upwind")
    assert calls == [(f"{bc}_operators", {"upwind": upwind})]
    assert (ops.upwind is not None) == upwind


@pytest.mark.parametrize("model, x_tilde", [("bbm_bbm", 2.7), ("svaerd_kalisch", 2.2)])
def test_dingemans_outputs_are_on_the_surface_level(model, x_tilde):
    # BBM-BBM runs around level 0 and shifts eta and b back by h0 = 0.8;
    # Svärd-Kalisch runs at eta0 = 0.8 and shifts by 0
    gauges = [-50.0, 3.04]  # inside the initial packet, and at rest
    cfg = ScenarioConfig(scenario="dingemans", model=model, n_nodes=256,
                         t_end=0.2, gauges=gauges)
    res = run_scenario(cfg)
    _, snapshot = res.tables["snapshot"]
    x = np.array([row[0] for row in snapshot])
    b = np.array([row[3] for row in snapshot])
    np.testing.assert_allclose(b, dingemans_bathymetry(x), rtol=0, atol=1e-15)
    grid = make_uniform_grid(-138.0, 46.0, 256, "periodic")
    eta0 = dingemans_initial(grid, x_tilde)[:256]
    for idx, pos in enumerate(gauges):
        _, samples = res.tables[f"gauge_{idx:02d}"]
        assert samples[0][0] == 0.0
        expected = np.interp(pos, grid.nodes, eta0)
        assert abs(samples[0][1] - expected) <= 1e-15, (pos, samples[0][1], expected)
    assert abs(samples[0][1] - 0.8) <= 1e-15


@pytest.mark.parametrize("variant, relaxation, gated", [
    ("periodic_central_wide", True, True),
    ("periodic_upwind", True, True),
    ("periodic_central_wide", False, False),
    # the non-conservative variant: its drift is reported, not gated
    ("periodic_central_narrow", True, False),
])
def test_dingemans_bbm_bbm_reports_energy_drift_and_gates_it_when_relaxed(
        variant, relaxation, gated):
    cfg = ScenarioConfig(scenario="dingemans", model="bbm_bbm", variant=variant,
                         relaxation=relaxation, n_nodes=256, t_end=2.0)
    res = run_scenario(cfg)
    drift = res.info["energy_drift"]
    checks = {c.name: c for c in res.checks}
    assert ("dingemans_energy_relaxed" in checks) == gated
    if gated:
        check = checks["dingemans_energy_relaxed"]
        assert check.value == drift and check.threshold == 1e-12 and check.passed
    assert "modified_entropy_drift" not in res.info
