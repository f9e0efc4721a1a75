import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonrecip as nr
from nonrecip import cli, cmt, metrics, tuner
from nonrecip.errors import (
    AmbiguousMinimumError,
    DeviceValidationError,
    DomainError,
    GainAboveThresholdError,
    SingularMatrixError,
    TopologyError,
)
from nonrecip.model import directional_amp_parts, wrap_signed

from conftest import count_calls, db, make_circulator, make_diramp, standard_modes


MODE_PAIRS = [(o, i) for o in "abc" for i in "abc"]


def phase_map_rows(device, phis, deltas, pairs):
    """The (n_delta, len(pairs)) |S| of each phi row of ``phase_rows``, a repeated row
    read through ``first_rows``."""
    rows = cmt.phase_rows(device, phis, deltas, pairs)
    mags = list(rows.magnitudes)
    return [mags[q] for q in rows.first_rows]


class TestPhaseSweep:
    def test_single_point_consistency(self, circulator):
        [mags] = phase_map_rows(circulator, [math.pi / 2], [0.0], MODE_PAIRS)
        dev = nr.with_total_phase(circulator, math.pi / 2)
        s = nr.scattering_at(dev, 0.0)
        for n, (o, i) in enumerate(MODE_PAIRS):
            assert math.isclose(mags[0, n], s.magnitudes(o, i)[0],
                                rel_tol=1e-12, abs_tol=1e-12)

    def test_three_working_points_with_alternating_sense(self, circulator):
        phis = np.linspace(-2 * math.pi, math.pi, 1201)
        sbb = [m[0, 0] for m in phase_map_rows(circulator, phis, [0.0], [("b", "b")])]
        # local minima of the input match
        minima = [
            k for k in range(1, len(phis) - 1)
            if sbb[k] < sbb[k - 1] and sbb[k] < sbb[k + 1]
        ]
        locs = phis[minima]
        expected = [-3 * math.pi / 2, -math.pi / 2, math.pi / 2]
        assert len(locs) == 3
        assert np.allclose(sorted(locs), expected, atol=2 * (phis[1] - phis[0]))
        senses = [
            metrics.circulation_sense(
                nr.scattering_at(nr.with_total_phase(circulator, phi), 0.0)
            )
            for phi in expected
        ]
        # -3pi/2 is +pi/2 modulo 2pi: the senses alternate CW / CCW / CW
        assert senses == [
            metrics.CirculationSense.CW,
            metrics.CirculationSense.CCW,
            metrics.CirculationSense.CW,
        ]

    def test_minima_pair_separated_by_pi(self, circulator):
        phis = np.linspace(-math.pi, math.pi, 1441)
        sbb = [m[0, 0] for m in phase_map_rows(circulator, phis, [0.0], [("b", "b")])]
        minima = phis[
            [k for k in range(1, len(phis) - 1)
             if sbb[k] < sbb[k - 1] and sbb[k] < sbb[k + 1]]
        ]
        assert len(minima) == 2
        assert math.isclose(abs(minima[1] - minima[0]), math.pi, abs_tol=0.02)

    def test_transpose_property(self, circulator):
        phis = np.array([-1.1, 0.4, 2.2])
        deltas = np.linspace(-5e6, 5e6, 7)
        pos = phase_map_rows(circulator, phis, deltas, MODE_PAIRS)
        # column n of neg is the transpose (i, o) of the pair (o, i) in column n of pos
        neg = phase_map_rows(circulator, -phis[::-1], deltas, [(i, o) for o, i in MODE_PAIRS])
        for pos_row, neg_row in zip(pos, neg[::-1]):
            assert np.allclose(pos_row, neg_row, atol=1e-10)

    def test_empty_grid_rejected(self, circulator):
        with pytest.raises(DomainError, match="phase map grids must be non-empty"):
            cmt.phase_rows(circulator, [], [0.0], MODE_PAIRS)


class TestConversionSweep:
    def test_fig5_regimes(self, diramp):
        res = tuner.conversion_sweep(diramp, [0.21, 0.95, 0.989])
        assert res.reflection_port == "b" and res.idler_port == "c"
        # low conversion: reflection gain; high conversion: absorption
        assert res.reflection_mag[0] > 1.0
        assert res.reflection_mag[2] < 1.0
        # forward gain peaks at low conversion
        assert res.forward_mag[0] > res.forward_mag[2] > 1.0

    def test_threshold_equality(self, diramp):
        g_bc = cmt.gain_coefficient(diramp.coupling_for(("b", "c")).rho)
        c_star = cmt.directionality_threshold(g_bc)
        res = tuner.conversion_sweep(diramp, [c_star])
        assert math.isclose(res.reflection_mag[0], 1.0, abs_tol=1e-9)
        assert math.isclose(res.threshold_c, c_star, rel_tol=1e-12)

    def test_crossing_agrees_with_threshold(self, diramp):
        lo, hi = 0.9, 0.999999
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            refl = tuner.conversion_sweep(diramp, [mid]).reflection_mag[0]
            if refl > 1.0:
                lo = mid
            else:
                hi = mid
        crossing = 0.5 * (lo + hi)
        assert abs(crossing - tuner.conversion_sweep(diramp, [0.5]).threshold_c) < 1e-6

    def test_wrong_topology(self, circulator):
        with pytest.raises(TopologyError):
            tuner.conversion_sweep(circulator, [0.5])


class TestCalibratePhaseOffset:
    def test_circulator_recovers_injected_offset(self, circulator):
        injected = 0.3
        dev = nr.with_total_phase(circulator, injected)
        cal = tuner.calibrate_phase_offset(dev)
        # objective minima where injected + offset = +-pi/2
        assert abs(cal.candidates[0] - (math.pi / 2 - injected)) < 1e-6
        assert abs(cal.candidates[1] - (-math.pi / 2 - injected)) < 1e-6
        assert cal.primary == cal.candidates[0]

    def test_primary_branch_is_clockwise(self, circulator):
        # every rho 0.2 isolates by less than ISOLATION_MARGIN_DB: both branches read NONE
        weak = nr.validate_device(circulator.modes, (
            nr.PumpedCoupling(c.pair, c.kind, 0.2, c.phase) for c in circulator.couplings))
        forward, reverse = metrics.cycle_pairs(circulator.mode_names)
        senses = []
        for dev in (nr.with_total_phase(circulator, -1.234), weak):
            cal = tuner.calibrate_phase_offset(dev)
            tuned = nr.with_total_phase(dev, nr.total_pump_phase(dev) + cal.primary)
            s = nr.scattering_at(tuned, 0.0)
            assert (min(s.magnitudes(o, i)[0] for o, i in forward)
                    > max(s.magnitudes(o, i)[0] for o, i in reverse))
            senses.append(metrics.circulation_sense(s))
        assert senses == [metrics.CirculationSense.CW, metrics.CirculationSense.NONE]

    def test_diramp_anchors(self, diramp):
        injected = 0.3
        dev = nr.with_total_phase(diramp, injected)
        cal = tuner.calibrate_phase_offset(dev)
        # idler-reflection minima sit at injected + offset in {0, pi}
        assert abs(cal.candidates[0] - (-injected)) < 1e-6
        assert abs(abs(cal.candidates[1] + injected) - math.pi) < 1e-6

    def test_diramp_primary_orients_roles(self, diramp):
        dev = nr.with_total_phase(diramp, 0.77)
        cal = tuner.calibrate_phase_offset(dev)
        t0 = nr.total_pump_phase(dev)
        roles = metrics.role_map(dev, t0 + cal.primary + math.pi / 2)
        assert roles.signal == "a"

    @pytest.mark.parametrize("name, expected", [
        ("circulator", (0.0, math.pi)),  # phi_tot = pi/2; a half-turn wraps to +pi
        ("diramp", (math.pi / 2, -math.pi / 2)),  # phi_tot = -pi/2
    ])
    def test_bundled_configs_calibrate_exactly(self, name, expected):
        device = cli.load_config(str(cli.bundled_config_path(name))).device
        cal = tuner.calibrate_phase_offset(device)
        assert cal.candidates == expected and cal.primary == expected[0]

    def test_pumps_off_ambiguous(self, bare_device):
        dev = nr.validate_device(
            bare_device.modes,
            (
                nr.PumpedCoupling(("a", "b"), "conversion", 0.0),
                nr.PumpedCoupling(("b", "c"), "conversion", 0.0),
                nr.PumpedCoupling(("a", "c"), "conversion", 0.0),
            ),
        )
        with pytest.raises(AmbiguousMinimumError):
            tuner.calibrate_phase_offset(dev)

    @pytest.mark.parametrize("make", [make_circulator, make_diramp], ids=["circulator", "diramp"])
    @pytest.mark.parametrize("pair", [("a", "b"), ("a", "c"), ("b", "c")], ids="".join)
    def test_one_coupling_off_is_ambiguous(self, make, pair):
        # the loop product is 0, so |S_kk| does not vary with phi_tot
        with pytest.raises(AmbiguousMinimumError):
            tuner.calibrate_phase_offset(nr.with_coupling(make(), pair, rho=0.0))

    @pytest.mark.parametrize("make", [make_circulator, make_diramp], ids=["circulator", "diramp"])
    @pytest.mark.parametrize("pair", [("a", "b"), ("a", "c"), ("b", "c")], ids="".join)
    def test_tiny_coupling_calibrates_to_the_topology_pair(self, make, pair):
        # rho = 1e-30 leaves the response flat to round-off, yet the loop product is not 0
        dev = nr.with_coupling(make(phi_tot=0.3), pair, rho=1e-30)
        k = dev.index("b" if dev.is_circulator else directional_amp_parts(dev)[3])
        at_0, at_half_pi = np.abs(cmt.solve_batch(dev, 0.0, phi_tot=[0.0, math.pi / 2])[:, k, k])
        assert abs(at_half_pi - at_0) < 1e-12
        base = math.pi / 2 if dev.is_circulator else 0.0
        cal = tuner.calibrate_phase_offset(dev)
        assert abs(cal.candidates[0] - (base - 0.3)) < 1e-12
        assert cal.candidates[1] == wrap_signed(cal.candidates[0] + math.pi)

    def test_diramp_singular_at_its_working_points_calibrates(self):
        # 1 + rho_ab = rho_ac + rho_bc: singular at delta = 0 at phi_tot = +-pi/2 alone; the
        # anchor phi_tot = 0, where objective_values is read, is regular
        dev = nr.with_total_phase(nr.validate_device(standard_modes(), (
            nr.PumpedCoupling(("a", "b"), "conversion", 0.2),
            nr.PumpedCoupling(("a", "c"), "gain", 0.6),
            nr.PumpedCoupling(("b", "c"), "gain", 0.6),
        )), -math.pi / 2)
        with pytest.raises(SingularMatrixError):
            cmt.solve_batch(dev, 0.0, phi_tot=math.pi / 2)
        cal = tuner.calibrate_phase_offset(dev)
        assert cal.candidates == (math.pi / 2, -math.pi / 2)  # phi_tot = 0 and -pi
        assert cal.objective_values[0] == cal.objective_values[1]
        assert math.isclose(cal.objective_values[0], 4.5826, rel_tol=1e-4)

    def test_wrong_topology(self, bare_device):
        with pytest.raises(TopologyError):
            tuner.calibrate_phase_offset(bare_device)


PAIRS = (("a", "b"), ("a", "c"), ("b", "c"))
TOPOLOGIES = ("circulator",) + PAIRS  # a circulator, or the directional amp's conversion pair


@st.composite
def tuning_problems(draw):
    """A random valid device (kappas over four decades, distinct frequencies in
    any order, any stored phase) with an objective its topology supports."""
    kappas = draw(st.lists(st.floats(1e5, 1e9), min_size=3, max_size=3))
    freqs = draw(st.lists(st.floats(1e9, 2e10), min_size=3, max_size=3, unique=True))
    modes = tuple(nr.ModeSpec(n, f, k) for n, f, k in zip("abc", freqs, kappas))
    topology = draw(st.sampled_from(TOPOLOGIES))
    if topology == "circulator":
        couplings = tuple(nr.PumpedCoupling(p, "conversion", 0.5) for p in PAIRS)
        objective = tuner.Objective(draw(st.sampled_from(
            [tuner.ObjectiveKind.CIRCULATOR_CW, tuner.ObjectiveKind.CIRCULATOR_CCW])))
    else:
        couplings = tuple(nr.PumpedCoupling(p, "conversion" if p == topology else "gain", 0.3)
                          for p in PAIRS)
        objective = tuner.Objective(tuner.ObjectiveKind.DIRECTIONAL_AMP,
                                    target_gain_db=draw(st.floats(0.0, tuner.G_MAX_DB)))
    device = nr.validate_device(modes, couplings)
    phi = draw(st.one_of(st.just(0.0), st.floats(-7.0, 7.0)))
    return nr.with_total_phase(device, phi), objective


@st.composite
def calibrated_devices(draw):
    """A random circulator, or a directional amp with its conversion on any
    pair: kappas 5-60 MHz, conversion rho in [0, 1.5], gain rho in [0, 0.3],
    any stored phases."""
    kappas = draw(st.lists(st.floats(5e6, 60e6), min_size=3, max_size=3))
    modes = tuple(nr.ModeSpec(n, f, k) for n, f, k in zip("abc", (9e9, 5e9, 7e9), kappas))
    topology = draw(st.sampled_from(TOPOLOGIES))
    phases = st.floats(0.0, 2 * math.pi)
    couplings = tuple(
        nr.PumpedCoupling(p, "conversion", draw(st.floats(0.0, 1.5)), draw(phases))
        if topology in ("circulator", p)
        else nr.PumpedCoupling(p, "gain", draw(st.floats(0.0, 0.3)), draw(phases))
        for p in PAIRS)
    return nr.validate_device(modes, couplings)


class TestCalibrationStructure:
    """At delta = 0 the calibration response depends on phi_tot only through
    sin^2 of a cardinal shift of it, so its minima are a cardinal pair."""

    @settings(max_examples=300)
    @given(device=calibrated_devices(), phi=st.floats(-math.pi, math.pi))
    def test_cardinal_pair_is_the_minimum(self, device, phi):
        port = "b" if device.is_circulator else directional_amp_parts(device)[3]
        k = device.index(port)

        def response(phis):
            s = cmt.solve_batch(device, 0.0, phi_tot=np.asarray(phis, dtype=float))
            return np.abs(s[:, k, k])

        at_phi, mirrored, shifted = response([phi, -phi, math.pi - phi])
        assert math.isclose(mirrored, at_phi, rel_tol=1e-12)
        assert math.isclose(shifted, at_phi, rel_tol=1e-12)
        grid = response(np.linspace(-math.pi, math.pi, 4001))
        try:
            cal = tuner.calibrate_phase_offset(device)
        except AmbiguousMinimumError:
            assert np.ptp(grid) < 2e-12  # flat over the whole turn too
            return
        t0 = nr.total_pump_phase(device)
        # no higher than the grid's minimum, up to the solve's round-off
        assert response(t0 + np.array(cal.candidates)).max() <= grid.min() * (1 + 1e-12)
        c1, c2 = cal.candidates
        assert wrap_signed(c1 + math.pi) == c2 or wrap_signed(c2 + math.pi) == c1


class TestWorkingPoint:
    """The closed-form working points ``tune`` starts from, over random devices."""

    @settings(max_examples=150)
    @given(problem=tuning_problems())
    def test_meets_its_target_and_is_stable(self, problem):
        template, objective = problem
        result = tuner.tune(template, objective)
        assert result.stop_reason == "target_met"
        # the device tune returns is the working point, and it does not oscillate
        amp = objective.kind is tuner.ObjectiveKind.DIRECTIONAL_AMP
        rho_gain = tuner._gain_rho(objective.target_gain_db) if amp else None
        assert [c.rho for c in result.device.couplings] == [
            rho_gain if c.kind is nr.ProcessKind.GAIN else 1.0 for c in template.couplings]
        up = (math.sin(nr.total_pump_phase(template)) >= 0.0 if amp
              else objective.kind is tuner.ObjectiveKind.CIRCULATOR_CW)
        assert nr.total_pump_phase(result.device) == (math.pi / 2 if up else -math.pi / 2)
        poles = np.linalg.eigvals(cmt.build_dynamics_matrix(result.device, 0.0))
        assert poles.real.min() > 0.0

    @settings(max_examples=100)
    @given(problem=tuning_problems(), phi=st.floats(-7.0, 7.0), pick=st.integers(0, 2),
           rho=st.floats(0.0, 0.99), phase=st.floats(-7.0, 7.0), over=st.floats(1.0, 1e6))
    def test_parameter_changes_keep_the_validated_device(self, problem, phi, pick, rho, phase,
                                                         over):
        # the working point and both helpers keep the template's modes, kinds and conjugation
        template, objective = problem
        pair = template.couplings[pick].pair
        for device in (tuner.tune(template, objective).device,
                       nr.with_total_phase(template, phi),
                       nr.with_coupling(template, pair, rho=rho, phase=phase)):
            assert device == nr.validate_device(device.modes, device.couplings)
        # each new coupling still checks itself
        for c in template.couplings:
            if c.kind is nr.ProcessKind.GAIN:
                with pytest.raises(GainAboveThresholdError):
                    nr.with_coupling(template, c.pair, rho=over)
        with pytest.raises(DeviceValidationError):
            nr.with_coupling(template, pair, phase=math.nan)

    def test_topologies_cover_conjugated_frames(self):
        # the gain-coupled idler is conjugated; a conversion on (b, c) links two
        # conjugated channels
        modes = (nr.ModeSpec("a", 9e9, 4e7), nr.ModeSpec("b", 5e9, 2e7), nr.ModeSpec("c", 7e9, 5e7))
        frames = [nr.validate_device(modes, tuple(
            nr.PumpedCoupling(p, "conversion" if p == pair else "gain", 0.3) for p in PAIRS)
        ).conjugated for pair in TOPOLOGIES[1:]]
        assert frames == [(False, False, True), (False, True, False), (False, True, True)]

    def test_bundled_diramp_meets_every_target_to_g_max(self):
        # 0 to 126 dB in 0.05 dB steps; near RHO_GAIN_MAX one ulp of the gain rho
        # moves the gain by ~1e-9 dB, which the met tolerance has to allow
        diramp = cli.load_config(str(cli.bundled_config_path("diramp"))).device
        for k in range(2521):
            objective = tuner.Objective(tuner.ObjectiveKind.DIRECTIONAL_AMP,
                                        target_gain_db=0.05 * k)
            result = tuner.tune(diramp, objective)
            assert result.stop_reason == "target_met", 0.05 * k

    def test_gain_tolerance_has_a_1e9_db_floor(self):
        assert tuner._gain_tolerance_db(0.0) == tuner._gain_tolerance_db(90.0) == 1e-9
        # 16 ulps of rho at RHO_GAIN_MAX, each ~9.6e-10 dB
        assert 1.5e-8 < tuner._gain_tolerance_db(tuner.G_MAX_DB) < 1.6e-8

    @pytest.mark.parametrize("target", [math.nan, math.inf, 130.0, -1.0])
    def test_unreachable_target_names_the_limit(self, target):
        with pytest.raises(DomainError, match=r"G_MAX_DB = 126\.02\] dB"):
            tuner.Objective(tuner.ObjectiveKind.DIRECTIONAL_AMP, target_gain_db=target)
        # circulators do not read the target
        tuner.Objective(tuner.ObjectiveKind.CIRCULATOR_CW, target_gain_db=target)


class TestTune:
    def test_circulator_recovery_from_perturbed_start(self, monkeypatch):
        rng = np.random.default_rng(2024)
        objective = tuner.Objective(tuner.ObjectiveKind.CIRCULATOR_CW)
        pert = rng.uniform(0.8, 1.2, 3)
        start = make_circulator(phi_tot=math.pi / 2 + rng.uniform(-0.5, 0.5))
        for pair, rho in zip(((("a", "b")), ("a", "c"), ("b", "c")), pert):
            start = nr.with_coupling(start, pair, rho=float(rho))
        solves = count_calls(monkeypatch, "solve_batch", cmt)
        result = tuner.tune(start, objective)
        assert len(solves) == 1 and solves[0].shape == (1, 3, 3)  # one point, one solve
        s = nr.scattering_at(result.device, 0.0)
        assert max(db(s, n, n) for n in "abc") <= -30.0
        assert abs(nr.total_pump_phase(result.device) - math.pi / 2) <= 1e-3

    def test_start_at_optimum_stays(self):
        dev = make_circulator(1.0, 1.0, 1.0, phi_tot=math.pi / 2)
        result = tuner.tune(dev, tuner.Objective(tuner.ObjectiveKind.CIRCULATOR_CW))
        assert result.converged
        assert result.objective_value <= -600.0

    def test_ccw_objective_lands_on_minus_half_pi(self):
        start = make_circulator(phi_tot=-math.pi / 2 + 0.3)
        result = tuner.tune(start, tuner.Objective(tuner.ObjectiveKind.CIRCULATOR_CCW))
        assert abs(nr.total_pump_phase(result.device) + math.pi / 2) <= 1e-3

    def test_diramp_target_14db(self, diramp):
        objective = tuner.Objective(tuner.ObjectiveKind.DIRECTIONAL_AMP, target_gain_db=14.0)
        result = tuner.tune(diramp, objective)
        dev = result.device
        s = nr.scattering_at(dev, 0.0)
        roles = metrics.role_map(dev, nr.total_pump_phase(dev))
        fwd_db = metrics.to_db(s.magnitudes(roles.idler, roles.signal)[0] ** 2)
        assert abs(fwd_db - 14.0) <= 0.5
        assert db(s, roles.signal, roles.signal) <= -16.0
        assert db(s, roles.vacuum, roles.vacuum) <= -16.0

    def test_deterministic(self, circulator):
        objective = tuner.Objective(tuner.ObjectiveKind.CIRCULATOR_CW)
        r1 = tuner.tune(circulator, objective)
        r2 = tuner.tune(circulator, objective)
        assert r1.objective_value == r2.objective_value
        assert r1.device.couplings == r2.device.couplings

    def test_tuned_parameters_respect_invariants(self, diramp):
        objective = tuner.Objective(tuner.ObjectiveKind.DIRECTIONAL_AMP, target_gain_db=20.0)
        result = tuner.tune(diramp, objective)
        for c in result.device.couplings:
            if c.kind is nr.ProcessKind.GAIN:
                assert 0.0 <= c.rho < 1.0
            else:
                assert c.rho >= 0.0

    def test_topology_mismatch(self, circulator, diramp):
        with pytest.raises(TopologyError):
            tuner.tune(circulator,
                       tuner.Objective(tuner.ObjectiveKind.DIRECTIONAL_AMP, target_gain_db=10))
        with pytest.raises(TopologyError):
            tuner.tune(diramp, tuner.Objective(tuner.ObjectiveKind.CIRCULATOR_CW))

    def test_objective_validation(self):
        with pytest.raises(DomainError):
            tuner.Objective(tuner.ObjectiveKind.DIRECTIONAL_AMP, target_gain_db=-1.0)
