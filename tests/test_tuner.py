import math

import numpy as np
import pytest

import nonrecip as nr
from nonrecip import cmt, metrics, tuner
from nonrecip.errors import AmbiguousMinimumError, DomainError, TopologyError

from conftest import make_circulator


class TestPhaseSweep:
    def test_single_point_consistency(self, circulator):
        ps = tuner.phase_sweep(circulator, [math.pi / 2], [0.0])
        dev = nr.with_total_phase(circulator, math.pi / 2)
        s = nr.scattering_at(dev, 0.0)
        for o in "abc":
            for i in "abc":
                assert math.isclose(ps.magnitude(o, i)[0, 0], s.magnitude(o, i),
                                    rel_tol=1e-12, abs_tol=1e-12)

    def test_three_working_points_with_alternating_sense(self, circulator):
        phis = np.linspace(-2 * math.pi, math.pi, 1201)
        ps = tuner.phase_sweep(circulator, phis, [0.0])
        sbb = ps.magnitude("b", "b")[:, 0]
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
        ps = tuner.phase_sweep(circulator, phis, [0.0])
        sbb = ps.magnitude("b", "b")[:, 0]
        minima = phis[
            [k for k in range(1, len(phis) - 1)
             if sbb[k] < sbb[k - 1] and sbb[k] < sbb[k + 1]]
        ]
        assert len(minima) == 2
        assert math.isclose(abs(minima[1] - minima[0]), math.pi, abs_tol=0.02)

    def test_transpose_property(self, circulator):
        phis = np.array([-1.1, 0.4, 2.2])
        deltas = np.linspace(-5e6, 5e6, 7)
        pos = tuner.phase_sweep(circulator, phis, deltas)
        neg = tuner.phase_sweep(circulator, -phis[::-1], deltas)
        for o in "abc":
            for i in "abc":
                assert np.allclose(
                    pos.magnitude(o, i), neg.magnitude(i, o)[::-1], atol=1e-10
                )

    def test_empty_grid_rejected(self, circulator):
        with pytest.raises(DomainError):
            tuner.phase_sweep(circulator, [], [0.0])


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
        dev = nr.with_total_phase(circulator, -1.234)
        cal = tuner.calibrate_phase_offset(dev)
        tuned = nr.with_total_phase(dev, nr.total_pump_phase(dev).value + cal.primary)
        s = nr.scattering_at(tuned, 0.0)
        assert metrics.circulation_sense(s) is metrics.CirculationSense.CW

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
        t0 = nr.total_pump_phase(dev).value
        roles = metrics.role_map(dev, t0 + cal.primary + math.pi / 2)
        assert roles.signal == "a"

    def test_pumps_off_ambiguous(self, bare_device):
        dev = nr.validate_device(
            nr.DeviceConfig(
                bare_device.modes,
                (
                    nr.PumpedCoupling(("a", "b"), "conversion", 0.0),
                    nr.PumpedCoupling(("b", "c"), "conversion", 0.0),
                    nr.PumpedCoupling(("a", "c"), "conversion", 0.0),
                ),
            )
        )
        with pytest.raises(AmbiguousMinimumError):
            tuner.calibrate_phase_offset(dev)

    def test_wrong_topology(self, bare_device):
        with pytest.raises(TopologyError):
            tuner.calibrate_phase_offset(bare_device)


class TestTune:
    def test_circulator_recovery_from_perturbed_start(self):
        rng = np.random.default_rng(2024)
        objective = tuner.Objective(tuner.ObjectiveKind.CIRCULATOR_CW)
        pert = rng.uniform(0.8, 1.2, 3)
        start = make_circulator(phi_tot=math.pi / 2 + rng.uniform(-0.5, 0.5))
        for pair, rho in zip(((("a", "b")), ("a", "c"), ("b", "c")), pert):
            start = nr.with_coupling(start, pair, rho=float(rho))
        result = tuner.tune(start, objective, budget=2000)
        assert result.evaluations <= 2000
        s = nr.scattering_at(result.device, 0.0)
        assert max(s.db(n, n) for n in "abc") <= -30.0
        assert abs(nr.total_pump_phase(result.device).value - math.pi / 2) <= 1e-3

    def test_start_at_optimum_stays(self):
        dev = make_circulator(1.0, 1.0, 1.0, phi_tot=math.pi / 2)
        result = tuner.tune(dev, tuner.Objective(tuner.ObjectiveKind.CIRCULATOR_CW),
                            budget=2000)
        assert result.converged
        assert result.objective_value <= -600.0

    def test_ccw_objective_lands_on_minus_half_pi(self):
        start = make_circulator(phi_tot=-math.pi / 2 + 0.3)
        result = tuner.tune(start, tuner.Objective(tuner.ObjectiveKind.CIRCULATOR_CCW),
                            budget=2000)
        assert abs(nr.total_pump_phase(result.device).value + math.pi / 2) <= 1e-3

    def test_diramp_target_14db(self, diramp):
        objective = tuner.Objective(tuner.ObjectiveKind.DIRECTIONAL_AMP, target_gain_db=14.0)
        result = tuner.tune(diramp, objective, budget=2000)
        dev = result.device
        s = nr.scattering_at(dev, 0.0)
        roles = metrics.role_map(dev, nr.total_pump_phase(dev))
        fwd_db = metrics.to_db(s.magnitude(roles.idler, roles.signal) ** 2)
        assert abs(fwd_db - 14.0) <= 0.5
        assert s.db(roles.signal, roles.signal) <= -16.0
        assert s.db(roles.vacuum, roles.vacuum) <= -16.0

    def test_trace_monotone_non_increasing(self, diramp):
        objective = tuner.Objective(tuner.ObjectiveKind.DIRECTIONAL_AMP, target_gain_db=14.0)
        result = tuner.tune(diramp, objective, budget=500)
        assert all(a >= b for a, b in zip(result.trace, result.trace[1:]))

    def test_deterministic(self, circulator):
        objective = tuner.Objective(tuner.ObjectiveKind.CIRCULATOR_CW)
        r1 = tuner.tune(circulator, objective, budget=300)
        r2 = tuner.tune(circulator, objective, budget=300)
        assert r1.trace == r2.trace
        assert r1.device.couplings == r2.device.couplings

    def test_tuned_parameters_respect_invariants(self, diramp):
        objective = tuner.Objective(tuner.ObjectiveKind.DIRECTIONAL_AMP, target_gain_db=20.0)
        result = tuner.tune(diramp, objective, budget=800)
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

    def test_bad_budget(self, circulator):
        with pytest.raises(DomainError):
            tuner.tune(circulator, tuner.Objective(tuner.ObjectiveKind.CIRCULATOR_CW),
                       budget=0)

    def test_objective_validation(self):
        with pytest.raises(DomainError):
            tuner.Objective(tuner.ObjectiveKind.DIRECTIONAL_AMP, target_gain_db=-1.0)

    @pytest.mark.parametrize("kind", list(tuner.ObjectiveKind))
    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # the simplex
    def test_non_finite_phase_scores_penalty(self, kind, phi, circulator, diramp):
        template = diramp if kind is tuner.ObjectiveKind.DIRECTIONAL_AMP else circulator
        objective = tuner.Objective(kind, target_gain_db=14.0)
        x0 = [c.rho for c in template.couplings] + [phi]
        assert tuner._objective_function(template, objective)(np.array(x0)) == tuner.PENALTY_DB
        # every simplex vertex keeps the non-finite phase, so nothing beats the penalty
        result = tuner.tune(template, objective, initial=x0, budget=50)
        assert result.objective_value == tuner.PENALTY_DB
