import math

import numpy as np
import pytest

import nonrecip as nr
from nonrecip import cmt, metrics
from nonrecip.errors import DomainError, EmptyBandError, TopologyError

from conftest import make_circulator, make_diramp, make_single


class TestDbHelpers:
    def test_to_db(self):
        assert metrics.to_db(1.0) == 0.0
        assert math.isclose(metrics.to_db(20.0), 13.010299956639813)

    def test_amp_db(self):
        assert metrics.amp_db(1.0) == 0.0
        assert math.isclose(metrics.amp_db(0.5), -6.020599913279624)

    def test_domain(self):
        for f in (metrics.to_db, metrics.amp_db):
            with pytest.raises(DomainError):
                f(0.0)
            with pytest.raises(DomainError):
                f(-1.0)


class TestCirculationSense:
    def test_cw_at_plus_half_pi(self):
        s = nr.scattering_at(make_circulator(phi_tot=math.pi / 2), 0.0)
        assert metrics.circulation_sense(s) is metrics.CirculationSense.CW

    def test_ccw_at_minus_half_pi(self):
        s = nr.scattering_at(make_circulator(phi_tot=-math.pi / 2), 0.0)
        assert metrics.circulation_sense(s) is metrics.CirculationSense.CCW

    def test_none_at_zero_phase(self):
        s = nr.scattering_at(make_circulator(phi_tot=0.0), 0.0)
        assert metrics.circulation_sense(s) is metrics.CirculationSense.NONE

    def test_multi_point_sweep_reads_center_point(self):
        cw = nr.scattering_at(make_circulator(phi_tot=math.pi / 2), 0.0).entries[0]
        ccw = nr.scattering_at(make_circulator(phi_tot=-math.pi / 2), 0.0).entries[0]
        deltas = np.array([-3e6, -1e6, 0.5e6, 2e6])  # center index 2
        device = make_circulator()
        for center, edge, sense in ((cw, ccw, "CW"), (ccw, cw, "CCW")):
            sw = nr.SweepResult(deltas, np.stack([edge, edge, center, edge]), device)
            assert metrics.circulation_sense(sw) is metrics.CirculationSense[sense]
        sw = nr.sweep(make_circulator(phi_tot=math.pi / 2), np.linspace(-30e6, 30e6, 101))
        assert metrics.circulation_sense(sw) is metrics.CirculationSense.CW

    def test_sense_reverses_with_phase_sign(self):
        rng = np.random.default_rng(5)
        opposite = {
            metrics.CirculationSense.CW: metrics.CirculationSense.CCW,
            metrics.CirculationSense.CCW: metrics.CirculationSense.CW,
            metrics.CirculationSense.NONE: metrics.CirculationSense.NONE,
        }
        for _ in range(12):
            cs = rng.uniform(0.3, 1.0, 3)
            tot = rng.uniform(-math.pi, math.pi)
            pos = metrics.circulation_sense(
                nr.scattering_at(make_circulator(*cs, phi_tot=tot), 0.0)
            )
            neg = metrics.circulation_sense(
                nr.scattering_at(make_circulator(*cs, phi_tot=-tot), 0.0)
            )
            assert neg is opposite[pos]


class TestCirculatorBandwidth:
    def test_standard_point_near_11_mhz(self, circulator):
        sw = nr.sweep(circulator, np.linspace(-30e6, 30e6, 4001))
        bw = metrics.circulator_bandwidth(sw)
        assert math.isclose(bw, 11.43e6, rel_tol=0.02)

    def test_ideal_band_positive(self):
        dev = make_circulator(1.0, 1.0, 1.0, phi_tot=math.pi / 2)
        sw = nr.sweep(dev, np.linspace(-30e6, 30e6, 2001))
        assert metrics.circulator_bandwidth(sw) > 0

    def test_weak_conversion_empty(self):
        dev = make_circulator(0.5, 0.5, 0.5, phi_tot=math.pi / 2)
        sw = nr.sweep(dev, np.linspace(-30e6, 30e6, 501))
        with pytest.raises(EmptyBandError):
            metrics.circulator_bandwidth(sw)

    def test_circulating_center_outside_the_criteria_is_empty(self):
        # C = 0.67 circulates at delta = 0 but matches worse than BAND_MATCH_DB there
        sw = nr.sweep(make_circulator(0.67, 0.67, 0.67), np.linspace(-30e6, 30e6, 101))
        assert metrics.circulation_sense(sw) is metrics.CirculationSense.CW
        with pytest.raises(EmptyBandError, match="criteria fail at zero detuning"):
            metrics.circulator_bandwidth(sw)

    def test_wrong_topology(self, diramp):
        sw = nr.sweep(diramp, np.linspace(-30e6, 30e6, 11))
        with pytest.raises(TopologyError):
            metrics.circulator_bandwidth(sw)


class TestGainBandwidth:
    def test_13db_two_mode_matches_lorentzian_halfwidth(self):
        dev = make_single("gain", ("a", "c"), cmt.rho_for_gain(10 ** 1.3))
        sw = nr.sweep(dev, np.linspace(-30e6, 30e6, 6001))
        bw = metrics.gain_bandwidth_3db(sw, "a", "a")
        # fit 1/p = 1/A + delta^2/(A w^2); half-power full width is 2w
        p = sw.magnitudes("a", "a") ** 2
        sel = np.abs(sw.deltas) <= bw / 1.5
        slope, intercept = np.polyfit(sw.deltas[sel] ** 2, 1.0 / p[sel], 1)
        fitted = 2.0 * math.sqrt(intercept / slope)
        assert math.isclose(bw, fitted, rel_tol=0.05)
        assert math.isclose(bw, 9.9e6, rel_tol=0.02)

    def test_no_pump_full_grid(self, bare_device):
        grid = np.linspace(-30e6, 30e6, 101)
        sw = nr.sweep(bare_device, grid)
        assert metrics.gain_bandwidth_3db(sw, "a", "a") == grid[-1] - grid[0]

    def test_no_transmission_raises(self, bare_device):
        sw = nr.sweep(bare_device, np.linspace(-30e6, 30e6, 101))
        with pytest.raises(EmptyBandError):
            metrics.gain_bandwidth_3db(sw, "a", "b")

    def test_diramp_forward_band_order_10_mhz(self, diramp):
        sw = nr.sweep(diramp, np.linspace(-40e6, 40e6, 8001))
        bw = metrics.gain_bandwidth_3db(sw, "b", "c")  # signal b -> idler c branch
        assert 5e6 < bw < 50e6


class TestEmptySweep:
    def test_has_no_band(self, circulator, diramp):
        with pytest.raises(EmptyBandError, match="^empty sweep$"):
            metrics.circulator_bandwidth(nr.sweep(circulator, []))
        with pytest.raises(EmptyBandError, match="^empty sweep$"):
            metrics.gain_bandwidth_3db(nr.sweep(diramp, []), "b", "c")


class TestNvr:
    def test_pumps_off_zero(self, bare_device):
        s = nr.scattering_at(bare_device, 0.0)
        for v in metrics.nvr(s).values():
            assert abs(v) < 1e-12

    def test_single_gain_20(self):
        dev = make_single("gain", ("a", "c"), cmt.rho_for_gain(20.0))
        s = nr.scattering_at(dev, 0.0)
        values = metrics.nvr(s)
        # row a carries G + (G-1) = 39 photons-worth of vacuum
        assert math.isclose(values["a"], 10 * math.log10(39.0), rel_tol=1e-9)
        assert abs(values["b"]) < 1e-9

    def test_ideal_diramp_quiet_signal_row(self):
        dev = make_diramp(1.0, 13.0, 13.0, phi_tot=-math.pi / 2)
        s = nr.scattering_at(dev, 0.0)
        roles = metrics.role_map(dev, -math.pi / 2)
        values = metrics.nvr(s)
        assert abs(values[roles.signal]) < 1e-9
        assert values[roles.idler] > 10.0


class TestAddedNoise:
    def test_ideal_circulator_noiseless(self):
        dev = make_circulator(1.0, 1.0, 1.0, phi_tot=math.pi / 2)
        s = nr.scattering_at(dev, 0.0)
        assert metrics.added_noise(s, "a", "b") < 1e-20

    def test_single_gain_approaches_half_photon(self):
        for g in (2.0, 20.0, 2000.0):
            dev = make_single("gain", ("a", "c"), cmt.rho_for_gain(g))
            s = nr.scattering_at(dev, 0.0)
            expected = (g - 1.0) / (2.0 * g)
            assert math.isclose(metrics.added_noise(s, "a", "a"), expected, rel_tol=1e-9)

    def test_zero_gain_path_rejected(self, bare_device):
        s = nr.scattering_at(bare_device, 0.0)
        with pytest.raises(DomainError):
            metrics.added_noise(s, "a", "b")

    def test_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            dev = make_diramp(rng.uniform(0.9, 1.0), rng.uniform(6, 14), rng.uniform(6, 14))
            s = nr.scattering_at(dev, 0.0)
            roles = metrics.role_map(dev, -math.pi / 2)
            assert metrics.added_noise(s, roles.signal, roles.idler) >= 0.0


class TestSymplecticDefect:
    def test_pumps_off_zero(self, bare_device):
        s = nr.scattering_at(bare_device, 0.0)
        assert metrics.symplectic_defect(s) < 1e-15

    def test_working_devices_conserve(self, circulator, diramp):
        for dev in (circulator, diramp):
            for delta in (-9e6, 0.0, 4e6):
                s = nr.scattering_at(dev, delta)
                assert metrics.symplectic_defect(s) < 1e-9

    def test_broken_matrix_detected(self, circulator):
        s = nr.scattering_at(circulator, 0.0)
        broken = s.entries.copy()
        broken[0, 1, :] = 0.0
        bad = nr.SweepResult(s.deltas, broken, circulator)
        assert metrics.symplectic_defect(bad) > 0.5

    def test_sweep_maximum_equals_pointwise_maximum(self, circulator, diramp):
        # the stacked evaluation does the per-matrix arithmetic: bitwise equal
        grid = np.linspace(-30e6, 30e6, 1001)
        for dev in (circulator, diramp):
            per_point = max(metrics.symplectic_defect(nr.scattering_at(dev, d)) for d in grid)
            assert metrics.symplectic_defect(nr.sweep(dev, grid)) == per_point
        sw = nr.sweep(circulator, np.array([-5e6, 0.0, 5e6]))
        broken = sw.entries.copy()
        broken[2, 1, :] = 0.0
        assert metrics.symplectic_defect(nr.SweepResult(sw.deltas, broken, circulator)) > 0.5


class TestRoleMap:
    # role calibration pairs with the clockwise-at-+pi/2 circulator convention:
    # at +pi/2 the signal port is the conversion pair's phase-reference mode.
    def test_roles_at_plus_half_pi(self, diramp):
        roles = metrics.role_map(diramp, math.pi / 2)
        assert roles.signal == "a" and roles.vacuum == "b" and roles.idler == "c"

    def test_roles_at_minus_half_pi(self, diramp):
        roles = metrics.role_map(diramp, -math.pi / 2)
        assert roles.signal == "b" and roles.vacuum == "a" and roles.idler == "c"

    def test_pi_shift_swaps_signal_and_vacuum(self, diramp):
        for tot in (-2.0, 0.7, 2.5):
            r1 = metrics.role_map(diramp, tot)
            r2 = metrics.role_map(diramp, tot + math.pi)
            assert r1.idler == r2.idler
            assert r1.signal == r2.vacuum and r1.vacuum == r2.signal

    def test_roles_follow_gain_structure(self, diramp):
        # the signal column is the amplified one at both working points
        for tot in (math.pi / 2, -math.pi / 2):
            dev = nr.with_total_phase(diramp, tot)
            s = nr.scattering_at(dev, 0.0)
            roles = metrics.role_map(dev, tot)
            assert s.magnitudes(roles.idler, roles.signal)[0] > 1.0
            assert math.isclose(s.magnitudes(roles.signal, roles.vacuum)[0], 1.0, rel_tol=0.01)

    def test_accepts_total_pump_phase_value(self, diramp):
        tot = nr.total_pump_phase(diramp)
        assert metrics.role_map(diramp, tot).signal == "b"

    def test_circulator_rejected(self, circulator):
        with pytest.raises(TopologyError):
            metrics.role_map(circulator, math.pi / 2)
