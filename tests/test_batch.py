"""The batched solver against devices rebuilt point by point.

``cmt.solve_batch`` and the callers routed through it (phase calibration,
conversion sweep) take parameter arrays instead of devices.  The
reference rebuilds every point's device with ``with_coupling`` /
``with_total_phase`` and calls ``scattering_at`` (a one-point ``SweepResult``,
read at ``entries[0]``); results must agree bit for bit, because the written
files depend on the last bit.  Magnitudes are taken with ``np.abs``, as every
caller takes them.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nonrecip as nr
from nonrecip import cmt, model, tuner
from nonrecip.errors import SingularMatrixError

from conftest import count_calls, make_circulator, make_diramp, standard_modes

PAIRS = (("a", "b"), ("a", "c"), ("b", "c"))
# just below zero the first wrap rounds to 2 pi, the second to 0
PHI_EDGES = [-1e-17, -5e-324, -0.0, 0.0, 2 * math.pi, -2 * math.pi, math.pi, -math.pi]


def diramp_converting(pair, phi_tot=-math.pi / 2):
    """Directional amplifier with its conversion on ``pair``; on (b, c) the
    conversion links two conjugated channels."""
    couplings = tuple(
        nr.PumpedCoupling(p, "conversion", cmt.rho_for_conversion(0.99)) if p == pair
        else nr.PumpedCoupling(p, "gain", cmt.rho_for_gain(10 ** 1.2))
        for p in PAIRS
    )
    device = nr.validate_device(standard_modes(), couplings)
    return nr.with_total_phase(device, phi_tot)


TEMPLATES = {
    "circulator": make_circulator(),
    "diramp-ab": make_diramp(),
    "diramp-ac": diramp_converting(("a", "c")),
    "diramp-bc": diramp_converting(("b", "c"), phi_tot=1.1),
}


def rebuilt(device, rhos, phi_tot):
    for c, rho in zip(device.couplings, rhos):
        device = nr.with_coupling(device, c.pair, rho=float(rho))
    return nr.with_total_phase(device, float(phi_tot))


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def caps(device):
    return [0.999 if c.kind is nr.ProcessKind.GAIN else 4.0 for c in device.couplings]


class TestSolveBatch:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(name=st.sampled_from(sorted(TEMPLATES)),
           fractions=st.tuples(*[st.floats(0.0, 1.0)] * 3),
           phi=st.floats(-10.0, 10.0),
           delta=st.floats(-5e7, 5e7))
    @example(name="circulator", fractions=(0.25, 0.25, 0.25), phi=-1e-17, delta=0.0)
    @example(name="diramp-bc", fractions=(0.25, 0.5, 0.5), phi=-5e-324, delta=0.0)
    @example(name="diramp-ab", fractions=(0.3, 1.0, 1.0), phi=-math.pi / 2, delta=0.0)
    def test_point_matches_rebuilt_device(self, name, fractions, phi, delta):
        template = TEMPLATES[name]
        rhos = [f * cap for f, cap in zip(fractions, caps(template))]
        try:
            expected = nr.scattering_at(rebuilt(template, rhos, phi), delta).entries[0]
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                cmt.solve_batch(template, delta, rhos=rhos, phi_tot=phi)
            return
        got = cmt.solve_batch(template, delta, rhos=rhos, phi_tot=phi)
        assert got.shape == (1, 3, 3)
        assert same_bits(got[0], expected)

    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_batch_matches_rebuilt_devices(self, name):
        template = TEMPLATES[name]
        rng = np.random.default_rng(11)
        n = 64
        rhos = [rng.uniform(0.0, cap, n) for cap in caps(template)]
        phis = np.concatenate([PHI_EDGES, rng.uniform(-7.0, 7.0, n - len(PHI_EDGES))])
        deltas = rng.uniform(-3e7, 3e7, n)
        got = cmt.solve_batch(template, deltas, rhos=rhos, phi_tot=phis)
        for k in range(n):
            dev = rebuilt(template, [r[k] for r in rhos], phis[k])
            assert same_bits(got[k], nr.scattering_at(dev, deltas[k]).entries[0]), k

    def test_defaults_are_the_device_itself(self, circulator):
        # stored phases (not the with_total_phase split) without phi_tot
        dev = nr.with_coupling(circulator, ("b", "c"), phase=0.4)
        deltas = np.linspace(-2e7, 2e7, 9)
        assert same_bits(cmt.solve_batch(dev, deltas), cmt.sweep(dev, deltas).entries)

    def test_rejects_two_dimensional_parameters(self, circulator):
        with pytest.raises(nr.DomainError):
            cmt.solve_batch(circulator, np.zeros((2, 2)))

    @pytest.mark.filterwarnings("error")  # rejected before numpy computes a nan
    @pytest.mark.parametrize("name, call", [
        ("deltas", lambda dev: cmt.solve_batch(dev, [0.0, math.nan])),
        ("rhos", lambda dev: cmt.solve_batch(dev, 0.0, rhos=[0.5, math.inf, 0.5])),
        ("rhos", lambda dev: cmt.solve_batch(dev, 0.0, rhos=[0.5, [0.1, -0.1], 0.5])),
        ("phi_tot", lambda dev: cmt.solve_batch(dev, 0.0, phi_tot=-math.inf)),
        ("phi_tot", lambda dev: tuner.phase_sweep(dev, [math.nan, math.inf], [0.0])),
        ("deltas", lambda dev: nr.sweep(dev, [0.0, math.inf])),
        ("deltas", lambda dev: nr.scattering_at(dev, math.nan)),
    ], ids=["solve_batch-deltas", "solve_batch-rhos-inf", "solve_batch-rhos-negative",
            "solve_batch-phi_tot", "phase_sweep", "sweep", "scattering_at"])
    def test_rejects_invalid_kernel_input(self, circulator, name, call):
        with pytest.raises(nr.DomainError, match=name):
            call(circulator)


class TestCallers:
    @pytest.mark.parametrize("name", ["circulator", "diramp-ab", "diramp-bc"])
    @pytest.mark.parametrize("injected", [0.0, 0.3, -1.234])
    def test_calibration_grid_matches_rebuilt_devices(self, name, injected):
        device = nr.with_total_phase(TEMPLATES[name], injected)
        t0 = nr.total_pump_phase(device)
        grid = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        got = cmt.solve_batch(device, 0.0, phi_tot=t0 + grid)
        for k, x in enumerate(grid):
            dev = nr.with_total_phase(device, t0 + x)
            assert same_bits(got[k], nr.scattering_at(dev, 0.0).entries[0]), k

    @pytest.mark.parametrize("name", ["circulator", "diramp-ab", "diramp-bc"])
    def test_calibration_equals_per_point_calibration(self, name, monkeypatch):
        device = nr.with_total_phase(TEMPLATES[name], 0.77)
        batched = tuner.calibrate_phase_offset(device)
        solve = cmt.solve_batch

        def per_point(dev, deltas, rhos=None, phi_tot=None):
            assert rhos is None and np.ndim(deltas) == 0
            if phi_tot is None:  # scattering_at on a device built by the caller
                return solve(dev, deltas)
            return np.stack([solve(nr.with_total_phase(dev, float(p)), deltas)[0]
                             for p in np.atleast_1d(phi_tot)])

        monkeypatch.setattr(cmt, "solve_batch", per_point)
        assert tuner.calibrate_phase_offset(device) == batched

    @pytest.mark.parametrize("name", ["diramp-ab", "diramp-ac", "diramp-bc"])
    def test_conversion_sweep_matches_rebuilt_devices(self, name):
        template = TEMPLATES[name]
        cs = np.linspace(0.0, 1.0, 301)
        res = tuner.conversion_sweep(template, cs)
        conv_pair, _head, other, idler = model.directional_amp_parts(template)
        base = nr.with_total_phase(template, -math.pi / 2)
        for k, c in enumerate(cs):
            dev = nr.with_coupling(base, conv_pair, rho=float(cmt.rho_for_conversion(c)))
            s = nr.scattering_at(dev, 0.0)
            assert same_bits(res.reflection_mag[k], s.magnitudes(other, other)[0]), k
            assert same_bits(res.forward_mag[k], s.magnitudes(idler, other)[0]), k


class TestNoPerPointValidation:
    def test_tune_validates_a_constant_number_of_devices(self, diramp, monkeypatch):
        validated = count_calls(monkeypatch, "validate_device", model, tuner)
        objective = tuner.Objective(tuner.ObjectiveKind.DIRECTIONAL_AMP, target_gain_db=14.0)
        result = tuner.tune(diramp, objective)
        assert result.stop_reason == "target_met"
        assert len(validated) == 1 and validated[0] is result.device
        circulator = make_circulator(phi_tot=0.3)
        validated.clear()
        solved = count_calls(monkeypatch, "solve_batch", cmt)
        tuner.calibrate_phase_offset(circulator)
        assert validated == []  # the circulation sense is judged from the batched solve
        assert len(solved) <= 2
