"""The batched solver against devices rebuilt point by point.

``cmt.solve_batch`` and the callers routed through it (tuner objective, phase
calibration, conversion sweep) take parameter arrays instead of devices.  The
reference rebuilds every point's device with ``with_coupling`` /
``with_total_phase`` and calls ``scattering_at``; results must agree bit for
bit, because the tuner's simplex path and the written files depend on the
last bit.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nonrecip as nr
from nonrecip import cmt, metrics, model, tuner
from nonrecip.errors import DeviceValidationError, SingularMatrixError

from conftest import make_circulator, make_diramp, standard_modes

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
    device = nr.validate_device(nr.DeviceConfig(standard_modes(), couplings))
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


def reference_objective(template, objective):
    """The tuner objective evaluated on a device rebuilt per point."""
    names = template.mode_names

    def evaluate(x):
        penalty = 0.0
        for rho, c in zip(x[:-1], template.couplings):
            cap = tuner.RHO_GAIN_MAX if c.kind is nr.ProcessKind.GAIN else tuner.RHO_CONVERSION_MAX
            if rho < 0.0:
                penalty += tuner.PENALTY_DB * (1.0 + abs(rho))
            elif rho > cap:
                penalty += tuner.PENALTY_DB * (1.0 + rho - cap)
        if penalty > 0.0:
            return penalty
        try:
            dev = rebuilt(template, x[:-1], x[-1])
            s = nr.scattering_at(dev, 0.0)
        except (SingularMatrixError, DeviceValidationError):
            return tuner.PENALTY_DB
        floored = metrics._amp_db_floored
        if objective.kind is not tuner.ObjectiveKind.DIRECTIONAL_AMP:
            match = max(floored(s.magnitude(n, n)) for n in names)
            cw = objective.kind is tuner.ObjectiveKind.CIRCULATOR_CW
            a, b, c = names
            rev = ((a, b), (b, c), (c, a)) if cw else ((b, a), (c, b), (a, c))
            leak = max(floored(s.magnitude(o, i)) for o, i in rev)
            return match + leak
        roles = metrics.role_map(dev, float(x[-1]))
        fwd = s.magnitude(roles.idler, roles.signal) ** 2
        if fwd <= 0.0:
            return tuner.PENALTY_DB
        gain_err = abs(metrics.to_db(fwd) - objective.target_gain_db)
        worst_refl = max(floored(s.magnitude(roles.signal, roles.signal)),
                         floored(s.magnitude(roles.vacuum, roles.vacuum)),
                         tuner.MATCH_REWARD_FLOOR_DB)
        return gain_err + worst_refl

    return evaluate


OBJECTIVES = [
    ("circulator", tuner.ObjectiveKind.CIRCULATOR_CW),
    ("circulator", tuner.ObjectiveKind.CIRCULATOR_CCW),
    ("diramp-ab", tuner.ObjectiveKind.DIRECTIONAL_AMP),
    ("diramp-ac", tuner.ObjectiveKind.DIRECTIONAL_AMP),
    ("diramp-bc", tuner.ObjectiveKind.DIRECTIONAL_AMP),
]


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
            expected = nr.scattering_at(rebuilt(template, rhos, phi), delta).entries
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
            assert same_bits(got[k], nr.scattering_at(dev, deltas[k]).entries), k

    def test_defaults_are_the_device_itself(self, circulator):
        # stored phases (not the with_total_phase split) without phi_tot
        dev = nr.with_coupling(circulator, ("b", "c"), phase=0.4)
        deltas = np.linspace(-2e7, 2e7, 9)
        assert same_bits(cmt.solve_batch(dev, deltas), cmt.sweep(dev, deltas).entries)

    def test_rejects_two_dimensional_parameters(self, circulator):
        with pytest.raises(nr.DomainError):
            cmt.solve_batch(circulator, np.zeros((2, 2)))


class TestObjective:
    @pytest.mark.parametrize("name, kind", OBJECTIVES)
    def test_edges_match_rebuilt_devices(self, name, kind):
        template = TEMPLATES[name]
        objective = tuner.Objective(kind, target_gain_db=14.0)
        fast = tuner._objective_function(template, objective)
        slow = reference_objective(template, objective)
        base = [c.rho for c in template.couplings]
        points = [base + [phi] for phi in PHI_EDGES]
        points += [[math.nan] + base[1:] + [1.0], base[:2] + [math.nan, 1.0],
                   [-0.0] + base[1:] + [1.0], [-1e-300] + base[1:] + [1.0],
                   [math.inf] + base[1:] + [1.0]]
        if kind is not tuner.ObjectiveKind.DIRECTIONAL_AMP:
            points += [[1.5, 2.5, 3.9, 1.0], [4.0, 4.0, 4.0, 0.2], [4.1, 0.5, 0.5, 0.2]]
        else:
            points += [base[:1] + [tuner.RHO_GAIN_MAX] * 2 + [-1.0],
                       base[:1] + [0.999999, 0.5, 1.0], [3.0] + base[1:] + [2.0]]
        for x in points:
            x = np.array(x, dtype=float)
            assert same_bits(fast(x), slow(x)), x

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(pick=st.sampled_from(OBJECTIVES),
           rhos=st.tuples(*[st.floats(-0.5, 4.5)] * 3),
           phi=st.floats(-10.0, 10.0))
    def test_random_points_match_rebuilt_devices(self, pick, rhos, phi):
        name, kind = pick
        objective = tuner.Objective(kind, target_gain_db=14.0)
        x = np.array(list(rhos) + [phi])
        fast = tuner._objective_function(TEMPLATES[name], objective)(x)
        assert same_bits(fast, reference_objective(TEMPLATES[name], objective)(x))


class TestCallers:
    @pytest.mark.parametrize("name", ["circulator", "diramp-ab", "diramp-bc"])
    @pytest.mark.parametrize("injected", [0.0, 0.3, -1.234])
    def test_calibration_grid_matches_rebuilt_devices(self, name, injected):
        device = nr.with_total_phase(TEMPLATES[name], injected)
        t0 = nr.total_pump_phase(device).value
        grid = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        got = cmt.solve_batch(device, 0.0, phi_tot=t0 + grid)
        for k, x in enumerate(grid):
            dev = nr.with_total_phase(device, t0 + x)
            assert same_bits(got[k], nr.scattering_at(dev, 0.0).entries), k

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
            assert same_bits(res.reflection_mag[k], s.magnitude(other, other)), k
            assert same_bits(res.forward_mag[k], s.magnitude(idler, other)), k


class TestNoPerPointValidation:
    def test_tune_validates_a_constant_number_of_devices(self, diramp, monkeypatch):
        calls = []
        validate = model.validate_device

        def counting(config):
            calls.append(config)
            return validate(config)

        monkeypatch.setattr(model, "validate_device", counting)
        objective = tuner.Objective(tuner.ObjectiveKind.DIRECTIONAL_AMP, target_gain_db=14.0)
        result = tuner.tune(diramp, objective, budget=200)
        assert result.evaluations == 200
        assert len(calls) <= 4  # the returned device: one with_coupling per pair + the phase
        circulator = make_circulator(phi_tot=0.3)
        calls.clear()
        tuner.calibrate_phase_offset(circulator)
        assert len(calls) == 0  # the circulation sense is judged from a batched solve
