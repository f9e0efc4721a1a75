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
import pathlib
import re

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nonrecip as nr
from nonrecip import cli, cmt, model, tuner
from nonrecip.errors import SingularMatrixError

from conftest import count_calls, make_circulator, make_diramp, standard_modes

PAIRS = (("a", "b"), ("a", "c"), ("b", "c"))
# just below zero the first wrap rounds to 2 pi, the second to 0
PHI_EDGES = [-1e-17, -5e-324, -0.0, 0.0, 2 * math.pi, -2 * math.pi, math.pi, -math.pi]
DIAG = np.arange(3)


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
    @settings(max_examples=300)
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

    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_dynamics_matrix_is_m0_less_i_delta(self, name):
        template = TEMPLATES[name]
        m0 = cmt.build_dynamics_matrix(template, 0.0)
        assert same_bits(m0[DIAG, DIAG], np.asarray(template.kappas) / 2.0 + 0j)
        for delta in np.random.default_rng(7).uniform(-5e7, 5e7, 50).tolist() + [-0.0, 1e-300]:
            expected = m0.copy()
            expected[DIAG, DIAG] -= 1j * delta
            assert same_bits(cmt.build_dynamics_matrix(template, delta), expected), delta

    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_entries_are_those_of_inv(self, name):
        # S_oi = (sqrt(kappa_o) inv(M)_oi) sqrt(kappa_i) - delta_oi, the inverse taken whole
        template = TEMPLATES[name]
        deltas = np.random.default_rng(5).uniform(-5e7, 5e7, 40)
        root_k = np.sqrt(np.asarray(template.kappas))
        inv = np.linalg.inv(np.stack([cmt.build_dynamics_matrix(template, d) for d in deltas]))
        expected = root_k[None, :, None] * inv * root_k[None, None, :] - np.eye(3)
        got = cmt.solve_batch(template, deltas)
        assert same_bits(got, expected)
        # one diagonal entry, one off-diagonal, two sharing an input, all three inputs with
        # a repeated output
        for entries in [[(1, 1)], [(2, 0)], [(0, 2), (1, 2)], [(2, 1), (0, 0), (2, 2), (1, 0)]]:
            outs, ins = zip(*entries)
            assert same_bits(cmt._solve(template, *cmt._checked(template, deltas), entries),
                             expected[:, outs, ins])

    def test_per_point_phases_broadcast_a_one_point_grid(self, circulator):
        phis = np.linspace(-3.0, 3.0, 7)
        got = cmt.solve_batch(circulator, [1e6], phi_tot=phis)
        assert got.shape == (7, 3, 3)
        assert same_bits(got, cmt.solve_batch(circulator, 1e6, phi_tot=phis))
        assert same_bits(got[4], cmt.solve_batch(circulator, 1e6, phi_tot=phis[4])[0])

    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_empty_grid(self, name):
        assert cmt.solve_batch(TEMPLATES[name], np.array([])).shape == (0, 3, 3)
        assert cmt.solve_batch(TEMPLATES[name], [], phi_tot=0.3).shape == (0, 3, 3)

    def test_rejects_two_dimensional_parameters(self, circulator):
        with pytest.raises(nr.DomainError):
            cmt.solve_batch(circulator, np.zeros((2, 2)))

    @pytest.mark.filterwarnings("error")  # rejected before numpy computes a nan
    @pytest.mark.parametrize("name, call", [
        ("deltas", lambda dev: cmt.solve_batch(dev, [0.0, math.nan])),
        ("rhos", lambda dev: cmt.solve_batch(dev, 0.0, rhos=[0.5, math.inf, 0.5])),
        ("rhos", lambda dev: cmt.solve_batch(dev, 0.0, rhos=[0.5, [0.1, -0.1], 0.5])),
        ("phi_tot", lambda dev: cmt.solve_batch(dev, 0.0, phi_tot=-math.inf)),
        ("phi_tot", lambda dev: cmt.phase_rows(dev, [math.nan, math.inf], [0.0], PAIRS)),
        ("deltas", lambda dev: nr.sweep(dev, [0.0, math.inf])),
        ("deltas", lambda dev: nr.scattering_at(dev, math.nan)),
        # the diramp's couplings are a conversion and two gains, in pair order
        ("rhos", lambda dev: cmt.solve_batch(TEMPLATES["diramp-ab"], 0.0, rhos=[0.9])),
        ("rhos", lambda dev: cmt.solve_batch(TEMPLATES["diramp-ab"], 0.0, rhos=[0.9] * 4)),
        ("rhos", lambda dev: cmt.solve_batch(TEMPLATES["diramp-ab"], 0.0,
                                             rhos=[0.9, 1.5, 0.5])),
        ("rhos", lambda dev: cmt.solve_batch(TEMPLATES["diramp-ab"], 0.0,
                                             rhos=[0.9, 0.5, [0.5, 1.0]])),
    ], ids=["solve_batch-deltas", "solve_batch-rhos-inf", "solve_batch-rhos-negative",
            "solve_batch-phi_tot", "phase_rows", "sweep", "scattering_at",
            "solve_batch-rhos-short", "solve_batch-rhos-long", "solve_batch-gain-rho-above-1",
            "solve_batch-gain-rho-1"])
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

    def test_no_module_names_another_modules_private_name(self):
        # the kernel's stages (cmt._checked, cmt._solve) have callers in cmt alone
        private = re.compile(r"\b(cmt|metrics|model|tuner|cli)\._[a-z]")
        hits = [f"{path.name}:{n}: {line.strip()}"
                for path in sorted(pathlib.Path(cmt.__file__).parent.glob("*.py"))
                for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                if private.search(line)]
        assert hits == []


class TestNoPerPointValidation:
    def test_tune_validates_a_constant_number_of_devices(self, diramp, monkeypatch):
        # a rho or phase change keeps the validated device: no call re-validates one
        assert not hasattr(tuner, "validate_device")
        validated = count_calls(monkeypatch, "validate_device", model)
        objective = tuner.Objective(tuner.ObjectiveKind.DIRECTIONAL_AMP, target_gain_db=14.0)
        assert tuner.tune(diramp, objective).stop_reason == "target_met"
        nr.with_total_phase(diramp, 0.3)
        nr.with_coupling(diramp, ("a", "b"), rho=0.5, phase=1.0)
        assert validated == []
        circulator = make_circulator(phi_tot=0.3)
        solved = count_calls(monkeypatch, "solve_batch", cmt)
        tuner.calibrate_phase_offset(circulator)
        assert validated == []  # the circulation sense is judged from the batched solve
        assert len(solved) <= 2


# The pole product and np.linalg.det of the normalized matrix agree to this
# relative tolerance; the worst of 80,000 random points of TEMPLATES was 1.45e-13.
POLE_RTOL = 2e-13


class TestPoleDeterminant:
    """The singular check reads det(2 K^-1 M K^-1) off the poles of M(0).  Setting
    _DET_TOL just above and just below each point's ``np.linalg.det`` must move
    that point across the check, and report the first point below it."""

    @settings(max_examples=60)
    @given(name=st.sampled_from(sorted(TEMPLATES)), seed=st.integers(0, 2 ** 32 - 1),
           per_point=st.booleans())
    def test_check_matches_det_of_each_point(self, name, seed, per_point):
        template = TEMPLATES[name]
        rng = np.random.default_rng(seed)
        n = 12
        size = n if per_point else None  # scalar rho and phi_tot: one M(0) for the grid
        rhos = [rng.uniform(0.0, cap, size) for cap in caps(template)]
        phi = rng.uniform(-10.0, 10.0, size)
        deltas = rng.uniform(-5e7, 5e7, n)
        root_k = np.sqrt(template.kappas)
        a = cmt._dynamics_batch(template, rhos, model.split_total_phase(template, phi))
        m = np.broadcast_to(a, (n, 3, 3)).copy()
        m[:, DIAG, DIAG] -= 1j * deltas[:, None]
        dets = np.abs(np.linalg.det(m / (np.outer(root_k, root_k) / 2.0)))
        with pytest.MonkeyPatch.context() as mp:
            for tol in np.concatenate([dets * (1 - POLE_RTOL), dets * (1 + POLE_RTOL)]):
                mp.setattr(cmt, "_DET_TOL", tol)
                below = np.flatnonzero(dets < tol)
                if len(below) == 0:
                    cmt.solve_batch(template, deltas, rhos=rhos, phi_tot=phi)
                    continue
                with pytest.raises(SingularMatrixError) as err:
                    cmt.solve_batch(template, deltas, rhos=rhos, phi_tot=phi)
                assert err.value.delta == deltas[below[0]]


MODE_PAIRS = [(o, i) for o in "abc" for i in "abc"]


class TestPhaseRows:
    """``cmt.phase_rows`` checks and solves each distinct first-coupling phase once, several
    distinct phi rows per ``cmt._checked`` and ``cmt._solve`` call, for the (out, in) entries
    of its pairs alone; every row, and every entry the kernel returns, is bit for bit that of
    the per-row solve of all nine entries."""

    DELTAS = np.linspace(-2e7, 2e7, 5)
    THREE_ROWS = np.linspace(-3e7, 3e7, cmt.PHASE_BATCH_MATRICES // 3)  # three rows a call

    def check(self, device, phis, pairs=MODE_PAIRS, deltas=DELTAS):
        """Each row of ``phase_rows`` against its own per-row ``solve_batch``, a repeated
        row read through ``first_rows``; returns the rows and what each solve stage
        (``cmt._solve``) call returned."""
        outs, ins = ([device.index(m) for m in ms] for ms in zip(*pairs))
        with pytest.MonkeyPatch.context() as mp:
            calls = count_calls(mp, "_solve", cmt)
            rows = cmt.phase_rows(device, phis, deltas, pairs)
            mags = list(rows.magnitudes)
        for r, q in enumerate(rows.first_rows):
            assert (mags[r] is None) == (q < r)
            s = cmt.solve_batch(device, deltas, phi_tot=phis[r])
            assert same_bits(mags[q], np.abs(s[:, outs, ins])), r
        return rows, calls

    def solved_rows(self, device, phis):
        return sum(len(s) for s in self.check(device, phis)[1])

    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_default_grid_solves_179_rows(self, name):
        phis = np.linspace(-2 * math.pi, math.pi, 241)
        assert self.solved_rows(TEMPLATES[name], phis) == 179

    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_default_map_checks_each_distinct_row_once(self, name, monkeypatch):
        # the phase-sweep phi grid on the bundled configs' 1,001-point delta grid: 179
        # distinct rows, 8 a batch, so 23 batches; checked and solved, one eigenproblem a row
        device = TEMPLATES[name]
        phis = np.linspace(-2 * math.pi, math.pi, 241)
        deltas = np.linspace(-3e7, 3e7, 1001)
        checked = count_calls(monkeypatch, "_checked", cmt)
        poles = count_calls(monkeypatch, "eigvals", np.linalg)
        rows = cmt.phase_rows(device, phis, deltas, MODE_PAIRS)
        assert len(checked) == 23  # every batch is checked before phase_rows returns
        assert sum(r is not None for r in rows.magnitudes) == 179
        distinct = phis[[r for r, q in enumerate(rows.first_rows) if q == r], None]
        a = cmt._dynamics_batch(device, phases=model.split_total_phase(device, distinct))
        assert same_bits(np.concatenate([m for m, _ in checked]), a)
        assert len(checked) == len(poles) == 23  # reading the stream checks nothing again
        assert sum(p.shape[0] for p in poles) == 179

    def test_singular_map_raises_from_phase_rows_before_any_solve(self, monkeypatch):
        # the diramp of the CLI's singular phase-map test: 1 + rho_ab = rho_ac + rho_bc,
        # singular at delta = 0 on the phi_tot = +-pi/2 rows alone
        raw = yaml.safe_load(cli.bundled_config_path("diramp").read_text())
        for entry, rho in zip(raw["device"]["couplings"], (0.2, 0.6, 0.6)):
            entry.pop("target_c", None)
            entry.pop("target_g_db", None)
            entry["rho"] = rho
        cfg = cli.parse_config(raw)
        solved = count_calls(monkeypatch, "_solve", cmt)
        with pytest.raises(SingularMatrixError) as err:
            cmt.phase_rows(cfg.device, np.linspace(-2 * math.pi, math.pi, 241),
                           cfg.delta_grid, [("c", "a")])
        assert err.value.delta == 0.0
        assert solved == []

    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_shift_by_two_pi_shares_a_solve_and_one_ulp_does_not(self, name):
        phis = [2.5, 2.5 + 2 * math.pi, np.nextafter(2.5, 9.0)]
        keys = model.split_total_phase(TEMPLATES[name], np.array(phis))[0].view(np.int64)
        assert keys[1] == keys[0] and abs(int(keys[2] - keys[0])) == 1
        assert self.solved_rows(TEMPLATES[name], phis) == 2

    @settings(max_examples=100)
    @given(name=st.sampled_from(sorted(TEMPLATES)),
           phis=st.lists(st.sampled_from(PHI_EDGES) | st.floats(-10.0, 10.0), min_size=1,
                         max_size=8)
           .map(lambda b: b + [p + 2 * math.pi for p in b] + [np.nextafter(p, 9.0) for p in b])
           .flatmap(st.permutations))
    def test_random_grids(self, name, phis):
        keys = model.split_total_phase(TEMPLATES[name], np.array(phis))[0].view(np.int64)
        assert self.solved_rows(TEMPLATES[name], phis) == len(set(keys.tolist()))

    @settings(max_examples=30)
    @given(name=st.sampled_from(sorted(TEMPLATES)),
           phis=st.lists(st.sampled_from(PHI_EDGES) | st.floats(-10.0, 10.0), min_size=2,
                         max_size=4)
           .map(lambda b: b + [p + 2 * math.pi for p in b] + [np.nextafter(p, 9.0) for p in b])
           .flatmap(st.permutations),
           pairs=st.lists(st.sampled_from(MODE_PAIRS), min_size=1, max_size=9, unique=True))
    @example(name="diramp-bc", phis=[0.5, 0.5 + 2 * math.pi, 1.0, np.nextafter(1.0, 9.0), 2.0,
                                     3.0, 4.0], pairs=[("c", "a"), ("a", "c")])
    def test_rows_match_per_row_full_solves(self, name, phis, pairs):
        device = TEMPLATES[name]
        outs, ins = ([device.index(m) for m in ms] for ms in zip(*pairs))
        rows, batches = self.check(device, phis, pairs, self.THREE_ROWS)
        distinct = [r for r, q in enumerate(rows.first_rows) if q == r]
        assert [len(s) for s in batches] == [len(distinct[k:k + 3])
                                              for k in range(0, len(distinct), 3)]
        assert all(s.shape[-1] == len(pairs) for s in batches)
        full = [cmt.solve_batch(device, self.THREE_ROWS, phi_tot=phis[r]) for r in distinct]
        assert same_bits(np.concatenate(batches), np.stack(full)[..., outs, ins])
