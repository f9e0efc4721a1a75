import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import nonrecip as nr
from nonrecip import cmt, model
from nonrecip.errors import DomainError, SingularMatrixError

from conftest import make_circulator, make_diramp, make_single, standard_modes

RHO_GRID = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99]


class TestClosedForms:
    def test_gain_coefficient_values(self):
        assert cmt.gain_coefficient(0.0) == 1.0
        # sqrt(G) = (1 + 1/3)/(1 - 1/3) = 2
        assert math.isclose(cmt.gain_coefficient(1.0 / 3.0), 4.0, rel_tol=1e-14)

    def test_gain_coefficient_domain(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(DomainError):
                cmt.gain_coefficient(bad)

    def test_conversion_coefficient_values(self):
        assert cmt.conversion_coefficient(0.0) == 0.0
        assert cmt.conversion_coefficient(1.0) == 1.0
        # 4*(1/3)/(4/3)^2 = 3/4
        assert math.isclose(cmt.conversion_coefficient(1.0 / 3.0), 0.75, rel_tol=1e-14)

    def test_conversion_coefficient_domain(self):
        with pytest.raises(DomainError, match="conversion rho must be >= 0"):
            cmt.conversion_coefficient(-0.1)

    def test_conversion_monotone_to_unity(self):
        cs = [cmt.conversion_coefficient(r) for r in np.linspace(0, 1, 50)]
        assert all(b >= a for a, b in zip(cs, cs[1:]))
        assert all(0.0 <= c <= 1.0 for c in cs)

    def test_rho_for_gain_values(self):
        assert cmt.rho_for_gain(1.0) == 0.0
        # 12 dB: rho = (sqrt(G)-1)/(sqrt(G)+1)
        rho = cmt.rho_for_gain(10 ** 1.2)
        assert math.isclose(rho, 0.5984799821737964, rel_tol=1e-12)
        with pytest.raises(DomainError, match=r"^gain must be >= 1, got 0.5$"):
            cmt.rho_for_gain(0.5)
        # sqrt(inf) would give rho = inf / inf = nan, which names no gain
        with pytest.raises(DomainError, match=r"^gain must be finite, got inf$"):
            cmt.rho_for_gain(math.inf)

    def test_rho_for_conversion_branch_points(self):
        assert cmt.rho_for_conversion(0.0) == 0.0
        assert cmt.rho_for_conversion(1.0) == 1.0
        with pytest.raises(DomainError):
            cmt.rho_for_conversion(1.1)
        with pytest.raises(DomainError):
            cmt.rho_for_conversion(-0.1)

    def test_round_trips(self):
        for g in (1.0, 1.5, 4.0, 10 ** 1.2, 10 ** 1.3, 1e4):
            assert math.isclose(cmt.gain_coefficient(cmt.rho_for_gain(g)), g, rel_tol=1e-12)
        for c in (1e-12, 1e-6, 0.01, 0.21, 0.5, 0.95, 0.998, 1.0):
            assert math.isclose(
                cmt.conversion_coefficient(cmt.rho_for_conversion(c)), c, rel_tol=1e-12
            )

    def test_under_coupled_branch(self):
        assert all(cmt.rho_for_conversion(c) <= 1.0 for c in np.linspace(0, 1, 101))

    def test_directionality_threshold(self):
        assert cmt.directionality_threshold(1.0) == 0.0
        assert math.isclose(cmt.directionality_threshold(10 ** 1.2), 0.9369042655519807,
                            rel_tol=1e-12)
        assert math.isclose(cmt.directionality_threshold(10 ** 1.4), 0.9601892829446502,
                            rel_tol=1e-12)
        with pytest.raises(DomainError):
            cmt.directionality_threshold(0.9)

    def test_sbb_closed_form_values(self):
        assert cmt.sbb_closed_form(0.0, 0.0, 0.0) == 1.0
        # full conversion with equal gains: matched input
        assert cmt.sbb_closed_form(1.0, 0.4, 0.4) == 0.0
        # rho_ab = rho_bc: the loss-of-directionality equality
        assert cmt.sbb_closed_form(0.5985, 0.5985, 0.3) == 1.0

    def test_sbb_pole(self):
        with pytest.raises(DomainError):
            cmt.sbb_closed_form(0.2, 0.6, 0.6)


class TestDynamicsMatrix:
    def test_bare_device_diagonal(self, bare_device):
        m = cmt.build_dynamics_matrix(bare_device, 0.0)
        assert np.allclose(m, np.diag([22e6, 9.5e6, 25e6]))

    def test_detuning_on_diagonal(self, bare_device):
        m = cmt.build_dynamics_matrix(bare_device, 3e6)
        assert np.allclose(np.diag(m), np.array([22e6, 9.5e6, 25e6]) - 3e6 * 1j)

    def test_full_conversion_off_diagonal_scale(self):
        dev = make_single("conversion", ("a", "b"), 1.0)
        m = cmt.build_dynamics_matrix(dev, 0.0)
        expected = math.sqrt(44e6 * 19e6) / 2.0
        assert math.isclose(abs(m[0, 1]), expected, rel_tol=1e-14)
        assert math.isclose(abs(m[1, 0]), expected, rel_tol=1e-14)

    def test_all_conversion_coupling_block_is_i_times_hermitian(self, circulator):
        m = cmt.build_dynamics_matrix(circulator, 0.0)
        h = (m - np.diag(np.diag(m))) / 1j
        assert np.allclose(h, h.conj().T, atol=1e-9)

    def test_uncoupled_pairs_zero(self):
        dev = make_single("gain", ("a", "c"), 0.5)
        m = cmt.build_dynamics_matrix(dev, 0.0)
        assert m[0, 1] == 0 and m[1, 0] == 0 and m[1, 2] == 0 and m[2, 1] == 0


class TestScatteringAt:
    def test_pumps_off_identity(self, bare_device):
        s = nr.scattering_at(bare_device, 0.0)
        assert np.allclose(np.abs(s.entries), np.eye(3), atol=1e-14)

    def test_full_conversion_swaps(self):
        dev = make_single("conversion", ("a", "b"), 1.0)
        s = nr.scattering_at(dev, 0.0)
        assert s.magnitudes("a", "a")[0] < 1e-12
        assert math.isclose(s.magnitudes("b", "a")[0], 1.0, rel_tol=1e-12)

    def test_13db_gain_reflection(self):
        dev = make_single("gain", ("a", "c"), cmt.rho_for_gain(10 ** 1.3))
        s = nr.scattering_at(dev, 0.0)
        assert math.isclose(s.magnitudes("a", "a")[0] ** 2, 10 ** 1.3, rel_tol=1e-12)

    def test_gain_oracle_rows(self):
        # |S_ii|^2 = G and |S_ji|^2 = G - 1 across the rho grid
        for rho in RHO_GRID:
            dev = make_single("gain", ("a", "c"), rho, phase=1.234)
            s = nr.scattering_at(dev, 0.0)
            g = cmt.gain_coefficient(rho)
            assert math.isclose(s.magnitudes("a", "a")[0] ** 2, g, rel_tol=1e-10)
            assert math.isclose(s.magnitudes("c", "a")[0] ** 2, g - 1.0, rel_tol=1e-10,
                                abs_tol=1e-12)
            # spectator mode stays bare
            assert math.isclose(s.magnitudes("b", "b")[0], 1.0, rel_tol=1e-12)

    def test_conversion_oracle_rows(self):
        for rho in RHO_GRID + [1.0, 1.2, 1.5]:
            dev = make_single("conversion", ("a", "b"), rho, phase=0.777)
            s = nr.scattering_at(dev, 0.0)
            c = cmt.conversion_coefficient(rho)
            assert math.isclose(s.magnitudes("b", "a")[0] ** 2, c, rel_tol=1e-10, abs_tol=1e-12)
            assert math.isclose(s.magnitudes("a", "a")[0] ** 2, 1.0 - c, rel_tol=1e-10,
                                abs_tol=1e-12)

    def test_ideal_circulator_permutation(self):
        dev = make_circulator(1.0, 1.0, 1.0, phi_tot=math.pi / 2)
        s = nr.scattering_at(dev, 0.0)
        perm = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
        assert np.allclose(np.abs(s.entries), perm, atol=1e-12)

    def test_sbb_matches_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho_ab = rng.uniform(0.0, 1.5)
            rho_bc = rng.uniform(0.0, 0.95)
            rho_ac = rng.uniform(0.0, 0.95)
            if abs(rho_ac + rho_bc - rho_ab - 1.0) < 0.05:
                continue
            dev = make_diramp()
            dev = nr.with_coupling(dev, ("a", "b"), rho=rho_ab)
            dev = nr.with_coupling(dev, ("a", "c"), rho=rho_ac)
            dev = nr.with_coupling(dev, ("b", "c"), rho=rho_bc)
            dev = nr.with_total_phase(dev, math.pi / 2)
            s = nr.scattering_at(dev, 0.0)
            expected = cmt.sbb_closed_form(rho_ab, rho_bc, rho_ac)
            assert abs(s.entries[0, 1, 1] - expected) < 1e-10

    def test_singular_at_oscillation_point(self):
        # two gains overwhelming the conversion: 1 + rho_ab = rho_ac + rho_bc
        dev = make_diramp()
        dev = nr.with_coupling(dev, ("a", "c"), rho=0.6)
        dev = nr.with_coupling(dev, ("b", "c"), rho=0.6)
        dev = nr.with_coupling(dev, ("a", "b"), rho=0.2)
        dev = nr.with_total_phase(dev, math.pi / 2)
        with pytest.raises(SingularMatrixError) as err:
            nr.scattering_at(dev, 0.0)
        assert err.value.delta == 0.0

    def test_conjugation_flip_leaves_magnitudes(self, diramp):
        flipped = dataclasses.replace(diramp, conjugated=tuple(not c for c in diramp.conjugated))
        for delta in (-7e6, 0.0, 3e6):
            s1 = nr.scattering_at(diramp, delta)
            s2 = nr.scattering_at(flipped, delta)
            assert np.allclose(np.abs(s1.entries), np.abs(s2.entries), atol=1e-12)


class TestInvariants:
    topologies = [
        ("conversion", "conversion", "conversion"),
        ("conversion", "gain", "gain"),
        ("gain", "conversion", "gain"),
        ("gain", "gain", "conversion"),
    ]

    def _random_device(self, rng):
        kinds = self.topologies[rng.integers(len(self.topologies))]
        pairs = (("a", "b"), ("a", "c"), ("b", "c"))
        n = rng.integers(1, 4)  # 1..3 couplings
        coups = []
        for kind, pair in list(zip(kinds, pairs))[:n]:
            rho = rng.uniform(0, 0.9) if kind == "gain" else rng.uniform(0, 1.6)
            coups.append(nr.PumpedCoupling(pair, kind, rho, rng.uniform(0, 2 * math.pi)))
        modes = tuple(
            nr.ModeSpec(name, f, k)
            for name, f, k in zip("abc", rng.uniform(4e9, 12e9, 3), rng.uniform(5e6, 80e6, 3))
        )
        try:
            return nr.validate_device(modes, tuple(coups))
        except nr.FrustratedConjugationError:
            return None

    def test_symplectic_conservation(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 60:
            dev = self._random_device(rng)
            if dev is None:
                continue
            delta = rng.uniform(-30e6, 30e6)
            try:
                s = nr.scattering_at(dev, delta)
            except SingularMatrixError:
                continue
            s = s.entries[0]
            sigma = np.diag(dev.detuning_signs).astype(complex)
            defect = np.max(np.abs(s @ sigma @ s.conj().T - sigma))
            scale = max(1.0, float(np.max(np.abs(s)) ** 2))
            assert defect / scale < 1e-9
            checked += 1

    def test_all_conversion_unitary(self, circulator):
        for delta in (-12e6, 0.0, 5e6):
            s = nr.scattering_at(circulator, delta).entries[0]
            assert np.allclose(s @ s.conj().T, np.eye(3), atol=1e-9)

    def test_gauge_invariance(self):
        # redistribute phases at fixed signed sum: magnitudes unchanged
        rng = np.random.default_rng(13)
        for _ in range(20):
            tot = rng.uniform(-math.pi, math.pi)
            delta = rng.uniform(-20e6, 20e6)
            # circulator: tot = phi_bc + phi_ac - phi_ab
            pab, pac = rng.uniform(0, 2 * math.pi, 2)
            pbc = tot - pac + pab
            dev_a = make_circulator()
            for pair, phase in ((("a", "b"), pab), (("a", "c"), pac), (("b", "c"), pbc)):
                dev_a = nr.with_coupling(dev_a, pair, phase=phase)
            dev_b = nr.with_total_phase(dev_a, tot)
            sa = nr.scattering_at(dev_a, delta)
            sb = nr.scattering_at(dev_b, delta)
            assert np.max(np.abs(np.abs(sa.entries) - np.abs(sb.entries))) < 1e-12
            # directional amp: tot = phi_ab + phi_bc - phi_ac
            pbc2, pac2 = rng.uniform(0, 2 * math.pi, 2)
            pab2 = tot - pbc2 + pac2
            dev_c = make_diramp()
            for pair, phase in ((("a", "b"), pab2), (("a", "c"), pac2), (("b", "c"), pbc2)):
                dev_c = nr.with_coupling(dev_c, pair, phase=phase)
            dev_d = nr.with_total_phase(dev_c, tot)
            sc = nr.scattering_at(dev_c, delta)
            sd = nr.scattering_at(dev_d, delta)
            assert np.max(np.abs(np.abs(sc.entries) - np.abs(sd.entries))) < 1e-12

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(17)
        for make in (make_circulator, make_diramp):
            for _ in range(10):
                tot = rng.uniform(-math.pi, math.pi)
                delta = rng.uniform(-20e6, 20e6)
                s_pos = nr.scattering_at(make(phi_tot=tot), delta).entries[0]
                s_neg = nr.scattering_at(make(phi_tot=-tot), delta).entries[0]
                assert np.max(np.abs(np.abs(s_pos) - np.abs(s_neg).T)) < 1e-9

    def test_reciprocal_at_zero_and_pi(self):
        for tot in (0.0, math.pi):
            s = nr.scattering_at(make_circulator(phi_tot=tot), 0.0).entries[0]
            assert np.max(np.abs(np.abs(s) - np.abs(s).T)) < 1e-9


class TestSweep:
    def test_center_matches_scattering_at(self, circulator):
        grid = np.linspace(-30e6, 30e6, 101)
        sw = nr.sweep(circulator, grid)
        s0 = nr.scattering_at(circulator, 0.0)
        assert np.allclose(sw.entries[50], s0.entries[0])
        assert sw.center_index == 50

    def test_empty_grid(self, circulator):
        sw = nr.sweep(circulator, [])
        assert len(sw) == 0

    def test_empty_sweep_has_no_center(self, circulator):
        with pytest.raises(DomainError, match="empty sweep has no center point"):
            nr.sweep(circulator, []).center_index

    def test_rejects_two_dimensional_grid(self, circulator):
        with pytest.raises(DomainError, match="detuning grid must be one-dimensional"):
            nr.sweep(circulator, [[0.0, 1.0]])

    def test_single_point(self, circulator):
        sw = nr.sweep(circulator, [0.0])
        assert len(sw) == 1
        assert sw.deltas.tolist() == [0.0] and sw.entries.shape == (1, 3, 3)

    @pytest.mark.parametrize("delta", [-7e6, -0.0, 0.0, 3.3e6])
    def test_scattering_at_is_one_point_sweep(self, circulator, diramp, delta):
        for dev in (circulator, diramp):
            s, sw = nr.scattering_at(dev, delta), nr.sweep(dev, [delta])
            assert s.device is dev and s.center_index == 0
            assert s.deltas.tobytes() == sw.deltas.tobytes()
            assert s.entries.tobytes() == sw.entries.tobytes()

    def test_rejects_non_increasing_grid(self, circulator):
        with pytest.raises(DomainError):
            nr.sweep(circulator, [0.0, -1e6, 1e6])

    def test_gain_sweep_is_lorentzian(self):
        # 1/|S_aa|^2 should be linear in delta^2 near the peak
        dev = make_single("gain", ("a", "c"), cmt.rho_for_gain(10 ** 1.3))
        grid = np.linspace(-5e6, 5e6, 201)
        sw = nr.sweep(dev, grid)
        p = sw.magnitudes("a", "a") ** 2
        coef, residual = np.polyfit(grid ** 2, 1.0 / p, 1, full=False), None
        fit = np.polyval(coef, grid ** 2)
        assert np.max(np.abs(fit - 1.0 / p) / (1.0 / p)) < 0.02

    def test_singularity_reports_offending_delta(self):
        dev = make_diramp()
        dev = nr.with_coupling(dev, ("a", "c"), rho=0.6)
        dev = nr.with_coupling(dev, ("b", "c"), rho=0.6)
        dev = nr.with_coupling(dev, ("a", "b"), rho=0.2)
        dev = nr.with_total_phase(dev, math.pi / 2)
        with pytest.raises(SingularMatrixError) as err:
            nr.sweep(dev, np.linspace(-1e6, 1e6, 3))
        assert err.value.delta == 0.0


def doubled_space_s(device, delta):
    """S6 = K6 M6^-1 K6 - I over (a1, a2, a3, a1^dag, a2^dag, a3^dag), built from the
    Hamiltonian alone, after Ranzani & Aumentado: M6 = diag(kappa/2 - i delta) + i C6 on both
    blocks, with g = sqrt(rho kappa_i kappa_j)/2 and e = exp(-i phi) per coupling; no
    conjugated channel, phase sign or detuning sign of the kernel enters."""
    kappa = np.array(device.kappas * 2)
    c6 = np.zeros((6, 6), dtype=complex)
    for c in device.couplings:
        i, j = (device.index(n) for n in c.pair)
        g, e = math.sqrt(c.rho * kappa[i] * kappa[j]) / 2.0, cmath.exp(-1j * c.phase)
        if c.kind is model.ProcessKind.CONVERSION:  # g (e a_h^dag a_o + h.c.)
            h = device.index(model.conversion_head(device, c.pair))
            o = i + j - h
            c6[h, o], c6[o, h] = g * e, g * e.conjugate()
            c6[h + 3, o + 3], c6[o + 3, h + 3] = -g * e.conjugate(), -g * e
        else:  # g (e a_i^dag a_j^dag + h.c.)
            c6[i, j + 3] = c6[j, i + 3] = g * e
            c6[i + 3, j] = c6[j + 3, i] = -g * e.conjugate()
    root_k = np.sqrt(kappa)
    m6 = np.diag(kappa / 2.0 - 1j * delta) + 1j * c6
    return root_k[:, None] * np.linalg.inv(m6) * root_k - np.eye(6)


@st.composite
def oracle_devices(draw):
    """A circulator (three conversions) or a directional amp (one conversion, two gains),
    with random kappas, strengths and phases."""
    conversion = draw(st.sampled_from([None, 0, 1, 2]))  # None: all three convert
    couplings = []
    for k, pair in enumerate((("a", "b"), ("a", "c"), ("b", "c"))):
        kind = "conversion" if conversion in (None, k) else "gain"
        rho = draw(st.floats(0.0, 2.0 if kind == "conversion" else 0.9))
        couplings.append(nr.PumpedCoupling(pair, kind, rho, draw(st.floats(0.0, 2 * math.pi))))
    kappas = [draw(st.floats(10e6, 60e6)) for _ in range(3)]
    modes = tuple(nr.ModeSpec(m.name, m.resonance_freq, k)
                  for m, k in zip(standard_modes(), kappas))
    return nr.validate_device(modes, tuple(couplings))


class TestDoubledSpaceOracle:
    """The kernel against ``doubled_space_s``: channel k of the kernel is row and column
    k + 3 conjugated[k] of S6, and S6 has no entry between those channels and the rest."""

    @settings(max_examples=100)
    @given(device=oracle_devices(),
           deltas=st.lists(st.floats(-50e6, 50e6), min_size=1, max_size=5),
           entries=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1,
                            max_size=9))
    def test_kernel_is_the_doubled_space_block(self, device, deltas, entries):
        try:
            got = cmt.solve_batch(device, deltas)
        except SingularMatrixError:
            reject()
        idx = np.arange(3) + 3 * np.array(device.conjugated)
        rest = np.setdiff1d(np.arange(6), idx)
        outs, ins = zip(*entries)
        picked = cmt._solve(device, *cmt._checked(device, deltas), entries)
        for s, row, delta in zip(got, picked, deltas):
            s6 = doubled_space_s(device, delta)
            want = s6[np.ix_(idx, idx)]
            assert np.all(np.abs(s - want) <= 1e-13 * np.maximum(1.0, np.abs(want))), delta
            assert np.all(np.abs(s6[np.ix_(idx, rest)]) < 1e-12), delta
            want = want[outs, ins]
            assert np.all(np.abs(row - want) <= 1e-13 * np.maximum(1.0, np.abs(want))), delta
