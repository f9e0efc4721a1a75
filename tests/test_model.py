import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nonrecip as nr
from nonrecip.errors import (
    DeviceValidationError,
    DuplicatePairError,
    FrustratedConjugationError,
    GainAboveThresholdError,
    TopologyError,
)
from nonrecip.model import (
    conversion_head,
    directional_amp_parts,
    phase_signs,
    split_total_phase,
    total_pump_phase,
    with_coupling,
    with_total_phase,
)

from conftest import make_circulator, make_diramp, standard_modes


class TestModeSpec:
    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(DeviceValidationError):
            nr.ModeSpec("a", 0.0, 44e6)

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(DeviceValidationError):
            nr.ModeSpec("a", 9.167e9, -1.0)

    def test_rejects_empty_name(self):
        with pytest.raises(DeviceValidationError):
            nr.ModeSpec("", 9.167e9, 44e6)

    @pytest.mark.parametrize("name", ["a,x", " a", "a b", "a\n", "1", ""])
    def test_rejects_a_name_that_is_not_an_identifier(self, name):
        # a comma would split the name across two cells of a written CSV header
        with pytest.raises(DeviceValidationError, match=f"got {re.escape(repr(name))}"):
            nr.ModeSpec(name, 9.167e9, 44e6)

    @pytest.mark.parametrize("name", ["aa", "alpha", "_", "1"])
    def test_rejects_a_name_that_is_not_one_letter(self, name):
        # modes a and aa would give (a, aa) and (aa, a) the one column S_aaa
        with pytest.raises(DeviceValidationError,
                           match=f"^mode name must be one letter, got {re.escape(repr(name))}$"):
            nr.ModeSpec(name, 9.167e9, 44e6)


class TestPumpedCoupling:
    def test_pair_is_canonicalized(self):
        c = nr.PumpedCoupling(("b", "a"), "conversion", 0.5)
        assert c.pair == ("a", "b")

    def test_phase_wraps_into_principal_range(self):
        c = nr.PumpedCoupling(("a", "b"), "conversion", 0.5, phase=-math.pi / 2)
        assert math.isclose(c.phase, 3 * math.pi / 2)
        assert 0.0 <= c.phase < 2 * math.pi

    def test_gain_at_or_above_threshold_rejected(self):
        with pytest.raises(GainAboveThresholdError):
            nr.PumpedCoupling(("a", "c"), "gain", 1.0)
        with pytest.raises(GainAboveThresholdError):
            nr.PumpedCoupling(("a", "c"), "gain", 1.2)

    def test_overcoupled_conversion_allowed(self):
        c = nr.PumpedCoupling(("a", "b"), "conversion", 1.2)
        assert c.rho == 1.2

    def test_negative_rho_rejected(self):
        with pytest.raises(DeviceValidationError):
            nr.PumpedCoupling(("a", "b"), "conversion", -0.1)

    def test_identical_pair_rejected(self):
        with pytest.raises(DeviceValidationError):
            nr.PumpedCoupling(("a", "a"), "conversion", 0.5)


class TestValidateDevice:
    def test_all_conversion_device_unconjugated(self):
        dev = make_circulator()
        assert dev.conjugated == (False, False, False)
        assert dev.detuning_signs == (1, 1, 1)

    def test_diramp_conjugates_doubly_gain_coupled_mode(self):
        dev = make_diramp()
        assert dev.conjugated == (False, False, True)
        assert dev.detuning_signs[2] == -1

    @pytest.mark.parametrize("kinds", list(itertools.product(("conversion", "gain"), repeat=3)),
                             ids="-".join)
    def test_kind_assignment(self, kinds):
        # kinds on (a,b), (b,c), (a,c); a gain flips conjugation, so an odd
        # number of them around the triangle has no consistent assignment
        coups = tuple(nr.PumpedCoupling(p, k, 0.5)
                      for p, k in zip((("a", "b"), ("b", "c"), ("a", "c")), kinds))
        if kinds.count("gain") % 2:
            with pytest.raises(FrustratedConjugationError):
                nr.validate_device(standard_modes(), coups)
            return
        dev = nr.validate_device(standard_modes(), coups)
        assert dev.is_circulator == (kinds.count("gain") == 0)
        assert dev.is_directional_amp == (kinds.count("gain") == 2)
        assert set(phase_signs(dev).values()) <= {-1, +1}
        for n in range(3):
            with pytest.raises(TopologyError):
                phase_signs(nr.validate_device(standard_modes(), coups[:n]))

    def test_duplicate_pair_rejected(self):
        coups = (
            nr.PumpedCoupling(("a", "b"), "conversion", 0.5),
            nr.PumpedCoupling(("b", "a"), "gain", 0.5),
        )
        with pytest.raises(DuplicatePairError):
            nr.validate_device(standard_modes(), coups)

    def test_pair_outside_modes_rejected(self):
        coups = (nr.PumpedCoupling(("a", "x"), "conversion", 0.5),)
        with pytest.raises(DeviceValidationError):
            nr.validate_device(standard_modes(), coups)

    def test_four_couplings_rejected(self):
        coups = tuple(nr.PumpedCoupling(p, "conversion", 0.5)
                      for p in (("a", "b"), ("b", "c"), ("a", "c"), ("a", "b")))
        with pytest.raises(DeviceValidationError, match="at most three pairwise couplings"):
            nr.validate_device(standard_modes(), coups)

    def test_wrong_mode_count_rejected(self):
        with pytest.raises(DeviceValidationError):
            nr.validate_device(standard_modes()[:2])

    def test_duplicate_names_rejected(self):
        modes = (
            nr.ModeSpec("a", 9.0e9, 44e6),
            nr.ModeSpec("a", 5.0e9, 19e6),
            nr.ModeSpec("c", 7.0e9, 50e6),
        )
        with pytest.raises(DeviceValidationError):
            nr.validate_device(modes)

    def test_duplicate_frequencies_rejected(self):
        modes = (
            nr.ModeSpec("a", 9.0e9, 44e6),
            nr.ModeSpec("b", 9.0e9, 19e6),
            nr.ModeSpec("c", 7.0e9, 50e6),
        )
        with pytest.raises(DeviceValidationError):
            nr.validate_device(modes)

    def test_idempotent(self):
        dev = make_diramp()
        again = nr.validate_device(dev.modes, dev.couplings)
        assert again == dev

    def test_modes_sorted_by_name(self):
        modes = standard_modes()
        dev = nr.validate_device((modes[2], modes[0], modes[1]))
        assert dev.mode_names == ("a", "b", "c")

    def test_anchor_component_unconjugated(self):
        # all 27 coupling sets: every subset of the three pairs, every kind
        # assignment; e.g. one gain on (b, c) gives groups {a}, {b, c} and
        # conjugation (False, False, True)
        pairs, kinds = (("a", "b"), ("a", "c"), ("b", "c")), ("conversion", "gain")
        sets = [tuple(nr.PumpedCoupling(p, k, 0.5) for p, k in zip(chosen, assigned))
                for n in range(4) for chosen in itertools.combinations(pairs, n)
                for assigned in itertools.product(kinds, repeat=n)]
        assert len(sets) == 27
        for coups in sets:
            gains = sum(c.kind is nr.ProcessKind.GAIN for c in coups)
            if len(coups) == 3 and gains % 2:
                with pytest.raises(FrustratedConjugationError):
                    nr.validate_device(standard_modes(), coups)
                continue
            flag = dict(zip("abc", nr.validate_device(standard_modes(), coups).conjugated))
            for c in coups:
                assert (flag[c.pair[0]] != flag[c.pair[1]]) == (c.kind is nr.ProcessKind.GAIN)
            group = {n: n for n in "abc"}  # each mode's group, named by its first mode
            for c in coups:
                first, later = sorted((group[c.pair[0]], group[c.pair[1]]))
                group = {n: first if g == later else g for n, g in group.items()}
            assert not any(flag[g] for g in group.values()), coups


class TestTopologyHelpers:
    def test_classification(self, circulator, diramp, bare_device):
        assert circulator.is_circulator and not circulator.is_directional_amp
        assert diramp.is_directional_amp and not diramp.is_circulator
        assert not bare_device.is_circulator and not bare_device.is_directional_amp

    def test_conversion_head_table(self, circulator):
        assert conversion_head(circulator, ("a", "b")) == "a"
        assert conversion_head(circulator, ("a", "c")) == "a"
        assert conversion_head(circulator, ("b", "c")) == "c"

    def test_conversion_head_rejects_a_foreign_pair(self, circulator):
        with pytest.raises(DeviceValidationError, match="does not belong to device modes"):
            conversion_head(circulator, ("a", "x"))

    def test_directional_amp_parts(self, diramp):
        pair, head, other, idler = directional_amp_parts(diramp)
        assert pair == ("a", "b")
        assert head == "a" and other == "b" and idler == "c"

    def test_directional_amp_parts_wrong_topology(self, circulator):
        with pytest.raises(TopologyError):
            directional_amp_parts(circulator)


class TestTotalPumpPhase:
    def test_circulator_signed_sum(self):
        dev = nr.validate_device(
            standard_modes(),
            (
                nr.PumpedCoupling(("a", "b"), "conversion", 0.9, phase=0.2),
                nr.PumpedCoupling(("b", "c"), "conversion", 0.9, phase=0.5),
                nr.PumpedCoupling(("a", "c"), "conversion", 0.9, phase=0.1),
            ),
        )
        assert math.isclose(total_pump_phase(dev), 0.5 + 0.1 - 0.2)

    def test_diramp_signed_sum(self):
        dev = nr.validate_device(
            standard_modes(),
            (
                nr.PumpedCoupling(("a", "b"), "conversion", 0.9, phase=0.2),
                nr.PumpedCoupling(("b", "c"), "gain", 0.5, phase=0.5),
                nr.PumpedCoupling(("a", "c"), "gain", 0.5, phase=0.1),
            ),
        )
        assert math.isclose(total_pump_phase(dev), 0.2 + 0.5 - 0.1)

    def test_signs_tables(self, circulator, diramp):
        assert phase_signs(circulator) == {
            ("a", "b"): -1, ("a", "c"): +1, ("b", "c"): +1,
        }
        assert phase_signs(diramp) == {
            ("a", "b"): +1, ("b", "c"): +1, ("a", "c"): -1,
        }

    def test_requires_full_triangle(self, bare_device):
        with pytest.raises(TopologyError):
            total_pump_phase(bare_device)

    def test_with_total_phase_round_trip(self, circulator):
        for target in (-2.5, -math.pi / 2, 0.0, 1.0, math.pi / 2, 3.0):
            dev = with_total_phase(circulator, target)
            assert math.isclose(total_pump_phase(dev), target, abs_tol=1e-12)

    def test_value_wrapped_to_principal_branch(self):
        # (a,b), (b,c), (a,c) enter the circulator's sum with signs -1, +1, +1
        pairs = (("a", "b"), ("b", "c"), ("a", "c"))
        for phases, wrapped in (((0.5, 5.0, 4.0), 8.5 - 2 * math.pi),
                                ((6.0, 0.1, 0.2), -5.7 + 2 * math.pi)):
            dev = nr.validate_device(standard_modes(), tuple(
                nr.PumpedCoupling(p, "conversion", 0.9, phase=phi)
                for p, phi in zip(pairs, phases)))
            tot = total_pump_phase(dev)
            assert -math.pi < tot <= math.pi
            assert math.isclose(tot, wrapped)


def nudged(x: float, steps: int) -> float:
    """``x`` moved by ``steps`` ulps."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# floats at and next to whole turns k 2pi, where a single % 2pi can round to 2pi
NEAR_TURNS = st.one_of(
    st.builds(lambda k, steps: nudged(k * 2 * math.pi, steps),
              st.integers(-3, 3), st.integers(-3, 3)),
    st.floats(-1e-12, 1e-12),
)


class TestPhaseWrap:
    @settings(max_examples=60)
    @given(phi=NEAR_TURNS)
    @example(phi=-1e-17)
    @example(phi=-1e-15)
    @example(phi=-2 * math.pi * (1 + 1e-16))
    @example(phi=2 * math.pi)
    @example(phi=4 * math.pi - 1e-15)
    def test_every_stored_phase_is_below_two_pi(self, phi):
        def in_range(phases):
            return all(0.0 <= p < 2 * math.pi for p in np.ravel(phases).tolist())

        assert in_range(nr.PumpedCoupling(("a", "b"), "conversion", 0.5, phi).phase)
        for device in (make_circulator(), make_diramp()):
            assert in_range(split_total_phase(device, phi)[0])
            assert in_range(split_total_phase(device, np.array([phi, -phi]))[0])
            assert in_range([c.phase for c in with_total_phase(device, phi).couplings])
            assert in_range(with_coupling(device, ("a", "b"), phase=phi)
                            .coupling_for(("a", "b")).phase)


class TestWithCoupling:
    def test_replaces_rho(self, diramp):
        dev = with_coupling(diramp, ("a", "b"), rho=0.5)
        assert dev.coupling_for(("a", "b")).rho == 0.5
        assert dev.coupling_for(("a", "c")).rho == diramp.coupling_for(("a", "c")).rho

    def test_unknown_pair(self, bare_device):
        with pytest.raises(DeviceValidationError):
            with_coupling(bare_device, ("a", "b"), rho=0.5)


class TestPumpFrequencies:
    """The matched pump of a single coupling, read from its check_pump_closure warning."""

    @staticmethod
    def matched(coupling, spectator):
        dev = nr.validate_device(standard_modes(), [coupling])
        # a declared pump far off its match makes the warning name the matched frequency
        (warning,) = nr.check_pump_closure(dev, {spectator: 1e9})
        return float(warning.split("matched frequency ")[1].split(" Hz")[0])

    def test_gain_pump_at_sum(self):
        c = nr.PumpedCoupling(("a", "c"), "gain", 0.5)
        assert math.isclose(self.matched(c, "b"), 16.341e9)

    def test_conversion_pump_at_difference(self):
        c = nr.PumpedCoupling(("a", "b"), "conversion", 0.5)
        assert math.isclose(self.matched(c, "c"), 3.926e9)


class TestPumpClosure:
    def test_circulator_pump_list_clean(self, circulator):
        pumps = {"a": 1.9291e9, "b": 1.9989e9, "c": 3.9280e9}
        assert nr.check_pump_closure(circulator, pumps) == []

    def test_diramp_pump_list_clean(self, diramp):
        pumps = {"a": 12.412e9, "b": 16.339e9, "c": 3.9270e9}
        assert nr.check_pump_closure(diramp, pumps) == []

    def test_displaced_pump_warns(self, circulator):
        pumps = {"a": 1.9291e9, "b": 1.9989e9, "c": 3.9280e9 + 50e6}
        warnings = nr.check_pump_closure(circulator, pumps)
        assert warnings
        assert any("pump on c" in w for w in warnings)
        assert any("closure" in w for w in warnings)

    def test_partial_declaration(self, circulator):
        assert nr.check_pump_closure(circulator, {"c": 3.9260e9}) == []

    @pytest.mark.parametrize("conversion", [None, ("a", "b"), ("a", "c"), ("b", "c")],
                             ids=["circulator", "diramp-ab", "diramp-ac", "diramp-bc"])
    def test_random_devices(self, conversion):
        # mode frequencies in any order; a subset of the three couplings
        rng = np.random.default_rng(31)
        pairs = list(itertools.combinations("abc", 2))
        for _ in range(200):
            f = dict(zip("abc", rng.uniform(1e9, 12e9, 3)))
            n = int(rng.integers(1, 4))
            chosen = [pairs[k] for k in sorted(rng.permutation(3)[:n])]
            kinds = {p: "gain" if conversion not in (None, p) else "conversion" for p in chosen}
            dev = nr.validate_device(
                [nr.ModeSpec(m, f[m], 1e6) for m in "abc"],
                [nr.PumpedCoupling(p, kinds[p], 0.5) for p in chosen])
            spectator = {p: next(m for m in "abc" if m not in p) for p in chosen}
            matched = {spectator[p]: f[p[0]] + f[p[1]] if kinds[p] == "gain"
                       else abs(f[p[0]] - f[p[1]]) for p in chosen}
            assert nr.check_pump_closure(dev, matched, 1.0) == []

            moved = spectator[chosen[int(rng.integers(n))]]
            shift = float(rng.choice([-1, 1]) * rng.integers(2, 30_000) * 1e3)
            warnings = nr.check_pump_closure(dev, {**matched, moved: matched[moved] + shift}, 1.0)
            assert len(warnings) == (2 if n == 3 else 1)
            assert warnings[0].startswith(f"pump on {moved} ")
            assert math.isclose(float(warnings[0].split(" is ")[1].split(" Hz")[0]), abs(shift),
                                rel_tol=1e-6)
            if n == 3:
                assert warnings[1].startswith("pump closure ")
                resid = float(warnings[1].split(" = ")[1].split(" Hz")[0])
                assert math.isclose(resid, abs(shift), rel_tol=1e-6)
