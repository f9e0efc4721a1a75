"""Parameter sweeps, phase-offset calibration and pump tuning.

A pump point is (rho_1..rho_k, phi_tot): scattering magnitudes depend on the
individual pump phases only through their signed sum, so one phase variable
suffices.  ``tune`` puts a template at the closed-form working point of its
objective (Sliwa et al., PRX 5, 041020; Metelmann & Clerk, PRX 5, 021025) and
scores it once.

Objective evaluations, the calibration and the sweeps solve from parameter
arrays (rho per coupling, phi_tot) with ``cmt.solve_batch`` and take
magnitudes with ``np.abs``, as ``cmt.SweepResult.magnitudes`` does; no device
is built or validated per point, only the one ``tune`` returns.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from . import cmt, metrics
from .errors import (
    AmbiguousMinimumError,
    DomainError,
    TopologyError,
)
from .model import (
    ProcessKind,
    ValidatedDevice,
    directional_amp_parts,
    total_pump_phase,
    with_coupling,
    with_total_phase,
    wrap_signed,
)

PENALTY_DB = 200.0
RHO_GAIN_MAX = 1.0 - 1e-6
# the largest forward gain a directional-amp tune may target: both gains at RHO_GAIN_MAX
G_MAX_DB = 10.0 * math.log10(cmt.gain_coefficient(RHO_GAIN_MAX) - 1.0)
GAIN_TOLERANCE_ULPS = 16  # see _gain_tolerance_db
# Reflections below this no longer improve the directional-amp objective, so
# a matched working point scores exactly this floor plus its gain error.
MATCH_REWARD_FLOOR_DB = -60.0
# A circulator tune meets its target when the worst input match and the worst
# reverse leakage are each at or below this (amplitude dB).
CIRCULATOR_TARGET_DB = -60.0


class ObjectiveKind(enum.Enum):
    CIRCULATOR_CW = "circulator_cw"
    CIRCULATOR_CCW = "circulator_ccw"
    DIRECTIONAL_AMP = "directional_amp"


@dataclass(frozen=True)
class Objective:
    """Target for tune(), scored lower-is-better.

    Circulator objectives score the worst on-resonance input match plus the
    worst reverse leakage (both amplitude dB); the directional-amp objective
    scores the forward-gain error from target_gain_db plus the worst input
    reflection.
    """

    kind: ObjectiveKind
    target_gain_db: float = 0.0  # directional amp only; circulators ignore it

    def __post_init__(self):
        t = self.target_gain_db
        if self.kind is ObjectiveKind.DIRECTIONAL_AMP and not (0.0 <= t <= G_MAX_DB):
            raise DomainError(f"target_gain_db must be in [0, G_MAX_DB = {G_MAX_DB:.2f}] dB, "
                              f"got {t:g}")


@dataclass(frozen=True)
class TuneResult:
    """The working point tune() returns and its score.

    ``stop_reason`` is ``"target_met"`` when the point meets the objective's
    target and ``"target_missed"`` otherwise.  ``evaluations`` and ``trace``
    (the best objective after each improving evaluation) record the one score.
    """

    device: ValidatedDevice
    objective_value: float
    stop_reason: Literal["target_met", "target_missed"]
    evaluations = 1

    @property
    def trace(self) -> tuple[float, ...]:
        return (self.objective_value,)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "target_met"


@dataclass(frozen=True)
class PhaseSweepResult:
    """|S| magnitudes on a (phi_tot, delta) grid for all nine mode pairs."""

    phis: np.ndarray
    deltas: np.ndarray
    magnitudes: dict[tuple[str, str], np.ndarray]  # (out, in) -> (n_phi, n_delta)
    device: ValidatedDevice

    def magnitude(self, out_mode: str, in_mode: str) -> np.ndarray:
        return self.magnitudes[(out_mode, in_mode)]


@dataclass(frozen=True)
class ConversionSweepResult:
    """On-resonance response versus conversion coefficient.

    reflection_mag is |S| at the matched input port of the conversion pair
    (the signal port of the phi_tot = -pi/2 branch) and forward_mag the
    transmission from that port to the idler; threshold_c is the analytic
    directionality threshold 1 - 1/G of the gain attached to that port.
    """

    c_values: np.ndarray
    rho_values: np.ndarray
    reflection_mag: np.ndarray
    forward_mag: np.ndarray
    reflection_port: str
    idler_port: str
    threshold_c: float
    device: ValidatedDevice


@dataclass(frozen=True)
class PhaseCalibration:
    """Two phase-control offsets minimizing the calibration objective.

    The candidates differ by pi.  For a circulator they are the two working
    points and ``primary`` is the clockwise one; for a directional amplifier
    they are the interference anchors (the working points sit +-pi/2 away)
    and ``primary`` is the anchor whose +pi/2 branch maps the signal role
    onto the conversion pair's head mode.
    """

    candidates: tuple[float, float]
    primary: float
    objective_values: tuple[float, float]


def phase_sweep(
    device: ValidatedDevice, phi_grid: Sequence[float], delta_grid: Sequence[float]
) -> PhaseSweepResult:
    """Re-solve the device across total pump phases and detunings."""
    phis = np.asarray(phi_grid, dtype=float)
    deltas = cmt.delta_grid(delta_grid)
    if len(phis) == 0 or len(deltas) == 0:
        raise DomainError("phase_sweep grids must be non-empty")
    names = device.mode_names
    mags = {(o, i): np.empty((len(phis), len(deltas))) for o in names for i in names}
    for r, phi in enumerate(phis):  # one batch per row keeps memory flat
        s = cmt.solve_batch(device, deltas, phi_tot=float(phi))
        for (o, i), mag in mags.items():
            mag[r] = np.abs(s[:, device.index(o), device.index(i)])
    return PhaseSweepResult(phis, deltas, mags, device)


def conversion_sweep(
    device_template: ValidatedDevice, c_grid: Sequence[float]
) -> ConversionSweepResult:
    """Scan the conversion coefficient of a directional amplifier at delta=0.

    For each C the conversion coupling is set to rho_for_conversion(C) and the
    device is solved at the phi_tot = -pi/2 working point; the recorded
    reflection crosses unit magnitude exactly at the directionality threshold.
    """
    conv_pair, head, other, idler = directional_amp_parts(device_template)
    cs = np.asarray(c_grid, dtype=float)
    if len(cs) == 0:
        raise DomainError("conversion grid must be non-empty")
    gain_at_port = device_template.coupling_for((other, idler))
    threshold = cmt.directionality_threshold(cmt.gain_coefficient(gain_at_port.rho))
    rhos = np.array([cmt.rho_for_conversion(c) for c in cs])
    strengths = [rhos if c.pair == conv_pair else c.rho for c in device_template.couplings]
    s = cmt.solve_batch(device_template, 0.0, rhos=strengths, phi_tot=-math.pi / 2.0)
    q, z = device_template.index(other), device_template.index(idler)
    return ConversionSweepResult(cs, rhos, np.abs(s[:, q, q]), np.abs(s[:, z, q]),
                                 reflection_port=other, idler_port=idler,
                                 threshold_c=threshold, device=device_template)


def _golden_minimize(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Golden-section minimum of a unimodal objective on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def calibrate_phase_offset(
    device: ValidatedDevice, coarse_points: int = 720
) -> PhaseCalibration:
    """Locate the two phase-control values (differing by pi) that minimize the
    calibration response: the middle mode's reflection for a circulator, the
    idler reflection for a directional amplifier.

    Raises AmbiguousMinimumError when the response is flat (e.g. pumps off).
    """
    names = device.mode_names
    if device.is_circulator:
        port = names[1]
    elif device.is_directional_amp:
        port = directional_amp_parts(device)[3]
    else:
        raise TopologyError("phase calibration needs a circulator or directional amplifier")
    t0 = total_pump_phase(device)
    k = device.index(port)

    def responses(offsets) -> np.ndarray:
        return np.abs(cmt.solve_batch(device, 0.0, phi_tot=t0 + offsets)[:, k, k])

    def objective(offset: float) -> float:
        return float(responses(offset)[0])

    grid = np.linspace(0.0, 2.0 * math.pi, coarse_points, endpoint=False)
    values = responses(grid)
    if float(values.max() - values.min()) < 1e-12:
        raise AmbiguousMinimumError(
            f"|S_{port}{port}| does not vary with pump phase; nothing to calibrate"
        )
    step = 2.0 * math.pi / coarse_points
    best = float(grid[int(np.argmin(values))])
    m1 = _golden_minimize(objective, best - 2 * step, best + 2 * step)
    m2 = _golden_minimize(objective, m1 + math.pi - 2 * step, m1 + math.pi + 2 * step)
    m1, m2 = wrap_signed(m1), wrap_signed(m2)

    if device.is_circulator:
        # S at phi_tot = t0 + m1; the sense reads only the mode names from the device
        s = cmt.SweepResult(np.zeros(1), cmt.solve_batch(device, 0.0, phi_tot=t0 + m1), device)
        first_is_primary = metrics.circulation_sense(s) is metrics.CirculationSense.CW
    else:
        # anchor whose +pi/2 branch puts the signal role on the head mode
        head = directional_amp_parts(device)[1]
        roles = metrics.role_map(device, t0 + m1 + math.pi / 2.0)
        first_is_primary = roles.signal == head
    if not first_is_primary:
        m1, m2 = m2, m1
    return PhaseCalibration(
        candidates=(m1, m2),
        primary=m1,
        objective_values=(objective(m1), objective(m2)),
    )


def _score_function(template: ValidatedDevice, objective: Objective):
    """``score(x) -> (objective value, target met)`` at x = (rho_1..rho_k, phi_tot).

    The target is read from the same solve as the value: a directional amp
    meets it at the match floor with the gain within ``_gain_tolerance_db`` of
    target, a circulator when its worst match and worst reverse leakage are
    each at most CIRCULATOR_TARGET_DB.  A non-finite phi_tot scores PENALTY_DB
    (its magnitudes would be nan and floor to a perfect score); a singular
    dynamics matrix raises SingularMatrixError.
    """
    floored = metrics._amp_db_floored
    circulator = objective.kind is not ObjectiveKind.DIRECTIONAL_AMP
    if circulator:
        # the reverse pairs of the wanted sense: the cycle's, or its forward ones for CCW
        cw = objective.kind is ObjectiveKind.CIRCULATOR_CW
        rev = metrics._cycle_pairs(template.mode_names)[cw]
        leaks = [(template.index(o), template.index(i)) for o, i in rev]
    else:
        # the roles depend on phi_tot only through the sign of sin(phi_tot)
        roles = {up: metrics.role_map(template, math.pi / 2 if up else -math.pi / 2)
                 for up in (True, False)}
        ports = {up: [template.index(n) for n in (r.signal, r.idler, r.vacuum)]
                 for up, r in roles.items()}
        tolerance = _gain_tolerance_db(objective.target_gain_db)

    def score(x: np.ndarray) -> tuple[float, bool]:
        *rhos, phi = (float(v) for v in x)
        if not math.isfinite(phi):
            return PENALTY_DB, False
        mag = np.abs(cmt.solve_batch(template, 0.0, rhos=rhos, phi_tot=phi)[0]).tolist()
        if circulator:
            match = max(floored(mag[k][k]) for k in range(3))
            leak = max(floored(mag[o][i]) for o, i in leaks)
            return match + leak, max(match, leak) <= CIRCULATOR_TARGET_DB
        signal, idler, vacuum = ports[math.sin(phi) >= 0.0]
        fwd = mag[idler][signal] ** 2
        if fwd <= 0.0:
            return PENALTY_DB, False
        gain_err = abs(metrics.to_db(fwd) - objective.target_gain_db)
        worst_refl = max(floored(mag[signal][signal]), floored(mag[vacuum][vacuum]),
                         MATCH_REWARD_FLOOR_DB)
        value = gain_err + worst_refl
        return value, value <= MATCH_REWARD_FLOOR_DB + tolerance

    return score


def _gain_rho(target_gain_db: float) -> float:
    """Gain rho at which |S_signal->idler|^2 = 10**(t/10) with the conversion matched."""
    return cmt.rho_for_gain(10.0 ** (target_gain_db / 10.0) + 1.0)


def _gain_tolerance_db(target_gain_db: float) -> float:
    """How far the gain read back at the working point may miss ``target_gain_db``.

    G = ((1 + rho) / (1 - rho))**2, so one ulp of the gain rho moves the gain
    by (20 / ln 10) * 2 / (1 - rho**2) * ulp(rho) dB: 9.6e-10 dB at
    RHO_GAIN_MAX, so no gain there can be resolved to 1e-9 dB.  The working
    point's rho carries the round-off of ``rho_for_gain``, and the solve of a
    dynamics matrix whose condition grows as 1 / (1 - rho) adds more; the gain
    it reads back has missed by up to 9.3 of these ulps over 43,000 random
    devices.  The tolerance is GAIN_TOLERANCE_ULPS of them, and 1e-9 dB where
    that is less (below about 102 dB).
    """
    rho = _gain_rho(target_gain_db)
    ulp_db = 40.0 / math.log(10.0) / (1.0 - rho * rho) * math.ulp(rho)
    return max(1e-9, GAIN_TOLERANCE_ULPS * ulp_db)


def _working_point(template: ValidatedDevice, objective: Objective) -> np.ndarray:
    """The closed-form working point (rho_1..rho_k, phi_tot) of ``objective``.

    Circulator: every conversion matched (rho = 1) at phi_tot = +pi/2 (CW) or
    -pi/2 (CCW).  Directional amp: the conversion matched and both gains at
    ``_gain_rho`` of the target, so that |S_signal->idler|^2 = 10**(t/10) and
    both inputs are matched (S_bb = 0 in ``cmt.sbb_closed_form``); phi_tot =
    +-pi/2 with the sign of sin of the template's phi_tot (+ when that is 0),
    which keeps its signal and idler roles.
    """
    if objective.kind is ObjectiveKind.DIRECTIONAL_AMP:
        rho_gain = _gain_rho(objective.target_gain_db)
        rhos = [rho_gain if c.kind is ProcessKind.GAIN else 1.0 for c in template.couplings]
        up = math.sin(total_pump_phase(template)) >= 0.0
    else:
        rhos = [1.0] * len(template.couplings)
        up = objective.kind is ObjectiveKind.CIRCULATOR_CW
    return np.array(rhos + [math.pi / 2 if up else -math.pi / 2])


def tune(template: ValidatedDevice, objective: Objective) -> TuneResult:
    """``template`` at the closed-form working point of ``objective``
    (``_working_point``), scored once; deterministic.

    ``stop_reason`` is "target_met" when the point meets the objective's
    target and "target_missed" (``converged`` False) when it does not.  Raises
    SingularMatrixError when the dynamics matrix is singular at the point.
    """
    if objective.kind is ObjectiveKind.DIRECTIONAL_AMP:
        if not template.is_directional_amp:
            raise TopologyError("directional-amp objective needs a directional-amp template")
    elif not template.is_circulator:
        raise TopologyError("circulator objective needs an all-conversion template")
    x = _working_point(template, objective)
    value, met = _score_function(template, objective)(x)
    dev = template
    for rho, c in zip(x[:-1], template.couplings):
        dev = with_coupling(dev, c.pair, rho=float(rho))
    dev = with_total_phase(dev, float(x[-1]))
    return TuneResult(dev, value, "target_met" if met else "target_missed")
