"""Parameter sweeps, phase-offset calibration and pump tuning.

Scattering magnitudes depend on the individual pump phases only through their
signed sum phi_tot, so one phase variable suffices.  ``tune`` puts a template
at the closed-form working point of its objective (Sliwa et al., PRX 5,
041020; Metelmann & Clerk, PRX 5, 021025) and scores that one device;
``calibrate_phase_offset`` takes its two minima, a cardinal pair, from the
topology alone.

The calibration and the conversion sweep solve from parameter arrays (rho per
coupling, phi_tot) with ``cmt.solve_batch``, the phase map with its two stages
apart (``phase_rows``), and take magnitudes with ``np.abs``; no device is built
or validated per point, only the one ``tune`` returns.  There, as in the
kernel, phi_tot is put on the couplings by ``model.split_total_phase``.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator, Literal, Optional, Sequence

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
    split_total_phase,
    total_pump_phase,
    validate_device,
    wrap_signed,
)

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
# Dynamics matrices per solve in a phase map: 8 phi rows of a 1,001-point delta grid.
# More rows per call hold more memory and solve no faster; one row per call is slower.
PHASE_BATCH_MATRICES = 8192


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
    target and ``"target_missed"`` otherwise.
    """

    device: ValidatedDevice
    objective_value: float
    stop_reason: Literal["target_met", "target_missed"]

    @property
    def converged(self) -> bool:
        return self.stop_reason == "target_met"


@dataclass(frozen=True)
class PhaseRows:
    """A phase map as a one-pass stream of |S| rows, in phi order.

    ``magnitudes`` yields, for phi row ``r``, the (n_delta, len(pairs)) |S| of the
    (out, in) ``pairs``, or None for a row that repeats row ``first_rows[r] < r``."""

    phis: np.ndarray
    deltas: np.ndarray
    pairs: tuple[tuple[str, str], ...]
    first_rows: tuple[int, ...]
    magnitudes: Iterator[Optional[np.ndarray]]


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


@dataclass(frozen=True)
class PhaseCalibration:
    """Two phase-control offsets minimizing the calibration objective.

    The candidates differ by pi.  For a circulator they are the two working
    points and ``primary`` is the clockwise one, phi_tot = +pi/2, however weak
    its isolation; for a directional amplifier they are the interference
    anchors (the working points sit +-pi/2 away) and ``primary`` is the anchor
    whose +pi/2 branch maps the signal role onto the conversion pair's head mode.
    """

    candidates: tuple[float, float]
    primary: float
    objective_values: tuple[float, float]


def phase_rows(device: ValidatedDevice, phi_grid: Sequence[float],
               delta_grid: Sequence[float], pairs: Sequence[tuple[str, str]]) -> PhaseRows:
    """The |S| of the (out, in) ``pairs`` across total pump phases and detunings, streamed
    row by row.  Each distinct phase is solved once: a row that ``split_total_phase`` puts
    on the bits of an earlier row repeats that row.  The distinct rows go in batches of
    ``PHASE_BATCH_MATRICES`` matrices through the kernel's two stages.  Every batch passes
    the check stage ``cmt._checked`` before this returns, so DomainError or
    SingularMatrixError (the first singular row, then delta) is raised here, not from the
    stream.  The stream runs the solve stage ``cmt._solve`` on each batch's checked A,
    for the input columns of ``pairs`` alone, only when it reaches that batch."""
    phis = cmt._finite(phi_grid, "phi_tot")
    deltas = cmt.delta_grid(delta_grid)
    if len(phis) == 0 or len(deltas) == 0:
        raise DomainError("phase map grids must be non-empty")
    keys = split_total_phase(device, phis)[0].view(np.int64).tolist()
    first_row: dict[int, int] = {}
    first_rows = tuple(first_row.setdefault(key, r) for r, key in enumerate(keys))
    solved = phis[[r for r, q in enumerate(first_rows) if q == r], None]
    step = max(1, PHASE_BATCH_MATRICES // len(deltas))
    batches = [solved[k:k + step] for k in range(0, len(solved), step)]
    checked = [cmt._checked(device, deltas, phi_tot=batch) for batch in batches]
    outs = [device.index(o) for o, _ in pairs]
    columns = sorted({device.index(i) for _, i in pairs})
    at = [columns.index(device.index(i)) for _, i in pairs]
    solved_rows = itertools.chain.from_iterable(
        np.abs(cmt._solve(device, a, grid, columns)[:, :, outs, at]) for a, grid in checked)
    rows = (next(solved_rows) if q == r else None for r, q in enumerate(first_rows))
    return PhaseRows(phis, deltas, tuple(pairs), first_rows, rows)


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
                                 reflection_port=other, idler_port=idler, threshold_c=threshold)


def calibrate_phase_offset(
    device: ValidatedDevice, coarse_points: int = 720
) -> PhaseCalibration:
    """Locate the two phase-control values (differing by pi) that minimize the
    calibration response |S_kk| at delta = 0: the middle mode's reflection for
    a circulator, the idler reflection for a directional amplifier.

    No search or solve picks them.  At delta = 0 every reverse entry of M is
    +- the conjugate of its forward entry (+ for a gain, - for a conversion),
    and both topologies have an odd number of conversions, so phi_tot (a loop
    gauge flux) enters det M only as 2i Im P, P the one loop product, and the
    numerator of S_kk, kappa_k adj_kk - det M, is a real number minus the same
    2i Im P.  Hence |S_kk|^2 = (n^2 + t^2) / (r^2 + t^2) with t = 2 Im P, which
    is proportional to sin(phi_tot + m pi/2) for an integer m and monotone in
    t^2, so the minima are the pair {base, base + pi}, and the topology fixes
    base: pi/2 (clockwise) for a circulator, whose passivity gives n^2 <= r^2,
    and 0 for a directional amplifier, where sin(base + pi/2) >= 0 puts the
    signal on the head.  Less the device's own phi_tot and wrapped to (-pi, pi]
    by ``wrap_signed``, the pair gives the candidates, the first ``primary``.
    An exact half-turn reads +pi: the bundled circulator (phi_tot = pi/2) gives
    (0.0, pi).  Raises AmbiguousMinimumError when a coupling has rho = 0, so
    that P = 0 and |S_kk| does not vary with the pump phase.

    ``objective_values`` is the response at both candidates (t^2 has period
    pi), from one solve at phi_tot = base (SingularMatrixError where singular)
    that exists only because the benchmark reads it; that solve and the ignored
    ``coarse_points`` go with ROADMAP item 1.
    """
    if device.is_circulator:
        port, base = device.mode_names[1], math.pi / 2.0
    elif device.is_directional_amp:
        port, base = directional_amp_parts(device)[3], 0.0
    else:
        raise TopologyError("phase calibration needs a circulator or directional amplifier")
    if any(c.rho == 0.0 for c in device.couplings):
        raise AmbiguousMinimumError(f"|S_{port}{port}| does not vary with pump phase; "
                                    "nothing to calibrate")
    m1 = wrap_signed(base - total_pump_phase(device))
    m2 = wrap_signed(m1 + math.pi)
    k = device.index(port)
    value = float(np.abs(cmt.solve_batch(device, 0.0, phi_tot=np.array([base]))[:, k, k])[0])
    return PhaseCalibration(candidates=(m1, m2), primary=m1, objective_values=(value, value))


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


def _working_point(template: ValidatedDevice, objective: Objective) -> ValidatedDevice:
    """``template`` at the closed-form working point of ``objective``.

    Circulator: every conversion matched (rho = 1) at phi_tot = +pi/2 (CW) or
    -pi/2 (CCW).  Directional amp: the conversion matched and both gains at
    ``_gain_rho`` of the target, so that |S_signal->idler|^2 = 10**(t/10) and
    both inputs are matched (S_bb = 0 in ``cmt.sbb_closed_form``); phi_tot =
    +-pi/2 with the sign of sin of the template's phi_tot (+ when that is 0),
    which keeps its signal and idler roles, split by ``split_total_phase``.
    """
    if objective.kind is ObjectiveKind.DIRECTIONAL_AMP:
        rho_gain = _gain_rho(objective.target_gain_db)
        up = math.sin(total_pump_phase(template)) >= 0.0
    else:
        rho_gain, up = None, objective.kind is ObjectiveKind.CIRCULATOR_CW
    phi = math.pi / 2 if up else -math.pi / 2
    couplings = (
        replace(c, rho=rho_gain if c.kind is ProcessKind.GAIN else 1.0, phase=phase)
        for c, phase in zip(template.couplings, split_total_phase(template, phi)))
    return validate_device(template.modes, couplings)


def tune(template: ValidatedDevice, objective: Objective) -> TuneResult:
    """``template`` at the closed-form working point of ``objective``
    (``_working_point``), solved once at delta = 0 and scored; deterministic.

    A circulator meets its target when its worst input match and worst
    reverse leakage are each at most CIRCULATOR_TARGET_DB; a directional amp
    (port roles from ``metrics.role_map``) when it is matched to the floor and
    its gain is within ``_gain_tolerance_db`` of target.  ``stop_reason`` is
    "target_met" or "target_missed" (``converged`` False).  Raises
    SingularMatrixError when the dynamics matrix is singular at the point.
    """
    if objective.kind is ObjectiveKind.DIRECTIONAL_AMP:
        if not template.is_directional_amp:
            raise TopologyError("directional-amp objective needs a directional-amp template")
    elif not template.is_circulator:
        raise TopologyError("circulator objective needs an all-conversion template")
    device = _working_point(template, objective)
    mag = np.abs(cmt.scattering_at(device, 0.0).entries[0]).tolist()

    def floored(out_mode: str, in_mode: str) -> float:
        return metrics._amp_db_floored(mag[device.index(out_mode)][device.index(in_mode)])

    if objective.kind is ObjectiveKind.DIRECTIONAL_AMP:
        signal, idler, vacuum = metrics.role_map(device, total_pump_phase(device))
        fwd = mag[device.index(idler)][device.index(signal)] ** 2
        value = abs(metrics.to_db(fwd) - objective.target_gain_db) + max(
            floored(signal, signal), floored(vacuum, vacuum), MATCH_REWARD_FLOOR_DB)
        met = value <= MATCH_REWARD_FLOOR_DB + _gain_tolerance_db(objective.target_gain_db)
    else:
        # the reverse pairs of the wanted sense: the cycle's, or its forward ones for CCW
        rev = metrics._cycle_pairs(device.mode_names)[objective.kind is ObjectiveKind.CIRCULATOR_CW]
        match = max(floored(n, n) for n in device.mode_names)
        leak = max(floored(o, i) for o, i in rev)
        value, met = match + leak, max(match, leak) <= CIRCULATOR_TARGET_DB
    return TuneResult(device, value, "target_met" if met else "target_missed")
