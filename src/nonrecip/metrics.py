"""Figures of merit derived from scattering matrices.

Match, isolation and insertion loss are amplitude ratios (20 log10); gains
and noise ratios are power ratios (10 log10).  Noise quantities assume
vacuum (half a photon) incident on every channel and a perfectly stiff pump,
so the scattering is lossless and S Sigma S^dag = Sigma is the conservation
law being monitored.  Every figure takes a ``cmt.SweepResult``; the
single-point ones (sense, NVR, added noise) read its ``center_index``
point, so ``scattering_at``'s one-point sweep serves them directly.  A
directional amplifier's port roles are the named tuple ``(signal, idler,
vacuum)`` of mode names.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .cmt import SweepResult
from .errors import DomainError, EmptyBandError, TopologyError
from .model import ValidatedDevice, directional_amp_parts

DB_FLOOR = -320.0  # amplitude dB assigned to an exact zero
ISOLATION_MARGIN_DB = 10.0  # power dB by which circulation beats the reverse paths
BAND_MATCH_DB = -10.0  # circulator band: every input match at or below this, amplitude dB
BAND_LOSS_DB = 1.0  # circulator band: every forward insertion loss at or below this, dB


def to_db(x: float) -> float:
    """Power ratio to dB."""
    if not (x > 0):
        raise DomainError(f"to_db requires a positive power ratio, got {x:g}")
    return 10.0 * math.log10(x)


def amp_db(x: float) -> float:
    """Amplitude ratio to dB (20 log10)."""
    if not (x > 0):
        raise DomainError(f"amp_db requires a positive amplitude, got {x:g}")
    return 20.0 * math.log10(x)


def amp_db_floored(x: float) -> float:
    """``amp_db(x)``, or DB_FLOOR where that would be below it (an exact zero too)."""
    return amp_db(x) if x > 10 ** (DB_FLOOR / 20.0) else DB_FLOOR


class PortRoles(NamedTuple):
    """Mode names of a directional amplifier's three ports."""

    signal: str
    idler: str
    vacuum: str


class CirculationSense(enum.Enum):
    CW = "cw"  # first -> second -> third mode in name order
    CCW = "ccw"
    NONE = "none"


def cycle_pairs(names: tuple[str, str, str]):
    """The (out, in) pairs along the cycle of ``names`` (forward) and against it (reverse)."""
    a, b, c = names
    forward = ((b, a), (c, b), (a, c))  # transmission out <- in along a->b->c->a
    reverse = ((a, b), (b, c), (c, a))
    return forward, reverse


def circulation_sense(sweep: SweepResult) -> CirculationSense:
    """Sense of circulation of a conversion-coupled device at the sweep's
    center point.

    CW means the weakest forward transmission along the name cycle
    (a->b->c->a) still exceeds the strongest reverse one by at least
    ISOLATION_MARGIN_DB (power dB); CCW is the transposed condition.
    """
    forward, reverse = cycle_pairs(sweep.device.mode_names)
    margin = 10 ** (ISOLATION_MARGIN_DB / 20.0)  # amplitude ratio for a power-dB margin
    center = sweep.center_index
    fwd = [sweep.magnitudes(o, i)[center] for o, i in forward]
    rev = [sweep.magnitudes(o, i)[center] for o, i in reverse]
    if min(fwd) >= max(rev) * margin:
        return CirculationSense.CW
    if min(rev) >= max(fwd) * margin:
        return CirculationSense.CCW
    return CirculationSense.NONE


def _contiguous_band(deltas: np.ndarray, ok: np.ndarray, center: int) -> float:
    lo = center
    while lo > 0 and ok[lo - 1]:
        lo -= 1
    hi = center
    while hi < len(ok) - 1 and ok[hi + 1]:
        hi += 1
    return float(deltas[hi] - deltas[lo])


def circulator_bandwidth(sweep: SweepResult) -> float:
    """Width of the contiguous band around zero detuning where every input
    match is at or below BAND_MATCH_DB and every forward insertion loss is at
    or below BAND_LOSS_DB.

    Raises EmptyBandError when the center point already fails.
    """
    device = sweep.device
    if not device.is_circulator:
        raise TopologyError("circulator_bandwidth requires an all-conversion device")
    if len(sweep) == 0:
        raise EmptyBandError("empty sweep")
    center = sweep.center_index
    sense = circulation_sense(sweep)
    if sense is CirculationSense.NONE:
        raise EmptyBandError("no circulation at zero detuning")
    forward, reverse = cycle_pairs(device.mode_names)
    fwd_pairs = forward if sense is CirculationSense.CW else reverse
    match_lin, loss_lin = 10 ** (BAND_MATCH_DB / 20.0), 10 ** (-BAND_LOSS_DB / 20.0)
    ok = np.ones(len(sweep), dtype=bool)
    for n in device.mode_names:
        ok &= sweep.magnitudes(n, n) <= match_lin
    for o, i in fwd_pairs:
        ok &= sweep.magnitudes(o, i) >= loss_lin
    if not ok[center]:
        raise EmptyBandError("criteria fail at zero detuning")
    return _contiguous_band(sweep.deltas, ok, center)


def gain_bandwidth_3db(sweep: SweepResult, from_mode: str, to_mode: str) -> float:
    """Width of the contiguous band around zero detuning where the power
    transmission |S_{to,from}|^2 stays within 3 dB of its center value."""
    if len(sweep) == 0:
        raise EmptyBandError("empty sweep")
    p = sweep.magnitudes(to_mode, from_mode) ** 2
    center = sweep.center_index
    if p[center] <= 0.0:
        raise EmptyBandError(f"no transmission {from_mode}->{to_mode} at zero detuning")
    ok = p >= p[center] / 2.0
    return _contiguous_band(sweep.deltas, ok, center)


def nvr(sweep: SweepResult) -> dict[str, float]:
    """Noise visibility ratio per output port at the center point, dB.

    Vacuum-driven output noise with pumps on, referenced to the pumps-off
    baseline: NVR_i = 10 log10(sum_j |S_ij|^2).
    """
    total = np.sum(np.abs(sweep.entries[sweep.center_index]) ** 2, axis=1)
    return {n: 10.0 * math.log10(float(total[k])) for k, n in enumerate(sweep.device.mode_names)}


def added_noise(sweep: SweepResult, signal_port: str, output_port: str) -> float:
    """Input-referred added noise (photons) of the signal_port -> output_port
    path at the center point.

    Half a photon per non-signal channel feeding the output row, divided by
    the forward power gain.
    """
    out = sweep.device.index(output_port)
    sig = sweep.device.index(signal_port)
    row = np.abs(sweep.entries[sweep.center_index, out]) ** 2
    denom = float(row[sig])
    if denom <= 0.0:
        raise DomainError(f"no forward gain {signal_port}->{output_port}")
    return float(0.5 * (np.sum(row) - row[sig]) / denom)


def symplectic_defect(sweep: SweepResult) -> float:
    """Largest |element| of S Sigma S^dag - Sigma over every point of the
    sweep, in one stacked evaluation; zero for a lossless device.  S Sigma is
    S with each column scaled by its sign."""
    signs = np.array(sweep.device.detuning_signs, dtype=float)
    s = sweep.entries
    return float(np.max(np.abs((s * signs) @ np.swapaxes(s.conj(), -1, -2) - np.diag(signs))))


def role_map(device: ValidatedDevice, phi_tot: float) -> PortRoles:
    """Port roles ``(signal, idler, vacuum)`` of a directional amplifier at the
    total pump phase ``phi_tot`` (radians).

    The idler is the doubly-gain-coupled mode.  Among the conversion pair the
    signal port is the phase-reference (head) mode when sin(phi_tot) > 0 and
    the other mode when sin(phi_tot) < 0; changing phi_tot by pi therefore
    swaps signal and vacuum with the idler unchanged.  At sin(phi_tot) = 0
    the device is not directional and the head-mode assignment is returned
    by convention.
    """
    _pair, head, other, idler = directional_amp_parts(device)
    if math.sin(phi_tot) >= 0.0:
        return PortRoles(head, idler, other)
    return PortRoles(other, idler, head)
