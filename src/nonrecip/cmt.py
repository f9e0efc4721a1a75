"""Coupled-mode input-output scattering kernel and its closed-form oracles.

The frequency-domain dynamics matrix M(delta) acts on channel envelopes
(conjugate envelopes on conjugated channels); the scattering matrix follows
from input-output theory as S = K M^{-1} K - I with K = diag(sqrt(kappa)).
Everything is expressed in ordinary frequencies (Hz), so the mode
susceptibility is (kappa/2 - i*delta)^{-1}.  Every solve comes back as a
``SweepResult``; ``scattering_at`` is the one-point sweep at a single detuning.

Closed forms provided as independent oracles:
  sqrt(G) = (1+rho)/(1-rho)          zero-detuning gain of one pumped pair
  C = 4*rho/(1+rho)^2                zero-detuning conversion coefficient
  S_bb = -1 + 2(rho_ac-1)/(rho_ac+rho_bc-rho_ab-1)
                                     on-resonance input match of the
                                     two-gain + one-conversion configuration
  C_min = 1 - 1/G                    directionality threshold
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularMatrixError, TopologyError
from .model import (
    TWO_PI,
    ProcessKind,
    ValidatedDevice,
    conversion_head,
    phase_signs,
)

_DET_TOL = 1e-12  # on the dimensionless (normalized) dynamics matrix


def gain_coefficient(rho: float) -> float:
    """Zero-detuning photon-number gain G of a single gain process."""
    if not (0.0 <= rho < 1.0):
        raise DomainError(f"gain rho must satisfy 0 <= rho < 1, got {rho:g}")
    return ((1.0 + rho) / (1.0 - rho)) ** 2


def conversion_coefficient(rho: float) -> float:
    """Zero-detuning conversion coefficient C in [0, 1] of a single conversion."""
    if rho < 0:
        raise DomainError(f"conversion rho must be >= 0, got {rho:g}")
    return 4.0 * rho / (1.0 + rho) ** 2


def rho_for_gain(gain: float) -> float:
    """Inverse of gain_coefficient: rho = (sqrt(G)-1)/(sqrt(G)+1)."""
    if not (gain >= 1.0):
        raise DomainError(f"gain must be >= 1, got {gain:g}")
    s = math.sqrt(gain)
    return (s - 1.0) / (s + 1.0)


def rho_for_conversion(c: float) -> float:
    """Inverse of conversion_coefficient, under-coupled branch (rho <= 1).

    Algebraically (2 - C - 2*sqrt(1-C))/C, evaluated in the cancellation-free
    form C/(2 - C + 2*sqrt(1-C)).
    """
    if not (0.0 <= c <= 1.0):
        raise DomainError(f"conversion coefficient must be in [0, 1], got {c:g}")
    if c == 0.0:
        return 0.0
    return c / (2.0 - c + 2.0 * math.sqrt(1.0 - c))


def directionality_threshold(gain: float) -> float:
    """Minimum conversion coefficient for a directional amplifier: 1 - 1/G."""
    if not (gain >= 1.0):
        raise DomainError(f"gain must be >= 1, got {gain:g}")
    return 1.0 - 1.0 / gain


def sbb_closed_form(rho_ab: float, rho_bc: float, rho_ac: float) -> float:
    """On-resonance input match of the two-gain + one-conversion device.

    Conversion on (a, b) with strength rho_ab, gains on (a, c) and (b, c),
    total pump phase +-pi/2.  Real by construction.
    """
    den = rho_ac + rho_bc - rho_ab - 1.0
    if abs(den) < 1e-14:
        raise DomainError("sbb_closed_form pole: rho_ac + rho_bc - rho_ab = 1")
    return -1.0 + 2.0 * (rho_ac - 1.0) / den


@dataclass(frozen=True)
class SweepResult:
    """Scattering matrices over an ordered detuning grid; one point is a grid of one.

    ``entries[k]`` is the 3x3 complex S at ``deltas[k]``.  Rows/columns follow
    the device's name-sorted mode order; entry (i, j) is the transfer from an
    input on channel j to the output of channel i.  Each S satisfies
    photon-flux conservation S Sigma S^dag = Sigma with
    Sigma = diag(+1 un-conjugated / -1 conjugated).
    """

    deltas: np.ndarray
    entries: np.ndarray  # shape (n, 3, 3)
    device: ValidatedDevice

    def __len__(self) -> int:
        return len(self.deltas)

    @property
    def center_index(self) -> int:
        """Grid point closest to zero detuning."""
        if len(self.deltas) == 0:
            raise DomainError("empty sweep has no center point")
        return int(np.argmin(np.abs(self.deltas)))

    def magnitudes(self, out_mode: str, in_mode: str) -> np.ndarray:
        i = self.device.index(out_mode)
        j = self.device.index(in_mode)
        return np.abs(self.entries[:, i, j])


_DIAG = np.arange(3)
_Template = namedtuple("_Template", "half_kappas root_k scale slots phases control_sign")


@functools.lru_cache(maxsize=32)
def _template(device: ValidatedDevice) -> _Template:
    """What the kernel takes from a device, once per device: kappa/2, sqrt(kappa),
    the scale K K / 2 of the dimensionless M, per coupling (kappa_i, kappa_j, r, c, a, b)
    with M[r, c] = a g / exp(i phase) and M[c, r] = b g exp(i phase), the stored
    phases and the sign of the first pair in phi_tot (None without).  Strengths stay
    out: the cache matches equal devices, and rho = -0.0 equals 0.0."""
    kappas, sig = device.kappas, device.detuning_signs
    slots = []
    for c in device.couplings:
        i, j = (device.index(n) for n in c.pair)
        if c.kind is ProcessKind.GAIN:
            slot = (i, j, 1j, -1j) if sig[i] == +1 else (j, i, 1j, -1j)
        else:
            p = device.index(conversion_head(device, c.pair))
            q = j if p == i else i
            # both channels conjugated: the conjugate envelope equations
            slot = (p, q, 1j, 1j) if sig[i] == +1 else (q, p, -1j, -1j)
        slots.append((kappas[i], kappas[j]) + slot)
    loop = len(device.couplings) == 3  # a circulator or a directional amp
    root_k = np.sqrt(np.asarray(kappas))
    return _Template(np.asarray(kappas) / 2.0, root_k, np.outer(root_k, root_k) / 2.0,
                     tuple(slots), tuple(c.phase for c in device.couplings),
                     phase_signs(device)[device.couplings[0].pair] if loop else None)


def _finite(values, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise DomainError(f"{name} must be finite")
    return values


def _dynamics_batch(template: _Template, deltas, rhos, phi_tot=None) -> np.ndarray:
    """Dynamics matrices of n points, shape (n, 3, 3): ``deltas``, ``phi_tot``
    and each of ``rhos`` (one per coupling), scalars or 1-D, broadcast to n.
    Without ``phi_tot`` the device's stored phases are used; with it the
    phases of ``with_total_phase(device, phi_tot)``.  Raises DomainError on a
    non-finite value or a negative rho."""
    deltas = _finite(deltas, "deltas")
    rhos = [_finite(rho, "rhos") for rho in rhos]
    if any((rho < 0).any() for rho in rhos):
        raise DomainError("rhos must be >= 0")
    phases = template.phases
    if phi_tot is not None:
        if template.control_sign is None:
            raise TopologyError("phi_tot needs a circulator or directional-amp device")
        # all on the first pair, wrapped twice as with_total_phase and PumpedCoupling do
        first = np.mod(template.control_sign * _finite(phi_tot, "phi_tot"), TWO_PI)
        phases = [np.mod(first, TWO_PI)] + [0.0] * (len(phases) - 1)
    shape = np.broadcast(deltas, *phases, *rhos).shape
    if len(shape) > 1:
        raise DomainError("parameter arrays must be scalars or one-dimensional")
    m = np.zeros((shape or (1,)) + (3, 3), dtype=complex)
    m[:, _DIAG, _DIAG] = template.half_kappas - 1j * deltas[..., None]
    for (k_i, k_j, r, c, a, b), rho, phase in zip(template.slots, rhos, phases):
        g = np.sqrt(rho * k_i * k_j) / 2.0
        e = np.exp(1j * phase)
        m[:, r, c] = a * g / e
        m[:, c, r] = b * g * e
    return m


def build_dynamics_matrix(device: ValidatedDevice, delta: float) -> np.ndarray:
    """Frequency-domain dynamics matrix M(delta), ordinary-frequency units.

    Diagonal kappa_m/2 - i*delta (channel envelopes share the probe detuning;
    on a conjugated channel the envelope is the conjugate wave, physically at
    -delta from its carrier).  Off-diagonal entries carry sqrt(rho_ij kappa_i
    kappa_j)/2 with the pump phase, conjugated on conjugated-channel rows.
    """
    return _dynamics_batch(_template(device), float(delta), [c.rho for c in device.couplings])[0]


def solve_batch(device: ValidatedDevice, deltas, rhos=None, phi_tot=None) -> np.ndarray:
    """Scattering matrices S = K M^{-1} K - I of n points, shape (n, 3, 3), from
    parameter arrays broadcast as in ``_dynamics_batch`` (no ``rhos``: the device's
    own).  Bit for bit ``scattering_at`` on the device rebuilt with ``with_coupling``
    and ``with_total_phase``, without building one.  Raises SingularMatrixError at
    the first parametric oscillation point."""
    template = _template(device)
    rhos = [c.rho for c in device.couplings] if rhos is None else rhos
    m = _dynamics_batch(template, deltas, rhos, phi_tot)
    # dimensionless determinant check: N = 2 K^-1 M K^-1 has O(1) entries
    dets = np.linalg.det(m / template.scale)
    bad = np.abs(dets) < _DET_TOL
    if np.any(bad):
        raise SingularMatrixError(float(np.broadcast_to(deltas, len(m))[int(np.argmax(bad))]))
    s = template.root_k[None, :, None] * np.linalg.inv(m) * template.root_k[None, None, :]
    s[:, _DIAG, _DIAG] -= 1.0
    return s


def scattering_at(device: ValidatedDevice, delta: float) -> SweepResult:
    """S(delta) = K M(delta)^{-1} K - I, K = diag(sqrt(kappa)), as a one-point sweep.

    Raises SingularMatrixError at a parametric oscillation point.
    """
    return sweep(device, [float(delta)])


def delta_grid(deltas) -> np.ndarray:
    """The detuning grid as a float array; it must be 1-D and strictly increasing."""
    grid = np.asarray(deltas, dtype=float)
    if grid.ndim != 1:
        raise DomainError("detuning grid must be one-dimensional")
    if len(grid) > 1 and not np.all(np.diff(grid) > 0):
        raise DomainError("detuning grid must be strictly increasing")
    return grid


def sweep(device: ValidatedDevice, deltas) -> SweepResult:
    """One scattering matrix per grid point; pure function of its inputs.

    The grid must be strictly increasing.
    """
    grid = delta_grid(deltas)
    return SweepResult(grid, solve_batch(device, grid), device)
