"""Coupled-mode input-output scattering kernel and its closed-form oracles.

The frequency-domain dynamics matrix M(delta) acts on channel envelopes
(conjugate envelopes on conjugated channels); the scattering matrix follows
from input-output theory as S = K M^{-1} K - I with K = diag(sqrt(kappa)).
Everything is expressed in ordinary frequencies (Hz), so the mode
susceptibility is (kappa/2 - i*delta)^{-1}.  A solve checks M(0) for singular
points (``_checked``), then gives S at the (out, in) entries its caller names
(``_solve``); ``solve_batch`` runs both for all nine entries, ``phase_rows``
batch by batch for a phase map.  The kernel takes one phase per coupling; a
total pump phase phi_tot is put on the couplings by ``model.split_total_phase``.
Singular points come from the poles lambda_p of M(0):
det M(delta) = prod_p (lambda_p - i delta).

Closed forms provided as independent oracles:
  sqrt(G) = (1+rho)/(1-rho)          zero-detuning gain of one pumped pair
  C = 4*rho/(1+rho)^2                zero-detuning conversion coefficient
  S_bb = -1 + 2(rho_ac-1)/(rho_ac+rho_bc-rho_ab-1)
                                     on-resonance input match of the
                                     two-gain + one-conversion configuration
  C_min = 1 - 1/G                    directionality threshold
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError, SingularMatrixError
from .model import ProcessKind, ValidatedDevice, conversion_head, split_total_phase

_DET_TOL = 1e-12  # on the dimensionless (normalized) dynamics matrix
# Dynamics matrices per solve in a phase map: 8 phi rows of a 1,001-point delta grid.
# More rows per call hold more memory and solve no faster; one row per call is slower.
PHASE_BATCH_MATRICES = 8192


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
    if gain == math.inf:  # sqrt(inf) gives rho = inf / inf = nan
        raise DomainError("gain must be finite, got inf")
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
_EYE = np.eye(3, dtype=complex)
_ALL_ENTRIES = [(o, i) for o in range(3) for i in range(3)]  # row-major


def _finite(values, name: str, ndim: int = 1) -> np.ndarray:
    """``values`` as a float array of at most ``ndim`` dimensions, all finite."""
    values = np.asarray(values, dtype=float)
    if values.ndim > ndim:
        what = "one-dimensional" if ndim == 1 else f"at most {ndim}-dimensional"
        raise DomainError(f"{name} must be a scalar or {what}")
    if not np.isfinite(values).all():
        raise DomainError(f"{name} must be finite")
    return values


def _dynamics_batch(device: ValidatedDevice, rhos=None, phases=None) -> np.ndarray:
    """Zero-detuning dynamics matrices A = M(0), shape P + (3, 3): ``rhos`` and ``phases``
    (one per coupling, else the device's own), scalars, 1-D or 2-D, broadcast to P ((1,) for
    scalars); g = sqrt(rho kappa_i kappa_j)/2 enters at A[r, k] = a g / exp(i phase) and
    A[k, r] = b g exp(i phase).  Only passed ``rhos`` are checked: DomainError on the wrong
    length, or on a rho not finite, or outside [0, 1) on a gain and [0, inf) on a conversion."""
    couplings, kappas, sig = device.couplings, device.kappas, device.detuning_signs
    phases = [c.phase for c in couplings] if phases is None else phases
    if rhos is None:
        rhos = [c.rho for c in couplings]
    elif len(rhos) != len(couplings):
        raise DomainError(f"rhos needs {len(couplings)} values, got {len(rhos)}")
    else:
        rhos = [_finite(rho, "rhos", 2) for rho in rhos]
        if any(((rho < 0) | ((c.kind is ProcessKind.GAIN) & (rho >= 1))).any()
               for c, rho in zip(couplings, rhos)):
            raise DomainError("rhos must be >= 0, and < 1 on a gain coupling")
    m = np.zeros((np.broadcast(*phases, *rhos).shape or (1,)) + (3, 3), dtype=complex)
    m[..., _DIAG, _DIAG] = np.asarray(kappas) / 2.0
    for c, rho, phase in zip(couplings, rhos, phases):
        i, j = (device.index(n) for n in c.pair)
        if c.kind is ProcessKind.GAIN:
            r, k, a, b = (i, j, 1j, -1j) if sig[i] == +1 else (j, i, 1j, -1j)
        else:
            p = device.index(conversion_head(device, c.pair))
            q = j if p == i else i
            # both channels conjugated: the conjugate envelope equations
            r, k, a, b = (p, q, 1j, 1j) if sig[i] == +1 else (q, p, -1j, -1j)
        g = np.sqrt(rho * kappas[i] * kappas[j]) / 2.0
        e = np.exp(1j * phase)
        m[..., r, k] = a * g / e
        m[..., k, r] = b * g * e
    return m


def build_dynamics_matrix(device: ValidatedDevice, delta: float) -> np.ndarray:
    """Frequency-domain dynamics matrix M(delta) = M(0) - i*delta, ordinary-frequency units.

    Diagonal kappa_m/2 - i*delta (channel envelopes share the probe detuning;
    on a conjugated channel the envelope is the conjugate wave, physically at
    -delta from its carrier).  Off-diagonal entries carry sqrt(rho_ij kappa_i
    kappa_j)/2 with the pump phase, conjugated on conjugated-channel rows.
    """
    m = _dynamics_batch(device)[0]
    m[_DIAG, _DIAG] -= 1j * _finite(float(delta), "deltas")
    return m


def _checked(device: ValidatedDevice, deltas, rhos=None,
             phi_tot=None) -> tuple[np.ndarray, np.ndarray]:
    """The check stage: (A, deltas), A = M(0) per parameter set of ``_dynamics_batch`` (no
    ``phi_tot``, the stored phases, else those of ``split_total_phase``), ``deltas`` (a
    scalar or 1-D) broadcast against the sets to B: 1-D parameters give a set per point,
    (r, 1) columns r rows of the delta grid, B = (r, n_delta).  Raises DomainError on a
    non-finite ``deltas`` or ``phi_tot``, and SingularMatrixError at the first point, in
    row-major order, where det(2 K^-1 M K^-1) = 8 / prod(kappa) * det M(delta) is below
    _DET_TOL; det M(delta) = prod_p (lambda_p - i delta) over the poles lambda_p = eigvals(A)."""
    phases = None if phi_tot is None else split_total_phase(device, _finite(phi_tot, "phi_tot", 2))
    deltas = _finite(deltas, "deltas")
    a = _dynamics_batch(device, rhos, phases)
    deltas = np.broadcast_to(deltas, np.broadcast_shapes(deltas.shape, a.shape[:-2]))
    poles, z = np.linalg.eigvals(a), 1j * deltas
    dets = (poles[..., 0] - z) * (poles[..., 1] - z) * (poles[..., 2] - z)
    bad = np.abs(8.0 / math.prod(device.kappas) * dets) < _DET_TOL
    if np.any(bad):
        raise SingularMatrixError(float(deltas.flat[int(np.argmax(bad))]))
    return a, deltas


def _solve(device: ValidatedDevice, a: np.ndarray, deltas: np.ndarray, entries) -> np.ndarray:
    """The solve stage: S = K M^{-1} K - I at the (out, in) ``entries``, shape B + (len(entries),),
    M = A - i*delta on ``_checked``'s (A, deltas), by zgesv on the inputs' identity columns."""
    outs, ins = np.array(entries, dtype=np.intp).reshape(-1, 2).T
    columns, at = np.unique(ins, return_inverse=True)
    m = np.broadcast_to(a, deltas.shape + (3, 3)).copy()
    m[..., _DIAG, _DIAG] -= 1j * deltas[..., None]
    root_k = np.sqrt(np.asarray(device.kappas))
    # (sqrt(kappa_o) x_oi) sqrt(kappa_i): the rounding order the written bytes depend on
    s = root_k[outs] * np.linalg.solve(m, _EYE[:, columns])[..., outs, at] * root_k[ins]
    s[..., outs == ins] -= 1.0
    return s


def solve_batch(device: ValidatedDevice, deltas, rhos=None, phi_tot=None) -> np.ndarray:
    """S over a batch of points, shape B + (3, 3): ``_checked``, then ``_solve`` for all nine
    entries.  Bit for bit ``scattering_at`` on the device rebuilt with ``with_coupling`` and
    ``with_total_phase``, without building one."""
    a, deltas = _checked(device, deltas, rhos, phi_tot)
    return _solve(device, a, deltas, _ALL_ENTRIES).reshape(deltas.shape + (3, 3))


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


def phase_rows(device: ValidatedDevice, phi_grid: Sequence[float],
               deltas: Sequence[float], pairs: Sequence[tuple[str, str]]) -> PhaseRows:
    """The |S| of the (out, in) ``pairs`` across total pump phases and detunings, streamed
    row by row.  Each distinct phase is solved once: a row that ``split_total_phase`` puts
    on the bits of an earlier row repeats that row.  The distinct rows go in batches of
    ``PHASE_BATCH_MATRICES`` matrices through the two stages.  Every batch passes
    ``_checked`` before this returns, so DomainError or SingularMatrixError (the first
    singular row, then delta) is raised here, not from the stream, which runs ``_solve``
    on a batch's checked A, for the entries of ``pairs`` alone, once it reaches it."""
    phis = _finite(phi_grid, "phi_tot")
    deltas = delta_grid(deltas)
    if len(phis) == 0 or len(deltas) == 0:
        raise DomainError("phase map grids must be non-empty")
    keys = split_total_phase(device, phis)[0].view(np.int64).tolist()
    first_row: dict[int, int] = {}
    first_rows = tuple(first_row.setdefault(key, r) for r, key in enumerate(keys))
    solved = phis[[r for r, q in enumerate(first_rows) if q == r], None]
    step = max(1, PHASE_BATCH_MATRICES // len(deltas))
    batches = [solved[k:k + step] for k in range(0, len(solved), step)]
    checked = [_checked(device, deltas, phi_tot=batch) for batch in batches]
    entries = [(device.index(o), device.index(i)) for o, i in pairs]
    solved_rows = itertools.chain.from_iterable(
        np.abs(_solve(device, a, grid, entries)) for a, grid in checked)
    rows = (next(solved_rows) if q == r else None for r, q in enumerate(first_rows))
    return PhaseRows(phis, deltas, tuple(pairs), first_rows, rows)


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
