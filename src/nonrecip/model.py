"""Domain types for three-mode parametrically pumped devices.

A device is three resonant modes plus up to three pairwise pumped processes
(photon gain at the pair's sum frequency, or unity-photon-gain conversion at
the difference frequency).  Validation assigns each scattering channel a
conjugation flag: a conversion process links channels of equal conjugation,
a gain process links opposite ones, so the coupling graph must admit a
2-coloring.  All frequencies and decay rates are ordinary frequencies
(omega/2pi) in Hz; coupling strengths are the dimensionless ratios
rho_ij = |g_ij|^2 / (kappa_i * kappa_j); phases are radians in [0, 2pi).
The total pump phase phi_tot, the one phase combination the scattering
depends on, is a plain float in (-pi, pi]; ``split_total_phase`` is the one
place that puts a phi_tot on the couplings, and ``check_pump_closure`` reads
every pump frequency off the signed mode frequencies.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional

from .errors import (
    DeviceValidationError,
    DuplicatePairError,
    FrustratedConjugationError,
    GainAboveThresholdError,
    TopologyError,
)

TWO_PI = 2.0 * math.pi
PUMP_DETUNING_TOLERANCE_HZ = 10e6  # default of ``check_pump_closure`` and of a config


class ProcessKind(enum.Enum):
    GAIN = "gain"
    CONVERSION = "conversion"


def _canonical_pair(pair: Iterable[str]) -> tuple[str, str]:
    names = tuple(pair)
    if len(names) != 2 or names[0] == names[1]:
        raise DeviceValidationError(f"coupling pair must name two distinct modes, got {names!r}")
    return tuple(sorted(names))  # type: ignore[return-value]


def wrap_phase(phi):
    """Wrap an angle (a float or an array) to [0, 2pi); the second fold sends the
    2pi that the first gives just below zero to 0."""
    return phi % TWO_PI % TWO_PI


def wrap_signed(phi: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = wrap_phase(phi)
    return w - TWO_PI if w > math.pi else w


@dataclass(frozen=True)
class ModeSpec:
    """One resonant mode: a one-letter name, resonance frequency (Hz) and energy decay rate (Hz)."""

    name: str
    resonance_freq: float
    kappa: float

    def __post_init__(self):
        if not (isinstance(self.name, str) and len(self.name) == 1 and self.name.isalpha()):
            raise DeviceValidationError(f"mode name must be one letter, got {self.name!r}")
        for key in ("resonance_freq", "kappa"):
            if not (0 < getattr(self, key) < math.inf):
                raise DeviceValidationError(f"mode {self.name}: {key} must be finite and > 0")


@dataclass(frozen=True)
class PumpedCoupling:
    """A pairwise parametric process.

    rho is the dimensionless pump strength |g|^2/(kappa_i kappa_j); gain
    processes require rho < 1 (below self-oscillation), conversions admit any
    rho >= 0 (full conversion at rho = 1, over-coupled beyond).  The phase is
    the pump phase referred to the common clock, stored wrapped to [0, 2pi).
    """

    pair: tuple[str, str]
    kind: ProcessKind
    rho: float
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "pair", _canonical_pair(self.pair))
        object.__setattr__(self, "kind", ProcessKind(self.kind))
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "phase", wrap_phase(float(self.phase)))
        if not math.isfinite(self.rho) or self.rho < 0:
            raise DeviceValidationError(f"coupling {self.pair}: rho must be finite and >= 0")
        if not math.isfinite(self.phase):  # wrap_phase turns +-inf into nan
            raise DeviceValidationError(f"coupling {self.pair}: phase must be finite")
        if self.kind is ProcessKind.GAIN and self.rho >= 1.0:
            raise GainAboveThresholdError(
                f"GainAboveThreshold: gain coupling {self.pair} has rho={self.rho:g} >= 1 "
                "(at or beyond parametric self-oscillation)"
            )


@dataclass(frozen=True)
class ValidatedDevice:
    """A device whose couplings satisfy every structural invariant.

    Modes are sorted by name; couplings are sorted by pair.  ``conjugated``
    flags, per mode, the channels that carry the conjugate envelope (idler
    side of a gain process); they enter the photon-flux metric with sign -1
    and respond at detuning -delta relative to their carrier.
    """

    modes: tuple[ModeSpec, ModeSpec, ModeSpec]
    couplings: tuple[PumpedCoupling, ...]
    conjugated: tuple[bool, bool, bool]

    @property
    def mode_names(self) -> tuple[str, str, str]:
        return tuple(m.name for m in self.modes)  # type: ignore[return-value]

    @property
    def detuning_signs(self) -> tuple[int, int, int]:
        return tuple(-1 if c else +1 for c in self.conjugated)  # type: ignore[return-value]

    @property
    def kappas(self) -> tuple[float, float, float]:
        return tuple(m.kappa for m in self.modes)  # type: ignore[return-value]

    def index(self, name: str) -> int:
        return self.mode_names.index(name)

    def coupling_for(self, pair: Iterable[str]) -> Optional[PumpedCoupling]:
        key = tuple(sorted(pair))
        return next((c for c in self.couplings if c.pair == key), None)

    @property
    def is_circulator(self) -> bool:
        return len(self.couplings) == 3 and all(
            c.kind is ProcessKind.CONVERSION for c in self.couplings
        )

    @property
    def is_directional_amp(self) -> bool:
        # validation leaves one conversion and two gains as the only other loop
        return len(self.couplings) == 3 and not self.is_circulator


def conversion_head(device: ValidatedDevice, pair: Iterable[str]) -> str:
    """Reference mode of a conversion pair for the phase-orientation convention.

    In the name-sorted triple (m1, m2, m3) the head is m1 for pairs {m1,m2}
    and {m1,m3}, and m3 for {m2,m3}.  This choice makes the documented signed
    phase sums exact gauge invariants of the dynamics matrix.
    """
    names = device.mode_names
    key = tuple(sorted(pair))
    if key == (names[0], names[1]) or key == (names[0], names[2]):
        return names[0]
    if key == (names[1], names[2]):
        return names[2]
    raise DeviceValidationError(f"pair {key!r} does not belong to device modes {names!r}")


def directional_amp_parts(device: ValidatedDevice) -> tuple[tuple[str, str], str, str, str]:
    """Decompose a directional-amplifier device.

    Returns (conversion_pair, head, other, idler) where idler is the
    doubly-gain-coupled mode and head/other split the conversion pair per
    the phase-orientation convention.
    """
    if not device.is_directional_amp:
        raise TopologyError(
            "device is not a directional amplifier (needs one conversion and two gains)"
        )
    conv = next(c for c in device.couplings if c.kind is ProcessKind.CONVERSION)
    idler = next(n for n in device.mode_names if n not in conv.pair)
    head = conversion_head(device, conv.pair)
    other = conv.pair[0] if conv.pair[1] == head else conv.pair[1]
    return conv.pair, head, other, idler


def phase_signs(device: ValidatedDevice) -> dict[tuple[str, str], int]:
    """Sign with which each coupling's phase enters the total pump phase."""
    if len(device.couplings) != 3:
        raise TopologyError("total pump phase requires one process on every mode pair")
    names = device.mode_names
    if device.is_circulator:
        return {
            (names[0], names[1]): -1,
            (names[0], names[2]): +1,
            (names[1], names[2]): +1,
        }
    _pair, head, _other, idler = directional_amp_parts(device)
    signs = {c.pair: +1 for c in device.couplings}
    signs[_canonical_pair((head, idler))] = -1
    return signs


def total_pump_phase(device: ValidatedDevice) -> float:
    """Total pump phase phi_tot: the signed sum of the stored coupling phases
    for the device's topology, wrapped to (-pi, pi].

    It acts as an artificial gauge flux: the only phase combination the
    scattering magnitudes depend on.
    """
    signs = phase_signs(device)
    return wrap_signed(sum(signs[c.pair] * c.phase for c in device.couplings))


def split_total_phase(device: ValidatedDevice, phi_tot):
    """Per-coupling phases, in coupling order, that give total pump phase
    ``phi_tot`` (a float or an array): phi_tot on the first pair with that
    pair's sign in ``phase_signs``, wrapped by ``wrap_phase``, and 0.0 on the
    other pairs.  The one place phi_tot is put on the couplings; gauge freedom
    makes this split representative of every split with the same signed sum."""
    first = wrap_phase(phase_signs(device)[device.couplings[0].pair] * phi_tot)
    return [first] + [0.0] * (len(device.couplings) - 1)


def with_total_phase(device: ValidatedDevice, value: float) -> ValidatedDevice:
    """Device whose total pump phase is ``value``, split by ``split_total_phase``; like
    ``with_coupling``, it keeps the validated modes, pairs, kinds and conjugation."""
    split = zip(device.couplings, split_total_phase(device, value))
    return replace(device, couplings=tuple(replace(c, phase=p) for c, p in split))


def with_coupling(
    device: ValidatedDevice,
    pair: Iterable[str],
    rho: Optional[float] = None,
    phase: Optional[float] = None,
) -> ValidatedDevice:
    """The device with one coupling's rho and/or phase replaced; only that coupling is checked."""
    key = tuple(sorted(pair))
    if device.coupling_for(key) is None:
        raise DeviceValidationError(f"device has no coupling on pair {key!r}")
    return replace(device, couplings=tuple(
        replace(c, rho=c.rho if rho is None else rho,
                phase=c.phase if phase is None else phase) if c.pair == key else c
        for c in device.couplings))


def _assign_conjugation(
    names: tuple[str, str, str], couplings: tuple[PumpedCoupling, ...]
) -> tuple[bool, bool, bool]:
    # 2-coloring: conversion edges join equal flags, gain edges opposite ones.
    # The first fit in product order (names sorted) leaves each connected
    # group's first mode un-conjugated, which also pins the global flip.
    for flags in itertools.product((False, True), repeat=3):
        flag = dict(zip(names, flags))
        if all((flag[c.pair[0]] != flag[c.pair[1]]) == (c.kind is ProcessKind.GAIN)
               for c in couplings):
            return flags  # type: ignore[return-value]
    raise FrustratedConjugationError(
        "FrustratedConjugation: no consistent conjugation assignment exists "
        f"for couplings {[f'{c.kind.value}{c.pair}' for c in couplings]}"
    )


def validate_device(
    modes: Iterable[ModeSpec],
    couplings: Iterable[PumpedCoupling] = (),
) -> ValidatedDevice:
    """Check every structural invariant and return an immutable device:
    exactly three modes, up to three couplings.

    Rejects duplicate pairs, non-member pairs, gain couplings at rho >= 1 (enforced by
    PumpedCoupling itself) and coupling graphs with no consistent conjugation 2-coloring.
    An odd number of gains on the mode triangle has none, so a device with three couplings
    is a circulator (three conversions) or a directional amp (one conversion, two gains).
    Idempotent, and run once, when a device is described: a rho or phase change
    (``with_coupling``, ``with_total_phase``, a tune's working point) keeps the modes,
    pairs, kinds and conjugation, and each new PumpedCoupling checks its own rho and phase.
    """
    modes, couplings = tuple(modes), tuple(couplings)
    if len(modes) != 3:
        raise DeviceValidationError(f"device needs exactly 3 modes, got {len(modes)}")
    modes = tuple(sorted(modes, key=lambda m: m.name))
    names = tuple(m.name for m in modes)
    if len(set(names)) != 3:
        raise DeviceValidationError(f"mode names must be pairwise distinct, got {names!r}")
    freqs = [m.resonance_freq for m in modes]
    if len({f for f in freqs}) != 3:
        raise DeviceValidationError("mode resonance frequencies must be pairwise distinct")

    if len(couplings) > 3:
        raise DeviceValidationError("at most three pairwise couplings are possible")
    seen: set[tuple[str, str]] = set()
    for c in couplings:
        if not set(c.pair) <= set(names):
            raise DeviceValidationError(
                f"coupling pair {c.pair!r} references modes outside {names!r}"
            )
        if c.pair in seen:
            raise DuplicatePairError(
                f"DuplicatePair: more than one process declared on pair {c.pair!r}"
            )
        seen.add(c.pair)
    couplings = tuple(sorted(couplings, key=lambda c: c.pair))

    conjugated = _assign_conjugation(names, couplings)  # type: ignore[arg-type]
    return ValidatedDevice(modes, couplings, conjugated)  # type: ignore[arg-type]


def check_pump_closure(
    device: ValidatedDevice, declared_pumps: Mapping[str, float],
    tolerance: float = PUMP_DETUNING_TOLERANCE_HZ,
) -> list[str]:
    """Warnings, never errors, for declared pump frequencies (Hz).

    A pump declared for mode m drives the coupling of the other two modes.
    With x_k = sigma_k f_k (sigma = ``detuning_signs``) the pump matched to
    pair (i, j) is |x_i - x_j|, and the signed differences sum to zero around
    a -> b -> c -> a (closure).  Warns on a declared pump more than
    ``tolerance`` off its match, and on three that miss closure by more.
    """
    names = device.mode_names
    x = [s * m.resonance_freq for s, m in zip(device.detuning_signs, device.modes)]
    warnings: list[str] = []
    loop = []  # (sign of x_i - x_j along a -> b -> c -> a, declared pump)
    for c in device.couplings:
        i, j = (device.index(n) for n in c.pair)
        spectator = names[3 - i - j]
        if spectator not in declared_pumps:
            continue
        f_declared, f_matched = float(declared_pumps[spectator]), abs(x[i] - x[j])
        off = abs(f_declared - f_matched)
        if off > tolerance:
            warnings.append(f"pump on {spectator} ({c.kind.value} {c.pair}): declared "
                            f"{f_declared:g} Hz is {off:g} Hz from the matched frequency "
                            f"{f_matched:g} Hz (tolerance {tolerance:g} Hz)")
        # (a, c) runs against the loop
        loop.append(((x[i] > x[j]) != (j - i == 2), f_declared))
    if len(loop) == 3:
        signs = [1 if up == loop[0][0] else -1 for up, _f in loop]
        resid = abs(sum(t * f for t, (_up, f) in zip(signs, loop)))
        if resid > tolerance:
            terms = " ".join(f"{'+' if t > 0 else '-'}p{c.pair}"
                             for t, c in zip(signs, device.couplings))
            warnings.append(f"pump closure {terms} = {resid:g} Hz exceeds tolerance "
                            f"{tolerance:g} Hz")
    return warnings
