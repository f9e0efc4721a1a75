"""Parameter sweeps, phase-offset calibration and pump-parameter optimization.

The optimizer works on (rho_1..rho_k, phi_tot): scattering magnitudes depend
on the individual pump phases only through their signed sum, so one phase
variable suffices.  The objectives are cheap and smooth away from oscillation
poles, which are handled with a large finite penalty to keep the simplex
well-defined.

Objective evaluations, the calibration and the sweeps solve from parameter
arrays (rho per coupling, phi_tot) with ``cmt.solve_batch``; no device is built
or validated per point, only the one ``tune`` returns.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from . import cmt, metrics
from .errors import (
    AmbiguousMinimumError,
    DomainError,
    SingularMatrixError,
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
RHO_CONVERSION_MAX = 4.0
# Reflections below this no longer improve the directional-amp objective;
# without the cap the match term is unbounded at perfect match (a flat
# plateau in floating point) and the simplex stalls there with the gain
# target still unmet.
MATCH_REWARD_FLOOR_DB = -60.0


class ObjectiveKind(enum.Enum):
    CIRCULATOR_CW = "circulator_cw"
    CIRCULATOR_CCW = "circulator_ccw"
    DIRECTIONAL_AMP = "directional_amp"


@dataclass(frozen=True)
class Objective:
    """Optimization target for tune().

    Circulator objectives minimize the worst on-resonance input match plus
    the worst reverse leakage (both amplitude dB); the directional-amp
    objective minimizes the forward-gain error from target_gain_db plus the
    worst input reflection.
    """

    kind: ObjectiveKind
    target_gain_db: float = 0.0

    def __post_init__(self):
        if self.target_gain_db < 0:
            raise DomainError("target_gain_db must be >= 0")


@dataclass(frozen=True)
class TuneResult:
    """Outcome of a tune() run; converged=False simply means budget exhausted."""

    device: ValidatedDevice
    objective_value: float
    trace: tuple[float, ...]  # best objective after each improving evaluation
    evaluations: int
    iterations: int
    converged: bool


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
    return ConversionSweepResult(cs, rhos, _magnitudes(s, q, q), _magnitudes(s, z, q),
                                 reflection_port=other, idler_port=idler,
                                 threshold_c=threshold, device=device_template)


def _magnitudes(s: np.ndarray, out: int, inp: int) -> np.ndarray:
    # Python's abs(complex), as ScatteringMatrix.magnitude; np.abs can differ in the last bit
    return np.array([abs(z) for z in s[:, out, inp].tolist()])


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
    t0 = total_pump_phase(device).value
    k = device.index(port)

    def responses(offsets) -> np.ndarray:
        return _magnitudes(cmt.solve_batch(device, 0.0, phi_tot=t0 + offsets), k, k)

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
        s = cmt.ScatteringMatrix(0.0, cmt.solve_batch(device, 0.0, phi_tot=t0 + m1)[0],
                                 device.frame)
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


def _objective_function(template: ValidatedDevice, objective: Objective):
    caps = [RHO_GAIN_MAX if c.kind is ProcessKind.GAIN else RHO_CONVERSION_MAX
            for c in template.couplings]
    floored = metrics._amp_db_floored
    if objective.kind in (ObjectiveKind.CIRCULATOR_CW, ObjectiveKind.CIRCULATOR_CCW):
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

    def evaluate(x: np.ndarray) -> float:
        penalty = 0.0
        for rho, cap in zip(x[:-1], caps):
            if rho < 0.0:
                penalty += PENALTY_DB * (1.0 + abs(rho))
            elif rho > cap:
                penalty += PENALTY_DB * (1.0 + rho - cap)
        if penalty > 0.0:
            return penalty
        params = [float(v) for v in x]
        if not all(map(math.isfinite, params)):  # no device has a non-finite rho or phi_tot
            return PENALTY_DB
        *rhos, phi = params
        try:
            s = cmt.solve_batch(template, 0.0, rhos=rhos, phi_tot=phi)[0].tolist()
        except SingularMatrixError:
            return PENALTY_DB
        if objective.kind is not ObjectiveKind.DIRECTIONAL_AMP:
            match = max(floored(abs(s[k][k])) for k in range(3))
            leak = max(floored(abs(s[o][i])) for o, i in leaks)
            return match + leak
        signal, idler, vacuum = ports[math.sin(phi) >= 0.0]
        fwd = abs(s[idler][signal]) ** 2
        if fwd <= 0.0:
            return PENALTY_DB
        gain_err = abs(metrics.to_db(fwd) - objective.target_gain_db)
        worst_refl = max(floored(abs(s[signal][signal])), floored(abs(s[vacuum][vacuum])),
                         MATCH_REWARD_FLOOR_DB)
        return gain_err + worst_refl

    return evaluate


def tune(
    template: ValidatedDevice,
    objective: Objective,
    initial: Optional[Sequence[float]] = None,
    budget: int = 2000,
) -> TuneResult:
    """Derivative-free simplex search over (rho_1..rho_k, phi_tot).

    Deterministic given the initial point and budget (total objective
    evaluations).  Convergence means the simplex collapsed below 1e-8;
    exhausting the budget returns converged=False, not an error.
    """
    if budget < 1:
        raise DomainError("budget must be >= 1")
    if objective.kind is ObjectiveKind.DIRECTIONAL_AMP:
        if not template.is_directional_amp:
            raise TopologyError("directional-amp objective needs a directional-amp template")
    elif not template.is_circulator:
        raise TopologyError("circulator objective needs an all-conversion template")

    if initial is None:
        x0 = np.array([c.rho for c in template.couplings] + [total_pump_phase(template).value])
    else:
        x0 = np.asarray(initial, dtype=float)
        if len(x0) != len(template.couplings) + 1:
            raise DomainError("initial point must supply one rho per coupling plus phi_tot")

    raw = _objective_function(template, objective)
    trace: list[float] = []
    evaluations = [0]

    def tracked(x: np.ndarray) -> float:
        evaluations[0] += 1
        value = raw(x)
        if not trace or value < trace[-1]:
            trace.append(value)
        return value

    # Restarted simplex: a collapsed simplex is re-expanded at the best point
    # until the budget runs out or a restart stops improving.  Deterministic.
    best_x = np.asarray(x0, dtype=float)
    best_f = math.inf
    iterations = 0
    converged = False
    while evaluations[0] < budget:
        result = minimize(
            tracked,
            best_x,
            method="Nelder-Mead",
            options={"maxfev": budget - evaluations[0], "xatol": 1e-8, "fatol": 1e-12},
        )
        iterations += int(result.nit)
        improved = result.fun < best_f - 1e-10
        if result.fun < best_f:
            best_f = float(result.fun)
            best_x = np.asarray(result.x, dtype=float)
        if result.success and not improved:
            converged = True
            break
        if not result.success:
            break

    dev = template
    for rho, c in zip(best_x[:-1], template.couplings):
        cap = RHO_GAIN_MAX if c.kind is ProcessKind.GAIN else RHO_CONVERSION_MAX
        dev = with_coupling(dev, c.pair, rho=float(min(max(rho, 0.0), cap)))
    dev = with_total_phase(dev, float(best_x[-1]))
    return TuneResult(
        device=dev,
        objective_value=best_f,
        trace=tuple(trace),
        evaluations=evaluations[0],
        iterations=iterations,
        converged=converged,
    )
