"""Output checks for every benchmark op.

Tables are parsed here, not with the package's reader, and compared with
S = K (A - i*delta*I)^-1 K - I solved here with numpy, where A is the
package's zero-detuning dynamics matrix (the model definition) and K =
diag(sqrt(kappa)).  A check returns None when the output is correct and a
one-line reason otherwise; any reason makes the op a failed op.

Tolerances follow from the 9-significant-digit emission format: a written
value is within 5e-9 of its true value, relatively, so the checks allow
1e-8 relative on S entries, 1e-6 dB plus 1e-8 relative on dB columns, and
1e-9 plus the propagated rounding 1e-8 * (|S| |S|^T) on S Sigma S^dag - Sigma.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Optional

import numpy as np

from nonrecip import cli, cmt, metrics
from nonrecip.model import total_pump_phase, with_total_phase, wrap_signed

import gen

NAMES = gen.MODE_NAMES
CELLS = [(o, i) for o in NAMES for i in NAMES]
SWEEP_COLUMNS = (["delta_hz"] + [f"S_{o}{i}_{p}" for o, i in CELLS for p in ("re", "im")]
                 + [f"S_{o}{i}_db" for o, i in CELLS])
PHI_GRID = np.linspace(-2.0 * math.pi, math.pi, 241)  # phase-sweep defaults
DEFAULT_MAP_PAIRS = "bb,cb"
DIRAMP_GAIN_TOL_DB = 0.5
MAX_REFLECTION_DB = -20.0
MAX_LEAKAGE_DB = -20.0
REL = 1e-8
S_ABS = 1e-12  # solver round-off floor on S entries
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def load_digests() -> dict:
    with open(DIGESTS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_table(path: str) -> tuple[list[str], np.ndarray]:
    """Parse a CSV or JSON table written by the package."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    if path.endswith(".json"):
        doc = json.loads(text)
        columns = [str(c) for c in doc["columns"]]
        rows = np.asarray(doc["rows"], dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(columns):
            raise ValueError("ragged JSON rows")
        return columns, rows
    header, _, body = text.partition("\n")
    columns = header.split(",")
    lines = body.count("\n")
    if not body.endswith("\n") or body.count(",") != lines * (len(columns) - 1):
        raise ValueError("CSV rows do not all have the header's column count")
    values = np.fromstring(body.replace("\n", ","), sep=",")
    if values.size != lines * len(columns):
        raise ValueError("CSV body has unparsable fields")
    return columns, values.reshape(lines, len(columns))


def reference_s(device, deltas: np.ndarray) -> np.ndarray:
    """(n, 3, 3) scattering matrices solved here, one per detuning."""
    a = cmt.build_dynamics_matrix(device, 0.0)
    m = a[None, :, :] - 1j * np.asarray(deltas)[:, None, None] * np.eye(3)[None]
    k = np.sqrt(np.asarray(device.kappas))
    return k[None, :, None] * np.linalg.inv(m) * k[None, None, :] - np.eye(3)[None]


def delta_grid(raw: dict) -> np.ndarray:
    sweep = raw.get("sweep", {})
    points = int(sweep.get("points", 1001))
    half = float(sweep.get("delta_span_mhz", 60.0)) * 1e6 / 2.0
    return np.array([0.0]) if points == 1 else np.linspace(-half, half, points)


def _db(mag: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(mag)


def _close(got: np.ndarray, want: np.ndarray, rel: float, floor) -> bool:
    return bool(np.all(np.abs(got - want) <= rel * np.abs(want) + floor))


def _db_close(got_db: np.ndarray, ref_mag: np.ndarray) -> bool:
    # an absolute error S_ABS on |S| moves dB by 8.69 * S_ABS / |S|
    want = _db(ref_mag)
    floor = 1e-6 + (20.0 / math.log(10.0)) * S_ABS / ref_mag
    return _close(got_db, want, REL, floor)


def _sigma(device) -> np.ndarray:
    # flux metric of the generated topology: conversions keep the channel
    # class, gains flip it (the global sign is irrelevant)
    sign = {NAMES[0]: 1.0}
    pending = list(device.couplings)
    while pending:
        c = pending.pop(0)
        a, b = c.pair
        flip = -1.0 if c.kind.value == "gain" else 1.0
        if a in sign:
            sign[b] = sign[a] * flip
        elif b in sign:
            sign[a] = sign[b] * flip
        else:
            pending.append(c)
    return np.diag([sign[n] for n in NAMES])


def _digest_error(path: str, key: str, digests: dict) -> Optional[str]:
    want = digests.get(key)
    if want is None:
        return f"no recorded digest for {key}"
    got = sha256(path)
    return None if got == want else f"{key}: sha256 {got[:12]} != recorded {want[:12]}"


def check_sweep_table(path: str, dev: gen.Device, digests: dict) -> Optional[str]:
    if dev.bundled:
        err = _digest_error(path, f"{dev.name}.{path.rsplit('.', 1)[1]}", digests["sweep-io"])
        if err:
            return err
    try:
        columns, rows = read_table(path)
    except (OSError, ValueError, KeyError) as exc:
        return f"unparsable table: {exc}"
    grid = delta_grid(dev.raw)
    if columns != SWEEP_COLUMNS:
        return "unexpected columns"
    if rows.shape[0] != len(grid):
        return f"{rows.shape[0]} rows, expected {len(grid)}"
    if not np.all(np.isfinite(rows)):
        return "non-finite value"
    if not _close(rows[:, 0], grid, REL, REL * np.abs(grid).max()):
        return "delta_hz column differs from the configured grid"
    s = (rows[:, 1:19:2] + 1j * rows[:, 2:19:2]).reshape(-1, 3, 3)
    mag = np.abs(s)
    if not _close(rows[:, 19:28], _db(mag).reshape(-1, 9), REL, 1e-6):
        return "dB column differs from 20 log10 |S| of the re/im columns"
    sigma = _sigma(dev.device)
    defect = np.abs(s @ sigma @ np.conj(np.swapaxes(s, 1, 2)) - sigma)
    if np.any(defect > 1e-9 + REL * (mag @ np.swapaxes(mag, 1, 2))):
        return f"S Sigma S^dag != Sigma (max defect {defect.max():.3g})"
    ref = reference_s(dev.device, grid)
    if not _close(s, ref, REL, S_ABS):
        return f"S differs from the reference solve (max {np.abs(s - ref).max():.3g})"
    return None


def map_pairs(dev: gen.Device) -> list[tuple[str, str]]:
    return [(t[0], t[1]) for t in (dev.pairs or DEFAULT_MAP_PAIRS).split(",")]


def check_phase_map(path: str, dev: gen.Device, digests: dict) -> Optional[str]:
    if dev.bundled:
        err = _digest_error(path, f"{dev.name}.csv", digests["phase-map"])
        if err:
            return err
    try:
        columns, rows = read_table(path)
    except (OSError, ValueError) as exc:
        return f"unparsable table: {exc}"
    pairs = map_pairs(dev)
    grid = delta_grid(dev.raw)
    if columns != ["phi_rad", "delta_hz"] + [f"S_{o}{i}_db" for o, i in pairs]:
        return "unexpected columns"
    if rows.shape[0] != len(PHI_GRID) * len(grid):
        return f"{rows.shape[0]} rows, expected {len(PHI_GRID) * len(grid)}"
    if not np.all(np.isfinite(rows)):
        return "non-finite value"
    if not (_close(rows[:, 0], np.repeat(PHI_GRID, len(grid)), REL, REL)
            and _close(rows[:, 1], np.tile(grid, len(PHI_GRID)), REL, REL * np.abs(grid).max())):
        return "(phi, delta) columns differ from the default grid"
    device = dev.device
    for r, phi in enumerate(PHI_GRID):
        ref = np.abs(reference_s(with_total_phase(device, float(phi)), grid))
        block = rows[r * len(grid):(r + 1) * len(grid)]
        for n, (o, i) in enumerate(pairs):
            if not _db_close(block[:, 2 + n], ref[:, NAMES.index(o), NAMES.index(i)]):
                return f"S_{o}{i}_db differs from the reference solve at phi={phi:.6g}"
    return None


def _s0_db(path: str):
    device = cli.load_config(path).device
    return device, _db(np.abs(reference_s(device, np.array([0.0]))[0]))


def check_tuned_diramp(path: str, target_db: float) -> Optional[str]:
    device, s_db = _s0_db(path)
    roles = metrics.role_map(device, total_pump_phase(device))
    ix = NAMES.index
    gain = s_db[ix(roles.idler), ix(roles.signal)]
    refl = max(s_db[ix(roles.signal), ix(roles.signal)], s_db[ix(roles.vacuum), ix(roles.vacuum)])
    if not abs(gain - target_db) <= DIRAMP_GAIN_TOL_DB:
        return f"tuned forward gain {gain:.3f} dB, target {target_db} dB"
    if not refl <= MAX_REFLECTION_DB:
        return f"tuned input reflection {refl:.2f} dB"
    return None


def check_tuned_circulator(path: str, objective: str) -> Optional[str]:
    _, s_db = _s0_db(path)
    a, b, c = range(3)
    reverse = [(a, b), (b, c), (c, a)] if objective == "circulator-cw" else [(b, a), (c, b), (a, c)]
    match = float(np.max(np.diag(s_db)))
    leak = max(s_db[o, i] for o, i in reverse)
    if not match <= MAX_REFLECTION_DB:
        return f"tuned circulator match {match:.2f} dB"
    if not leak <= MAX_LEAKAGE_DB:
        return f"tuned circulator reverse leakage {leak:.2f} dB"
    return None


def check_calibration(result: dict) -> Optional[str]:
    c1, c2 = result["candidates"]
    if not (math.isfinite(c1) and math.isfinite(c2)):
        return "non-finite calibration candidate"
    if abs(abs(wrap_signed(c2 - c1)) - math.pi) > 1e-6:
        return f"calibration candidates {c1:.6g}, {c2:.6g} are not pi apart"
    if result["primary"] != c1:
        return "primary calibration candidate is not the first"
    return None


def _arg(call: dict, flag: str) -> str:
    argv = call["cli"]
    return argv[argv.index(flag) + 1]


def check_op(w: gen.Workload, k: int, calls: list[dict], reply: dict, digests: dict) -> Optional[str]:
    """Reason op k failed, or None."""
    for call, result in zip(calls, reply["results"]):
        if result.get("rc") != 0:
            what = call.get("cli", ["calibrate"])[0]
            return f"{what} exited {result.get('rc')}: {result.get('error') or reply['stderr']}"
    try:
        if w.name == "sweep-io":
            return check_sweep_table(_arg(calls[0], "--out"), w.devices[k % len(w.devices)], digests)
        if w.name == "phase-map":
            return check_phase_map(_arg(calls[0], "--out"), w.devices[k % len(w.devices)], digests)
        return (check_tuned_diramp(_arg(calls[0], "--out"),
                                   float(_arg(calls[0], "--target-gain-db")))
                or check_tuned_circulator(_arg(calls[1], "--out"), _arg(calls[1], "--objective"))
                or check_calibration(reply["results"][2]))
    except Exception as exc:  # an output the checks cannot even read is a failed op
        return f"output check raised {type(exc).__name__}: {exc}"


def flip_leading_digit(src: str, dst: str, rng: np.random.Generator) -> str:
    """Copy a CSV table with one byte changed: the leading digit of one dB value."""
    with open(src, "rb") as fh:
        lines = fh.read().split(b"\n")
    columns = lines[0].decode("utf-8").split(",")
    db_columns = [n for n, name in enumerate(columns) if name.endswith("_db")]
    while True:
        row = int(rng.integers(1, len(lines) - 1))  # the last element follows the final newline
        col = int(rng.choice(db_columns))
        fields = lines[row].split(b",")
        value = bytearray(fields[col])
        digits = [p for p, ch in enumerate(value) if ch in b"123456789"]
        if digits:
            break
    old = value.decode("ascii")
    value[digits[0]] ^= 0x01
    fields[col] = bytes(value)
    lines[row] = b",".join(fields)
    with open(dst, "wb") as fh:
        fh.write(b"\n".join(lines))
    return f"row {row} {columns[col]}: {old} -> {value.decode('ascii')}"
