"""Command-line surface: config parsing, sweep execution, file emission and
comparison against reference data.

Config files are nested key/value YAML with interface units matching how the
numbers are usually quoted: frequencies in GHz, kappas and spans in MHz,
angles in degrees.  Everything is converted to Hz/radians internally.  libyaml
parses them and writes tuned configs where PyYAML has it.  Its parser builds the
same values as PyYAML's own, but tabs between tokens load and syntax errors are
worded differently; its emitter may write an empty key, a long key or a long
escaped string in other bytes, which load back to the same values.  A node nested
deeper than ``_MAX_DEPTH`` levels is refused as it is composed.  A plain tree
of mappings, lists and scalars is built from the parsed nodes in one pass; PyYAML's
constructor builds any other document and raises every constructor error.

``sparams`` solves delta = 0 with its grid in one kernel call and writes the grid's
rows alone; its summary reads that exact delta = 0 point and grows both bands from it.
Tables (CSV or JSON) lead with their axis columns: ``delta_hz`` (``sparams``),
``phi_rad, delta_hz`` in phi-major order (``phase-sweep``), ``c``
(``threshold``).  Floats have 9 significant digits and lines end in "\n", so
emit -> parse -> emit is byte-identical.  ``sparams`` and ``threshold`` rows are
written in fixed blocks, so a writer's memory does not grow with the file;
``phase-sweep`` is written one phi row at a time, as ``cmt.phase_rows``
solves it, from one row template in which every delta cell is formatted once.
Its memory is one batch of solved rows (``cmt.PHASE_BATCH_MATRICES``
matrices, the written (out, in) entries alone) plus the text of the rows repeated
later: a tracemalloc peak under 8 MB for the default bundled map, solve and
write together.  ``compare`` splits both tables into runs (a
run ends where an axis but the last changes or the last stops increasing),
needs the runs' leading axis values to match exactly and interpolates the
reference along the last axis within each run; it compares the ``*_db``
columns by default and exits 2 when the tables cannot be read (a ConfigError that
names the file) or lined up.  Configs and tables are read by one UTF-8 reader.

``tune`` puts the config at its objective's closed-form working point and
scores it once; its ``objective:`` line ends with the stop reason
(``target_met`` or ``target_missed``).  ``--budget`` is accepted and ignored.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Optional, Sequence

import numpy as np
import yaml

from . import cmt, metrics, tuner
from .errors import DomainError, EmptyBandError, SingularMatrixError, TopologyError
from .model import (
    PUMP_DETUNING_TOLERANCE_HZ,
    ModeSpec,
    ProcessKind,
    PumpedCoupling,
    ValidatedDevice,
    check_pump_closure,
    phase_signs,
    total_pump_phase,
    validate_device,
    wrap_phase,
)

EXIT_OK = 0
EXIT_CONFIG = 1  # invalid input; also a `compare` outside its tolerance
EXIT_SOLVER = 2  # singular dynamics matrix; also tables `compare` cannot line up

# a coupling's strength key: the one kind it applies to (None: any), value -> rho, and
# rho -> the value a tuned config writes back under that key
STRENGTH_KEYS = {
    "rho": (None, float, float),
    "target_g_db": (ProcessKind.GAIN, lambda db: cmt.rho_for_gain(10.0 ** (db / 10.0)),
                    lambda rho: metrics.to_db(cmt.gain_coefficient(rho))),
    "target_c": (ProcessKind.CONVERSION, cmt.rho_for_conversion, cmt.conversion_coefficient),
}


_MAX_DEPTH = 100  # config nesting levels; the schema's deepest value, a pair's name, is at 6


class _ConfigChecks:
    """Loader mixin: a node more than ``_MAX_DEPTH`` levels deep is a ConfigError as it is
    composed, before libyaml's composer, one C call per level, overflows the stack; a key
    given twice in one mapping, compared as constructed values (``yes`` is ``true``), is a
    ConstructorError; keys a ``<<`` merge brings in still give way."""

    depth = 0

    # both composers call these once per node; they replace the base resolver's, which act
    # only on path resolvers, and a config loader has none
    def descend_resolver(self, parent, index):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            mark = parent.start_mark
            raise ConfigError(f"{mark.name}, line {mark.line + 1}: config nested deeper than "
                              f"{_MAX_DEPTH} levels")

    def ascend_resolver(self):
        self.depth -= 1

    def flatten_mapping(self, node):
        if not hasattr(node, "own_keys"):  # as written: flattening prepends merged keys
            node.own_keys = [k for k, _v in node.value if isinstance(k, yaml.ScalarNode)
                             and k.tag != "tag:yaml.org,2002:merge"]  # collections: unhashable
        super().flatten_mapping(node)
        seen = {}
        for key_node in node.own_keys:
            key = self.construct_object(key_node, deep=True)  # deep: "!!set x" raises here
            if (first := seen.setdefault(key, key_node)) is not key_node:
                raise yaml.constructor.ConstructorError(
                    f"key {self.construct_object(first)!r} first given", first.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark)


# libyaml's parser where PyYAML was built with it; both build values with the same constructor
_YAML_LOADER = type("ConfigLoader", (_ConfigChecks, yaml.CSafeLoader if yaml.__with_libyaml__
                                     else yaml.SafeLoader), {})


class ConfigError(ValueError):
    """Malformed run configuration."""


class SchemaError(Exception):
    """Two tables that ``compare`` cannot read or line up."""


@dataclass
class RunConfig:
    """Parsed run configuration plus the raw document it came from."""

    raw: dict
    device: ValidatedDevice
    declared_pumps: Optional[dict[str, float]]
    pump_detuning_tolerance: float  # Hz; inf never warns
    delta_grid: np.ndarray  # Hz, symmetric about 0; [0.0] for one point
    out_format: str
    out_path: Optional[str]  # outputs.path; None: sparams writes "sweep.<format>"


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key '{key}'")
    return mapping[key]


_TYPE_NAMES = {dict: "a mapping", list: "a list", str: "a string", int: "an integer"}


def _typed(value, context: str, kind: type):
    """``value`` if it is a ``kind`` (a key of ``_TYPE_NAMES``); a boolean is not an integer."""
    if not isinstance(value, kind) or kind is int and isinstance(value, bool):
        raise ConfigError(f"{context} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _number(value, context: str, scale: float = 1.0, bound: str = "") -> float:
    """``float(value) * scale`` of a YAML number or numeric string, checked against
    ``bound`` (">= 0", "finite", "finite and > 0" or "" for none); a boolean, list, mapping,
    null or other string is not a number, nor is an integer beyond the float range."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ValueError
        x = float(value) * scale
    except OverflowError:
        raise ConfigError(f"{context} is beyond the float range") from None
    except ValueError:
        raise ConfigError(f"{context} must be a number, got {value!r}") from None
    if not {"": True, ">= 0": x >= 0, "finite": math.isfinite(x),
            "finite and > 0": 0 < x < math.inf}[bound]:
        raise ConfigError(f"{context} must be {bound}, got {x / scale:g}")
    return x


def _mode_from_entry(entry) -> ModeSpec:
    entry = _typed(entry, "mode", dict)
    name = _typed(_require(entry, "name", "mode"), "mode: name", str)
    freq, kappa = (_number(_require(entry, key, "mode"), f"mode {name}: {key}", scale,
                           "finite and > 0")
                   for key, scale in (("freq_ghz", 1e9), ("kappa_mhz", 1e6)))
    return ModeSpec(name, freq, kappa)


def _coupling_from_entry(entry) -> PumpedCoupling:
    entry = _typed(entry, "coupling", dict)
    pair = tuple(_typed(_require(entry, "pair", "coupling"), "coupling pair", list))
    if not all(isinstance(name, str) for name in pair):
        raise ConfigError(f"coupling pair must hold mode names, got {list(pair)!r}")
    kind = _typed(_require(entry, "kind", f"coupling {pair}"), f"coupling {pair}: kind", str)
    if kind.lower() not in (kinds := [k.value for k in ProcessKind]):
        raise ConfigError(f"coupling {pair}: kind must be {' or '.join(kinds)}, got {kind!r}")
    kind = ProcessKind(kind.lower())
    present = [k for k in STRENGTH_KEYS if k in entry]
    if len(present) != 1:
        raise ConfigError(
            f"coupling {pair}: exactly one of {'/'.join(STRENGTH_KEYS)} is required, "
            f"got {present or 'none'}"
        )
    key = present[0]
    value = _number(entry[key], f"coupling {pair}: {key}")
    applies_to, to_rho, _ = STRENGTH_KEYS[key]
    if applies_to not in (None, kind):
        raise ConfigError(f"coupling {pair}: {key} only applies to {applies_to.value} couplings")
    try:
        rho = to_rho(value)
    except OverflowError:  # only a gain in dB overflows
        raise ConfigError(f"coupling {pair}: {key} = {value:g} dB is a gain "
                          "beyond the float range") from None
    except DomainError as exc:  # a target_c outside [0, 1], a target_g_db below 0 or infinite
        raise ConfigError(f"coupling {pair}: {key} = {value:g} is out of range ({exc})") from None
    phase = _number(entry.get("phase_deg", 0.0), f"coupling {pair}: phase_deg", math.pi / 180,
                    "finite")
    return PumpedCoupling(pair=pair, kind=kind, rho=rho, phase=phase)


def parse_config(raw: dict) -> RunConfig:
    device_doc = _typed(_require(raw, "device", "config"), "device", dict)
    modes = _typed(_require(device_doc, "modes", "device"), "device.modes", list)
    couplings = _typed(device_doc.get("couplings", []), "device.couplings", list)
    tol = _number(device_doc.get("pump_detuning_tolerance_mhz", PUMP_DETUNING_TOLERANCE_HZ / 1e6),
                  "device.pump_detuning_tolerance_mhz", 1e6, ">= 0")
    device = validate_device(map(_mode_from_entry, modes), map(_coupling_from_entry, couplings))

    sweep_doc = _typed(raw.get("sweep", {}), "sweep", dict)
    span = _number(sweep_doc.get("delta_span_mhz", 60.0), "sweep.delta_span_mhz", 1e6,
                   "finite and > 0")
    points = _typed(sweep_doc.get("points", 1001), "sweep.points", int)
    if points < 1:
        raise ConfigError("sweep.points must be >= 1")

    outputs = _typed(raw.get("outputs", {}), "outputs", dict)
    out_format = _typed(outputs.get("format", "csv"), "outputs.format", str).lower()
    if out_format not in ("csv", "json"):
        raise ConfigError(f"outputs.format must be csv or json, got {out_format!r}")
    out_path = _typed(outputs["path"], "outputs.path", str) if "path" in outputs else None

    declared = raw.get("declared_pumps_ghz")
    pumps = None if declared is None else {
        str(k): _number(v, f"declared_pumps_ghz.{k}", 1e9, "finite and > 0")
        for k, v in _typed(declared, "declared_pumps_ghz", dict).items()}
    for name in pumps or ():
        if name not in device.mode_names:
            raise ConfigError(f"declared_pumps_ghz.{name}: no mode {name!r} in the device")
    grid = np.linspace(-span / 2.0, span / 2.0, points) if points > 1 else np.array([0.0])
    return RunConfig(raw, device, pumps, tol, grid, out_format, out_path)


_YAML_TAG = "tag:yaml.org,2002:"


def _plain_document(loader, root):
    """The value of the composed document ``root`` if it is a tree of mappings, lists and
    str/int/float/bool/null scalars (each built by the loader's own constructor), in one
    pass with an explicit stack; else ``loader.construct_document(root)``, which builds and
    raises as PyYAML does (another tag, a node met twice, a collection or repeated key)."""
    scalars = {("scalar", _YAML_TAG + t): loader.yaml_constructors[_YAML_TAG + t]
               for t in ("str", "int", "float", "bool", "null")}
    mapping, sequence = ("mapping", _YAML_TAG + "map"), ("sequence", _YAML_TAG + "seq")
    seen, top = set(), [None]
    todo = [(root, top, 0)]  # a node, the container its value goes in and its slot there
    try:
        while todo:
            node, parent, slot = todo.pop()
            if node in seen:
                raise LookupError  # an alias, or a document that holds itself
            seen.add(node)
            kind = node.id, node.tag
            if kind == mapping:
                value = {}
                for key_node, child in node.value:
                    key = scalars[key_node.id, key_node.tag](loader, key_node)
                    if key_node in seen or key in value:
                        raise LookupError
                    seen.add(key_node)
                    value[key] = None  # the keys in document order
                    todo.append((child, value, key))
            elif kind == sequence:
                value = [None] * len(node.value)
                todo.extend((child, value, i) for i, child in enumerate(node.value))
            else:
                value = scalars[kind](loader, node)
            parent[slot] = value
    except (LookupError, ValueError):  # also a scalar such as "!!int x" or "!!bool 2"
        return loader.construct_document(root)
    return top[0]


def _read_text(path: str) -> str:
    """The text of the UTF-8 file ``path``; a byte that is not UTF-8 is a ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:  # universal newlines: "\r\n" reads as "\n"
        try:
            return fh.read()  # decoded at once, so an error's offset is the file's
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8: byte {exc.object[exc.start]:#04x} at "
                              f"offset {exc.start} ({exc.reason})") from None


def load_config(path: str) -> RunConfig:
    (stream := io.StringIO(_read_text(path))).name = path  # marks name the file
    loader = _YAML_LOADER(stream)  # libyaml composes the nodes where PyYAML has it
    try:
        node = loader.get_single_node()
        raw = None if node is None else _plain_document(loader, node)
    finally:
        loader.dispose()
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return parse_config(raw)


def bundled_config_path(name: str):
    """Path to a bundled example config ('circulator' or 'diramp')."""
    return resources.files("nonrecip.configs").joinpath(f"{name}.cfg")


# ---------------------------------------------------------------------------
# sweep tables


_BLOCK_ROWS = 1024  # rows formatted per chunk handed to the file
_PHI = b"\0"  # the phi cell in a phase-map row template; no formatted number holds it

# axis columns with the label and unit ``compare`` prints; a table leads with
# its axes and is sorted by them, the last one varying fastest
AXES = {"phi_rad": ("phi", " rad"), "delta_hz": ("delta", " Hz"), "c": ("c", "")}


@dataclass
class SweepTable:
    columns: list[str]
    rows: np.ndarray  # (n, ncol) float

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]

    @property
    def axes(self) -> list[str]:
        """The leading columns that name an axis."""
        return list(itertools.takewhile(AXES.__contains__, self.columns))

    def runs(self) -> list[np.ndarray]:
        """The rows split into runs: a run ends where a value on an axis but the
        last changes or the last axis stops increasing, so within a run the
        last axis is strictly increasing (a repeated phi gives one run each)."""
        n = len(self.axes)
        lead, last = self.rows[:, :n - 1], self.rows[:, n - 1]
        ends = np.any(lead[1:] != lead[:-1], axis=1) | ~(last[1:] > last[:-1])
        return np.split(self.rows, np.flatnonzero(ends) + 1)


def _db(mag):
    """Amplitude to dB, 20 log10 |S|; an exact zero is -inf dB."""
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(mag)


def sweep_table(result: cmt.SweepResult) -> SweepTable:
    """Tabulate a sweep: delta, re/im for every (out, in) pair, then dB."""
    names = result.device.mode_names
    pairs = [o + i for o in names for i in names]  # row-major, as the entries
    columns = (["delta_hz"] + [f"S_{p}_{part}" for p in pairs for part in ("re", "im")]
               + [f"S_{p}_db" for p in pairs])
    s = np.ascontiguousarray(result.entries.reshape(len(result), 9))
    rows = np.column_stack([result.deltas, s.view(float), _db(np.abs(s))])
    return SweepTable(columns, rows)


def _frame(columns: list[str], fmt: str, cells: list[bytes]) -> tuple[bytes, ...]:
    """Head, row (``cells`` joined), row separator and tail of a CSV (``fmt``
    "csv") or JSON table, as UTF-8 bytes."""
    if fmt == "csv":
        return ",".join(columns).encode("utf-8") + b"\n", b",".join(cells) + b"\n", b"", b""
    cols = json.dumps(columns, separators=(", ", ": ")).encode("utf-8")
    return (b'{\n  "columns": ' + cols + b',\n  "rows": [\n', b"    [" + b", ".join(cells) + b"]",
            b",\n", b"\n  ]\n}\n")


def _fill(template: bytes, values: np.ndarray, fmt: str) -> bytes:
    """``template`` with its ``%.9g`` slots filled from ``values`` in C order; for
    float64 a cell is ``format(x, '.9g')`` (-0, +-inf and nan included), and JSON
    (``fmt`` not "csv") writes a non-finite cell as ``NaN``, ``Infinity`` or
    ``-Infinity``, the tokens Python's ``json`` reads and writes."""
    text = template % tuple(values.ravel().tolist())
    if fmt != "csv" and not np.isfinite(values).all():
        text = text.replace(b"nan", b"NaN").replace(b"inf", b"Infinity")
    return text


def _table_chunks(table: SweepTable, fmt: str):
    """Yield ``table`` as CSV (``fmt`` "csv") or JSON bytes, the rows in blocks of
    ``_BLOCK_ROWS`` filled into one ``%``-template per block by ``_fill``."""
    head, row, sep, tail = _frame(table.columns, fmt, [b"%.9g"] * len(table.columns))
    yield head
    for start in range(0, len(table.rows), _BLOCK_ROWS):
        block = table.rows[start:start + _BLOCK_ROWS]
        text = _fill(sep.join([row] * len(block)), block, fmt)
        yield text if start == 0 else sep + text
    yield tail


def write_table(table: SweepTable, path: str, fmt: str) -> None:
    """Write ``table`` to ``path`` as CSV (``fmt`` "csv") or JSON."""
    _atomic_write(path, _table_chunks(table, fmt))


def _phase_map_chunks(rows: cmt.PhaseRows, fmt: str):
    """Yield the phase map of ``rows`` as the bytes ``_table_chunks`` writes for its
    phi-major rows (phi, delta, then the dB of each (out, in) pair), one phi row
    at a time, each as the stream yields it.  Each delta cell is formatted once into a
    row template that holds a ``%.9g`` slot per dB cell and ``_PHI`` for the phi
    cell; a row that repeats an earlier row (``rows.first_rows``) reuses that
    row's dB text, kept only until the last row that repeats it."""
    columns = ["phi_rad", "delta_hz"] + [f"S_{o}{i}_db" for o, i in rows.pairs]
    head, row, sep, tail = _frame(columns, fmt, [_PHI, b"%.9g"] + [b"%%.9g"] * len(rows.pairs))
    template = sep.join(row % d for d in rows.deltas.tolist())  # phase_rows' axes are finite
    last = {q: r for r, q in enumerate(rows.first_rows)}  # the last row repeating row q
    kept: dict[int, bytes] = {}
    yield head
    for r, (phi, q, mag) in enumerate(zip(rows.phis.tolist(), rows.first_rows, rows.magnitudes)):
        text = kept.pop(q) if mag is None else _fill(template, _db(mag), fmt)
        if last[q] > r:
            kept[q] = text
        yield (sep if r else b"") + text.replace(_PHI, b"%.9g" % phi)
    yield tail


def write_phase_map(rows: cmt.PhaseRows, path: str, fmt: str) -> None:
    """Write the phase map ``rows`` streams to ``path`` as a CSV (``fmt`` "csv") or
    JSON table with axes ``phi_rad, delta_hz``, each row as it is solved."""
    _atomic_write(path, _phase_map_chunks(rows, fmt))


def read_table(path: str) -> SweepTable:
    """The table in the file ``path``; ConfigError names the file on any malformed table."""
    text = _read_text(path)
    try:  # json's and numpy's own errors, and those raised here, get the path once
        if text.lstrip().startswith("{"):
            doc = json.loads(text, parse_int=float)  # every cell is a float; keeps "-0" negative
            if not (isinstance(doc, dict) and isinstance(doc.get("columns"), list)
                    and isinstance(doc.get("rows"), list)):
                raise ConfigError("JSON table needs 'columns' and 'rows' lists")
            cols, data = doc["columns"], doc["rows"]
        else:
            head, _, body = text.lstrip("\n").partition("\n")
            if not head:
                raise ConfigError("empty table")
            cols = head.split(",")
            # comments=None: a "#" cell is an error, not the start of a comment
            data = (np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
                    if body.strip("\n") else [])
        cols = [str(c) for c in cols]
        if len(set(cols)) != len(cols):  # compare looks a column up by its name
            raise ConfigError("a column name is repeated")
        rows = np.asarray(data, dtype=float)  # a ragged JSON row or a mapping cell raises
        if rows.size == 0:
            rows = rows.reshape(0, len(cols))
        if rows.ndim != 2 or rows.shape[1] != len(cols):
            raise ConfigError(f"every row needs {len(cols)} cells, one per column")
        cells = itertools.chain.from_iterable(data) if isinstance(data, list) else ()  # JSON
        if not set(map(type, cells)) <= {float}:  # numpy reads true, null and "1.5" as numbers
            raise ConfigError("a JSON cell is not a number")
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return SweepTable(cols, rows)


def _atomic_write(path: str, chunks: Iterable[bytes]) -> None:
    """Write the byte ``chunks`` to ``path`` through a temporary file in the
    same directory, then rename it.  The file gets the mode ``open(path, "w")``
    gives a new file, 0o666 less the umask, whether or not ``path`` existed."""
    if not path:  # else the temporary file would go to the working directory's parent
        raise ConfigError("empty output path")
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp_{os.urandom(6).hex()}{name}")
    try:  # 0o666, not mkstemp's 0o600, so that the umask sets the mode
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the requested file, not the temporary one
        raise type(exc)(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# summaries


def _print_summary(cfg: RunConfig, result: cmt.SweepResult) -> None:
    """Print the figures at ``result``'s exact delta = 0, the bands from there and the defect."""
    device = cfg.device
    names = device.mode_names
    db = _db(np.abs(result.entries[result.center_index]))
    print(f"on-resonance |S| (dB) at delta=0 Hz, modes {names}:")
    for o, row in zip(names, db):
        cells = "  ".join(f"{v:8.2f}" for v in row)
        print(f"  out {o}: {cells}")
    if device.is_circulator:
        sense = metrics.circulation_sense(result)
        order = names if sense is metrics.CirculationSense.CW else names[::-1]
        cycle = "none" if sense is metrics.CirculationSense.NONE else "->".join(order + order[:1])
        print(f"circulation sense at delta=0: {sense.value} ({cycle})")
        try:
            bw = metrics.circulator_bandwidth(result)
            print(f"bandwidth (match <= {metrics.BAND_MATCH_DB:g} dB, loss <= "
                  f"{metrics.BAND_LOSS_DB:g} dB): {bw / 1e6:.3f} MHz around delta=0")
        except EmptyBandError as exc:
            print(f"bandwidth: empty band ({exc})")
    if device.is_directional_amp:
        phi = total_pump_phase(device)
        roles = metrics.role_map(device, phi)
        role_of = {m: role for role, m in roles._asdict().items()}
        print(f"roles at phi_tot={phi:+.4f} rad: "
              + ", ".join(f"{m}={role_of[m]}" for m in names))
        sig, vac = device.index(roles.signal), device.index(roles.vacuum)
        fwd = result.magnitudes(roles.idler, roles.signal)[result.center_index] ** 2
        if fwd > 0:
            print(f"forward gain {roles.signal}->{roles.idler} at delta=0: "
                  f"{metrics.to_db(fwd):.2f} dB")
            print(f"added noise {roles.signal}->{roles.idler} at delta=0: "
                  f"{metrics.added_noise(result, roles.signal, roles.idler):.4f} photons")
        print(f"input reflections at delta=0: "
              f"{roles.signal}: {db[sig, sig]:.2f} dB, {roles.vacuum}: {db[vac, vac]:.2f} dB")
        print(f"{roles.vacuum}->{roles.signal} transmission at delta=0: {db[sig, vac]:.2f} dB")
        try:
            bw = metrics.gain_bandwidth_3db(result, roles.signal, roles.idler)
            print(f"3 dB gain bandwidth: {bw / 1e6:.3f} MHz around delta=0")
        except EmptyBandError as exc:
            print(f"3 dB gain bandwidth: empty band ({exc})")
    nvr0 = metrics.nvr(result)
    print("NVR at delta=0 (dB): " + ", ".join(f"{n}: {v:.3f}" for n, v in nvr0.items()))
    print(f"max symplectic defect over the sweep: {metrics.symplectic_defect(result):.3e}")
    if cfg.declared_pumps:
        for w in check_pump_closure(device, cfg.declared_pumps, cfg.pump_detuning_tolerance):
            print(f"warning: {w}")


# ---------------------------------------------------------------------------
# commands


def cmd_sparams(args) -> int:
    cfg = load_config(args.config)
    fmt = args.format or cfg.out_format
    out_path = cfg.out_path if args.out is None else args.out
    out_path = "sweep." + fmt if out_path is None else out_path
    grid = cfg.delta_grid  # solved with delta = 0 (np.union1d would import numpy.ma, 13 ms)
    result = cmt.sweep(cfg.device, sorted({*grid.tolist(), 0.0}))
    table = sweep_table(result)  # delta = 0 is summarised, but written only if the grid holds it
    rows = table.rows if len(result) == len(grid) else table.rows[result.deltas != 0.0]
    write_table(SweepTable(table.columns, rows), out_path, fmt)
    print(f"wrote {len(grid)} detuning points to {out_path} ({fmt})")
    _print_summary(cfg, result)
    return EXIT_OK


def cmd_phase_sweep(args) -> int:
    if args.phi_points < 1:
        raise ConfigError(f"--phi-points must be >= 1, got {args.phi_points}")
    if not (math.isfinite(args.phi_min) and math.isfinite(args.phi_max)):
        raise ConfigError("--phi-min and --phi-max must be finite")
    cfg = load_config(args.config)
    pairs = _parse_pairs(args.pairs, cfg.device)
    phis = np.linspace(args.phi_min, args.phi_max, args.phi_points)
    rows = cmt.phase_rows(cfg.device, phis, cfg.delta_grid, pairs)  # raises before a write
    fmt = args.format or cfg.out_format
    out_path = "phase_sweep." + fmt if args.out is None else args.out
    write_phase_map(rows, out_path, fmt)
    print(f"wrote {len(rows.phis) * len(rows.deltas)} (phi, delta) points to {out_path}")
    return EXIT_OK


def cmd_threshold(args) -> int:
    if args.c_points < 1:
        raise ConfigError(f"--c-points must be >= 1, got {args.c_points}")
    for option, c in (("--c-min", args.c_min), ("--c-max", args.c_max)):
        if not 0 <= c <= 1:
            raise ConfigError(f"{option} must be in [0, 1], got {c:g}")
    cfg = load_config(args.config)
    cs = np.linspace(args.c_min, args.c_max, args.c_points)
    res = tuner.conversion_sweep(cfg.device, cs)
    q, z = res.reflection_port, res.idler_port
    columns = ["c", "rho_conv", f"S_{q}{q}_abs", f"S_{z}{q}_abs",
               f"S_{q}{q}_db", f"S_{z}{q}_db", "c_threshold"]
    rows = np.column_stack([
        res.c_values, res.rho_values, res.reflection_mag, res.forward_mag,
        _db(res.reflection_mag), _db(res.forward_mag), np.full(len(cs), res.threshold_c),
    ])
    fmt = args.format or cfg.out_format
    out_path = "threshold." + fmt if args.out is None else args.out
    write_table(SweepTable(columns, rows), out_path, fmt)
    print(f"wrote {len(cs)} conversion points to {out_path}; "
          f"analytic threshold C = {res.threshold_c:.6f} (|S_{q}{q}| crosses 1, delta=0)")
    return EXIT_OK


def cmd_tune(args) -> int:
    if args.budget < 1:
        raise ConfigError("--budget must be >= 1")
    kind = tuner.ObjectiveKind(args.objective)
    target = {} if args.target_gain_db is None else {"target_gain_db": args.target_gain_db}
    if target and kind is not tuner.ObjectiveKind.DIRECTIONAL_AMP:
        raise ConfigError("--target-gain-db applies only to the diramp objective")
    cfg = load_config(args.config)
    result = tuner.tune(cfg.device, tuner.Objective(kind, **target))
    out_path = args.config + ".tuned" if args.out is None else args.out
    phi = total_pump_phase(result.device)
    _write_tuned_config(cfg, result.device, phi, out_path)
    print(f"objective: {result.objective_value:.6f} "
          f"(converged={result.converged}, stop_reason={result.stop_reason})")
    for c in result.device.couplings:
        print(f"  {c.kind.value} {c.pair}: rho = {c.rho:.9g}")
    print(f"  phi_tot = {phi:+.9g} rad")
    print(f"wrote tuned config to {out_path}")
    return EXIT_OK


def _write_tuned_config(cfg: RunConfig, tuned: ValidatedDevice, phi_tot: float,
                        out_path: str) -> None:
    """Write ``cfg.raw`` with the tuned strengths and phases put in place; every other
    value round-trips unchanged.  The control coupling's phase makes up ``phi_tot``."""
    entries = {tuple(sorted(entry["pair"])): entry for entry in cfg.raw["device"]["couplings"]}
    signs = phase_signs(tuned)
    control = tuned.couplings[0].pair
    other_sum = 0.0
    for pair, entry in entries.items():
        (key,) = (k for k in STRENGTH_KEYS if k in entry)  # parse_config allows exactly one
        entry[key] = float(STRENGTH_KEYS[key][2](tuned.coupling_for(pair).rho))
        if pair != control:
            other_sum += signs[pair] * _number(entry.get("phase_deg", 0.0), "phase_deg",
                                               math.pi / 180)
    phase = signs[control] * (phi_tot - other_sum)
    entries[control]["phase_deg"] = float(math.degrees(wrap_phase(phase)))
    # libyaml's emitter where PyYAML has it, as _YAML_LOADER's parser
    dumper = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper
    _atomic_write(out_path, [yaml.dump(cfg.raw, Dumper=dumper, sort_keys=False).encode("utf-8")])


def cmd_compare(args) -> int:
    if not (args.tol_db >= 0):
        raise ConfigError(f"--tol-db must be >= 0, got {args.tol_db:g}")
    try:
        sweep_t = read_table(args.sweep)  # a file named twice is read once
        ref_t = (sweep_t if os.path.samefile(args.sweep, args.reference)
                 else read_table(args.reference))
    except (OSError, ValueError, TypeError) as exc:  # TypeError: a JSON cell not a number
        raise SchemaError(f"{type(exc).__name__}: {exc}") from exc
    if sweep_t.columns != ref_t.columns:
        raise SchemaError("schema mismatch: column sets differ")
    for path, table in ((args.sweep, sweep_t), (args.reference, ref_t)):
        if not len(table.rows):
            raise SchemaError(f"schema mismatch: {path} has no rows")
    axes = sweep_t.axes
    if not axes:
        raise SchemaError(f"schema mismatch: no axis column ({', '.join(AXES)})")
    columns = ([c for c in sweep_t.columns if c.endswith("_db")] if args.columns is None
               else args.columns.split(","))
    if not columns:
        raise SchemaError("schema mismatch: no column to compare")
    for c in columns:
        if c not in sweep_t.columns:
            raise SchemaError(f"schema mismatch: no column {c!r}")
    cols = [sweep_t.columns.index(c) for c in columns]
    last = len(axes) - 1  # the axis interpolated along; the others must match exactly
    sweep_runs, ref_runs = sweep_t.runs(), ref_t.runs()
    if len(sweep_runs) != len(ref_runs) or not all(
            np.array_equal(s[:1, :last], r[:1, :last]) for s, r in zip(sweep_runs, ref_runs)):
        what = f"{', '.join(axes[:-1])} values differ" if last else f"{axes[0]} runs differ"
        raise SchemaError(f"schema mismatch: {what}")
    worst = (-1.0,)
    for s, r in zip(sweep_runs, ref_runs):
        ds, dr = s[:, last], r[:, last]
        lo, hi = max(ds.min(), dr.min()), min(ds.max(), dr.max())
        band = (ds >= lo) & (ds <= hi)
        if not np.any(band):
            raise SchemaError(f"schema mismatch: {axes[-1]} grids do not overlap")
        sweep_c = s[band][:, cols]
        ref_c = np.column_stack([np.interp(ds[band], dr, r[:, k]) for k in cols])
        with np.errstate(invalid="ignore"):
            diff = np.abs(sweep_c - ref_c)
        diff[sweep_c == ref_c] = 0.0  # also equal infinities, whose difference is nan
        diff[np.isnan(diff)] = np.inf
        c, k = divmod(int(np.argmax(diff.T)), len(diff))  # the first column holding the max
        if diff[k, c] > worst[0]:
            worst = (float(diff[k, c]), columns[c], s[band][k, :last + 1].tolist(), lo, hi)
    value, column, at, lo, hi = worst
    where = ", ".join(f"{AXES[a][0]} = {v:g}{AXES[a][1]}" for a, v in zip(axes, at))
    print(f"worst |delta dB| = {value:.6g} in column {column} at {where} "
          f"(tolerance {args.tol_db:g} dB, band [{lo:g}, {hi:g}]{AXES[axes[-1]][1]})")
    return EXIT_OK if value <= args.tol_db else EXIT_CONFIG


def _parse_pairs(spec_str: Optional[str], device: ValidatedDevice):
    names = device.mode_names
    if spec_str is None:
        return [(names[1], names[1]), (names[2], names[1])]
    pairs = []
    for token in spec_str.split(","):
        token = token.strip()
        if len(token) != 2 or token[0] not in names or token[1] not in names:
            raise ConfigError(f"pair {token!r} must be two single-letter mode names")
        if (token[0], token[1]) in pairs:
            raise ConfigError(f"pair {token!r} is given twice")
        pairs.append((token[0], token[1]))
    return pairs


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonrecip",
        description="Scattering simulator and tuner for triple-pumped three-mode "
                    "parametric circuits (circulator / directional amplifier).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=("csv", "json"), help="output format")

    p = sub.add_parser("sparams", help="frequency sweep of the scattering matrix")
    add_common(p)
    p.set_defaults(func=cmd_sparams)

    p = sub.add_parser("phase-sweep", help="|S| map versus total pump phase and detuning")
    add_common(p)
    p.add_argument("--phi-min", type=float, default=-2.0 * math.pi)
    p.add_argument("--phi-max", type=float, default=math.pi)
    p.add_argument("--phi-points", type=int, default=241)
    p.add_argument("--pairs", help="comma list of out/in mode pairs, e.g. bb,cb")
    p.set_defaults(func=cmd_phase_sweep)

    p = sub.add_parser("threshold", help="input match versus conversion coefficient")
    add_common(p)
    p.add_argument("--c-min", type=float, default=0.05)
    p.add_argument("--c-max", type=float, default=0.999)
    p.add_argument("--c-points", type=int, default=200)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("tune", help="optimize pump parameters toward an objective")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="path for the tuned config (default: <config>.tuned)")
    p.add_argument("--objective", required=True, choices=[k.value for k in tuner.ObjectiveKind])
    p.add_argument("--target-gain-db", type=float, help="diramp objective only (default: 0 dB)")
    p.add_argument("--budget", type=int, default=1, help="ignored; a tune scores one point")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("compare", help="compare a sweep file against a reference")
    p.add_argument("sweep")
    p.add_argument("reference")
    p.add_argument("--tol-db", type=float, default=1.0)
    p.add_argument("--columns", help="comma list of columns (default: all *_db)")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; a failure becomes one ``error:`` line on stderr and
    an exit code, mapped here and nowhere else."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SingularMatrixError as exc:
        message, code = f"SingularMatrix: {exc}", EXIT_SOLVER
    except SchemaError as exc:
        message, code = str(exc), EXIT_SOLVER
    except (ValueError, TopologyError, OSError, yaml.YAMLError) as exc:
        message, code = f"{type(exc).__name__}: {exc}", EXIT_CONFIG
    lines = filter(None, map(str.strip, message.splitlines()))  # YAML's texts span lines
    print("error: " + "; ".join(lines), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
