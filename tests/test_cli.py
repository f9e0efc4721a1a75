import argparse
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from datetime import date

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nonrecip as nr
from nonrecip import cli, cmt, tuner

from conftest import count_calls, db, make_circulator, make_diramp, standard_modes


@pytest.fixture
def circ_cfg(tmp_path):
    path = tmp_path / "circulator.cfg"
    shutil.copy(cli.bundled_config_path("circulator"), path)
    return path


@pytest.fixture
def diramp_cfg(tmp_path):
    path = tmp_path / "diramp.cfg"
    shutil.copy(cli.bundled_config_path("diramp"), path)
    return path


def run(*argv):
    return cli.main([str(a) for a in argv])


def node_paths(node, path=()):
    """The path (mapping keys and list indices) to every value below ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from node_paths(value, path + (key,))


def mutated(raw, mutations):
    """A copy of ``raw`` with each (path, value) of ``mutations`` set; the deeper paths go
    first, so a value set on an outer path replaces the mutated inner one."""
    raw = copy.deepcopy(raw)
    for (*parents, key), value in sorted(mutations, key=lambda m: -len(m[0])):
        node = raw
        for p in parents:
            node = node[p]
        node[key] = value
    return raw


class TestConfigParsing:
    def test_bundled_circulator(self, circ_cfg):
        cfg = cli.load_config(str(circ_cfg))
        assert cfg.device.is_circulator
        assert len(cfg.delta_grid) == 1001
        assert math.isclose(cfg.delta_grid[-1] - cfg.delta_grid[0], 60e6)
        assert math.isclose(cfg.device.kappas[0], 44e6)
        assert math.isclose(
            cfg.device.coupling_for(("a", "b")).rho, cmt.rho_for_conversion(0.97)
        )
        assert math.isclose(nr.total_pump_phase(cfg.device), math.pi / 2)

    def test_bundled_diramp(self, diramp_cfg):
        cfg = cli.load_config(str(diramp_cfg))
        assert cfg.device.is_directional_amp
        assert math.isclose(nr.total_pump_phase(cfg.device), -math.pi / 2)
        assert math.isclose(cfg.declared_pumps["b"], 16.339e9)

    def test_strength_key_exclusive(self, tmp_path, circ_cfg):
        raw = yaml.safe_load(circ_cfg.read_text())
        raw["device"]["couplings"][0]["rho"] = 0.5  # alongside target_c
        bad = tmp_path / "bad.cfg"
        bad.write_text(yaml.safe_dump(raw))
        with pytest.raises(cli.ConfigError, match="exactly one"):
            cli.load_config(str(bad))

    def test_points_validated(self, tmp_path, circ_cfg):
        raw = yaml.safe_load(circ_cfg.read_text())
        raw["sweep"]["points"] = 0
        bad = tmp_path / "bad.cfg"
        bad.write_text(yaml.safe_dump(raw))
        with pytest.raises(cli.ConfigError):
            cli.load_config(str(bad))

    @pytest.mark.parametrize("span", [math.nan, math.inf, -math.inf])
    def test_non_finite_span_names_the_key(self, span, tmp_path, circ_cfg):
        raw = yaml.safe_load(circ_cfg.read_text())
        raw["sweep"]["delta_span_mhz"] = span
        bad = tmp_path / "bad.cfg"
        bad.write_text(yaml.safe_dump(raw))
        with pytest.raises(cli.ConfigError, match="sweep.delta_span_mhz must be finite"):
            cli.load_config(str(bad))

    @pytest.mark.parametrize("points", ["2.7", "yes"])
    def test_non_integer_points_rejected(self, points, tmp_path, circ_cfg, capsys):
        # a count must be an int: 2.7 is not truncated to 2, nor YAML's yes (True) read as 1
        bad = tmp_path / "bad.cfg"
        bad.write_text(circ_cfg.read_text().replace("points: 1001", f"points: {points}"))
        with pytest.raises(cli.ConfigError, match="sweep.points must be an integer"):
            cli.load_config(str(bad))
        assert run("sparams", "--config", bad, "--out", tmp_path / "x.csv") == 1
        assert capsys.readouterr().err.startswith("error: ConfigError: sweep.points")

    @pytest.mark.parametrize("config", ["circulator", "diramp"])
    @pytest.mark.parametrize("tolerance, hz, count", [("0.5", 0.5e6, 3), (".inf", math.inf, 0)],
                             ids=["half-mhz", "inf"])
    def test_pump_tolerance_reaches_the_warnings(self, config, tolerance, hz, count, circ_cfg,
                                                 diramp_cfg, tmp_path, capsys):
        # every bundled declared pump is 1-6 MHz off; .inf never warns
        cfg = tmp_path / "tol.cfg"
        cfg.write_text((circ_cfg if config == "circulator" else diramp_cfg).read_text().replace(
            "pump_detuning_tolerance_mhz: 10.0", f"pump_detuning_tolerance_mhz: {tolerance}"))
        assert cli.load_config(str(cfg)).pump_detuning_tolerance == hz
        assert run("sparams", "--config", cfg, "--out", tmp_path / "x.csv") == 0
        out = capsys.readouterr().out.splitlines()
        assert len([line for line in out if line.startswith("warning: pump on ")]) == count


# plain scalars the YAML 1.1 resolver reads as something other than a string,
# or that only just stay strings
PLAIN_SCALARS = ("yes", "No", "off", "~", "null", "0x1F", "0o17", "017", "1_000", "-0",
                 "190:20:30", ".inf", "-.Inf", ".NaN", "1e3", "+12.5e3", "6.8523015e+5",
                 "2015-11-04", "2001-12-14t21:59:43.10-05:00", "2001-12-14 21:59:43.10 -5", "a b")


@st.composite
def config_documents(draw):
    """The bundled circulator config plus a random ``extra`` mapping, emitted by
    PyYAML in a random style; a quoted ``@@s@@`` becomes the plain scalar ``s``
    (one the emitter folded over two lines stays a quoted string)."""
    scalars = (st.integers() | st.floats() | st.text(max_size=30) | st.booleans() | st.none()
               | st.dates() | st.sampled_from(PLAIN_SCALARS).map(lambda s: "@@" + s + "@@"))
    keys = st.text(max_size=8) | st.integers()
    trees = st.recursive(scalars, lambda kids: st.lists(kids, max_size=4)
                         | st.dictionaries(keys, kids, max_size=4), max_leaves=20)
    extra = draw(st.dictionaries(keys, trees, min_size=3, max_size=8))
    raw = yaml.safe_load(cli.bundled_config_path("circulator").read_text())
    raw["extra"] = extra
    text = yaml.safe_dump(raw, sort_keys=draw(st.booleans()),
                          default_flow_style=draw(st.sampled_from([False, True, None])),
                          canonical=draw(st.booleans()), allow_unicode=draw(st.booleans()),
                          width=draw(st.integers(20, 120)), indent=draw(st.integers(2, 6)),
                          explicit_start=draw(st.booleans()))
    return re.sub(r"""(!!str )?['"]@@(.*?)@@['"]""", r"\2", text)


CIRCULATOR_RAW = yaml.safe_load(cli.bundled_config_path("circulator").read_text())


def config_text(extra):
    """The bundled circulator config with ``extra`` added, as PyYAML writes it."""
    return yaml.safe_dump({**CIRCULATOR_RAW, "extra": extra}, sort_keys=False)


# strings the YAML emitters quote, or write plain only in some places
YAML_SPECIAL = PLAIN_SCALARS + ("", " ", "- x", "a #b", "a: b", "--- x", "...", "? x", "'q'",
                                '"q"', "&a", "*a", "!x", "%x", "@x", "|", ">", " x", "x ", "[x]",
                                "{x}", "a, b", "#", "=", "<<")


@st.composite
def ascii_config_texts(draw):
    """``config_text`` of a random tree of printable-ASCII strings, edge-case floats, ints
    beyond 64 bits, None and bools; one container may appear twice.  Half the trees hold
    only strings of 1-99 characters, the others strings of up to 200 and ``""``."""
    short = draw(st.booleans())
    specials = [s for s in YAML_SPECIAL if s] if short else YAML_SPECIAL
    text = (st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=short,
                    max_size=99 if short else 200) | st.sampled_from(specials))
    floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300])
    ints = st.integers() | st.integers(2**64, 2**70) | st.integers(-2**70, -2**64)
    scalars = text | floats | ints | st.booleans() | st.none()
    trees = st.recursive(scalars, lambda kids: st.lists(kids, max_size=3)
                         | st.dictionaries(text | ints | st.booleans() | st.none(), kids,
                                           max_size=3), max_leaves=12)
    extra = draw(st.dictionaries(text, trees, max_size=5))
    if draw(st.booleans()):
        extra["shared"] = extra["shared-again"] = draw(st.lists(trees, max_size=2)
                                                       | st.dictionaries(text, trees, max_size=2))
    return config_text(extra)


def use_loader(loader, monkeypatch):
    """``pure-python``: parse configs with PyYAML's own parser, keeping the duplicate-key check."""
    if loader == "pure-python":
        monkeypatch.setattr(cli, "_YAML_LOADER",
                            type("PurePython", (cli._UniqueKeys, yaml.SafeLoader), {}))


class TestConfigLoader:
    """Configs parse with libyaml where PyYAML has it, into the values PyYAML's
    own parser builds."""

    def test_libyaml_is_chosen_when_present(self):
        assert issubclass(cli._YAML_LOADER, yaml.CSafeLoader if yaml.__with_libyaml__
                          else yaml.SafeLoader)

    @pytest.mark.parametrize("name", ["circulator", "diramp"])
    def test_bundled_configs_load_as_pure_python(self, name):
        path = cli.bundled_config_path(name)
        expected = yaml.load(path.read_text(encoding="utf-8"), Loader=yaml.SafeLoader)
        assert repr(cli.load_config(str(path)).raw) == repr(expected)

    @settings(max_examples=60)
    @given(text=config_documents())
    def test_documents_load_as_pure_python(self, text, tmp_path_factory):
        # repr, not ==: it tells 1 from 1.0 and True, and nan equals itself
        path = tmp_path_factory.getbasetemp() / "doc.cfg"
        path.write_text(text, encoding="utf-8")
        expected = yaml.load(text, Loader=yaml.SafeLoader)
        assert repr(cli.load_config(str(path)).raw) == repr(expected)

    def test_fallback_parser_keeps_the_sparams_bytes(self, circ_cfg, tmp_path, monkeypatch):
        made = []

        class PurePython(yaml.SafeLoader):
            def __init__(self, stream):
                made.append(stream)
                super().__init__(stream)

        monkeypatch.setattr(cli, "_YAML_LOADER", PurePython)
        out = tmp_path / "out.csv"
        assert run("sparams", "--config", circ_cfg, "--out", out, "--format", "csv") == 0
        assert len(made) == 1
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == WRITER_DIGESTS["sparams-circulator-csv"])

    @pytest.mark.parametrize("loader", ["libyaml-if-present", "pure-python"])
    @pytest.mark.parametrize("edit, key, first, again", [
        (lambda t: "sweep: {points: 11}\n" + t, "'sweep'", (1, 1), (13, 1)),
        (lambda t: t.replace("kappa_mhz: 44.0}", "kappa_mhz: 44.0, kappa_mhz: 4.0}"),
         "'kappa_mhz'", (4, 34), (4, 51)),
        (lambda t: t.replace("  points: 1001", "  yes: 1\n  points: 1001\n  true: 2"), "True",
         (14, 3), (16, 3)),
    ], ids=["top-level", "flow-mapping", "yes-is-true"])
    def test_duplicate_key_exits_1(self, loader, edit, key, first, again, circ_cfg, tmp_path,
                                   capsys, monkeypatch):
        use_loader(loader, monkeypatch)
        cfg = tmp_path / "dup.cfg"
        cfg.write_text(edit(circ_cfg.read_text()))
        assert run("sparams", "--config", cfg, "--out", tmp_path / "x.csv") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: ConstructorError: key {key} first")
        for line, column in (first, again):
            assert f'in "{cfg}", line {line}, column {column}' in err[0]
        assert f"found duplicate key {key}" in err[0]
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("loader", ["libyaml-if-present", "pure-python"])
    def test_merge_keys_keep_their_overrides(self, loader, circ_cfg, tmp_path, monkeypatch):
        use_loader(loader, monkeypatch)
        # a merged key gives way to the mapping's own, also through a chain of merges
        text = circ_cfg.read_text().replace("sweep:\n", "base: &base {points: 11, x: 1, z: 5}\n"
                                            "mid: &mid {<<: *base, x: 4}\n"
                                            "sweep:\n  <<: [*mid, {x: 2, y: 3}]\n")
        cfg = tmp_path / "merged.cfg"
        cfg.write_text(text)
        raw = cli.load_config(str(cfg)).raw
        assert raw == yaml.load(text, Loader=yaml.SafeLoader)
        assert raw["sweep"] == {"points": 1001, "x": 4, "z": 5, "y": 3, "delta_span_mhz": 60.0}

    @pytest.mark.parametrize("loader", ["libyaml-if-present", "pure-python"])
    @pytest.mark.parametrize("text, problem", [
        ("device: {[a, b]: 1}\n", "found unhashable key"),
        ("? {a: 1}\n: 2\n", "found unhashable key"),
        ("device: {!!set x: 1}\n", "expected a mapping node, but found scalar"),
    ], ids=["flow-sequence", "block-mapping", "tagged-scalar"])
    def test_unhashable_key_is_yamls_own_error(self, loader, text, problem, tmp_path, capsys,
                                               monkeypatch):
        use_loader(loader, monkeypatch)
        cfg = tmp_path / "unhashable.cfg"
        cfg.write_text(text)
        assert run("sparams", "--config", cfg, "--out", tmp_path / "x.csv") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ConstructorError: ")
        assert problem in err[0]

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="tabs between tokens need libyaml")
    def test_tab_separated_config_loads_as_its_space_twin(self, circ_cfg, tmp_path):
        # pure-Python PyYAML rejects each of these tabs with a ScannerError
        text = circ_cfg.read_text()
        tabbed = tmp_path / "tabbed.cfg"
        tabbed.write_text(text.replace("points: 1001", "points:\t1001\t# tabbed")
                          .replace("path: ", "path:\t").replace(", ", ",\t"))
        assert tabbed.read_text().count("\t") > 10
        assert cli.load_config(str(tabbed)).raw == cli.load_config(str(circ_cfg)).raw


SPARAMS_STDOUT = {
    "circulator": [
        "on-resonance |S| (dB) at delta=0 Hz, modes ('a', 'b', 'c'):",
        "  out a:   -23.10    -29.48     -0.03",
        "  out b:    -0.07    -19.15    -23.62",
        "  out c:   -19.35     -0.06    -27.74",
        "circulation sense at delta=0: cw (a->b->c->a)",
        "bandwidth (match <= -10 dB, loss <= 1 dB): 11.400 MHz around delta=0",
        "NVR at delta=0 (dB): a: -0.000, b: 0.000, c: 0.000",
    ],
    "diramp": [
        "on-resonance |S| (dB) at delta=0 Hz, modes ('a', 'b', 'c'):",
        "  out a:   -15.00     13.28     13.08",
        "  out b:    -0.02    -22.70    -28.98",
        "  out c:   -15.60     13.07     13.29",
        "roles at phi_tot=-1.5708 rad: a=vacuum, b=signal, c=idler",
        "forward gain b->c at delta=0: 13.07 dB",
        "added noise b->c at delta=0: 0.5260 photons",
        "input reflections at delta=0: b: -22.70 dB, a: -15.00 dB",
        "a->b transmission at delta=0: -0.02 dB",
        "3 dB gain bandwidth: 16.200 MHz around delta=0",
        "NVR at delta=0 (dB): a: 16.192, b: 0.011, c: 16.193",
    ],
}


class TestSparams:
    def test_end_to_end(self, circ_cfg, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run("sparams", "--config", circ_cfg, "--out", out) == 0
        text = capsys.readouterr().out
        assert "circulation sense at delta=0: cw" in text
        assert "bandwidth" in text
        table = cli.read_table(str(out))
        assert len(table.rows) == 1001
        assert table.columns[0] == "delta_hz"

    def test_single_point_matches_solver(self, circ_cfg, tmp_path):
        raw = yaml.safe_load(circ_cfg.read_text())
        raw["sweep"]["points"] = 1
        cfg_path = tmp_path / "one.cfg"
        cfg_path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "one.csv"
        assert run("sparams", "--config", cfg_path, "--out", out) == 0
        table = cli.read_table(str(out))
        assert table.rows.shape[0] == 1
        cfg = cli.load_config(str(cfg_path))
        s0 = nr.scattering_at(cfg.device, 0.0)
        assert math.isclose(
            table.column("S_ba_re")[0], s0.entries[0, 1, 0].real, abs_tol=1e-9
        )

    def test_invalid_gain_rho_exit_1(self, tmp_path, diramp_cfg, capsys):
        raw = yaml.safe_load(diramp_cfg.read_text())
        entry = raw["device"]["couplings"][1]
        del entry["target_g_db"]
        entry["rho"] = 1.2
        bad = tmp_path / "bad.cfg"
        bad.write_text(yaml.safe_dump(raw))
        assert run("sparams", "--config", bad, "--out", tmp_path / "x.csv") == 1
        assert "GainAboveThreshold" in capsys.readouterr().err

    def test_oscillating_device_exit_2(self, tmp_path, diramp_cfg, capsys):
        raw = yaml.safe_load(diramp_cfg.read_text())
        for entry in raw["device"]["couplings"]:
            if entry["kind"] == "gain":
                entry["target_g_db"] = 12.0
            else:
                del entry["target_c"]
                entry["rho"] = 2 * cmt.rho_for_gain(10 ** 1.2) - 1.0  # det -> 0
        bad = tmp_path / "osc.cfg"
        bad.write_text(yaml.safe_dump(raw))
        assert run("sparams", "--config", bad, "--out", tmp_path / "x.csv") == 2
        assert "SingularMatrix" in capsys.readouterr().err

    @pytest.mark.parametrize("config", sorted(SPARAMS_STDOUT))
    def test_bundled_stdout_pinned(self, config, circ_cfg, diramp_cfg, tmp_path, capsys):
        # every summary line but the defect, whose digits are round-off
        out = tmp_path / "sweep.csv"
        cfg = circ_cfg if config == "circulator" else diramp_cfg
        assert run("sparams", "--config", cfg, "--out", out) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"wrote 1001 detuning points to {out} (csv)"
        defect = "max symplectic defect over the sweep: "
        assert lines[-1].startswith(defect) and float(lines[-1][len(defect):]) < 1e-12
        assert lines[1:-1] == SPARAMS_STDOUT[config]

    @pytest.mark.parametrize("phase_deg, phi_tot, line", [
        (-90.0, -math.pi / 2, "circulation sense at delta=0: ccw (c->b->a->c)"),
        (0.0, 0.0, "circulation sense at delta=0: none (none)"),
    ], ids=["ccw", "none"])
    def test_summary_cycle_follows_the_pump_phase(self, phase_deg, phi_tot, line, circ_cfg,
                                                  tmp_path, capsys):
        raw = yaml.safe_load(circ_cfg.read_text())
        raw["device"]["couplings"][1]["phase_deg"] = phase_deg  # (b, c) carries phi_tot
        cfg = tmp_path / "rephased.cfg"
        cfg.write_text(yaml.safe_dump(raw))
        assert nr.total_pump_phase(cli.load_config(str(cfg)).device) == phi_tot
        assert run("sparams", "--config", cfg, "--out", tmp_path / "x.csv") == 0
        assert line in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("config", sorted(SPARAMS_STDOUT))
    def test_even_grid_summary_reads_delta_zero(self, config, circ_cfg, diramp_cfg, tmp_path,
                                                capsys):
        # two points: the grid is -span/2 and +span/2 and holds no delta = 0
        raw = yaml.safe_load((circ_cfg if config == "circulator" else diramp_cfg).read_text())
        raw["sweep"]["points"] = 2
        cfg = tmp_path / "two.cfg"
        cfg.write_text(yaml.safe_dump(raw))
        assert run("sparams", "--config", cfg, "--out", tmp_path / "x.csv") == 0
        lines = capsys.readouterr().out.splitlines()[1:-1]
        pinned = SPARAMS_STDOUT[config]
        assert ([s for s in lines if "bandwidth" not in s]
                == [s for s in pinned if "bandwidth" not in s])

    def test_diramp_without_gain_prints_an_empty_band(self, diramp_cfg, tmp_path, capsys):
        raw = yaml.safe_load(diramp_cfg.read_text())
        for entry in raw["device"]["couplings"][1:]:
            entry["target_g_db"] = 0  # both gains at rho = 0: no forward transmission
        cfg = tmp_path / "no-gain.cfg"
        cfg.write_text(yaml.safe_dump(raw))
        assert run("sparams", "--config", cfg, "--out", tmp_path / "x.csv") == 0
        lines = capsys.readouterr().out.splitlines()
        assert "3 dB gain bandwidth: empty band (no transmission b->c at zero detuning)" in lines
        assert not any(s.startswith(("forward gain", "added noise")) for s in lines)

    def test_band_thresholds_are_the_metrics_constants(self, circ_cfg, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.setattr(nr.metrics, "BAND_MATCH_DB", -15.0)
        assert run("sparams", "--config", circ_cfg, "--out", tmp_path / "x.csv") == 0
        cfg = cli.load_config(str(circ_cfg))
        bw = nr.circulator_bandwidth(nr.sweep(cfg.device, cfg.delta_grid))
        assert bw < 11.4e6
        line = f"bandwidth (match <= -15 dB, loss <= 1 dB): {bw / 1e6:.3f} MHz around delta=0"
        assert line in capsys.readouterr().out.splitlines()

    def test_json_output(self, circ_cfg, tmp_path):
        out = tmp_path / "sweep.json"
        assert run("sparams", "--config", circ_cfg, "--out", out, "--format", "json") == 0
        doc = json.loads(out.read_text())
        assert doc["columns"][0] == "delta_hz"
        assert len(doc["rows"]) == 1001


class TestRoundTrip:
    def test_csv_emit_parse_emit(self, circ_cfg, tmp_path):
        out = tmp_path / "sweep.csv"
        run("sparams", "--config", circ_cfg, "--out", out)
        table = cli.read_table(str(out))
        again = tmp_path / "again.csv"
        cli.write_table(table, str(again), "csv")
        assert out.read_bytes() == again.read_bytes()

    def test_json_emit_parse_emit(self, diramp_cfg, tmp_path):
        out = tmp_path / "sweep.json"
        run("sparams", "--config", diramp_cfg, "--out", out, "--format", "json")
        table = cli.read_table(str(out))
        again = tmp_path / "again.json"
        cli.write_table(table, str(again), "json")
        assert out.read_bytes() == again.read_bytes()

    def test_json_non_finite_cells(self, circ_cfg, tmp_path):
        # only the a-b conversion: S_ac is exactly 0, i.e. -inf dB
        raw = yaml.safe_load(circ_cfg.read_text())
        raw["device"]["couplings"] = [
            e for e in raw["device"]["couplings"] if sorted(e["pair"]) == ["a", "b"]
        ]
        cfg = tmp_path / "single.cfg"
        cfg.write_text(yaml.safe_dump(raw))
        out = tmp_path / "single.json"
        assert run("sparams", "--config", cfg, "--out", out, "--format", "json") == 0
        table = cli.read_table(str(out))
        assert np.all(table.column("S_ac_db") == -math.inf)
        again = tmp_path / "again.json"
        cli.write_table(table, str(again), "json")
        assert out.read_bytes() == again.read_bytes()
        assert run("compare", out, out, "--tol-db", 1e-9) == 0


def _old_format_csv(table):
    """CSV bytes as the per-float ``format(x, '.9g')`` writer produced them."""
    lines = [",".join(table.columns)]
    lines += [",".join(format(float(x), ".9g") for x in row) for row in table.rows]
    return ("\n".join(lines) + "\n").encode()


def _old_format_json(table):
    """JSON bytes as the per-float ``format(x, '.9g')`` writer produced them,
    with ``json``'s own tokens for non-finite cells."""
    def cell(x):
        return format(x, ".9g") if math.isfinite(x) else json.dumps(x)

    cols = json.dumps(table.columns, separators=(", ", ": "))
    body = ",\n".join(
        "    [" + ", ".join(cell(float(x)) for x in row) + "]" for row in table.rows
    )
    return ('{\n  "columns": ' + cols + ',\n  "rows": [\n' + body + "\n  ]\n}\n").encode()


SPECIAL_VALUES = [0.0, -0.0, -math.inf, math.inf, math.nan, 5e-324, -2.5e-310,
                  2.2250738585072014e-308, 1e300, -1e-300, 1.7976931348623157e308,
                  0.1, -123456789.123, 1e-5]


class TestTableWriters:
    @pytest.fixture(params=[0, 1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1])
    def table(self, request):
        n = request.param
        rng = np.random.default_rng(n)
        cols = ["phi_rad", "delta_hz", "S_bb_db", "S_cb_db", "S_ab_re"]
        values = rng.standard_normal(n * len(cols)) * 10.0 ** rng.integers(-320, 300, n * len(cols))
        values[: len(SPECIAL_VALUES)] = SPECIAL_VALUES[: len(values)]
        return cli.SweepTable(cols, values.reshape(n, len(cols)))

    def test_csv_matches_per_float_format(self, table, tmp_path):
        out = tmp_path / "t.csv"
        cli.write_table(table, str(out), "csv")
        assert out.read_bytes() == _old_format_csv(table)
        again = tmp_path / "again.csv"
        cli.write_table(cli.read_table(str(out)), str(again), "csv")
        assert again.read_bytes() == out.read_bytes()

    def test_json_matches_per_float_format(self, table, tmp_path):
        out = tmp_path / "t.json"
        cli.write_table(table, str(out), "json")
        assert out.read_bytes() == _old_format_json(table)
        again = tmp_path / "again.json"
        cli.write_table(cli.read_table(str(out)), str(again), "json")
        assert again.read_bytes() == out.read_bytes()


# every coupling off: the off-diagonal |S| are exactly 0, -inf dB
UNPUMPED = nr.validate_device(standard_modes(), [
    nr.PumpedCoupling(("a", "b"), "conversion", 0.0), nr.PumpedCoupling(("a", "c"), "gain", 0.0),
    nr.PumpedCoupling(("b", "c"), "gain", 0.0)])
PHASE_MAP_DEVICES = {"circulator": make_circulator(), "diramp": make_diramp(),
                     "unpumped": UNPUMPED}
MODE_PAIRS = [o + i for o in "abc" for i in "abc"]


def flat_phase_map(device, phis, deltas, pairs):
    """The phase map as one phi-major (n_phi * n_delta, 2 + k) table, from one kernel
    solve per phi row."""
    phis, deltas = np.asarray(phis, dtype=float), np.asarray(deltas, dtype=float)
    outs, ins = ([device.index(m) for m in ms] for ms in zip(*pairs))
    columns = ["phi_rad", "delta_hz"] + [f"S_{o}{i}_db" for o, i in pairs]
    rows = np.empty((len(phis) * len(deltas), len(columns)))
    rows[:, 0] = np.repeat(phis, len(deltas))
    rows[:, 1] = np.tile(deltas, len(phis))
    rows[:, 2:] = cli._db(np.concatenate(
        [np.abs(cmt.solve_batch(device, deltas, phi_tot=phi)[:, outs, ins]) for phi in phis]))
    return cli.SweepTable(columns, rows)


def rows_of(device, phis, deltas, pairs):
    """``tuner.phase_rows`` with its stream read already: every row is solved before a
    writer reads the stream."""
    rows = tuner.phase_rows(device, phis, deltas, pairs)
    return replace(rows, magnitudes=iter(list(rows.magnitudes)))


class TestPhaseMapWriter:
    """``write_phase_map`` writes, from the row stream, the bytes of the per-float
    writer on the flat phi-major rows."""

    @settings(max_examples=80)
    @given(name=st.sampled_from(sorted(PHASE_MAP_DEVICES)),
           phis=st.lists(st.sampled_from([-0.0, 0.0, 2.5, -math.pi, 2 * math.pi])
                         | st.floats(-10.0, 10.0), min_size=1, max_size=4)
           .map(lambda b: b + [p + 2 * math.pi for p in b] + [np.nextafter(p, 9.0) for p in b])
           .flatmap(lambda b: st.sampled_from([b[:1], b]))
           .flatmap(st.permutations),
           deltas=st.sampled_from([[0.0], [-3e7, 0.0, 1e6], np.linspace(-2e7, 2e7, 9)]),
           pairs=st.lists(st.sampled_from(MODE_PAIRS), min_size=1, max_size=4, unique=True),
           fmt=st.sampled_from(["csv", "json"]))
    def test_bytes_match_the_flat_rows(self, name, phis, deltas, pairs, fmt, tmp_path_factory):
        device = PHASE_MAP_DEVICES[name]
        pairs = [tuple(p) for p in pairs]
        out = tmp_path_factory.getbasetemp() / f"map.{fmt}"
        cli.write_phase_map(tuner.phase_rows(device, phis, deltas, pairs), str(out), fmt)
        reference = {"csv": _old_format_csv, "json": _old_format_json}[fmt]
        assert out.read_bytes() == reference(flat_phase_map(device, phis, deltas, pairs))

    def test_unpumped_device_writes_minus_infinity(self, tmp_path):
        phis, pairs = [-0.0, 0.0, 2 * math.pi], [("a", "b"), ("b", "b")]
        rows = tuner.phase_rows(UNPUMPED, phis, [0.0], pairs)
        assert rows.first_rows == (0, 0, 0)  # one solve, three phi cells
        out = tmp_path / "map.json"
        cli.write_phase_map(rows, str(out), "json")
        lines = out.read_text().splitlines()[3:6]
        for row, phi in zip(lines, ["-0", "0", "6.28318531"]):
            assert row.startswith(f"    [{phi}, 0, -Infinity, ")
        assert out.read_bytes() == _old_format_json(flat_phase_map(UNPUMPED, phis, [0.0], pairs))

    def test_default_map_peak_memory_below_the_flat_rows(self, tmp_path):
        cfg = cli.load_config(str(cli.bundled_config_path("circulator")))
        pairs = cli._parse_pairs(None, cfg.device)
        out = tmp_path / "map.csv"
        rows = rows_of(cfg.device, np.linspace(-2 * math.pi, math.pi, 241), cfg.delta_grid,
                       pairs)  # solved already: the writer's own memory alone
        tracemalloc.start()
        try:
            cli.write_phase_map(rows, str(out), "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == WRITER_DIGESTS["phase-sweep-circulator-csv"])
        flat_bytes = len(rows.phis) * len(rows.deltas) * (2 + len(pairs)) * 8  # 7.7 MB
        assert peak < flat_bytes
        # a row's text is held only until its last repeat: at most 62 rows at once here
        last = {q: r for r, q in enumerate(rows.first_rows)}
        held = max(sum(q <= r < last[q] for q in last) for r in range(len(rows.phis)))
        assert held == 62
        assert peak < (held + 16) * out.stat().st_size / len(rows.phis)


class TestCompare:
    def test_file_vs_itself(self, circ_cfg, tmp_path):
        out = tmp_path / "sweep.csv"
        run("sparams", "--config", circ_cfg, "--out", out)
        assert run("compare", out, out, "--tol-db", 1e-9) == 0

    def test_ideal_vs_standard_mismatch(self, circ_cfg, tmp_path):
        out = tmp_path / "standard.csv"
        run("sparams", "--config", circ_cfg, "--out", out)
        raw = yaml.safe_load(circ_cfg.read_text())
        for entry in raw["device"]["couplings"]:
            entry["target_c"] = 1.0
        ideal_cfg = tmp_path / "ideal.cfg"
        ideal_cfg.write_text(yaml.safe_dump(raw))
        ideal_out = tmp_path / "ideal.csv"
        run("sparams", "--config", ideal_cfg, "--out", ideal_out)
        assert run("compare", out, ideal_out, "--tol-db", 0.1) == 1

    def test_schema_mismatch_exit_2(self, circ_cfg, tmp_path):
        out = tmp_path / "sweep.csv"
        run("sparams", "--config", circ_cfg, "--out", out)
        lines = out.read_text().split("\n")
        header = lines[0].split(",")
        header[1], header[2] = header[2], header[1]
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join([",".join(header)] + lines[1:]))
        assert run("compare", out, shuffled, "--tol-db", 1.0) == 2

    def test_interpolates_reference(self, circ_cfg, tmp_path):
        fine = tmp_path / "fine.csv"
        run("sparams", "--config", circ_cfg, "--out", fine)
        raw = yaml.safe_load(circ_cfg.read_text())
        raw["sweep"]["points"] = 201
        coarse_cfg = tmp_path / "coarse.cfg"
        coarse_cfg.write_text(yaml.safe_dump(raw))
        coarse = tmp_path / "coarse.csv"
        run("sparams", "--config", coarse_cfg, "--out", coarse)
        assert run("compare", fine, coarse, "--tol-db", 0.05) == 0

    def test_mismatch_in_column_with_equal_infinities(self, tmp_path, capsys):
        columns = ["delta_hz", "S_ab_db"]
        sweep, ref = tmp_path / "sweep.csv", tmp_path / "ref.csv"
        cli.write_table(cli.SweepTable(columns, np.array([[0.0, -math.inf], [1.0, 1.0]])),
                        str(sweep), "csv")
        cli.write_table(cli.SweepTable(columns, np.array([[0.0, -math.inf], [1.0, 5.0]])),
                        str(ref), "csv")
        assert run("compare", sweep, ref, "--tol-db", 1.0) == 1
        assert "worst |delta dB| = 4 in column S_ab_db at delta = 1 Hz" in capsys.readouterr().out

    def test_missing_table_exit_2(self, circ_cfg, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        run("sparams", "--config", circ_cfg, "--out", out)
        capsys.readouterr()
        assert run("compare", out, tmp_path / "missing.csv") == 2
        assert capsys.readouterr().err.startswith("error: FileNotFoundError: ")

    def test_no_column_compared_exit_2(self, tmp_path, capsys):
        # no *_db column and no --columns: there is nothing to compare
        columns = ["delta_hz", "S_ab_re"]
        sweep, ref = tmp_path / "sweep.csv", tmp_path / "ref.csv"
        cli.write_table(cli.SweepTable(columns, np.array([[0.0, 1.0], [1.0, 2.0]])),
                        str(sweep), "csv")
        cli.write_table(cli.SweepTable(columns, np.array([[0.0, 5.0], [1.0, 9.0]])),
                        str(ref), "csv")
        assert run("compare", sweep, ref) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: schema mismatch: no column to compare\n"

    @pytest.mark.parametrize("text", ["delta_hz,S_ab_db\n",
                                      '{"columns": ["delta_hz", "S_ab_db"], "rows": []}\n'],
                             ids=["csv", "json"])
    def test_table_with_no_rows_exit_2(self, text, tmp_path, capsys):
        empty, ref = tmp_path / "empty", tmp_path / "ref.csv"
        empty.write_text(text)
        cli.write_table(cli.SweepTable(["delta_hz", "S_ab_db"], np.array([[0.0, 1.0]])),
                        str(ref), "csv")
        assert run("compare", ref, empty) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: schema mismatch: {empty} has no rows\n"

    @pytest.mark.parametrize("text, err", [
        ("", "ConfigError: {table}: empty table"),
        ("S_ab_db,S_ba_db\n1,2\n", "schema mismatch: no axis column (phi_rad, delta_hz, c)"),
    ], ids=["empty-file", "no-axis-column"])
    def test_table_that_cannot_be_lined_up_exit_2(self, text, err, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text(text)
        assert run("compare", table, table) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err.format(table=table)}\n"
        assert os.listdir(tmp_path) == ["table.csv"]

    def test_threshold_tables_on_disjoint_c_ranges_exit_2(self, diramp_cfg, tmp_path, capsys):
        low, high = tmp_path / "low.csv", tmp_path / "high.csv"
        for out, c_min, c_max in ((low, 0.1, 0.2), (high, 0.5, 0.6)):
            assert run("threshold", "--config", diramp_cfg, "--out", out, "--c-min", c_min,
                       "--c-max", c_max, "--c-points", 5) == 0
        capsys.readouterr()
        files = sorted(os.listdir(tmp_path))
        assert run("compare", low, high) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: schema mismatch: c grids do not overlap\n"
        assert sorted(os.listdir(tmp_path)) == files

    def test_header_only_table_reads_as_no_rows(self, tmp_path, recwarn):
        path = tmp_path / "empty.csv"
        path.write_text("delta_hz,S_ab_db,S_ba_db\n")
        assert cli.read_table(str(path)).rows.shape == (0, 3)
        assert len(recwarn) == 0

    @pytest.mark.parametrize("body, message", [
        ("0,1\n1\n", "ValueError: "),
        ("0,1,2\n1,2,3\n", "ConfigError: {bad}: every row needs 2 cells, one per column"),
        ("0,1\n1,x\n", "ValueError: could not convert string"),
        ("0,1\n1,#\n", "ValueError: could not convert string"),  # a cell, not a comment
    ], ids=["ragged-row", "rows-wider-than-header", "non-numeric-cell", "hash-cell"])
    def test_unreadable_csv_exit_2(self, body, message, tmp_path, capsys):
        bad, ref = tmp_path / "bad.csv", tmp_path / "ref.csv"
        bad.write_text("delta_hz,S_ab_db\n" + body)
        cli.write_table(cli.SweepTable(["delta_hz", "S_ab_db"], np.array([[0.0, 1.0]])),
                        str(ref), "csv")
        assert run("compare", bad, ref) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: " + message.format(bad=bad))

    @pytest.mark.parametrize("doc", [
        {"columns": 5, "rows": []},
        {"columns": "delta_hz,S_ab_db", "rows": []},
        {"columns": ["delta_hz", "S_ab_db"], "rows": 5},
        {"columns": ["delta_hz", "S_ab_db"], "rows": {"0": [0, 1]}},
        {"columns": ["delta_hz", "S_ab_db"]},
    ], ids=["columns-number", "columns-string", "rows-number", "rows-mapping", "no-rows"])
    def test_json_table_without_lists_exit_2(self, doc, tmp_path, capsys):
        bad, ref = tmp_path / "bad.json", tmp_path / "ref.csv"
        bad.write_text(json.dumps(doc))
        cli.write_table(cli.SweepTable(["delta_hz", "S_ab_db"], np.array([[0.0, 1.0]])),
                        str(ref), "csv")
        assert run("compare", bad, ref) == 2
        assert capsys.readouterr().err == (
            f"error: ConfigError: {bad}: JSON table needs 'columns' and 'rows' lists\n")

    def test_json_cell_holding_a_mapping_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"columns": ["delta_hz", "S_ab_db"], "rows": [[0, {}]]}))
        assert run("compare", bad, bad) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: TypeError: ")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command, config", [
        ("sparams", "circulator"), ("sparams", "diramp"), ("phase-sweep", "circulator"),
        ("phase-sweep", "diramp"), ("threshold", "diramp"),
    ])
    def test_every_table_against_itself(self, command, config, fmt, circ_cfg, diramp_cfg,
                                        tmp_path, capsys):
        cfg = circ_cfg if config == "circulator" else diramp_cfg
        out = tmp_path / f"table.{fmt}"
        extra = ["--phi-points", 9] if command == "phase-sweep" else []
        assert run(command, "--config", cfg, "--out", out, "--format", fmt, *extra) == 0
        capsys.readouterr()
        assert run("compare", out, out, "--tol-db", 0) == 0
        assert capsys.readouterr().out.startswith("worst |delta dB| = 0 in column S_")
        # one dB cell moved by 0.5: named by its column and its axis values
        table = cli.read_table(str(out))
        column = next(c for c in table.columns if c.endswith("_db"))
        k = len(table.rows) // 2
        table.rows[k, table.columns.index(column)] += 0.5
        perturbed = tmp_path / f"perturbed.{fmt}"
        cli.write_table(table, str(perturbed), fmt)
        assert run("compare", perturbed, out, "--tol-db", 0) == 1
        row = table.rows[k]
        where = {"sparams": f"delta = {row[0]:g} Hz",
                 "phase-sweep": f"phi = {row[0]:g} rad, delta = {row[1]:g} Hz",
                 "threshold": f"c = {row[0]:g}"}[command]
        assert capsys.readouterr().out.startswith(
            f"worst |delta dB| = 0.5 in column {column} at {where} (tolerance 0 dB, band [")

    @pytest.mark.parametrize("other", [
        ["--phi-min", -6.0, "--phi-points", 9],  # the same number of phi runs, other values
        ["--phi-points", 8],  # one phi run fewer
    ], ids=["other-phi-values", "fewer-phi-runs"])
    def test_phase_sweeps_on_other_phi_grids_exit_2(self, other, circ_cfg, tmp_path, capsys):
        sweep, ref = tmp_path / "sweep.csv", tmp_path / "ref.csv"
        assert run("phase-sweep", "--config", circ_cfg, "--out", ref, "--phi-points", 9) == 0
        assert run("phase-sweep", "--config", circ_cfg, "--out", sweep, *other) == 0
        capsys.readouterr()
        assert run("compare", sweep, ref) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: schema mismatch: phi_rad values differ\n"

    @pytest.mark.parametrize("command, config, argv", [
        ("phase-sweep", "circulator", ["--phi-min", 1, "--phi-max", 1, "--phi-points", 3]),
        ("threshold", "diramp", ["--c-min", 0.5, "--c-max", 0.5, "--c-points", 3]),
    ], ids=["repeated-phi", "repeated-c"])
    def test_repeated_axis_values_against_itself(self, command, config, argv, circ_cfg,
                                                 diramp_cfg, tmp_path, capsys):
        # a repeated phi starts a new run where delta restarts; every c is its own run
        cfg = circ_cfg if config == "circulator" else diramp_cfg
        out = tmp_path / "r.csv"
        assert run(command, "--config", cfg, "--out", out, *argv) == 0
        assert len(cli.read_table(str(out)).runs()) == 3
        capsys.readouterr()
        assert run("compare", out, out, "--tol-db", 0) == 0
        assert capsys.readouterr().out.startswith("worst |delta dB| = 0 in column S_")

    def test_restarted_grid_against_one_run_exit_2(self, tmp_path, capsys):
        columns = ["delta_hz", "S_ab_db"]
        sweep, ref = tmp_path / "sweep.csv", tmp_path / "ref.csv"
        grid = np.array([0.0, 1.0, 2.0])
        cli.write_table(cli.SweepTable(columns, np.column_stack([grid, grid])), str(sweep), "csv")
        twice = np.concatenate([grid, grid])
        cli.write_table(cli.SweepTable(columns, np.column_stack([twice, twice])), str(ref), "csv")
        assert run("compare", ref, ref, "--tol-db", 0) == 0  # two runs each
        capsys.readouterr()
        assert run("compare", sweep, ref) == 2
        assert capsys.readouterr().err == "error: schema mismatch: delta_hz runs differ\n"


# sha256 of every writer's file for the bundled configs; the sparams and default
# phase-sweep digests are the ones the benchmark checks (bench/digests.json)
WRITER_DIGESTS = {
    "sparams-circulator-csv": "3dfbd46f4d0aafa61d33b46709581015b7e4a2eac1519b32697e90f060f1745f",
    "sparams-circulator-json": "b9fc72ca3731accca31cbb73deaaa5141c547d3c958708a48655be4b7ef153d2",
    "sparams-diramp-csv": "8c759ba453f486118bd277843c0f483127a479eae77e3ea77aaea02602342cd6",
    "sparams-diramp-json": "a9049feb168ea7bfd1035a7d0ea44db4421b11d7060e806a78c82c7b82707133",
    "phase-sweep-circulator-csv":
        "c8e740a0210083ff586f6879756da15600dcdc4e37a6e55b0cc0ec9eb8a58984",
    "phase-sweep-37-circulator-json":
        "ce71499451d20db6a4cc9e921d16fdae7229cc7362a2fa91c27b066c98e70bb6",
    "phase-sweep-37-diramp-json":
        "66419a73f1ceff812dc94b306f4d87f30a4785b33116cdfdc40ebfa57af881d0",
    "threshold-diramp-csv": "864c64fb5955b42a207034c6257bfc4a2f2e29de433acbd07782f6774206b58e",
    "threshold-diramp-json": "546abb14a6f93f27dd5ad408b7ab9097205047e00f280039eb80fd472c526b8e",
    "tune-diramp-14db": "3456cbb4883a9a270569985ec4b07c1410b1f9d3a94a7d70823d47e1cd731dfb",
    "tune-circulator-cw": "4d744e3978c916ae0d57a69d181485b98785f8ac30153cf66989a569c8afaba3",
    "tune-circulator-ccw": "75284c168455a72171f8ac24bd3562b4cb72ba98f4db867e802dfe94c8d76e4b",
}

# the tuned configs in WRITER_DIGESTS: bundled config, then the tune options
TUNE_ARGS = {
    "tune-diramp-14db": ("diramp", "--objective", "diramp", "--target-gain-db", 14),
    "tune-circulator-cw": ("circulator", "--objective", "circulator-cw"),
    "tune-circulator-ccw": ("circulator", "--objective", "circulator-ccw"),
}


class TestWriterBytes:
    # the tuned configs again as on a PyYAML built without libyaml
    @pytest.mark.parametrize("name, libyaml", [pytest.param(n, True, id=n)
                                               for n in sorted(WRITER_DIGESTS)]
                             + [pytest.param(n, False, id=n + "-without-libyaml")
                                for n in sorted(TUNE_ARGS)])
    def test_bundled_files_pinned(self, name, libyaml, circ_cfg, diramp_cfg, tmp_path,
                                  monkeypatch):
        if not libyaml:
            monkeypatch.setattr(yaml, "__with_libyaml__", False)
            monkeypatch.delattr(yaml, "CSafeDumper", raising=False)
        if name in TUNE_ARGS:
            (config, *extra), command, fmt = TUNE_ARGS[name], "tune", "cfg"
        else:
            command, config, fmt = name.replace("-37", "").rsplit("-", 2)
            extra = ["--format", fmt]
            extra += ["--phi-points", 37, "--pairs", "ab,ba,cc,bb"] if "-37-" in name else []
        out = tmp_path / f"out.{fmt}"
        cfg = circ_cfg if config == "circulator" else diramp_cfg
        assert run(command, "--config", cfg, "--out", out, *extra) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == WRITER_DIGESTS[name]

    def test_benchmark_digests_match(self):
        # bench/digests.json pins the sparams tables and the default phase map the benchmark
        # checks: workload sweep-io is sparams, phase-map is phase-sweep
        path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "digests.json")
        with open(path, encoding="utf-8") as fh:
            pinned = json.load(fh)
        command = {"sweep-io": "sparams", "phase-map": "phase-sweep"}
        shared = {f"{command[workload]}-{file.removeprefix('bundled-').replace('.', '-')}": digest
                  for workload, files in pinned.items() for file, digest in files.items()}
        assert len(shared) == 5
        assert shared == {name: WRITER_DIGESTS[name] for name in shared}


class TestPhaseSweepCmd:
    def test_single_cell_consistency(self, circ_cfg, tmp_path):
        raw = yaml.safe_load(circ_cfg.read_text())
        raw["sweep"]["points"] = 1
        cfg_path = tmp_path / "one.cfg"
        cfg_path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "ps.csv"
        assert run(
            "phase-sweep", "--config", cfg_path, "--out", out,
            "--phi-min", math.pi / 2, "--phi-max", math.pi / 2, "--phi-points", 1,
        ) == 0
        table = cli.read_table(str(out))
        cfg = cli.load_config(str(cfg_path))
        dev = nr.with_total_phase(cfg.device, math.pi / 2)
        s = nr.scattering_at(dev, 0.0)
        assert math.isclose(table.column("S_bb_db")[0], db(s, "b", "b"), abs_tol=1e-6)

    def test_diramp_gain_direction_reverses(self, diramp_cfg, tmp_path):
        out = tmp_path / "ps.csv"
        raw = yaml.safe_load((diramp_cfg).read_text())
        raw["sweep"]["points"] = 1
        cfg_path = tmp_path / "one.cfg"
        cfg_path.write_text(yaml.safe_dump(raw))
        assert run(
            "phase-sweep", "--config", cfg_path, "--out", out, "--pairs", "ab,ba",
            "--phi-min", -math.pi / 2, "--phi-max", math.pi / 2, "--phi-points", 2,
        ) == 0
        table = cli.read_table(str(out))
        ab = table.column("S_ab_db")
        ba = table.column("S_ba_db")
        assert ab[0] > 10 and ba[0] < 1  # a<-b dominant at -pi/2
        assert ba[1] > 10 and ab[1] < 1  # reversed at +pi/2

    def test_sbb_minima_separated_by_pi(self, circ_cfg, tmp_path):
        raw = yaml.safe_load(circ_cfg.read_text())
        raw["sweep"]["points"] = 1
        cfg_path = tmp_path / "one.cfg"
        cfg_path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "ps.csv"
        run("phase-sweep", "--config", cfg_path, "--out", out,
            "--phi-min", -2 * math.pi, "--phi-max", math.pi, "--phi-points", 721)
        table = cli.read_table(str(out))
        phis = table.column("phi_rad")
        sbb = table.column("S_bb_db")
        minima = phis[
            [k for k in range(1, len(phis) - 1)
             if sbb[k] < sbb[k - 1] and sbb[k] < sbb[k + 1]]
        ]
        assert len(minima) == 3
        gaps = np.diff(np.sort(minima))
        assert np.allclose(gaps, math.pi, atol=0.02)

    def test_rows_phi_major_with_solver_magnitudes(self, circ_cfg, tmp_path):
        raw = yaml.safe_load(circ_cfg.read_text())
        raw["sweep"]["points"] = 7
        cfg_path = tmp_path / "small.cfg"
        cfg_path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "ps.csv"
        assert run("phase-sweep", "--config", cfg_path, "--out", out, "--pairs", "ab,ba,cc",
                   "--phi-min", -math.pi, "--phi-max", math.pi, "--phi-points", 5) == 0
        table = cli.read_table(str(out))
        assert table.columns == ["phi_rad", "delta_hz", "S_ab_db", "S_ba_db", "S_cc_db"]
        cfg = cli.load_config(str(cfg_path))
        phis = np.linspace(-math.pi, math.pi, 5)
        mags = np.abs(cmt.solve_batch(cfg.device, cfg.delta_grid, phi_tot=phis[:, None]))
        index = cfg.device.index
        assert table.rows.shape == (5 * 7, 5)
        for r in range(5):
            for c in range(7):
                expected = [phis[r], cfg.delta_grid[c]] + [
                    20.0 * np.log10(mags[r, c, index(o), index(i)]) for o, i in ("ab", "ba", "cc")
                ]
                got = table.rows[r * 7 + c]
                assert [format(x, ".9g") for x in got] == [format(x, ".9g") for x in expected]

    @pytest.mark.parametrize("out", ["map.csv", "no-such-dir/map.csv"],
                             ids=["writable", "unwritable"])
    def test_singular_row_exits_2_before_the_file_opens(self, out, diramp_cfg, tmp_path,
                                                        capsys):
        # 1 + rho_ab = rho_ac + rho_bc: singular at delta = 0 on the phi_tot = +-pi/2 rows
        # alone, rows 40, 120 and 200 of the default grid; every row is checked before the
        # first is written, so the unwritable path is never reached
        raw = yaml.safe_load(diramp_cfg.read_text())
        for entry, rho in zip(raw["device"]["couplings"], (0.2, 0.6, 0.6)):
            entry.pop("target_c", None)
            entry.pop("target_g_db", None)
            entry["rho"] = rho
        bad = tmp_path / "osc.cfg"
        bad.write_text(yaml.safe_dump(raw))
        files = sorted(os.listdir(tmp_path))
        assert run("phase-sweep", "--config", bad, "--out", tmp_path / out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: SingularMatrix: dynamics matrix singular at delta=0 Hz\n"
        assert sorted(os.listdir(tmp_path)) == files

    def test_default_map_peak_memory_below_8_mb(self, circ_cfg, tmp_path, capsys):
        # solved and written together; the nine (241, 1001) |S| blocks alone are 17.4 MB
        out = tmp_path / "map.csv"
        tracemalloc.start()
        try:
            assert run("phase-sweep", "--config", circ_cfg, "--out", out) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == WRITER_DIGESTS["phase-sweep-circulator-csv"])
        assert peak < 8e6
        assert capsys.readouterr().out == f"wrote 241241 (phi, delta) points to {out}\n"


class TestThresholdCmd:
    def test_threshold_column_and_monotone_segment(self, diramp_cfg, tmp_path):
        out = tmp_path / "th.csv"
        assert run("threshold", "--config", diramp_cfg, "--out", out,
                   "--c-min", 0.95, "--c-max", 0.999, "--c-points", 25) == 0
        table = cli.read_table(str(out))
        assert math.isclose(table.column("c_threshold")[0], 1.0 - 10 ** -1.2,
                            rel_tol=1e-9)
        refl = table.column("S_bb_abs")
        assert all(b <= a for a, b in zip(refl, refl[1:]))  # falls with C here

    def test_circulator_config_rejected(self, circ_cfg, tmp_path, capsys):
        # the topology check is conversion_sweep's own, before any solve or write
        assert run("threshold", "--config", circ_cfg, "--out", tmp_path / "x.csv") == 1
        assert capsys.readouterr().err == ("error: TopologyError: device is not a directional "
                                           "amplifier (needs one conversion and two gains)\n")
        assert not (tmp_path / "x.csv").exists()


class TestTuneCmd:
    def test_writes_tuned_config(self, diramp_cfg, tmp_path, capsys):
        out = tmp_path / "tuned.cfg"
        assert run("tune", "--config", diramp_cfg, "--objective", "diramp",
                   "--target-gain-db", 14, "--out", out) == 0
        assert "objective:" in capsys.readouterr().out
        tuned = cli.load_config(str(out))
        assert tuned.device.is_directional_amp
        raw = yaml.safe_load(out.read_text())
        # non-optimized fields survive the round trip
        assert raw["sweep"]["points"] == 1001
        assert raw["declared_pumps_ghz"]["b"] == 16.339
        assert raw["device"]["modes"][0]["kappa_mhz"] == 44.0

    def test_bundled_diramp_stdout_pinned(self, diramp_cfg, tmp_path, capsys):
        # the closed-form working point meets the target: matched conversion,
        # both gains at G = 10**1.4 + 1, phi_tot = -pi/2 (the bundled config's sign)
        out = tmp_path / "tuned.cfg"
        assert run("tune", "--config", diramp_cfg, "--objective", "diramp",
                   "--target-gain-db", 14, "--out", out) == 0
        assert capsys.readouterr().out.splitlines()[:5] == [
            "objective: -60.000000 (converged=True, stop_reason=target_met)",
            "  conversion ('a', 'b'): rho = 1",
            "  gain ('a', 'c'): rho = 0.67270321",
            "  gain ('b', 'c'): rho = 0.67270321",
            "  phi_tot = -1.57079633 rad",
        ]

    @pytest.mark.parametrize("objective, phi", [("circulator-cw", "+1.57079633"),
                                                ("circulator-ccw", "-1.57079633")])
    def test_bundled_circulator_stdout_pinned(self, objective, phi, circ_cfg, tmp_path, capsys):
        # every conversion matched at phi_tot = +-pi/2; the objective's value is the
        # round-off of a matched, isolating solve, so only its form and bound are pinned
        out = tmp_path / "tuned.cfg"
        assert run("tune", "--config", circ_cfg, "--objective", objective, "--out", out) == 0
        lines = capsys.readouterr().out.splitlines()
        head = re.fullmatch(r"objective: (-\d+\.\d{6}) \(converged=True, stop_reason=target_met\)",
                            lines[0])
        assert head and float(head[1]) <= 2 * tuner.CIRCULATOR_TARGET_DB
        assert lines[1:] == [
            "  conversion ('a', 'b'): rho = 1",
            "  conversion ('a', 'c'): rho = 1",
            "  conversion ('b', 'c'): rho = 1",
            f"  phi_tot = {phi} rad",
            f"wrote tuned config to {out}",
        ]

    def test_circulator_objective(self, circ_cfg, tmp_path):
        out = tmp_path / "tuned.cfg"
        assert run("tune", "--config", circ_cfg, "--objective", "circulator-cw",
                   "--out", out) == 0
        tuned = cli.load_config(str(out))
        assert abs(nr.total_pump_phase(tuned.device) - math.pi / 2) < 0.05

    def test_tuned_target_c_reloads(self, circ_cfg, tmp_path):
        # a config stating its conversions by target_c gets target_c written
        # back, and the tuned file must reload; the working point matches every
        # conversion (rho = 1, so C = 1 exactly)
        raw = yaml.safe_load(circ_cfg.read_text())
        for entry, c in zip(raw["device"]["couplings"], (0.95067, 0.994096, 0.914272)):
            entry["target_c"] = c
        cfg_path = tmp_path / "start.cfg"
        cfg_path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "tuned.cfg"
        assert run("tune", "--config", cfg_path, "--objective", "circulator-cw",
                   "--out", out) == 0
        entries = yaml.safe_load(out.read_text())["device"]["couplings"]
        # each conversion keeps its one strength key, target_c, now exactly 1
        assert all(len([k for k in cli.STRENGTH_KEYS if k in e]) == 1 for e in entries)
        assert [e["target_c"] for e in entries] == [1.0, 1.0, 1.0]
        assert cli.load_config(str(out)).device.is_circulator

    @pytest.mark.parametrize("name", sorted(TUNE_ARGS))
    def test_tuned_rho_keys_reload(self, name, circ_cfg, diramp_cfg, tmp_path, monkeypatch):
        # the circulator's conversions, or the diramp's gains, stated as rho: the tuned
        # file keeps those keys and holds the tuned device's own rho
        config, *extra = TUNE_ARGS[name]
        key, to_rho = {
            "circulator": ("target_c", cmt.rho_for_conversion),
            "diramp": ("target_g_db", lambda g: cmt.rho_for_gain(10 ** (g / 10))),
        }[config]
        raw = yaml.safe_load((circ_cfg if config == "circulator" else diramp_cfg).read_text())
        for entry in raw["device"]["couplings"]:
            if key in entry:
                entry["rho"] = to_rho(entry.pop(key))
        cfg_path, out = tmp_path / "start.cfg", tmp_path / "tuned.cfg"
        cfg_path.write_text(yaml.safe_dump(raw, sort_keys=False))
        results = count_calls(monkeypatch, "tune", tuner)
        assert run("tune", "--config", cfg_path, "--out", out, *extra) == 0
        (result,) = results

        def strength_keys(doc):
            return [[k for k in cli.STRENGTH_KEYS if k in e] for e in doc["device"]["couplings"]]

        assert strength_keys(yaml.safe_load(out.read_text())) == strength_keys(raw)
        assert ["rho"] in strength_keys(raw)
        tuned = cli.load_config(str(out)).device
        assert [c.rho for c in tuned.couplings] == [c.rho for c in result.device.couplings]
        drift = nr.total_pump_phase(tuned) - nr.total_pump_phase(result.device)
        assert abs(math.remainder(drift, 2 * math.pi)) <= 1e-12

    def test_tuned_file_keeps_a_date_and_an_integer_key(self, circ_cfg, tmp_path):
        cfg_path = tmp_path / "start.cfg"
        cfg_path.write_text(circ_cfg.read_text() + "measured: 2015-11-04\n7: seven\n")
        out = tmp_path / "tuned.cfg"
        assert run("tune", "--config", cfg_path, "--objective", "circulator-cw",
                   "--out", out) == 0
        raw = cli.load_config(str(out)).raw
        assert raw["measured"] == date(2015, 11, 4) and raw[7] == "seven"
        assert "7" not in raw

    def test_tuned_file_is_the_pure_python_emitters_text(self, diramp_cfg, tmp_path):
        # libyaml's emitter folds a long double-quoted string holding escapes
        # at other places; cli._emits_alike sends this note to PyYAML's emitter
        note = "Ωmega ünïcødé \a bell " * 12
        raw = yaml.safe_load(diramp_cfg.read_text())
        raw["note"] = note
        cfg_path, out = tmp_path / "start.cfg", tmp_path / "tuned.cfg"
        cfg_path.write_text(yaml.safe_dump(raw, sort_keys=False))
        assert run("tune", "--config", cfg_path, "--objective", "diramp",
                   "--target-gain-db", 14, "--out", out) == 0
        text = out.read_text(encoding="utf-8")
        tuned = yaml.safe_load(text)
        assert tuned["note"] == note and '\\a bell\\\n' in text
        assert text == yaml.safe_dump(tuned, sort_keys=False)

    @settings(max_examples=40)
    @given(text=config_documents() | ascii_config_texts())
    @example(text=config_text({"": 1}))  # PyYAML writes "? ''", libyaml "'':"
    @example(text=config_text({"k" * 123: 1}))  # PyYAML writes a "? " key, libyaml a plain one
    @example(text=config_text({"note": "é " * 40}))  # the emitters fold an escaped
    @example(text=config_text({"note": "bell \a " * 10}))  # string at other places
    def test_tuned_file_is_safe_dumps_text(self, text, tmp_path_factory):
        cfg_path = tmp_path_factory.getbasetemp() / "start.cfg"
        out = cfg_path.with_suffix(".tuned")
        cfg_path.write_text(text, encoding="utf-8")
        start = cli.load_config(str(cfg_path)).raw
        if yaml.__with_libyaml__ and cli._emits_alike(start, set()):
            assert (yaml.dump(start, Dumper=yaml.CSafeDumper, sort_keys=False)
                    == yaml.safe_dump(start, sort_keys=False))
        assert run("tune", "--config", cfg_path, "--objective", "circulator-cw",
                   "--out", out) == 0
        tuned = out.read_text(encoding="utf-8")
        assert tuned == yaml.safe_dump(cli.load_config(str(out)).raw, sort_keys=False)

    def test_aliased_and_recursive_config_keeps_its_anchors(self, circ_cfg, tmp_path):
        # PyYAML's emitter writes the anchors; without its seen-set _emits_alike would
        # recurse without end on the recursive list
        cfg_path, out = tmp_path / "start.cfg", tmp_path / "tuned.cfg"
        cfg_path.write_text(circ_cfg.read_text()
                            + "extra: &x [1, *x]\nshared: &s {k: 1}\nshared2: *s\n")
        assert not cli._emits_alike(cli.load_config(str(cfg_path)).raw, set())
        assert run("tune", "--config", cfg_path, "--objective", "circulator-cw",
                   "--out", out) == 0
        text = out.read_text()
        assert text.endswith("extra: &id001\n- 1\n- *id001\nshared: &id002\n  k: 1\n"
                             "shared2: *id002\n")
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == "7f062026cfd693982fbd43076dce789406ca9b6ab535ecc0a3acad62d3ba490f")

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="needs libyaml's emitter")
    @pytest.mark.parametrize("name", sorted(TUNE_ARGS))
    def test_bundled_tunes_emit_with_libyaml(self, name, circ_cfg, diramp_cfg, tmp_path,
                                             monkeypatch):
        made = []

        class Counting(yaml.CSafeDumper):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(yaml, "CSafeDumper", Counting)
        config, *extra = TUNE_ARGS[name]
        out = tmp_path / "tuned.cfg"
        assert run("tune", "--config", circ_cfg if config == "circulator" else diramp_cfg,
                   "--out", out, *extra) == 0
        assert len(made) == 1

    @pytest.mark.parametrize("target", ["nan", "inf", "130"])
    def test_unreachable_target_fails_before_any_solve(self, target, diramp_cfg, tmp_path,
                                                       capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the target was checked")

        monkeypatch.setattr(cmt, "solve_batch", no_solve)
        out = tmp_path / "tuned.cfg"
        assert run("tune", "--config", diramp_cfg, "--objective", "diramp",
                   "--target-gain-db", target, "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: DomainError: target_gain_db")
        assert "126.02" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("budget, code", [("0", 1), ("1", 0)])
    def test_budget_is_ignored_but_must_be_positive(self, budget, code, circ_cfg, tmp_path):
        out = tmp_path / "tuned.cfg"
        assert run("tune", "--config", circ_cfg, "--objective", "circulator-cw",
                   "--budget", budget, "--out", out) == code
        assert out.exists() == (code == 0)


class TestImports:
    def test_commands_run_without_scipy_optimize(self, circ_cfg, diramp_cfg, tmp_path):
        # no command imports scipy, which is not a dependency
        script = f"""
import sys
from nonrecip import cli
for argv in (
    ["sparams", "--config", {str(circ_cfg)!r}, "--out", "s.csv"],
    ["phase-sweep", "--config", {str(circ_cfg)!r}, "--out", "p.csv", "--phi-points", "3"],
    ["threshold", "--config", {str(diramp_cfg)!r}, "--out", "t.csv"],
    ["compare", "s.csv", "s.csv"],
    ["tune", "--config", {str(diramp_cfg)!r}, "--objective", "diramp",
     "--target-gain-db", "14", "--out", "d.cfg"],
    ["tune", "--config", {str(circ_cfg)!r}, "--objective", "circulator-ccw", "--out", "c.cfg"],
):
    assert cli.main(argv) == 0, argv
    assert not any(m.split(".")[0] == "scipy" for m in sys.modules), argv
print("scipy.optimize" in sys.modules)
"""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nr.__file__)))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              cwd=tmp_path, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "stop_reason=target_met" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "False"  # "scipy.optimize" not in sys.modules


    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from nonrecip import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(nr.__all__)
        assert len(nr.__all__) == len(set(nr.__all__))


class TestParser:
    def test_main_reuses_one_parser(self, circ_cfg, tmp_path, monkeypatch):
        cli.build_parser()
        built = count_calls(monkeypatch, "__init__", argparse.ArgumentParser)
        for _ in range(2):
            assert run("sparams", "--config", circ_cfg, "--out", tmp_path / "x.csv") == 0
        assert built == []


# the bundled configs at 5 detuning points, the values a mutation sets and the paths it sets
# them on; no mutation reaches the sweep's size, nor does a command's grid option
FUZZ_CONFIGS = {name: mutated(yaml.safe_load(cli.bundled_config_path(name).read_text()),
                              [(("sweep", "points"), 5)]) for name in ("circulator", "diramp")}
FUZZ_VALUES = (None, True, False, 0, -1, 10 ** 400, -10 ** 400, 1e308, -1e308, "nan", "inf",
               "-inf", [], [1, "a"], ["a", "b"], {}, {"name": "a"}, "a", "b", "c")
FUZZ_PATHS = list(dict.fromkeys(
    path for raw in FUZZ_CONFIGS.values() for path in node_paths(raw) if path[0] != "sweep"
    or path[1:] not in ((), ("points",))))
FUZZ_ARGS = {
    "sparams": ["sparams"],
    "threshold": ["threshold", "--c-points", "3"],
    "tune-circulator": ["tune", "--objective", "circulator-cw"],
    "tune-diramp": ["tune", "--objective", "diramp"],
    "phase-sweep": ["phase-sweep", "--phi-points", "3"],
}


class TestErrorExits:
    """Inputs that fail inside a command end with one ``error:`` line and exit 1."""

    def test_missing_directory_names_requested_path(self, circ_cfg, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "x.csv"
        assert run("sparams", "--config", circ_cfg, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"error: FileNotFoundError: [Errno 2] No such file or directory: '{out}'\n"

    def test_yaml_syntax_error_is_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("device: [\n")
        assert run("sparams", "--config", cfg, "--out", tmp_path / "x.csv") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ParserError: while parsing")
        assert f'in "{cfg}", line 2, column 1' in err[0]

    @pytest.mark.parametrize("loader", ["libyaml-if-present", "pure-python"])
    @pytest.mark.parametrize("text, line", [("device:\n\tmodes: []\n", 2),
                                            ('device: "modes\n', 2)],
                             ids=["tab-indent", "unterminated-quote"])
    def test_yaml_scanner_error_is_one_line(self, loader, text, line, tmp_path, capsys,
                                            monkeypatch):
        if loader == "pure-python":
            monkeypatch.setattr(cli, "_YAML_LOADER", yaml.SafeLoader)
        cfg = tmp_path / "broken.cfg"
        cfg.write_text(text)
        assert run("sparams", "--config", cfg, "--out", tmp_path / "x.csv") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ScannerError: while scanning")
        assert f'in "{cfg}", line {line}, column 1' in err[0]
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["phase-sweep", "--config", "{circ}", "--phi-points", "0", "--out", "{tmp}/x.csv"],
        ["phase-sweep", "--config", "{circ}", "--phi-points", "-1", "--out", "{tmp}/x.csv"],
        ["threshold", "--config", "{diramp}", "--c-points", "0", "--out", "{tmp}/x.csv"],
        ["threshold", "--config", "{diramp}", "--c-max", "1.5", "--out", "{tmp}/x.csv"],
        ["sparams", "--config", "{circ}", "--out", "{tmp}/no-such-dir/x.csv"],
        ["phase-sweep", "--config", "{circ}", "--phi-min=nan", "--out", "{tmp}/x.csv"],
        ["phase-sweep", "--config", "{circ}", "--phi-max=inf", "--out", "{tmp}/x.csv"],
        ["phase-sweep", "--config", "{circ}", "--phi-min=-inf", "--out", "{tmp}/x.csv"],
    ], ids=["no-phi-points", "negative-phi-points", "no-c-points", "c-above-1", "missing-out-dir",
            "phi-min-nan", "phi-max-inf", "phi-min--inf"])
    def test_command_argument(self, argv, circ_cfg, diramp_cfg, tmp_path, capsys):
        assert run(*[a.format(circ=circ_cfg, diramp=diramp_cfg, tmp=tmp_path) for a in argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("pairs", ["bb,bb", "ab,cb, ab"])
    def test_repeated_pair(self, pairs, circ_cfg, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("phase-sweep", "--config", circ_cfg, "--pairs", pairs, "--out", out) == 1
        repeated = pairs[-2:]
        assert capsys.readouterr().err == f"error: ConfigError: pair {repeated!r} is given twice\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, code, err", [
        (["phase-sweep", "--config", "{circ}", "--pairs", ""], 1,
         "ConfigError: pair '' must be two single-letter mode names"),
        (["compare", "t.csv", "t.csv", "--columns", ""], 2, "schema mismatch: no column ''"),
        (["sparams", "--config", "{circ}", "--out", ""], 1, "ConfigError: empty output path"),
        (["tune", "--config", "{circ}", "--objective", "circulator-cw", "--out", ""], 1,
         "ConfigError: empty output path"),
        (["tune", "--config", "{circ}", "--objective", "circulator-cw", "--target-gain-db", "14"],
         1, "ConfigError: --target-gain-db applies only to the diramp objective"),
    ], ids=["empty-pairs", "empty-columns", "sparams-empty-out", "tune-empty-out",
            "circulator-target-gain"])
    def test_given_option_is_not_ignored(self, argv, code, err, circ_cfg, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.chdir(tmp_path)  # holds the config, the default outputs and t.csv
        assert run("sparams", "--config", circ_cfg, "--out", "t.csv") == 0
        capsys.readouterr()
        files = sorted(os.listdir(tmp_path))
        assert run(*[a.format(circ=circ_cfg) for a in argv]) == code
        assert capsys.readouterr().err == f"error: {err}\n"
        assert sorted(os.listdir(tmp_path)) == files

    @pytest.mark.parametrize("config, path, value", [
        ("circulator", ("device",), 5),
        ("circulator", ("device", "modes"), 5),
        ("circulator", ("device", "modes", 0), 5),
        ("circulator", ("device", "couplings"), 5),
        ("circulator", ("device", "couplings", 0), 5),
        ("circulator", ("device", "couplings", 0, "pair"), 5),
        ("circulator", ("sweep",), 5),
        ("circulator", ("outputs",), [1]),
        ("circulator", ("declared_pumps_ghz",), [1, 2]),
        ("circulator", ("sweep", "delta_span_mhz"), True),  # YAML "yes"
        ("circulator", ("device", "modes", 0, "freq_ghz"), True),
        ("circulator", ("device", "modes", 1, "kappa_mhz"), [19.0]),
        ("circulator", ("device", "modes", 2, "freq_ghz"), None),
        ("circulator", ("device", "couplings", 0, "target_c"), False),
        ("circulator", ("device", "couplings", 1, "phase_deg"), {"deg": 90.0}),
        ("circulator", ("device", "couplings", 2),
         {"pair": ["a", "c"], "kind": "conversion", "rho": True}),
        ("circulator", ("device", "pump_detuning_tolerance_mhz"), True),
        ("circulator", ("device", "pump_detuning_tolerance_mhz"), -1.0),
        ("circulator", ("device", "pump_detuning_tolerance_mhz"), math.nan),
        ("circulator", ("declared_pumps_ghz", "b"), [1.9989]),
        ("circulator", ("declared_pumps_ghz", "a"), math.nan),
        ("circulator", ("declared_pumps_ghz", "z"), 99),
        ("diramp", ("device", "couplings", 1, "target_g_db"), True),
        ("circulator", ("outputs", "format"), "xml"),
        ("circulator", ("device", "modes", 0), {"freq_ghz": 9.167, "kappa_mhz": 44.0}),
        ("circulator", ("device", "couplings", 0),
         {"pair": ["a", "b"], "kind": "conversion", "target_g_db": 10.0}),
        ("diramp", ("device", "couplings", 1),
         {"pair": ["a", "c"], "kind": "gain", "target_c": 0.5}),
        ("diramp", ("device", "couplings", 0, "pair"), ["a", None]),
        ("diramp", ("device", "couplings", 0, "pair"), ["a", 2]),
        ("diramp", ("device", "couplings", 0, "pair"), ["a", ["b"]]),
        ("diramp", ("device", "modes", 0, "kappa_mhz"), 10 ** 400),
        ("diramp", ("device", "couplings", 1, "target_g_db"), 1e308),
    ], ids=["device", "modes", "mode-entry", "couplings", "coupling-entry", "pair", "sweep",
            "outputs", "declared-pumps", "delta-span-bool", "freq-bool", "kappa-list",
            "freq-null", "target-c-bool", "phase-mapping", "rho-bool", "tolerance-bool",
            "tolerance-negative", "tolerance-nan", "declared-pump-list", "declared-pump-nan",
            "declared-pump-unknown-mode", "target-g-bool", "format-xml", "mode-without-name",
            "target-g-on-conversion", "target-c-on-gain", "pair-null", "pair-int", "pair-list",
            "kappa-beyond-float", "target-g-beyond-float"])
    def test_config_shape(self, config, path, value, circ_cfg, diramp_cfg, tmp_path, capsys):
        raw = yaml.safe_load((circ_cfg if config == "circulator" else diramp_cfg).read_text())
        *parents, key = path
        node = raw
        for p in parents:
            node = node[p]
        node[key] = value
        cfg, out = tmp_path / "bad.cfg", tmp_path / "x.csv"
        cfg.write_text(yaml.safe_dump(raw))
        assert run("sparams", "--config", cfg, "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ConfigError: "), err
        assert not out.exists()

    @settings(max_examples=60)
    @given(name=st.sampled_from(sorted(FUZZ_CONFIGS)), command=st.sampled_from(sorted(FUZZ_ARGS)),
           mutations=st.lists(st.tuples(st.sampled_from(FUZZ_PATHS), st.sampled_from(FUZZ_VALUES)),
                              min_size=1, max_size=2, unique_by=lambda m: m[0]))
    @example(name="diramp", command="sparams",
             mutations=[(("device", "couplings", 0, "pair"), ["a", None])])
    @example(name="circulator", command="tune-circulator",
             mutations=[(("device", "modes", 0, "kappa_mhz"), 10 ** 400)])
    @example(name="diramp", command="threshold",
             mutations=[(("device", "couplings", 1, "target_g_db"), 1e308)])
    def test_mutated_config_ends_on_the_error_path(self, name, command, mutations,
                                                   tmp_path_factory):
        directory = tmp_path_factory.mktemp("mutated")
        cfg = directory / "run.cfg"
        cfg.write_text(yaml.safe_dump(mutated(FUZZ_CONFIGS[name], mutations)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(*FUZZ_ARGS[command], "--config", cfg, "--out", directory / "out")
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2)
        assert lines == [] if code == 0 else len(lines) == 1 and lines[0].startswith("error: ")
        if code:
            assert os.listdir(directory) == ["run.cfg"]

    @pytest.mark.parametrize("text", ["- device\n", "5\n", ""], ids=["list", "number", "empty"])
    def test_config_not_a_mapping(self, text, tmp_path, capsys):
        cfg, out = tmp_path / "bad.cfg", tmp_path / "x.csv"
        cfg.write_text(text)
        assert run("sparams", "--config", cfg, "--out", out) == 1
        assert capsys.readouterr().err == f"error: ConfigError: {cfg}: config must be a mapping\n"
        assert not out.exists()

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_interrupted_write_keeps_the_old_file(self, error, tmp_path):
        # the temporary file goes; the target keeps its earlier bytes
        target = tmp_path / "table.csv"
        target.write_bytes(b"earlier,bytes\n")
        raised = error("stopped after the first chunk")

        def chunks():
            yield "delta_hz\n"
            raise raised

        with pytest.raises(error) as caught:
            cli._atomic_write(str(target), chunks())
        assert caught.value is raised
        assert os.listdir(tmp_path) == ["table.csv"]
        assert target.read_bytes() == b"earlier,bytes\n"

    @pytest.mark.parametrize("section, key, value, error", [
        ("couplings", "kind", "convert", "ValueError"),
        ("modes", "kappa_mhz", "abc", "ValueError"),
        ("couplings", "phase_deg", math.nan, "DeviceValidationError"),
        ("couplings", "phase_deg", math.inf, "DeviceValidationError"),
        ("couplings", "phase_deg", "-inf", "DeviceValidationError"),
        ("modes", "kappa_mhz", math.inf, "DeviceValidationError"),
        ("modes", "freq_ghz", math.inf, "DeviceValidationError"),
    ], ids=["couplings-kind-convert", "modes-kappa_mhz-abc", "couplings-phase_deg-nan",
            "couplings-phase_deg-inf", "couplings-phase_deg--inf", "modes-kappa_mhz-inf",
            "modes-freq_ghz-inf"])
    def test_config_value(self, section, key, value, error, circ_cfg, tmp_path, capsys):
        raw = yaml.safe_load(circ_cfg.read_text())
        raw["device"][section][0][key] = value
        cfg, out = tmp_path / "bad.cfg", tmp_path / "out"
        cfg.write_text(yaml.safe_dump(raw))
        for argv in (["sparams"], ["tune", "--objective", "circulator-cw"]):
            assert run(*argv, "--config", cfg, "--out", out) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {error}: ")
            assert not out.exists()
