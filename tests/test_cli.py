import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from dirac_tunnel import _text, cli, transit
from dirac_tunnel.cli import (
    SCENARIOS,
    main,
    parse_config_text,
    run_scenario,
    validate_config,
)
from dirac_tunnel.errors import ConfigError, ConvergenceError
from dirac_tunnel.kinematics import BarrierConfig
from dirac_tunnel.transit import scan_peaks
from dirac_tunnel.wavepacket import (
    MAX_NODES,
    PacketIntegrator,
    PacketSpec,
    _Nodes,
    filter_stats,
    filtered_distributions,
    momentum_weight,
)

REPO = Path(__file__).resolve().parents[1]
# the CLI's documented default rule size, read from its key table
DEFAULT_NODES = int(cli._KEYS[("numerics", "nodes")][1])


def read_manifest(directory: Path) -> dict:
    return json.loads((directory / "manifest.json").read_text())


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0][2:], header, rows


class TestParseConfigText:
    def test_sections_comments_and_values(self):
        text = (
            "# leading comment\n"
            "[physics]\n"
            "v0 = 2.0   # inline comment\n"
            "\n"
            "[geometry]\n"
            "L = 10, 20\n"
        )
        raw = parse_config_text(text)
        assert raw[("physics", "v0")] == ("2.0", 3)
        assert raw[("geometry", "L")] == ("10, 20", 6)

    def test_malformed_header(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text("[physics\nv0 = 1\n")
        assert excinfo.value.line == 1

    def test_missing_equals(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text("[physics]\nv0 1.0\n")
        assert excinfo.value.line == 2

    def test_assignment_before_section(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text("v0 = 1.0\n")
        assert excinfo.value.line == 1

    def test_duplicate_key(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text("[physics]\nv0 = 1\nv0 = 2\n")
        assert excinfo.value.line == 3
        assert "duplicate" in str(excinfo.value)

    def test_empty_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("[physics]\n= 1\n")


# one valid value per config key, unlike its default for `custom`, with the
# field of its section it must set and the value that field must then hold
KEY_FIELDS = {
    ("physics", "v0"): ("1.2", "v0", 1.2),
    ("physics", "mass"): ("0.9", "mass", 0.9),
    ("physics", "p0"): ("0.8", "p0", 0.8),
    ("physics", "d"): ("12", "d", 12.0),
    ("geometry", "L"): ("5, 7", "widths", (5.0, 7.0)),
    ("geometry", "D"): ("40", "detectors", (40.0,)),
    ("geometry", "offset"): ("1.5", "offset", 1.5),
    ("numerics", "nodes"): ("1024", "nodes", 1024),
    ("numerics", "tolerance"): ("1e-9", "tolerance", 1e-9),
    ("numerics", "t_start"): ("-90", "t_start", -90.0),
    ("numerics", "t_stop"): ("90", "t_stop", 90.0),
    ("numerics", "t_step"): ("0.5", "t_step", 0.5),
    ("numerics", "peak_floor"): ("1e-5", "peak_floor", 1e-5),
    ("numerics", "curve_samples"): ("256", "curve_samples", 256),
    ("output", "directory"): ("elsewhere", "directory", "elsewhere"),
    ("output", "format"): ("JSON", "format", "json"),
}


def config_fields(config) -> dict:
    """``{(section, field): value}`` over the four sections of a ScenarioConfig."""
    sections = dataclasses.asdict(config)
    del sections["scenario"]
    return {(section, name): value
            for section, params in sections.items() for name, value in params.items()}


class TestValidateConfig:
    def test_custom_defaults_are_canonical(self):
        config = validate_config({}, "custom")
        assert config.physics.v0 == 1.0
        assert config.physics.mass == 1.0
        assert config.physics.p0 == pytest.approx(math.sqrt(3.0) / 2.0,
                                                  rel=1e-12)
        assert config.physics.d == 10.0
        assert config.geometry.widths == (10.0,)
        assert config.geometry.detectors == ()
        assert config.numerics.nodes == DEFAULT_NODES
        assert config.numerics.tolerance == 1e-8
        assert config.output.format == "csv"

    def test_scenario_defaults(self):
        table1 = validate_config({}, "table1")
        assert table1.geometry.widths == (
            10.0, 15.0, 20.0, 25.0, 30.0, 40.0, 50.0, 75.0, 100.0
        )
        assert table1.numerics.tolerance == 1e-14
        assert table1.numerics.peak_floor == 1e-13

        transit = validate_config({}, "fig4_transit")
        assert transit.geometry.detectors == (40.0,)
        assert transit.numerics.t_stop == 200.0
        assert transit.geometry.widths == (0.0, 10.0, 20.0, 30.0)

    def test_precedence_file_set_out(self, tmp_path):
        raw = parse_config_text("[numerics]\nnodes = 256\n[output]\ndirectory = from_file\n")
        config = validate_config(
            raw,
            "custom",
            overrides={("numerics", "nodes"): "128", ("output", "directory"): str(tmp_path)},
        )
        assert config.numerics.nodes == 128
        assert config.output.directory == str(tmp_path)

    def test_out_beats_set_which_beats_the_file(self, tmp_path, monkeypatch):
        # main passes --out as output.directory after the --set items
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("[output]\ndirectory = from_file\n")
        small = ["run", "--scenario", "fig1_filter", "--config", "run.cfg",
                 "--set", "geometry.L=0", "--set", "numerics.curve_samples=8"]
        runs = [
            ([], "from_file"),
            (["--set", "output.directory=from_set"], "from_set"),
            # wherever --out stands on the command line
            (["--out", "from_out", "--set", "output.directory=from_set"], "from_out"),
        ]
        for extra, directory in runs:
            assert main([*small, *extra]) == 0
            manifest = read_manifest(tmp_path / directory)
            assert manifest["parameters"]["output"]["directory"] == directory
        assert sorted(path.name for path in tmp_path.iterdir() if path.is_dir()) == [
            "from_file", "from_out", "from_set"]

    def test_unknown_key_reports_line(self):
        raw = parse_config_text("[physics]\nspeed = 3\n")
        with pytest.raises(ConfigError) as excinfo:
            validate_config(raw, "custom")
        assert "unknown key physics.speed" in str(excinfo.value)
        assert excinfo.value.line == 2

    def test_unknown_key_in_set(self):
        with pytest.raises(ConfigError) as excinfo:
            validate_config({}, "custom", overrides={("physics", "c"): "1"})
        assert "--set" in str(excinfo.value)

    def test_unsupported_regime_rejected(self):
        raw = parse_config_text("[physics]\nv0 = 0.5\n")
        with pytest.raises(ConfigError) as excinfo:
            validate_config(raw, "custom")
        assert "unsupported regime" in str(excinfo.value)

    def test_center_momentum_outside_window(self):
        raw = parse_config_text("[physics]\np0 = 1.9\n")
        with pytest.raises(ConfigError):
            validate_config(raw, "custom")

    def test_bad_number_reports_line(self):
        raw = parse_config_text("[physics]\nv0 = abc\n")
        with pytest.raises(ConfigError) as excinfo:
            validate_config(raw, "custom")
        assert excinfo.value.line == 2
        assert "not a number" in str(excinfo.value)

    @pytest.mark.parametrize("text, overrides, message", [
        ("[physics]\nv0 = abc\n", None, "line 2: physics.v0: not a number: 'abc'"),
        ("[physics]\n\nmass = inf\n", None, "line 3: physics.mass: must be finite, got 'inf'"),
        ("[numerics]\ntolerance = 1e400\n", None,
         "line 2: numerics.tolerance: must be finite, got '1e400'"),
        ("[numerics]\nnodes = 1.5\n", None, "line 2: numerics.nodes: not an integer: '1.5'"),
        ("[geometry]\nL = 1, x\n", None, "line 2: geometry.L: not a number: 'x'"),
        ("[geometry]\nD = 40, -inf\n", None, "line 2: geometry.D: must be finite, got '-inf'"),
        ("", {("physics", "v0"): "abc"}, "physics.v0: not a number: 'abc'"),
        ("", {("numerics", "nodes"): "1.5"}, "numerics.nodes: not an integer: '1.5'"),
        ("", {("geometry", "L"): "1, x"}, "geometry.L: not a number: 'x'"),
        ("[output]\nformat = xml\n", None, "line 2: output.format must be csv or json, got 'xml'"),
        ("", {("output", "format"): "XML"}, "output.format must be csv or json, got 'XML'"),
    ])
    def test_conversion_errors_read_in_full(self, text, overrides, message):
        raw = parse_config_text(text)
        with pytest.raises(ConfigError) as excinfo:
            validate_config(raw, "custom", overrides=overrides)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("text", [
        "[geometry]\nL = ,\n",
        "[numerics]\nnodes = 100\n",
        "[numerics]\ntolerance = 1\n",
        "[numerics]\npeak_floor = 0\n",
        "[numerics]\ncurve_samples = 1000001\n",
        "[output]\nformat = yaml\n",
    ], ids=["geometry.L", "numerics.nodes", "numerics.tolerance", "numerics.peak_floor",
            "numerics.curve_samples", "output.format"])
    def test_single_key_bound_names_its_line(self, request, text):
        raw = parse_config_text(text)
        with pytest.raises(ConfigError) as excinfo:
            validate_config(raw, "custom")
        assert excinfo.value.line == 2
        assert str(excinfo.value).startswith(f"line 2: {request.node.callspec.id} must ")

    def test_transit_needs_a_detector(self):
        overrides = {("geometry", "D"): ""}
        with pytest.raises(ConfigError, match="geometry.D"):
            validate_config({}, "fig4_transit", overrides=overrides)
        assert validate_config({}, "custom", overrides=overrides).geometry.detectors == ()

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            validate_config({}, "fig9")

    @pytest.mark.parametrize("text", [
        "[geometry]\nL = ,\n",
        "[geometry]\nL = -5\n",
        "[geometry]\nD = 5\n",          # before the downstream face at 10
        "[numerics]\nnodes = 10\n",
        "[numerics]\nnodes = 100\n",       # not whole 64-point panels
        "[numerics]\ntolerance = 0\n",
        "[numerics]\ntolerance = 2\n",
        "[numerics]\nt_start = 5\nt_stop = 5\n",
        "[numerics]\nt_step = 0\n",
        "[numerics]\nt_start = 0\nt_stop = 0.3\nt_step = 0.25\n",  # two scan steps
        "[numerics]\npeak_floor = 0\n",
        "[numerics]\ncurve_samples = 1\n",
        "[output]\nformat = yaml\n",
        "[geometry]\nL = 1, 1.0000001\n",  # both tagged L1
        "[geometry]\nL = 10, 10\n",
    ])
    def test_bounds_rejected(self, text):
        raw = parse_config_text(text)
        with pytest.raises(ConfigError):
            validate_config(raw, "custom")

    @pytest.mark.parametrize("path", list(KEY_FIELDS), ids=".".join)
    def test_each_key_sets_only_its_own_field(self, path):
        value, field, expected = KEY_FIELDS[path]
        base = config_fields(validate_config({}, "custom"))
        changed = config_fields(validate_config({}, "custom", overrides={path: value}))
        assert [name for name in base if base[name] != changed[name]] == [(path[0], field)]
        assert changed[(path[0], field)] == expected

    def test_every_field_has_a_key(self):
        fields = config_fields(validate_config({}, "custom"))
        keyed = [(path[0], field) for path, (_, field, _) in KEY_FIELDS.items()]
        assert sorted(fields) == sorted(keyed)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_shared_width_tag_matters_only_for_per_width_files(self, scenario):
        overrides = {("geometry", "L"): "1, 1.0000001"}
        if scenario in ("fig1_filter", "fig2_peaks", "custom"):
            with pytest.raises(ConfigError, match=r"widths 1\.0 and 1\.0000001 .* L1$"):
                validate_config({}, scenario, overrides=overrides)
        else:
            config = validate_config({}, scenario, overrides=overrides)
            assert config.geometry.widths == (1.0, 1.0000001)


class TestMainErrors:
    def test_bad_set_item(self, tmp_path, capsys):
        code = main(["run", "--scenario", "custom", "--out", str(tmp_path),
                     "--set", "badformat"])
        assert code == 2
        assert "--set" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        code = main(["run", "--scenario", "custom", "--out", str(tmp_path),
                     "--config", str(tmp_path / "missing.cfg")])
        assert code == 2

    def test_config_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"[physics]\nv0 = 1.0 # \xe9\n")
        code = main(["run", "--scenario", "custom", "--out", str(tmp_path / "out"),
                     "--config", str(path)])
        assert code == 2
        assert "error: cannot read config: " in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, overrides, field", [
        ("custom", ["physics.d=1e155"], "packet width d"),
        ("fig1_filter", ["physics.v0=1e155", "physics.mass=1e155"], "v0=1e+155"),
        ("fig3_times", ["physics.v0=1e155", "physics.mass=1e155"], "v0=1e+155"),
        ("fig1_filter", ["physics.v0=2.47e100", "physics.mass=2.47e100", "physics.p0=8e99",
                         "physics.d=7.5e79", "geometry.L=0,1"],
         "(p_max - p_min)^2 d^2 finite, got 7.5e+79"),
    ], ids=["custom-d", "fig1_filter-v0_mass", "fig3_times-v0_mass", "fig1_filter-d_window"])
    def test_physics_that_overflows_exits_two(self, tmp_path, scenario, overrides, field):
        # d^2, (p_max - p_min)^2 d^2 or v0 (v0 + 2 mass) beyond the float range: invalid configuration,
        # not a crash or a numeric failure
        argv = [sys.executable, "-W", "error", "-m", "dirac_tunnel", "run",
                "--scenario", scenario, "--out", str(tmp_path)]
        for override in overrides:
            argv += ["--set", override]
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        result = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=str(REPO))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert field in result.stderr

    @pytest.mark.parametrize("scenario, overrides, code, named", [
        ("fig3_times", ["geometry.L=9e307"], 2, "width=9e+307"),
        ("fig3_times", ["physics.v0=10", "physics.p0=10.5", "geometry.L=2e307"], 2,
         "width=2e+307: max(2, v0)"),
        ("fig3_times", ["geometry.offset=1e308", "geometry.L=8e307"], 2, "offset=1e+308"),
        ("custom", ["geometry.offset=1e308", "geometry.L=8e307", "geometry.D=1e308"], 2,
         "offset=1e+308"),
        ("fig4_transit", ["physics.mass=10", "physics.v0=10", "physics.p0=10",
                          "geometry.D=1.7e308"], 2, "detector 1.7e+308"),
        ("fig4_transit", ["geometry.D=1.7e308"], 2, "detector 1.7e+308"),
        # 2 mass width = 1.6e308 is finite: the run starts and finds no peak
        ("fig3_times", ["geometry.L=8e307"], 3, "times L=7.9999999999999999e+307"),
    ], ids=["L", "v0-L", "offset-L", "offset-L-D", "v0_mass-D", "D", "L-under"])
    def test_positions_exit_two_only_when_they_overflow(
        self, tmp_path, scenario, overrides, code, named
    ):
        argv = [sys.executable, "-W", "error", "-m", "dirac_tunnel", "run",
                "--scenario", scenario, "--out", str(tmp_path)]
        for override in overrides:
            argv += ["--set", override]
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        result = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=str(REPO))
        assert result.returncode == code
        assert "Traceback" not in result.stderr
        assert named in result.stderr

    def test_negative_width_is_refused_by_its_barrier(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("[geometry]\nL = -5\n")
        code = main(["run", "--scenario", "custom", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "error: width must be non-negative, got -5.0\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--scenario", "fig3_times", "--set", "geometry.L=0,4"],
        ["sweep", "--L", "0:8:4"],
    ], ids=["run", "sweep"])
    def test_times_refuse_a_zero_width(self, tmp_path, capsys, argv):
        # no tunneling time without a barrier: invalid configuration (exit 2),
        # not a numeric failure of the item (exit 3)
        assert main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: geometry.L must list only positive widths for fig3_times, got 0\n"
        assert not (tmp_path / "manifest.json").exists()

    def test_sweep_of_positive_widths_runs(self, tmp_path):
        assert main(["sweep", "--L", "4:12:4", "--out", str(tmp_path)]) == 0
        assert [row[0] for row in read_csv(tmp_path / "times.csv")[2]] == ["4", "8", "12"]

    @pytest.mark.parametrize("scenario", ["fig1_filter", "fig2_peaks", "fig4_transit", "table1",
                                          "custom"])
    def test_other_scenarios_accept_a_zero_width(self, scenario):
        config = validate_config({}, scenario, overrides={("geometry", "L"): "0, 10"})
        assert config.geometry.widths == (0.0, 10.0)

    def test_invalid_config_value(self, tmp_path):
        code = main(["run", "--scenario", "custom", "--out", str(tmp_path),
                     "--set", "numerics.nodes=10"])
        assert code == 2

    def test_start_nodes_the_gate_cannot_double(self, tmp_path, capsys):
        for scenario in SCENARIOS:
            out = tmp_path / scenario
            code = main(["run", "--scenario", scenario, "--out", str(out),
                         "--set", f"numerics.nodes={MAX_NODES + 64}"])
            assert code == 2
            assert "numerics.nodes" in capsys.readouterr().err
            assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_node_ceiling_applies_to_gated_scenarios(self, scenario):
        # one range for every scenario: a multiple of 64 from 64 to MAX_NODES
        for nodes in (64, MAX_NODES):
            overrides = {("numerics", "nodes"): str(nodes)}
            assert validate_config({}, scenario, overrides=overrides)
        overrides = {("numerics", "nodes"): str(MAX_NODES + 64)}
        with pytest.raises(ConfigError, match="numerics.nodes"):
            validate_config({}, scenario, overrides=overrides)

    @pytest.mark.parametrize("tol", [1e-8, 1e-14])
    def test_accepted_nodes_never_raise_value_error_once_built(self, monkeypatch, tol):
        # The largest start the CLI accepts builds its rule, after which the
        # gate compares it with its merged rule and keeps it or runs out of
        # nodes (ConvergenceError), never refuses the start.  The probe is the
        # transmitted peak 3e4 behind an L = 10 barrier, where p z and E t are
        # about 3e4 and 6e4: the two rules agree to 1.4e-12, within 1e-8 but
        # not 1e-14.
        nodes = MAX_NODES
        cfg = BarrierConfig(v0=1.0, width=10.0)
        spec = PacketSpec.for_barrier(cfg, p0=math.sqrt(3.0) / 2.0, d=10.0)
        assert validate_config({}, "table1", overrides={("numerics", "nodes"): str(nodes)})
        tables = []
        init = PacketIntegrator.__init__

        def spy(integrator, *args, **kwargs):
            init(integrator, *args, **kwargs)
            tables.append(integrator.nodes)

        monkeypatch.setattr(PacketIntegrator, "__init__", spy)
        window = (43225.0, 43325.0)
        if tol == 1e-8:
            records = scan_peaks(3e4, window, spec, cfg, nodes=nodes, tol=tol)
            assert records
        else:
            # at L = 10 the last panel is not graded: the rule has MAX_NODES nodes
            message = f"the largest rule compared has {MAX_NODES} nodes"
            with pytest.raises(ConvergenceError, match=message):
                scan_peaks(3e4, window, spec, cfg, nodes=nodes, tol=tol)
        # the rule kept and its merged rule, no other
        assert tables == [MAX_NODES, MAX_NODES // 2]

    @pytest.mark.parametrize("spec", ["10:5:1", "10:20", "a:b:c", "0:10:0", "0:10:nan",
                                      "nan:10:1", "0:inf:1", "4:8:inf"])
    def test_bad_sweep_ranges(self, tmp_path, spec):
        assert main(["sweep", "--L", spec, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("spec", ["0:10:nan", "nan:10:1", "0:inf:1", "4:8:inf"])
    def test_non_finite_sweep_range_names_the_option(self, tmp_path, capsys, spec):
        assert main(["sweep", "--L", spec, "--out", str(tmp_path)]) == 2
        assert "error: --L expects finite start:stop:step" in capsys.readouterr().err

    @staticmethod
    def unreachable(*args, **kwargs):
        raise AssertionError("an oversized axis reached its allocation")

    def test_oversized_time_grid_is_refused_before_it_is_built(self, tmp_path, capsys, monkeypatch):
        # scan_grid counts the grid before np.arange would build it
        monkeypatch.setattr(transit.np, "arange", self.unreachable)
        monkeypatch.setattr(cli, "run_scenario", self.unreachable)
        code = main(["run", "--scenario", "fig3_times", "--set", "numerics.t_step=1e-12",
                     "--out", str(tmp_path)])
        assert code == 2
        message = ("numerics.t_start, t_stop, t_step: scan step 1e-12 makes 2e+14 grid points, "
                   "over the limit of 1000000")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_accepted_time_grid_is_counted_not_built(self, monkeypatch, scenario):
        monkeypatch.setattr(transit.np, "arange", self.unreachable)
        assert validate_config({}, scenario).numerics.t_step == 0.25

    def test_oversized_filter_curve_is_refused_before_the_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_scenario", self.unreachable)
        code = main(["run", "--scenario", "fig1_filter", "--set",
                     "numerics.curve_samples=100000000000", "--out", str(tmp_path)])
        assert code == 2
        message = "numerics.curve_samples must be from 2 to 1000000, got '100000000000'"
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("spec, count", [("0:1e12:1", "1e+12"), ("0:1:5e-324", "inf")])
    def test_oversized_sweep_is_refused_before_its_widths_are_listed(
        self, tmp_path, capsys, monkeypatch, spec, count
    ):
        # range() in cli would start listing the widths
        monkeypatch.setattr(cli, "range", self.unreachable, raising=False)
        monkeypatch.setattr(cli, "run_scenario", self.unreachable)
        assert main(["sweep", "--L", spec, "--out", str(tmp_path)]) == 2
        message = f"--L: {count} points exceed the limit of 1000000"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_axes_up_to_the_limit_are_accepted(self):
        limit = cli._MAX_POINTS
        grid = {("numerics", "t_start"): "0", ("numerics", "t_step"): "0.25"}
        at = validate_config({}, "fig1_filter", overrides={
            **grid, ("numerics", "t_stop"): repr(0.25 * (limit - 1)),
            ("numerics", "curve_samples"): str(limit)})
        assert at.numerics.curve_samples == limit
        refused = [
            ("t_stop", repr(0.25 * limit), f"grid points, over the limit of {limit}$"),
            ("curve_samples", str(limit + 1), f"must be from 2 to {limit}, got '{limit + 1}'$"),
        ]
        for key, value, message in refused:
            with pytest.raises(ConfigError, match=message):
                validate_config({}, "fig1_filter", overrides={**grid, ("numerics", key): value})
        assert cli._parse_sweep_range(f"0:{limit - 1}:1").count(",") == limit - 1
        with pytest.raises(ConfigError, match=f"points exceed the limit of {limit}$"):
            cli._parse_sweep_range(f"0:{limit}:1")

    def test_axes_count_the_points_they_would_build(self):
        # a fractional end inside the last step adds no point: 1,000,000 points
        limit = cli._MAX_POINTS
        grid = {("numerics", "t_start"): "0", ("numerics", "t_stop"): "999999.5",
                ("numerics", "t_step"): "1"}
        assert validate_config({}, "fig3_times", overrides=grid).numerics.t_stop == 999999.5
        assert cli._parse_sweep_range("1:1000000.5:1").count(",") == limit - 1
        # one point more is refused, with a count that reads over the limit
        with pytest.raises(ConfigError, match=f"^--L: 1000001 points exceed the limit of {limit}$"):
            cli._parse_sweep_range("1:1000001:1")

    def test_unwritable_output_directory(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["run", "--scenario", "fig1_filter", "--out", str(blocker / "sub"),
                     "--set", "geometry.L=0"])
        assert code == 2
        assert "error: cannot write outputs: " in capsys.readouterr().err

    def test_zero_and_minus_zero_share_a_tag(self, tmp_path, capsys):
        code = main(["run", "--scenario", "fig1_filter", "--out", str(tmp_path),
                     "--set", "geometry.L=0, -0"])
        assert code == 2
        assert "would both write files tagged L0" in capsys.readouterr().err

    def test_unknown_cli_scenario_exits_nonzero(self, tmp_path, capsys):
        code = main(["run", "--scenario", "fig9", "--out", str(tmp_path)])
        assert code != 0

    def test_empty_section_name_exits_two(self, tmp_path, capsys):
        path = tmp_path / "empty.cfg"
        path.write_text("[]\nv0 = 1.0\n")
        out = tmp_path / "out"
        code = main(["run", "--scenario", "custom", "--out", str(out), "--config", str(path)])
        assert code == 2
        # the message alone: no traceback
        assert capsys.readouterr().err == "error: line 1: empty section name\n"
        assert not out.exists()

    def test_detector_whose_p_max_product_overflows_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--scenario", "fig4_transit", "--out", str(out),
                     "--set", "geometry.D=1.5e308"])
        assert code == 2
        message = "error: geometry.D: detector 1.5e+308: p_max |D| overflows\n"
        assert capsys.readouterr().err == message
        assert not out.exists()


class TestNodeTables:
    """The tables of node factors each default scenario builds, counted in process.

    Per scenario: the packet rules (``PacketIntegrator``) and their nodes in
    all, the tables on a curve's momenta (``fig1_filter``'s hoist, one per
    run) and the filter statistics' rule tables.  The counts
    are those of the 512-node default with no gate escalation, and are the
    same under the SkylakeX, Sandybridge, Haswell, Nehalem and Prescott BLAS
    kernels and on 1 or 2 BLAS threads.
    """

    EXPECTED = {
        "fig1_filter": dict(integrators=0, integrator_nodes=0, momenta=1, filter_rules=5),
        # per width: the kept rule, its merged rule and the curve's rule
        "fig2_peaks": dict(integrators=15, integrator_nodes=9600, momenta=0, filter_rules=0),
        "fig3_times": dict(integrators=50, integrator_nodes=32064, momenta=0, filter_rules=0),
        "fig4_transit": dict(integrators=8, integrator_nodes=4224, momenta=0, filter_rules=4),
        "table1": dict(integrators=18, integrator_nodes=11136, momenta=0, filter_rules=0),
        "custom": dict(integrators=2, integrator_nodes=1152, momenta=1, filter_rules=1),
    }

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_default_scenario_tables(self, tmp_path, monkeypatch, scenario):
        counts = dict(integrators=0, integrator_nodes=0, momenta=0, filter_rules=0)
        inside = []
        integrator_init, nodes_init = PacketIntegrator.__init__, _Nodes.__init__

        def integrator_spy(integrator, *args, **kwargs):
            inside.append(True)
            try:
                integrator_init(integrator, *args, **kwargs)
            finally:
                inside.pop()
            counts["integrators"] += 1
            counts["integrator_nodes"] += integrator.nodes

        def nodes_spy(table, spec, cfg, p=None, *, u=None):
            nodes_init(table, spec, cfg, p, u=u)
            # an integrator's own table is counted with the integrator
            if not inside:
                counts["momenta" if u is None else "filter_rules"] += 1

        monkeypatch.setattr(PacketIntegrator, "__init__", integrator_spy)
        monkeypatch.setattr(_Nodes, "__init__", nodes_spy)
        assert main(["run", "--scenario", scenario, "--out", str(tmp_path)]) == 0
        assert counts == self.EXPECTED[scenario]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("table1")
    code = main([
        "run", "--scenario", "table1", "--out", str(directory),
        "--set", "geometry.L=10, 15",
    ])
    assert code == 0
    return directory


class TestTable1Run:
    def test_expected_files(self, run_dir):
        for name in ("peaks.csv", "plot.gp", "manifest.json"):
            assert (run_dir / name).is_file()

    def test_header_comment_names_parameters(self, run_dir):
        comment, header, rows = read_csv(run_dir / "peaks.csv")
        for field in ("V0=", "m=", "p0=", "d=", "nodes="):
            assert field in comment
        assert header == ["L", "kind", "t_peak", "density"]

    def test_rows_carry_both_widths_and_central_peaks(self, run_dir):
        _, _, rows = read_csv(run_dir / "peaks.csv")
        widths = {row[0] for row in rows}
        assert widths == {"10", "15"}
        kinds = {row[1] for row in rows}
        assert kinds <= {"central_max", "secondary_max", "minimum"}
        centrals = {
            row[0]: float(row[2]) for row in rows if row[1] == "central_max"
        }
        assert centrals["10"] == pytest.approx(2.0466054405481886, abs=5e-3)
        # all numeric cells round-trip through repr-faithful formatting
        for row in rows:
            float(row[2])
            float(row[3])

    def test_manifest_checksums_match(self, run_dir):
        import hashlib

        manifest = read_manifest(run_dir)
        assert manifest["scenario"] == "table1"
        assert manifest["failures"] == []
        names = [out["file"] for out in manifest["outputs"]]
        assert names == sorted(names)
        for out in manifest["outputs"]:
            data = (run_dir / out["file"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == out["sha256"]
            assert len(data) == out["bytes"]

    def test_rerun_is_byte_identical(self, run_dir):
        before = {
            p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()
        }
        code = main([
            "run", "--scenario", "table1", "--out", str(run_dir),
            "--set", "geometry.L=10, 15",
        ])
        assert code == 0
        after = {
            p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()
        }
        assert before == after


class TestSweep:
    def test_width_ladder(self, tmp_path):
        code = main(["sweep", "--L", "20:30:5", "--out", str(tmp_path)])
        assert code == 0
        _, header, rows = read_csv(tmp_path / "times.csv")
        assert header == ["L", "tau", "v", "tau_opaque", "v_opaque"]
        assert [row[0] for row in rows] == ["20", "25", "30"]
        for row in rows:
            assert float(row[4]) == pytest.approx(2.598076211353316, rel=1e-12)
            # numeric emergence and the opaque closed form live on the same
            # scale for these widths
            assert float(row[1]) == pytest.approx(float(row[3]), rel=1.0)

    @pytest.mark.parametrize("spec, widths", [
        ("100000:100001:0.5", (100000.0, 100000.5, 100001.0)),
        ("1.0000001:3:1", (1.0000001, 1.0000001 + 1.0)),
    ])
    def test_widths_are_passed_exactly(self, spec, widths):
        # six significant digits ran 100000 twice and never 100000.5
        overrides = {("geometry", "L"): cli._parse_sweep_range(spec)}
        config = validate_config({}, "fig3_times", overrides=overrides)
        assert config.geometry.widths == widths


class TestThinBarriers:
    def test_opaque_time_keeps_its_digits(self, tmp_path):
        # the closed form on exact rational moments; the upward recurrence of the
        # incomplete gamma wrote -0.0091451, 2.4451086 and 2.5316690
        assert main(["sweep", "--L", "0.01:0.05:0.02", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "times.csv")[2]
        closed = (2.5267874821234386, 2.528550577178387, 2.530317658332596)
        assert [float(row[3]) for row in rows] == pytest.approx(closed, rel=1e-12, abs=0)

    @pytest.mark.parametrize("scenario, width", [
        *((s, "1e-200") for s in ("fig1_filter", "fig2_peaks", "fig3_times", "fig4_transit")),
        ("fig3_times", "1e-60"),
    ])
    def test_tiny_widths_run(self, tmp_path, scenario, width):
        # below L = 1e-162 the graded rule divided by c^2 L^2 = 0, and below 2e-47
        # fig3_times divided by L^(n + 1) = 0: each exited 1 with a traceback
        argv = ["run", "--scenario", scenario, "--set", f"geometry.L={width}"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        assert read_manifest(tmp_path)["failures"] == []


class TestJsonFormat:
    def test_filter_scenario_as_json(self, tmp_path):
        code = main([
            "run", "--scenario", "fig1_filter", "--out", str(tmp_path),
            "--set", "geometry.L=0", "--set", "output.format=json",
            "--set", "numerics.curve_samples=16",
        ])
        assert code == 0
        assert not (tmp_path / "plot.gp").exists()
        payload = json.loads((tmp_path / "filter_L0.json").read_text())
        assert payload["columns"] == ["p", "weight", "g_t", "f_t"]
        assert len(payload["rows"]) == 16
        stats = json.loads((tmp_path / "filter_stats.json").read_text())
        assert stats["columns"][0] == "L"


def cell(value) -> str:
    return format(float(value), ".17g")


def read_table(path: Path, fmt: str):
    """Comment, header and rows of a table written as CSV or JSON."""
    if fmt == "csv":
        comment, header, rows = read_csv(path.with_suffix(".csv"))
        lines = [f"# {comment}", ",".join(header), *map(",".join, rows)]
        assert path.with_suffix(".csv").read_text() == "\n".join(lines) + "\n"
        return comment, header, rows
    payload = json.loads(path.with_suffix(".json").read_text())
    return payload["comment"], payload["columns"], payload["rows"]


class TestFilterBytes:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_every_cell_is_the_library_value(self, tmp_path, fmt):
        overrides = {("geometry", "L"): "0, 37.5", ("numerics", "curve_samples"): "64",
                     ("output", "format"): fmt}
        argv = ["run", "--scenario", "fig1_filter", "--out", str(tmp_path)]
        for (section, key), value in overrides.items():
            argv += ["--set", f"{section}.{key}={value}"]
        assert main(argv) == 0
        config = validate_config({}, "fig1_filter", overrides=overrides)
        spec = cli._packet(config)
        p_axis = np.linspace(spec.p_min, spec.p_max, 64)
        weight = momentum_weight(p_axis, spec)
        physics = f"V0=1 m=1 p0={cell(math.sqrt(3.0) / 2.0)} d=10 nodes={DEFAULT_NODES}"
        stats_rows = []
        for width, tag in ((0.0, "0"), (37.5, "37p5")):
            cfg = cli._barrier(config, width)
            g_t, f_t = filtered_distributions(p_axis, spec, cfg)
            comment, header, rows = read_table(tmp_path / f"filter_L{tag}", fmt)
            assert comment == physics.replace(" p0=", f" L={cell(width)} p0=")
            assert header == ["p", "weight", "g_t", "f_t"]
            assert rows == [list(map(cell, row)) for row in zip(p_axis, weight, g_t, f_t)]
            stats = filter_stats(spec, cfg, nodes=DEFAULT_NODES)
            ratio = stats.p_mean / (stats.e_mean + 1.0)
            stats_rows.append([cell(width), *map(cell, dataclasses.astuple(stats)), cell(ratio)])
        comment, header, rows = read_table(tmp_path / "filter_stats", fmt)
        assert comment == physics
        assert header == ["L", "p_mean", "e_mean", "v_out", "transmitted_weight",
                          "component_ratio"]
        assert rows == stats_rows

    def test_minus_zero_width_is_width_zero(self, tmp_path):
        code = main(["run", "--scenario", "fig1_filter", "--out", str(tmp_path),
                     "--set", "geometry.L=-0", "--set", "numerics.curve_samples=8"])
        assert code == 0
        assert [path.name for path in tmp_path.glob("filter_L*")] == ["filter_L0.csv"]
        comment, _, _ = read_csv(tmp_path / "filter_L0.csv")
        assert " L=0 " in comment
        _, _, rows = read_csv(tmp_path / "filter_stats.csv")
        assert [row[0] for row in rows] == ["0"]


class TestFilterRowBlock:
    """``_filter`` writes every width's curve through one row block that it
    reuses: the p and weight cells once, then each width's g_t and f_t."""

    @staticmethod
    def run(directory, widths, fmt):
        argv = ["run", "--scenario", "fig1_filter", "--out", str(directory),
                "--set", "geometry.L=" + ", ".join(map(repr, widths)),
                "--set", "numerics.curve_samples=64", "--set", f"output.format={fmt}"]
        assert main(argv) == 0
        return {path.name: path.read_bytes() for path in directory.glob("filter_L*")}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reused_block_leaks_no_stale_cells(self, tmp_path, fmt):
        # widths out of order, width 0 among them: each file as its width alone writes it
        widths = [37.5, 0.0, 100.0, 0.5]
        together = self.run(tmp_path / "together", widths, fmt)
        assert len(together) == len(widths)
        for width in widths:
            alone = self.run(tmp_path / f"alone_{width}", [width], fmt)
            name = f"filter_L{cli._width_tag(width)}.{fmt}"
            assert alone == {name: together[name]}

    def test_each_table_reads_as_its_own_rows(self):
        # short cells after long ones and back; nan and 1e300 are written by format
        rng = np.random.default_rng(7)
        shared = [np.linspace(0.0, 1.0, 5), -rng.random(5)]
        tables = [rng.random((2, 5)), np.zeros((2, 5)), [np.full(5, 1e300), -rng.random(5)],
                  [np.full(5, np.nan), rng.random(5) * 1e-200]]
        texts = list(_text._row_texts(shared, tables, 2))
        assert [bytes(text) for text in texts] == [cli._text_rows([*shared, *t]) for t in tables]

    def test_shared_columns_are_converted_once(self, tmp_path, monkeypatch):
        calls, cells = [], _text._cells

        def spy(values):
            calls.append(len(values))
            return cells(values)

        monkeypatch.setattr(_text, "_cells", spy)
        widths = [0.0, 5.0, 20.0]
        assert len(self.run(tmp_path, widths, "csv")) == len(widths)
        # p and weight once for the run, g_t and f_t per width, then filter_stats' six
        assert calls == [64] * (2 + 2 * len(widths)) + [len(widths)] * 6


class TestTableCells:
    @staticmethod
    def emitter(tmp_path, fmt="csv"):
        overrides = {("output", "format"): fmt, ("output", "directory"): str(tmp_path)}
        return cli._Emitter(validate_config({}, "custom", overrides=overrides))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_mixed_columns_follow_the_cell_rules(self, tmp_path, fmt):
        columns = [
            [True, False, True],
            [np.True_, np.False_, np.bool_(True)],
            np.array([False, True, False]),
            [np.int64(3), np.int64(-4), 7],
            ["central_max", "minimum", "secondary_max"],
            np.array([-0.0, math.nan, math.inf]),
            [-0.0, np.float64(-math.inf), np.nan],
        ]
        header = [f"c{i}" for i in range(len(columns))]
        emitter = self.emitter(tmp_path, fmt)
        emitter.table("mixed.csv", header, columns)
        _, got_header, rows = read_table(tmp_path / "mixed", fmt)
        assert got_header == header
        assert rows == [
            ["1", "1", "0", "3", "central_max", "-0", "-0"],
            ["0", "0", "1", "-4", "minimum", "nan", "-inf"],
            ["1", "1", "0", "7", "secondary_max", "inf", "nan"],
        ]
        # a float column of edge values prints as format(v, ".17g")
        edges = np.array([5e-324, 1e308, 0.1, -1e-300, 2.0**53 + 2])
        emitter.table("edges.csv", ["x"], [edges])
        _, _, rows = read_table(tmp_path / "edges", fmt)
        assert rows == [[cell(v)] for v in edges]

    def test_rows_transposed_from_tuples(self, tmp_path):
        rows = [(10.0, "central_max", np.float64(2.5), np.True_), (15, "minimum", 1e-300, False)]
        self.emitter(tmp_path).table("rows.csv", ["L", "kind", "t", "flag"], zip(*rows))
        _, _, got = read_csv(tmp_path / "rows.csv")
        assert got == [["10", "central_max", "2.5", "1"], ["15", "minimum", cell(1e-300), "0"]]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_without_rows_keeps_its_header(self, tmp_path, fmt):
        emitter = self.emitter(tmp_path, fmt)
        emitter.table("empty.csv", ["L", "kind"], zip(*[]))
        comment = emitter._comment()
        if fmt == "csv":
            assert (tmp_path / "empty.csv").read_text() == f"# {comment}\nL,kind\n"
        else:
            payload = json.loads((tmp_path / "empty.json").read_text())
            assert payload == {"comment": comment, "columns": ["L", "kind"], "rows": []}

    def test_csv_file_is_the_row_bytes_as_built(self, tmp_path):
        columns = [np.array([1e-5, 0.25, -3.0]), ["central_max", "minimum", "secondary_max"]]
        body = cli._text_rows(columns)
        assert isinstance(body, bytes)
        emitter = self.emitter(tmp_path)
        emitter.table("rows.csv", ["t", "kind"], columns, 10.0)
        data = (tmp_path / "rows.csv").read_bytes()
        assert data == b"# " + emitter._comment(10.0).encode() + b"\nt,kind\n" + body
        [entry] = emitter.manifest()["outputs"]
        assert entry == {"file": "rows.csv", "sha256": hashlib.sha256(data).hexdigest(),
                         "bytes": len(data)}

    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        with pytest.raises(ValueError):
            self.emitter(tmp_path).table("bad.csv", ["a", "b"], [np.zeros(2), np.zeros(3)])

    @staticmethod
    def written(monkeypatch, values):
        """The cells ``_text_rows`` writes for one column, and the values of
        those it sent through ``format`` rather than writing them in bulk."""
        sent = []

        def spy(value, spec):
            sent.append(value)
            return format(value, spec)

        monkeypatch.setattr(_text, "format", spy, raising=False)
        lines = cli._text_rows([values]).decode().splitlines()
        monkeypatch.delattr(_text, "format")
        return lines, np.array(sent, dtype=float)

    @staticmethod
    def in_bulk_range(values):
        magnitude = np.abs(values)
        return (1e-99 <= magnitude) & (magnitude < 1.0)

    def test_random_doubles_read_as_format(self, monkeypatch):
        rng = np.random.default_rng(25)
        values = np.frombuffer(rng.bytes(8 * 250_000), dtype=np.float64).copy()
        # a tenth with a zero exponent field: subnormals of both signs
        values.view(np.uint64)[::10] &= ~np.uint64(0x7FF << 52)
        lines, sent = self.written(monkeypatch, values)
        assert lines == [format(v, ".17g") for v in values.tolist()]
        # the bulk path, not the fallback, wrote the cells it covers
        in_range = self.in_bulk_range(values).sum()
        assert in_range > 30_000
        assert self.in_bulk_range(sent).sum() < in_range / 100
        exponent = values.view(np.uint64) >> np.uint64(52) & np.uint64(0x7FF)
        assert np.count_nonzero(exponent == 0) > 20_000

    @pytest.mark.parametrize("log10_low", [False, True], ids=["log10", "log10_one_ulp_low"])
    def test_powers_of_ten_and_their_neighbours(self, monkeypatch, log10_low):
        if log10_low:
            # an exponent estimate one too low leaves N at 1e17 or above on a
            # power of ten: those cells must still read as format
            log10 = np.log10
            monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), -np.inf))
        tens = np.array([float(f"1e{e}") for e in range(-300, 300)])
        values = np.concatenate([np.nextafter(tens, 0.0), tens, np.nextafter(tens, np.inf)])
        values = np.concatenate([values, -values])
        lines, _ = self.written(monkeypatch, values)
        assert lines == [format(v, ".17g") for v in values.tolist()]
        # the double of 1e-79 lies below 10**-79 and prints as it: a carry at 17 digits
        assert Fraction(1e-79) < Fraction(1, 10**79) and "1e-79" in lines

    def test_bulk_range_boundaries(self, monkeypatch):
        edges = [1e-4, 9.99999999999999999e-5, 1e-5, 9.99999999999999999e-6, 1e-99,
                 9.99999999999999999e-100, 1e-100, 0.5e-4, 1.5e-99, 2.0**-13, 2.0**-329]
        values = np.array(edges)
        values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, 1.0)])
        values = np.concatenate([values, -values])
        lines, _ = self.written(monkeypatch, values)
        assert lines == [format(v, ".17g") for v in values.tolist()]
        assert {"0.0001", "9.9999999999999991e-05", "1e-99", "-1e-100"} <= set(lines)

    def test_fixed_form_boundaries(self, monkeypatch):
        # %.17g prints 1e-4 <= |v| < 1 as 0.000ddd...: the bulk path lays these
        # out apart from d.ddd...e-XX, so every edge of that form and the
        # doubles either side of it must read as format
        tens = np.array([1e-4, 1e-3, 0.01, 0.1])
        values = np.array([*tens, 0.5, np.nextafter(1.0, 0.0)])
        values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, 1.0)])
        values = np.concatenate([values, -values])
        lines, sent = self.written(monkeypatch, values)
        assert lines == [format(v, ".17g") for v in values.tolist()]
        assert {"0.0001", "-0.001", "0.5", "0.99999999999999989", "-1"} <= set(lines)
        # only 1 and the doubles just below a power of ten, whose log10 rounds
        # up to it, reach format
        assert set(np.abs(sent).tolist()) <= {*np.nextafter(tens, 0.0).tolist(), 1.0}

    def test_exact_powers_of_two_drop_their_trailing_zeros(self, monkeypatch):
        # 2**-j for j <= 24 has at most 17 significant digits, so the bulk row
        # ends in zeros that must go, in the fixed form (j <= 13) and past it
        values = np.array([2.0**-j for j in range(1, 25)] + [0.75, 0.375, 0.1875])
        values = np.concatenate([values, -values])
        lines, sent = self.written(monkeypatch, values)
        assert lines == [format(v, ".17g") for v in values.tolist()]
        assert {"0.25", "0.001953125", "7.62939453125e-06", "-0.5"} <= set(lines)
        assert len(sent) == 0  # all written in bulk

    def test_wide_fallback_cells_beside_bulk_cells(self, monkeypatch):
        # fallback cells as long as a bulk cell or longer beside bulk cells: the
        # longest %.17g float (24 bytes, where a bulk cell's text has at most
        # 23), 1e308 and 30-character strings, whose block is wider
        floats = np.array([0.5, -1.2345678901234567e-100, 2.5e-7, 1e308, -0.03125, 7.0e-5])
        names = ["x" * 30, "a", "", "b" * 29, "peak", "z" * 30]
        lines, sent = self.written(monkeypatch, floats)
        assert lines == [format(v, ".17g") for v in floats.tolist()]
        assert sorted(sent.tolist()) == [-1.2345678901234567e-100, 1e308]
        body = cli._text_rows([floats, names, floats]).decode()
        assert body.splitlines() == [f"{format(v, '.17g')},{n},{format(v, '.17g')}"
                                     for v, n in zip(floats.tolist(), names)]

    def test_shared_block_reads_as_its_columns(self):
        # _filter builds the cells of columns shared by every file once, as one
        # block; the rows must equal those of the same columns passed one by one
        rng = np.random.default_rng(28)
        p = np.linspace(0.25, 1.75, 512)
        weight = rng.uniform(-1.0, 1.0, 512) * 10.0 ** rng.integers(-8, 2, 512)
        weight[::50] = 0.0
        shared = np.hstack([_text._cells(p), _text._cells(weight)])
        g_t, f_t = rng.uniform(0.0, 1.0, (2, 512)) * 10.0 ** rng.integers(-110, 1, (2, 512))
        names = np.array(["central_max", "minimum"] * 256)
        together = cli._text_rows([shared, g_t, f_t, names])
        assert together == cli._text_rows([p, weight, g_t, f_t, names])
        assert together.count(b"\n") == 512

    def test_exact_decimal_midpoints_round_half_even(self, monkeypatch):
        # j / 2**s is j * 5**s / 10**s exactly: for odd j with j * 5**s of 18
        # digits, the 18th significant digit is a final 5, a tie at 17 digits.
        # In the bulk range these exist for s = 18 ... 25 only (k = -1 ... -8),
        # the first four in the fixed form; every 7th odd j of s = 18 and 19 is used.
        digits = {j / 2**s: str(j * 5**s) for s in range(18, 26)
                  for j in range(1, 10**18 // 5**s + 1, 14 if s < 20 else 2)
                  if len(str(j * 5**s)) == 18}
        assert len(digits) > 200 and all(d[-1] == "5" for d in digits.values())
        assert {math.floor(math.log10(v)) for v in digits} == set(range(-8, 0))
        values = np.array([*digits, *(-v for v in digits)])
        lines, sent = self.written(monkeypatch, values)
        assert lines == [format(v, ".17g") for v in values.tolist()]
        assert len(sent) == len(values)  # a tie is never written in bulk

    def test_near_ties_read_as_format(self, monkeypatch):
        # v = j / 2**(t + m) has |v| * 10**t = j * 5**t / 2**m; j with
        # j * 5**t = 2**(m - 1) + d (mod 2**m) puts the fraction of that
        # d / 2**m from one half: from 1e-17 to 1e-13 off a tie, not on one.
        # j is raised by the least multiple of 2**m that puts N at 1e16 or
        # above, which leaves the fraction as it is; below t = 23 every j
        # needs it, and only m up to 46 keeps j below 2**53, so there the
        # fractions lie 1e-14 to 3e-8 off a tie
        values = []
        for t in range(17, 40):  # k = 16 - t from -1 to -23
            for m in (36, 41, 46) if t < 23 else (56, 60, 63):
                inverse = pow(5**t, -1, 2**m)
                for d in range(-2000, 2001):
                    j = (2 ** (m - 1) + d) * inverse % 2**m
                    j += max(0, -((j * 5**t - (10**16 << m)) // (5**t << m))) << m
                    if d and j < 2**53 and 10**16 <= (j * 5**t) >> m < 10**17:
                        values.append(j / 2 ** (t + m))
        assert len(values) > 500
        assert {math.floor(math.log10(v)) for v in values} >= set(range(-4, 0))
        lines, _ = self.written(monkeypatch, np.array(values))
        assert lines == [format(v, ".17g") for v in values]

    def test_special_values_bools_and_ints_read_as_the_template(self, monkeypatch):
        for column in ([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, -2.5e-7],
                       [True, False], [np.True_, False],
                       [0, 1, -7, 2**53 + 1, 10**17, -(10**16), np.int64(-3), 10**20]):
            lines, _ = self.written(monkeypatch, column)
            assert lines == ["%.17g" % v for v in column]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_filter_tables_equal_the_row_template(self, tmp_path, fmt):
        # the table text built as it was before the bulk writer: one "%.17g"
        # row template over the tolist() cells
        widths = [5.25 * i for i in range(20)]
        overrides = {("geometry", "L"): ", ".join(map(repr, widths)),
                     ("numerics", "curve_samples"): "2048", ("output", "format"): fmt}
        argv = ["run", "--scenario", "fig1_filter", "--out", str(tmp_path)]
        for (section, key), value in overrides.items():
            argv += ["--set", f"{section}.{key}={value}"]
        assert main(argv) == 0
        config = validate_config({}, "fig1_filter", overrides=overrides)
        emitter = cli._Emitter(config)
        spec = cli._packet(config)
        p_axis = np.linspace(spec.p_min, spec.p_max, 2048)
        weight = momentum_weight(p_axis, spec)

        def expected(header, columns, width):
            columns = [c.tolist() for c in columns]
            row = ",".join(["%.17g"] * len(columns))
            text = f"{row}\n" * len(columns[0]) % tuple(chain.from_iterable(zip(*columns)))
            comment = emitter._comment(width)
            if fmt == "csv":
                return f"# {comment}\n{','.join(header)}\n{text}"
            rows = [line.split(",") for line in text.splitlines()]
            payload = {"comment": comment, "columns": header, "rows": rows}
            return json.dumps(payload, indent=2, sort_keys=True) + "\n"

        suffix = f".{fmt}"
        exponents = set()
        for width in widths:
            g_t, f_t = filtered_distributions(p_axis, spec, cli._barrier(config, width))
            name = f"filter_L{cli._width_tag(width)}{suffix}"
            want = expected(["p", "weight", "g_t", "f_t"], [p_axis, weight, g_t, f_t], width)
            assert (tmp_path / name).read_text() == want
            exponents.update(re.findall(r"e-(\d\d)\b", want))
        assert {"05", "10", "50"} <= exponents

    def test_peaks_table_when_every_scan_fails(self, tmp_path, monkeypatch):
        def no_peak(*args, **kwargs):
            raise ValueError("no central peak")

        monkeypatch.setattr(cli, "scan_peaks", no_peak)
        code = main(["run", "--scenario", "table1", "--out", str(tmp_path),
                     "--set", "geometry.L=10, 15"])
        assert code == 3
        comment, header, rows = read_csv(tmp_path / "peaks.csv")
        assert header == ["L", "kind", "t_peak", "density"]
        assert rows == []


class TestConfigFileFlow:
    def test_file_values_apply_and_set_wins(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "[geometry]\nL = 0\n[numerics]\ncurve_samples = 16\n"
        )
        out = tmp_path / "out"
        code = main([
            "run", "--scenario", "fig1_filter", "--config", str(cfg_path),
            "--out", str(out), "--set", "numerics.curve_samples=8",
        ])
        assert code == 0
        _, _, rows = read_csv(out / "filter_L0.csv")
        assert len(rows) == 8

    def test_readme_example_sets_every_key(self):
        # the README's run.cfg, as written: every key of the table, all valid
        readme = (REPO / "README.md").read_text()
        block = re.search(r"^```\n(# run\.cfg\n.*?)^```", readme, re.S | re.M).group(1)
        raw = parse_config_text(block)
        assert set(raw) == set(cli._KEYS)
        assert validate_config(raw, "custom")


class TestFailurePath:
    def test_unreachable_tolerance_exits_three(self, tmp_path, capsys):
        code = main([
            "run", "--scenario", "fig3_times", "--out", str(tmp_path),
            "--set", "geometry.L=10", "--set", "numerics.tolerance=1e-30",
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert "failed:" in captured.err
        manifest = read_manifest(tmp_path)
        assert manifest["failures"], "failure record missing from manifest"
        record = manifest["failures"][0]
        assert "estimate" in record
        assert record["estimate"] == pytest.approx(2.29544239794700562e-08,
                                                   rel=1e-6)
        # partial outputs still written
        assert (tmp_path / "times.csv").is_file()

    def test_failure_labels_name_each_width_exactly(self, tmp_path):
        # two widths that print alike at six significant digits
        code = main([
            "run", "--scenario", "fig3_times", "--out", str(tmp_path),
            "--set", "geometry.L=10, 10.0000001", "--set", "numerics.tolerance=1e-30",
        ])
        assert code == 3
        items = [f["item"] for f in read_manifest(tmp_path)["failures"]]
        assert items == ["times L=10", "times L=%.17g" % 10.0000001]

    @pytest.mark.parametrize("overrides, item", [
        # the central peak arrives before t = 0
        (["geometry.offset=-20", "geometry.L=30", "geometry.D=15"], "transit D=15 L=30"),
        # the window ends before the packet arrives
        (["geometry.L=10", "numerics.t_start=-300", "numerics.t_stop=-100"],
         "transit D=40 L=10"),
    ])
    def test_scan_value_error_is_an_item_failure(self, tmp_path, capsys, overrides, item):
        argv = ["run", "--scenario", "fig4_transit", "--out", str(tmp_path)]
        for override in overrides:
            argv += ["--set", override]
        assert main(argv) == 3
        assert f"failed: {item}: ValueError" in capsys.readouterr().err
        manifest = read_manifest(tmp_path)
        assert [f["item"] for f in manifest["failures"]] == [item]
        assert manifest["failures"][0]["error"].startswith("ValueError: ")
        for name in ("transit.csv", "transit_context.csv", "plot.gp"):
            assert (tmp_path / name).is_file()


    def test_window_edge_far_above_the_mass(self, tmp_path):
        # v0 four orders above the mass: both filter curves reach p_max, and only
        # the statistics fail, their weight underflowing
        argv = ["run", "--scenario", "fig1_filter", "--out", str(tmp_path)]
        for override in ["physics.v0=6.435517211357928e+43", "physics.mass=2.4388651849676553e+39",
                         "physics.p0=6.435570433907925e+43", "geometry.L=0,1"]:
            argv += ["--set", override]
        assert main(argv) == 3
        failures = read_manifest(tmp_path)["failures"]
        assert [f["item"] for f in failures] == ["filter_stats L=0", "filter_stats L=1"]
        assert all(f["error"].startswith("DegenerateWeightError: ") for f in failures)
        for name in ("filter_L0.csv", "filter_L1.csv"):
            assert len(read_csv(tmp_path / name)[2]) == 512


class TestTransitStats:
    def test_filter_stats_once_per_width(self, tmp_path, monkeypatch):
        widths = []

        def counted(spec, cfg, **kwargs):
            widths.append(cfg.width)
            return filter_stats(spec, cfg, **kwargs)

        monkeypatch.setattr(cli, "filter_stats", counted)
        code = main(["run", "--scenario", "custom", "--out", str(tmp_path),
                     "--set", "geometry.L=0, 10", "--set", "geometry.D=40, 60"])
        assert code == 0
        # once per width in the filter step, then once per detector and width
        assert widths == [0.0, 10.0, 0.0, 10.0, 0.0, 10.0]
        _, _, rows = read_csv(tmp_path / "transit_context.csv")
        assert [row[:2] for row in rows] == [["40", "0"], ["40", "10"], ["60", "0"], ["60", "10"]]


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        result = subprocess.run(
            [
                sys.executable, "-m", "dirac_tunnel", "run",
                "--scenario", "fig1_filter", "--out", str(tmp_path),
                "--set", "geometry.L=0, 5",
                "--set", "numerics.curve_samples=32",
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(REPO),
        )
        assert result.returncode == 0, result.stderr
        assert "wrote" in result.stdout
        assert (tmp_path / "filter_L0.csv").is_file()
        assert (tmp_path / "filter_L5.csv").is_file()
        assert (tmp_path / "manifest.json").is_file()


# Two or three widths per scenario keep the runs short; custom keeps its one
COVARIANCE_WIDTHS = {
    "fig1_filter": "0, 10", "fig2_peaks": "10, 15", "fig3_times": "4, 8",
    "fig4_transit": "0, 10", "table1": "10, 15", "custom": "10",
}
# the keys in units of mass (scaled by 2^e) and of length or time (by 2^-e)
MASSES = ("physics.mass", "physics.v0", "physics.p0")
LENGTHS = ("physics.d", "geometry.L", "geometry.D", "geometry.offset",
           "numerics.t_start", "numerics.t_stop", "numerics.t_step")


def _scaled_run(directory: Path, scenario: str, e: int):
    """(exit code, manifest, tables) of ``scenario`` in units where the mass is 2^e."""
    overrides = {("geometry", "L"): cli._parse_float_list(COVARIANCE_WIDTHS[scenario])}
    config = validate_config({}, scenario)
    argv = ["run", "--scenario", scenario, "--out", str(directory)]
    for keys, sign in ((MASSES, 1), (LENGTHS, -1)):
        for key in keys:
            section, name = key.split(".")
            field = cli._KEYS[(section, name)][0]
            value = overrides.get((section, name), getattr(getattr(config, section), field))
            values = value if isinstance(value, tuple) else (value,)
            if values:
                text = ", ".join(repr(math.ldexp(v, sign * e)) for v in values)
                argv += ["--set", f"{key}={text}"]
    code = main(argv)
    manifest = read_manifest(directory)
    tables = {}
    for out in manifest["outputs"]:
        if out["file"].endswith(".csv"):
            comment, header, rows = read_csv(directory / out["file"])
            # a table per width is keyed by its width at unit mass, not by its file name
            width = re.search(r" L=(\S+)", comment)
            key = (out["file"].split("_L")[0], width and math.ldexp(float(width[1]), e))
            tables[key] = header, rows
    return code, manifest, tables


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _unscaled(item: str, e: int) -> str:
    """A failure item with its widths and detectors read back at unit mass."""
    return re.sub(r"=(\S+)", lambda m: "=%.17g" % math.ldexp(float(m.group(1)), e), item)


class TestUnitCovariance:
    """Natural units: the mass 2^e, with every mass scaled by 2^e and every
    length and time by 2^-e, is the unit-mass run in other units, so every
    number written is the unit-mass number times one power of two per column."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_scaled_runs_are_exactly_the_unit_run(self, tmp_path, capsys, scenario):
        code, manifest, tables = _scaled_run(tmp_path / "unit", scenario, 0)
        assert tables
        for e in (70, -70):
            scaled_code, scaled_manifest, scaled_tables = _scaled_run(tmp_path / f"{e}", scenario, e)
            assert scaled_code == code
            assert [_unscaled(f["item"], e) for f in scaled_manifest["failures"]] == [
                f["item"] for f in manifest["failures"]
            ]
            assert scaled_tables.keys() == tables.keys()
            for key, (header, rows) in tables.items():
                scaled_header, scaled_rows = scaled_tables[key]
                assert scaled_header == header
                assert len(scaled_rows) == len(rows)
                for column, scaled_column in zip(zip(*rows), zip(*scaled_rows)):
                    # text cells (peak kinds, flags) alike, numbers one power of two apart
                    assert [a for a in column if not _is_number(a)] == [
                        b for b in scaled_column if not _is_number(b)
                    ], (e, key, header)
                    pairs = [(float(a), float(b))
                             for a, b in zip(column, scaled_column) if _is_number(a)]
                    power = next((math.frexp(b)[1] - math.frexp(a)[1] for a, b in pairs if a), 0)
                    assert all(b == math.ldexp(a, power) for a, b in pairs), (e, key, header)
