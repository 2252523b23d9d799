import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dirac_tunnel import cli
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
    filter_stats,
    filtered_distributions,
    momentum_weight,
)

REPO = Path(__file__).resolve().parents[1]


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
        assert config.numerics.nodes == 2048
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
            overrides={("numerics", "nodes"): "128"},
            out_dir=str(tmp_path),
        )
        assert config.numerics.nodes == 128
        assert config.output.directory == str(tmp_path)

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
        # nodes (ConvergenceError), never refuses the start.
        nodes = MAX_NODES
        cfg = BarrierConfig(v0=1.0, width=100.0)
        spec = PacketSpec.for_barrier(cfg, p0=math.sqrt(3.0) / 2.0, d=10.0)
        assert validate_config({}, "table1", overrides={("numerics", "nodes"): str(nodes)})
        tables = []
        init = PacketIntegrator.__init__

        def spy(integrator, *args, **kwargs):
            init(integrator, *args, **kwargs)
            tables.append(integrator.nodes)

        monkeypatch.setattr(PacketIntegrator, "__init__", spy)
        if tol == 1e-8:
            records = scan_peaks(100.0, (30.0, 40.0), spec, cfg, nodes=nodes, tol=tol)
            assert records
        else:
            # the graded rule of MAX_NODES at L = 100 has 65920 nodes
            message = "the largest rule compared has 65920 nodes"
            with pytest.raises(ConvergenceError, match=message):
                scan_peaks(100.0, (30.0, 40.0), spec, cfg, nodes=nodes, tol=tol)
        # the rule kept and its merged rule, no other
        assert tables == [65920, 32960]

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
        monkeypatch.setattr(cli, "scan_grid", self.unreachable)
        code = main(["run", "--scenario", "fig3_times", "--set", "numerics.t_step=1e-12",
                     "--out", str(tmp_path)])
        assert code == 2
        message = "numerics.t_step: 2e+14 points exceed the limit of 1000000"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_oversized_filter_curve_is_refused_before_the_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_scenario", self.unreachable)
        code = main(["run", "--scenario", "fig1_filter", "--set",
                     "numerics.curve_samples=100000000000", "--out", str(tmp_path)])
        assert code == 2
        message = "numerics.curve_samples: 1e+11 points exceed the limit of 1000000"
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
        for key, value in [("t_stop", repr(0.25 * limit)), ("curve_samples", str(limit + 1))]:
            with pytest.raises(ConfigError, match=f"points exceed the limit of {limit}$"):
                validate_config({}, "fig1_filter", overrides={**grid, ("numerics", key): value})
        assert cli._parse_sweep_range(f"0:{limit - 1}:1").count(",") == limit - 1
        with pytest.raises(ConfigError, match=f"points exceed the limit of {limit}$"):
            cli._parse_sweep_range(f"0:{limit}:1")

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
        physics = f"V0=1 m=1 p0={cell(math.sqrt(3.0) / 2.0)} d=10 nodes=2048"
        stats_rows = []
        for width, tag in ((0.0, "0"), (37.5, "37p5")):
            cfg = cli._barrier(config, width)
            g_t, f_t = filtered_distributions(p_axis, spec, cfg)
            comment, header, rows = read_table(tmp_path / f"filter_L{tag}", fmt)
            assert comment == physics.replace(" p0=", f" L={cell(width)} p0=")
            assert header == ["p", "weight", "g_t", "f_t"]
            assert rows == [list(map(cell, row)) for row in zip(p_axis, weight, g_t, f_t)]
            stats = filter_stats(spec, cfg, nodes=2048)
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


class TestTableCells:
    @staticmethod
    def emitter(tmp_path, fmt="csv"):
        overrides = {("output", "format"): fmt}
        return cli._Emitter(validate_config({}, "custom", overrides=overrides,
                                            out_dir=str(tmp_path)))

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
        self.emitter(tmp_path, fmt).table("mixed.csv", header, columns)
        _, got_header, rows = read_table(tmp_path / "mixed", fmt)
        assert got_header == header
        assert rows == [[cli._fmt_cell(column[i]) for column in columns] for i in range(3)]
        assert rows[0] == ["1", "1", "0", "3", "central_max", "-0", "-0"]
        assert [row[5] for row in rows] == ["-0", "nan", "inf"]

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

    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        with pytest.raises(ValueError):
            self.emitter(tmp_path).table("bad.csv", ["a", "b"], [np.zeros(2), np.zeros(3)])

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
        # once per width in the filter step, once per width for both detectors
        assert widths == [0.0, 10.0, 0.0, 10.0]
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
