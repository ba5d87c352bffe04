import copy
import json
import subprocess
import sys
import warnings
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higher_holonomy import cli
from higher_holonomy.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

FAST_INTEGRATOR = {"n_steps_path": 64, "n_steps_surface_s": 32, "n_quad_t": 32}


def surface_cfg():
    return {
        "ambient_dim": 2,
        "crossed_module": "b_u1",
        "B": {"1,2": [["i*(1 + x1 + x2^2)"]]},
        "geometry": {"bigon": ["s", "t"]},
        "integrator": dict(FAST_INTEGRATOR),
        "seed": 3,
    }


def _opened(key, k, term=" + 0.3*z"):
    """The geometry of the shipped transgress config, with `term` added to
    coordinate k of geometry.<key>: by default it no longer closes."""
    geometry = json.loads((CONFIG_DIR / "transgress_bu1.json").read_text())["geometry"]
    geometry[key][k] += term
    return geometry


class TestDumpJson:
    def test_float_formatting_17_digits(self):
        text = cli.dump_json({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_integers_and_bools(self):
        assert cli.dump_json({"n": 3, "ok": True, "none": None}) == (
            '{\n  "n": 3,\n  "ok": true,\n  "none": null\n}'
        )

    def test_complex_as_re_im(self):
        out = json.loads(cli.dump_json(complex(1, -2)))
        assert out == {"re": 1.0, "im": -2.0}

    def test_round_trips_through_json(self):
        obj = {"a": [1.5, 2, complex(0, 1)], "b": {"c": "text"}}
        parsed = json.loads(cli.dump_json(obj))
        assert parsed["b"]["c"] == "text"

    def test_rejects_nan(self):
        with pytest.raises(ConfigError):
            cli.dump_json(float("nan"))


class TestConfigParsing:
    def test_group_names(self):
        assert cli.parse_group("SU(2)", "/").matrix_dim == 2
        assert cli.parse_group("U(1)", "/").family == "U1"
        assert cli.parse_group("SO(3)", "/").field == "real"
        assert cli.parse_group("GL(2)", "/").family == "GL"
        assert cli.parse_group("UT(3)", "/").family == "UT"
        with pytest.raises(ConfigError):
            cli.parse_group("E8", "/")

    def test_crossed_module_names(self):
        assert cli.parse_crossed_module("b_u1", "/").kind == "b_abelian"
        assert cli.parse_crossed_module("eg:SU(2)", "/").kind == "eg"
        assert cli.parse_crossed_module("aut_inner:SU(2)", "/").kind == "aut_inner"
        with pytest.raises(ConfigError):
            cli.parse_crossed_module("nope", "/")

    def test_missing_key_pointer(self):
        with pytest.raises(ConfigError) as err:
            cli.Experiment({"crossed_module": "b_u1"})
        assert "ambient_dim" in str(err.value)

    def test_bad_expression_pointer(self):
        cfg = surface_cfg()
        cfg["B"] = {"1,2": [["i*(1 +"]]}
        with pytest.raises(ConfigError) as err:
            cli.run("surface", cfg)
        assert err.value.pointer == "/B"

    def test_bad_two_form_key(self):
        cfg = surface_cfg()
        cfg["B"] = {"2,1": [["i"]]}
        with pytest.raises(ConfigError):
            cli.run("surface", cfg)

    def test_command_declaration_mismatch(self):
        cfg = surface_cfg()
        cfg["command"] = "bf"
        with pytest.raises(ConfigError):
            cli.run("surface", cfg)

    def test_out_of_range_variable(self):
        cfg = surface_cfg()
        cfg["B"] = {"1,2": [["i*x7"]]}
        with pytest.raises(ConfigError):
            cli.run("surface", cfg)


class TestRun:
    def test_surface_report_shape(self):
        report = cli.run("surface", surface_cfg())
        assert report["command"] == "surface"
        assert report["pass"] is True
        assert report["result"]["matching_residual"] <= 1e-6
        assert "config_hash" in report and "tool_version" in report
        assert report["tolerances"]["matching_hard_limit"] == 1e-3

    def test_byte_identical_reports(self):
        cfg = surface_cfg()
        blob = json.dumps(cfg).encode()
        r1 = cli.dump_json(cli.run("surface", json.loads(blob), blob))
        r2 = cli.dump_json(cli.run("surface", json.loads(blob), blob))
        assert r1 == r2

    def test_seed_changes_are_visible(self):
        cfg = {
            "ambient_dim": 2,
            "crossed_module": "eg:SU(2)",
            "seed": 5,
        }
        report = cli.run("check-cm", cfg)
        assert report["seed"] == 5
        assert report["result"]["pass"] is True

    def test_stokes_path_ending_in_nan_is_not_closed(self):
        # (t - 1)/(t - 1) is 1 except at t = 1, where the path ends in NaN
        cfg = json.loads((CONFIG_DIR / "stokes_su2.json").read_text())
        cfg["geometry"]["path"][1] = "0.5 + 0.3*sin(2*pi*t) + (t - 1)/(t - 1) - 1"
        with np.errstate(all="ignore"), pytest.raises(ConfigError) as err:
            cli.run("stokes", cfg)
        assert err.value.pointer == "/geometry/path"

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            cli.run("fly", surface_cfg())


class TestShippedConfigs:
    @pytest.mark.parametrize("name", [
        "check_cm_eg_su2", "check_fc_eg_su2", "surface_bu1", "holonomy_su2",
    ])
    def test_fast_configs_pass(self, name):
        path = CONFIG_DIR / f"{name}.json"
        blob = path.read_bytes()
        cfg = json.loads(blob)
        report = cli.run(cfg["command"], cfg, blob)
        assert report["pass"] is True

    def test_all_shipped_configs_declare_known_commands(self):
        for path in sorted(CONFIG_DIR.glob("*.json")):
            cfg = json.loads(path.read_text())
            assert cfg.get("command") in cli.COMMANDS, path.name


class TestMainEntry:
    def test_exit_codes_and_output_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(surface_cfg()))
        out_path = tmp_path / "report.json"
        rc = cli.main(["surface", "--config", str(cfg_path), "--out", str(out_path)])
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert report["pass"] is True

    def test_steps_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(surface_cfg()))
        out_path = tmp_path / "report.json"
        rc = cli.main(["surface", "--config", str(cfg_path), "--out", str(out_path),
                       "--steps", "48"])
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert report["integrator"]["n_steps_surface_s"] == 48

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        rc = cli.main(["surface", "--config", str(cfg_path)])
        assert rc == 2

    @pytest.mark.parametrize("edit, pointer", [
        ({"crossed_module": "eg:GL(x)"}, "/crossed_module"),
        ({"ambient_dim": "two"}, "/ambient_dim"),
        ({"B": {"1,x": [["i"]]}}, "/B/1,x"),
        ({"integrator": {"n_step_path": 64}}, "/integrator/n_step_path"),
        ({"integrator": {"retraction": False}}, "/integrator/retraction"),
        ({"seed": "abc"}, "/seed"),
        ({"grid": {"n": 1}}, "/grid/n"),
        ({"pairing": "foo"}, "/pairing"),
        ({"n_directions": "x"}, "/n_directions"),
        ({"box": [[0, "a"], [0, 1]]}, "/box/0/1"),
        ({"fc_tolerance": "x"}, "/fc_tolerance"),
        ({"geometry": []}, "/geometry"),
        ({"integrator": {"n_steps_path": None}}, "/integrator/n_steps_path"),
        ({"fd": []}, "/fd"),
        ({"crossed_module": 5}, "/crossed_module"),
        ({"A": [1, 2]}, "/A/0"),
        ({"B": []}, "/B"),
        ({"geometry": {"bigon": 5}}, "/geometry/bigon"),
        ({"geometry": {"bigon": ["s", "q"]}}, "/geometry/bigon"),
        ({"fd": {"richardson": "false"}}, "/fd/richardson"),
        ({"fc_tolerence": 1e-3}, "/fc_tolerence"),
        ({"fd": {"stepp": 1e-3}}, "/fd/stepp"),
        ({"grid": {"m": 4}}, "/grid/m"),
        ({"geometry": {"bigon": ["s", "t"], "variaton": ["0", "0"]}}, "/geometry/variaton"),
        ({"ambient_dim": 2.7}, "/ambient_dim"),
        ({"ambient_dim": True}, "/ambient_dim"),
        ({"seed": 3.9}, "/seed"),
        ({"seed": -1}, "/seed"),
        ({"integrator": {"n_steps_path": 64.9}}, "/integrator/n_steps_path"),
        ({"n_directions": 2.5}, "/n_directions"),
        ({"fc_tolerance": -1}, "/fc_tolerance"),
        ({"integrator": {**FAST_INTEGRATOR, "n_quad_t": 33}}, "/integrator"),
        ({"box": [[0, 1]]}, "/box"),
        ({"B": {"1,2": [["1 + x1"]]}}, "/B"),
        ({"ambient_dim": 11, "geometry": {"bigon": ["s", "t"] + ["0"] * 9}}, "/ambient_dim"),
    ], ids=["group_size", "ambient_dim", "two_form_key", "unknown_integrator_key",
            "retraction_key", "seed", "grid_n", "pairing", "n_directions", "box_entry",
            "fc_tolerance", "geometry", "integrator_null", "fd_list", "crossed_module_type",
            "one_form_type", "two_form_type", "bigon_type", "bigon_identifier",
            "richardson_string", "top_level_typo", "fd_typo", "grid_typo", "geometry_typo",
            "ambient_dim_fraction", "ambient_dim_bool", "seed_fraction", "seed_negative",
            "steps_fraction", "n_directions_fraction", "fc_tolerance_negative",
            "n_quad_t_odd", "box_length", "two_form_outside_the_algebra",
            "sampling_dimension"])
    def test_invalid_config_is_a_config_error(self, tmp_path, capsys, edit, pointer):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**surface_cfg(), **edit}))
        rc = cli.main(["surface", "--config", str(cfg_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {pointer}: ")

    def test_check_fc_with_a_pole_fails_with_a_report(self, tmp_path, capsys):
        # the first Halton sample has x1 = 0.5, where A is not finite
        cfg = {
            "ambient_dim": 2,
            "crossed_module": "eg:SU(2)",
            "A": [[["i*0.1/(x1 - 0.5)", "0"], ["0", "-i*0.1/(x1 - 0.5)"]],
                  [["0", "0"], ["0", "0"]]],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        with np.errstate(divide="ignore", invalid="ignore"):
            rc = cli.main(["check-fc", "--config", str(cfg_path)])
        out = capsys.readouterr()
        assert rc == 1
        assert "Traceback" not in out.err
        report = json.loads(out.out)
        assert report["pass"] is False
        assert report["result"]["max_residual"] is None
        assert report["result"]["argmax_point"][0] == 0.5

    def test_holonomy_outside_the_algebra_is_rejected(self, tmp_path, capsys):
        # Hermitian A: the per-step retraction would return SU(2) matrices
        cfg = {
            "ambient_dim": 2,
            "crossed_module": "eg:SU(2)",
            "A": [[["x1", "0"], ["0", "-x1"]], [["0", "0"], ["0", "0"]]],
            "geometry": {"path": ["t", "0.5*t"]},
            "integrator": {"n_steps_path": 64},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main(["holonomy", "--config", str(cfg_path)])
        out = capsys.readouterr()
        assert rc == 2
        assert out.out == ""
        assert out.err.startswith("error: /A: A along the path leaves the algebra of SU(2)")

    def test_surface_outside_the_algebra_inside_the_bigon_is_rejected(self, tmp_path, capsys):
        # an identity bump in A at the bigon's centre: the pair samples the
        # box, which it does not reach, and the boundary paths miss it
        cfg = json.loads((CONFIG_DIR / "surface_eg_su2.json").read_text())
        bump = " + 0.5*exp(-((x1 - 0.5)^2 + (x2 - 0.5)^2)/0.05^2)"
        cfg["A"][0][0][0] += bump
        cfg["A"][0][1][1] += bump
        cfg["box"] = [[0, 1], [0, 0.2]]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main(["surface", "--config", str(cfg_path)])
        out = capsys.readouterr()
        assert rc == 2
        assert out.out == ""
        assert out.err.startswith("error: /A: A over the bigon leaves the algebra of SU(2)")

    def test_constant_division_by_zero_is_located(self, tmp_path, capsys):
        for text in ("i*(1/0)", "x1/0"):
            cfg = json.loads((CONFIG_DIR / "holonomy_su2.json").read_text())
            cfg["A"][0][0][0] = text
            with pytest.raises(ConfigError) as err:
                cli.run("holonomy", cfg)
            assert err.value.pointer == "/A"
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            rc = cli.main(["holonomy", "--config", str(cfg_path)])
            out = capsys.readouterr()
            assert rc == 2
            assert out.out == ""
            assert out.err.startswith(f"error: /A: division by zero in {text!r}")

    def test_zero_divisor_in_a_derivative_is_an_error_line(self, tmp_path, capsys):
        # x1/(0*x2) parses, and its divisor folds to 0 only in dA
        cfg = json.loads((CONFIG_DIR / "check_fc_eg_su2.json").read_text())
        cfg["A"][0][0][0] = "0.4*i*x2 + x1/(0*x2)"
        cfg["A"][0][1][1] = "-0.4*i*x2 - x1/(0*x2)"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        with np.errstate(all="ignore"):  # evaluating A divides by zero first
            rc = cli.main(["check-fc", "--config", str(cfg_path)])
        out = capsys.readouterr()
        assert rc == 2
        assert out.out == ""
        assert out.err.startswith("error: /A: division by zero in ")
        assert "Traceback" not in out.err

    def test_constant_overflow_is_located(self, tmp_path, capsys):
        # exp(1000) folds to inf at parse time; numpy's overflow warning
        # must not escape, even when warnings are errors
        cfg = json.loads((CONFIG_DIR / "holonomy_su2.json").read_text())
        cfg["A"][0][0][0] = "i*exp(1000)"
        cfg["A"][0][1][1] = "-i*exp(1000)"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main(["holonomy", "--config", str(cfg_path)])
        out = capsys.readouterr()
        assert rc == 2
        assert out.out == ""
        assert out.err == "error: /A: overflow in 'i*exp(1000)'\n"
        assert "Traceback" not in out.err

    def test_pair_that_is_not_fake_flat_is_located_at_b(self, tmp_path, capsys):
        cfg = json.loads((CONFIG_DIR / "surface_eg_su2.json").read_text())
        del cfg["B"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main(["surface", "--config", str(cfg_path)])
        out = capsys.readouterr()
        assert rc == 2
        assert out.out == ""
        assert out.err == "error: /B: fake-curvature residual 7.707e-01 exceeds 1.0e-05\n"

    @pytest.mark.parametrize("command, cfg", [
        ("check-fc", {"ambient_dim": 11, "crossed_module": "b_u1"}),
        ("bf", {"ambient_dim": 2, "crossed_module": "eg:SU(2)"}),
    ], ids=["check_fc_sampling", "bf"])
    def test_unsupported_dimension_is_a_config_error(self, tmp_path, capsys, command, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main([command, "--config", str(cfg_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: /ambient_dim: ")

    def test_holonomy_needs_no_sampling(self):
        cfg = {"ambient_dim": 11, "crossed_module": "eg:SU(2)",
               "geometry": {"path": ["t"] * 11}, "integrator": {"n_steps_path": 16}}
        assert cli.run("holonomy", cfg)["pass"] is True

    @pytest.mark.parametrize("geometry, pointer", [
        ({}, "/geometry"),
        ({"loop": ["0.6*cos(2*pi*z)", "0.6*sin(2*pi*z)", "0.2"]}, "/geometry/variation"),
        ({"variaton": ["0", "0", "0.3"], "looppath": ["z", "0", "t"]}, "/geometry/variaton"),
        ({"loop_path": ["z", "t"]}, "/geometry/loop_path"),
        ({"loop": ["0.6*cos(2*pi*z)", "0.6*sin(2*pi*z)"], "variation": ["0", "0", "0.3"]},
         "/geometry/loop"),
        ({"loop": ["0.6*cos(2*pi*z)", "0.6*sin(2*pi*z)", "0.2"],
          "variation": ["0.1*cos(2*pi*z)", "0", "0.3"]}, "/geometry"),
        # the shipped geometry with one entry opened: wrapping z modulo 1
        # would let both routes see the same jump, so they would agree
        (_opened("loop", 1), "/geometry/loop"),
        (_opened("variation", 1), "/geometry/variation"),
        (_opened("loop_path", 1), "/geometry/loop_path"),
        # closed, with a kink at the base point: the z-partial jumps by 0.6*pi
        (_opened("loop_path", 1, " + 0.3*sin(pi*z)"), "/geometry/loop_path"),
    ], ids=["no_route", "loop_without_variation", "misspelled_keys", "short_loop_path",
            "short_loop", "loop_and_variation_only", "open_loop", "open_variation",
            "open_loop_path", "kinked_loop_path"])
    def test_transgress_must_check_something(self, tmp_path, capsys, geometry, pointer):
        cfg = json.loads((CONFIG_DIR / "transgress_bu1.json").read_text())
        cfg["geometry"] = geometry
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main(["transgress", "--config", str(cfg_path)])
        out = capsys.readouterr()
        assert rc == 2
        assert out.out == ""
        assert out.err.startswith(f"error: {pointer}: ")
        assert "Traceback" not in out.err

    def test_holonomy_around_an_open_loop_is_located(self, tmp_path, capsys):
        cfg = json.loads((CONFIG_DIR / "holonomy_su2.json").read_text())
        cfg["geometry"] = {"loop": ["0.3*cos(2*pi*z)", "0.3*sin(2*pi*z) + 0.3*z"]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main(["holonomy", "--config", str(cfg_path)])
        out = capsys.readouterr()
        assert rc == 2
        assert out.out == ""
        assert out.err == ("error: /geometry/loop: loop does not close: "
                           "z = 0 and z = 1 differ by 3.000e-01\n")

    def test_holonomy_around_a_kinked_loop_takes_it_as_a_path(self, tmp_path, capsys):
        # a loop must close smoothly; a closed curve with a kink at its base
        # point is a path
        cfg = json.loads((CONFIG_DIR / "holonomy_su2.json").read_text())
        curve = ["0.3*cos(2*pi*z)", "0.3*sin(2*pi*z) + 0.3*sin(pi*z)"]
        cfg["geometry"] = {"loop": curve}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main(["holonomy", "--config", str(cfg_path)])
        out = capsys.readouterr()
        assert rc == 2
        assert out.err == ("error: /geometry/loop: loop does not close smoothly: its z-partials "
                           "at z = 0 and z = 1 differ by 1.885e+00\n")
        cfg["geometry"] = {"path": [c.replace("z", "t") for c in curve]}
        assert cli.run("holonomy", cfg)["pass"] is True

    def test_console_invocation(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(surface_cfg()))
        proc = subprocess.run(
            [sys.executable, "-m", "higher_holonomy.cli", "surface",
             "--config", str(cfg_path)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["command"] == "surface"


SHIPPED = {path.stem: json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))}
# commands whose handlers build a ConnectionPair from the config
PAIR_COMMANDS = {"surface", "roundtrip", "transgress"}

SUPPORTED_KEYWORDS = {"type", "required", "properties", "additionalProperties", "items",
                      "minItems", "maxItems", "enum", "pattern", "minimum", "maximum",
                      "exclusiveMinimum", "exclusiveMaximum"}
ANNOTATIONS = {"$schema", "title", "description", "default"}


def _keywords(schema):
    yield from schema
    for sub in schema.get("properties", {}).values():
        yield from _keywords(sub)
    for key in ("items", "additionalProperties"):
        if isinstance(schema.get(key), dict):
            yield from _keywords(schema[key])


def _locations(value, path=()):
    """The path of every object member and array item below `value`."""
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, item in children:
        yield path + (key,)
        yield from _locations(item, path + (key,))


# Replacement values.  Numbers stay small: a large grid.n or step count is
# slow, not wrong.
REPLACEMENTS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6),
    st.sampled_from([0.0, 0.5, -1.5, 2.0, 3.7, 1e-3, 64.0]),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)


@st.composite
def mutated_configs(draw):
    """A shipped config with one key dropped or renamed, or one value
    replaced; returns (the shipped config's command, the mutated config)."""
    name = draw(st.sampled_from(sorted(SHIPPED)))
    cfg = copy.deepcopy(SHIPPED[name])
    path = draw(st.sampled_from(list(_locations(cfg))))
    parent, key = reduce(getitem, path[:-1], cfg), path[-1]
    edit = draw(st.sampled_from(["drop", "rename", "replace"]))
    if edit == "drop":
        parent.pop(key)
    elif edit == "rename" and isinstance(parent, dict):
        parent[draw(st.sampled_from([key + "x", key[:-1], key.upper()]))] = parent.pop(key)
    else:
        parent[key] = draw(REPLACEMENTS)
    return SHIPPED[name]["command"], cfg


@pytest.fixture(scope="module")
def reference_validator():
    jsonschema = pytest.importorskip("jsonschema")
    return jsonschema.Draft202012Validator(cli.config_schema())


class TestSchema:
    def test_schema_uses_only_supported_keywords(self):
        assert set(_keywords(cli.config_schema())) <= SUPPORTED_KEYWORDS | ANNOTATIONS

    def test_shipped_configs_are_valid(self):
        for name, cfg in SHIPPED.items():
            assert cli.validate(cfg) == cfg, name

    def test_integral_floats_are_integers(self):
        cfg = {**surface_cfg(), "ambient_dim": 2.0, "seed": 3.0,
               "integrator": {key: float(n) for key, n in FAST_INTEGRATOR.items()}}
        checked = cli.validate(cfg)
        assert type(checked["ambient_dim"]) is int and type(checked["seed"]) is int
        assert checked["integrator"] == FAST_INTEGRATOR
        assert cli.dump_json(cli.run("surface", cfg)["result"]) == \
            cli.dump_json(cli.run("surface", surface_cfg())["result"])

    def test_non_finite_numbers_are_rejected(self):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigError) as err:
                cli.Experiment({**surface_cfg(), "fc_tolerance": value})
            assert err.value.pointer == "/fc_tolerance"

    def test_pointer_escapes_slash_and_tilde(self):
        with pytest.raises(ConfigError) as err:
            cli.validate({**surface_cfg(), "a/b~c": 1})
        assert err.value.pointer == "/a~1b~0c"

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mutated_configs())
    def test_mutated_config_is_accepted_or_located(self, mutated):
        command, cfg = mutated
        try:
            exp = cli.Experiment(cfg)
            if command in PAIR_COMMANDS:
                exp.pair()
        except ConfigError as exc:
            assert exc.pointer.startswith("/"), str(exc)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mutated_configs())
    def test_validator_agrees_with_jsonschema(self, reference_validator, mutated):
        _, cfg = mutated
        try:
            cli.validate(cfg)
            accepted = True
        except ConfigError:
            accepted = False
        assert accepted == reference_validator.is_valid(cfg)
