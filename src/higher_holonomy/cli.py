"""Batch front end: JSON config in, deterministic JSON report out.

Commands: holonomy, surface, check-cm, check-fc, roundtrip, stokes, bf,
transgress.  Every report embeds the config hash, tool version, seed and
the tolerances used; floats are serialized with 17 significant digits so
identical configs and seeds produce byte-identical output.  Exit code 0
iff all embedded pass flags are true.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import operator
import os
import re
import reprlib
import sys

import numpy as np

from . import __version__
from . import bf_theory as bf
from . import extraction as ex
from . import forms as fm
from . import geometry as geo
from . import higher_group as hg
from . import lie_core as lc
from . import transgression as tg
from . import transport as tp
from .errors import (ConfigError, ExpressionError, FakeCurvatureError, HolonomyError,
                     MembershipError)
from .sampling import MAX_DIM, halton_box

COMMANDS = ("holonomy", "surface", "check-cm", "check-fc", "roundtrip",
            "stokes", "bf", "transgress")


# ---------------------------------------------------------------------------
# deterministic JSON serialization (17 significant digits)

def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ConfigError(f"non-finite value {x} in report")
    if x == int(x) and abs(x) < 1e15:
        return f"{x:.1f}"
    return f"{x:.17g}"


def dump_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return dump_json({"re": float(obj.real), "im": float(obj.imag)}, indent)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dump_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + dump_json(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            "  " * (indent + 1) + json.dumps(str(k)) + ": " + dump_json(v, indent + 1)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise ConfigError(f"unserializable value of type {type(obj).__name__}")


def _matrix_json(m: np.ndarray):
    return [[complex(v) for v in row] for row in np.asarray(m)]


# ---------------------------------------------------------------------------
# config ingestion

@functools.cache
def config_schema() -> dict:
    """The packaged config schema, read once, on first use."""
    with open(os.path.join(os.path.dirname(__file__), "schema", "config.schema.json")) as fh:
        return json.load(fh)


# JSON Schema 2020-12 types: a bool is no number, 2.0 is an integer, and
# JSON has no NaN or infinity
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and math.isfinite(v)),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}
# bounds on a number, and on the length of an array
_NUMBER_BOUNDS = {"minimum": operator.ge, "maximum": operator.le,
                  "exclusiveMinimum": operator.gt, "exclusiveMaximum": operator.lt}
_LENGTH_BOUNDS = {"minItems": operator.ge, "maxItems": operator.le}


def validate(value, schema: dict | None = None, pointer: str = ""):
    """A copy of `value`, checked against `schema` (default: the config
    schema), with every "integer" an int and every "number" a float.
    Knows the JSON Schema 2020-12 keywords type, enum, pattern, required,
    properties, additionalProperties, items and the bounds above, and
    ignores the rest.  Raises ConfigError at the JSON pointer of the first
    violation."""
    schema = config_schema() if schema is None else schema
    at = pointer or "/"
    kinds = schema.get("type", [])
    kinds = [kinds] if isinstance(kinds, str) else kinds
    if kinds and not any(_TYPES[k](value) for k in kinds):
        raise ConfigError(f"expected {' or '.join(kinds)}, got {reprlib.repr(value)}", at)
    if kinds == ["integer"]:
        value = int(value)
    elif kinds == ["number"]:
        value = float(value)
    if "enum" in schema and value not in schema["enum"]:
        raise ConfigError(f"expected one of {', '.join(map(json.dumps, schema['enum']))}", at)
    if isinstance(value, str) and "pattern" in schema and not re.search(schema["pattern"], value):
        raise ConfigError(f"{value!r} does not match {schema['pattern']}", at)
    size = len(value) if isinstance(value, list) else value
    bounds = (_LENGTH_BOUNDS if isinstance(value, list)
              else _NUMBER_BOUNDS if _TYPES["number"](value) else {})
    for key, holds in bounds.items():
        if key in schema and not holds(size, schema[key]):
            raise ConfigError(f"violates {key} {schema[key]} (got {size})", at)
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ConfigError(f"missing required key {key!r}", f"{pointer}/{key}")
        props, extra = schema.get("properties", {}), schema.get("additionalProperties", {})
        checked = {}
        for key, item in value.items():
            where = f"{pointer}/{str(key).replace('~', '~0').replace('/', '~1')}"
            if props.get(key, extra) is False:
                raise ConfigError(f"unknown key {key!r}", where)
            checked[key] = validate(item, props.get(key, extra), where)
        value = checked
    if isinstance(value, list):
        value = [validate(item, schema.get("items", {}), f"{pointer}/{k}")
                 for k, item in enumerate(value)]
    return value


def parse_group(name: str, pointer: str) -> lc.GroupDescriptor:
    name = name.strip()
    if name == "U(1)":
        return lc.u1()
    for prefix, builder in (("SU", lc.su), ("SO", lc.so), ("GL", lc.gl),
                            ("UT", lc.unipotent)):
        if name.startswith(prefix + "(") and name.endswith(")"):
            try:
                return builder(int(name[len(prefix) + 1:-1]))
            except ValueError as exc:
                raise ConfigError(f"bad group size in {name!r}", pointer) from exc
    raise ConfigError(f"unknown group {name!r}", pointer)


def parse_crossed_module(spec: str, pointer: str) -> hg.CrossedModule:
    spec = spec.strip()
    if spec == "b_u1":
        return hg.make_b_abelian(lc.u1())
    if spec.startswith("eg:"):
        return hg.make_eg(parse_group(spec[3:], pointer))
    if spec.startswith("aut_inner:"):
        return hg.make_aut_inner(parse_group(spec[10:], pointer))
    raise ConfigError(f"unknown crossed module {spec!r} "
                      "(expected b_u1, eg:<group>, aut_inner:<group>)", pointer)


def _parse_one_form(tables, desc, ambient_dim, pointer):
    if tables is None:
        return fm.zero_one_form(desc, ambient_dim)
    if len(tables) != ambient_dim:
        raise ConfigError(f"expected {ambient_dim} component matrices", pointer)
    try:
        return fm.one_form_from_expressions(desc, tables, ambient_dim)
    except (HolonomyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc), pointer) from exc


def _parse_two_form(tables, desc, ambient_dim, pointer):
    parsed = {}
    for key, matrix in tables.items():
        ij = re.fullmatch(r"\(?\s*(\d+)\s*,\s*(\d+)\s*\)?", key)
        i, j = (int(ij[1]) - 1, int(ij[2]) - 1) if ij else (-1, -1)
        if not 0 <= i < j < ambient_dim:
            raise ConfigError(f"bad two-form key {key!r} (want 'i,j' with "
                              f"1 <= i < j <= {ambient_dim})", f"{pointer}/{key}")
        parsed[(i, j)] = matrix
    try:
        return fm.two_form_from_expressions(desc, parsed, ambient_dim)
    except (HolonomyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc), pointer) from exc


@contextlib.contextmanager
def _pair_gates_located():
    """An algebra-gate MembershipError on A or B, as a ConfigError there;
    a fake-curvature rejection, as a ConfigError at B, the 2-form that
    dA + [A ^ A] = t_* B fixes; an ExpressionError, which past parsing
    only differentiating A can raise (a divisor that folds to 0 in dA), as
    a ConfigError at A."""
    try:
        yield
    except MembershipError as exc:
        if exc.form is None:
            raise
        raise ConfigError(str(exc), f"/{exc.form}") from exc
    except FakeCurvatureError as exc:
        raise ConfigError(str(exc), "/B") from exc
    except ExpressionError as exc:
        raise ConfigError(str(exc), "/A") from exc


class Experiment:
    """A configuration checked against the config schema, then parsed."""

    def __init__(self, cfg: dict):
        cfg = validate(cfg)
        self.ambient_dim = cfg["ambient_dim"]
        self.cm = parse_crossed_module(cfg["crossed_module"], "/crossed_module")
        self.A = _parse_one_form(cfg.get("A"), self.cm.G, self.ambient_dim, "/A")
        self.B = _parse_two_form(cfg.get("B", {}), self.cm.H, self.ambient_dim, "/B")
        self.seed = cfg.get("seed", 0)
        self.fc_tolerance = cfg.get("fc_tolerance", fm.default_fc_tolerance(self.A))
        self.box = cfg.get("box")
        if self.box is not None and len(self.box) != self.ambient_dim:
            raise ConfigError(f"box needs {self.ambient_dim} [lo, hi] intervals", "/box")
        try:
            self.integrator = tp.IntegratorConfig(**cfg.get("integrator", {}))
        except ValueError as exc:  # n_quad_t must be even
            raise ConfigError(str(exc), "/integrator") from exc
        self.fd = ex.FdConfig(**cfg.get("fd", {}))
        self.geometry = cfg.get("geometry", {})
        self.grid = bf.GridSpec(**cfg.get("grid", {}))
        self.pairing = bf.PairingSpec(cfg.get("pairing", "neg_trace"))
        self.n_directions = cfg.get("n_directions", 8)

    def sampling_box(self):
        """The box (None: the unit box) for commands that sample it."""
        if self.ambient_dim > MAX_DIM:
            raise ConfigError(f"sampling supports at most {MAX_DIM} dimensions",
                              "/ambient_dim")
        return self.box

    def pair(self) -> fm.ConnectionPair:
        with _pair_gates_located():
            return fm.ConnectionPair(self.cm, self.A, self.B, fc_tolerance=self.fc_tolerance,
                                     box=self.sampling_box(), seed=self.seed)

    def _geometry(self, key: str, build):
        """build(expressions) for geometry.<key>, one expression per
        coordinate, with its errors located."""
        pointer = f"/geometry/{key}"
        if key not in self.geometry:
            raise ConfigError(f"command needs geometry.{key}", pointer)
        if len(self.geometry[key]) != self.ambient_dim:
            raise ConfigError(f"{key} needs one expression per coordinate", pointer)
        try:
            return build(self.geometry[key])
        except (HolonomyError, ValueError) as exc:
            raise ConfigError(str(exc), pointer) from exc

    def geometry_path(self) -> geo.Path:
        return self._geometry("path", geo.path_from_expressions)

    def geometry_loop(self) -> geo.Loop:
        return self._geometry("loop", geo.loop_from_expressions)

    def geometry_bigon(self) -> geo.Bigon:
        return self._geometry(
            "bigon", lambda e: geo.standard_bigon(geo.chart_from_expressions(e), 1.0, 1.0))

    def geometry_loop_path(self) -> geo.Bigon:
        return self._geometry("loop_path", geo.loop_path_from_expressions)

    def geometry_variation(self) -> object:
        return self._geometry("variation", lambda e: geo.loop_from_expressions(e).point)


# ---------------------------------------------------------------------------
# commands

def _cmd_holonomy(exp: Experiment) -> dict:
    # only the 1-form is needed; no fake-curvature gate for path transport
    if "loop" in exp.geometry:
        gamma = geo.loop_to_path(exp.geometry_loop())
    else:
        gamma = exp.geometry_path()
    val = tp.path_transport(exp.A, gamma, exp.integrator)
    defect = lc.group_defect(exp.cm.G, val.matrix)
    return {
        "transport": _matrix_json(val.matrix),
        "group_defect": defect,
        "pass": bool(defect <= 1e-6),
    }


def _cmd_surface(exp: Experiment) -> dict:
    pair = exp.pair()
    sigma = exp.geometry_bigon()
    res = tp.surface_transport(pair, sigma, exp.integrator)
    residual = res.matching_residual()
    return {
        "k": _matrix_json(res.h_part.matrix),
        "g_source": _matrix_json(res.source.matrix),
        "g_target": _matrix_json(res.target.matrix),
        "matching_residual": residual,
        "pass": bool(residual <= 1e-6),
    }


def _cmd_check_cm(exp: Experiment) -> dict:
    report = hg.verify_axioms(exp.cm, n_samples=200, tol=1e-9, seed=exp.seed)
    return report.as_dict()


def _cmd_check_fc(exp: Experiment) -> dict:
    report = fm.fake_curvature_residual(exp.cm, exp.A, exp.B, exp.sampling_box(),
                                        n_samples=256, seed=exp.seed)
    out = report.as_dict()
    out["tolerance"] = exp.fc_tolerance
    out["pass"] = bool(report.max_residual <= exp.fc_tolerance)
    return out


def _cmd_roundtrip(exp: Experiment) -> dict:
    pair = exp.pair()
    functor = tp.two_functor(pair, exp.integrator)
    box = np.asarray(pair.box, dtype=float)
    inner = np.stack([box[:, 0] + 0.25 * (box[:, 1] - box[:, 0]),
                      box[:, 0] + 0.75 * (box[:, 1] - box[:, 0])], axis=-1)
    xs = halton_box(inner, 4, exp.seed)
    rng = np.random.default_rng(exp.seed)
    err_a = 0.0
    err_b = 0.0
    for x in xs:
        v1 = rng.standard_normal(exp.ambient_dim)
        v2 = rng.standard_normal(exp.ambient_dim)
        got_a = ex.extract_one_form(functor.on_path, x, v1, exp.fd)
        err_a = max(err_a, float(np.max(np.abs(got_a.matrix - pair.A.matrices_at(x, v1)))))
        got_b = ex.extract_two_form(functor.on_bigon, x, v1, v2, exp.fd)
        err_b = max(err_b, float(np.max(np.abs(got_b.matrix - pair.B.matrices_at(x, v1, v2)))))
    return {
        "max_error_one_form": err_a,
        "max_error_two_form": err_b,
        "n_points": len(xs),
        "pass": bool(err_a <= 5e-5 and err_b <= 1e-4),
    }


def _cmd_stokes(exp: Experiment) -> dict:
    gamma = exp.geometry_path()
    if not float(np.max(np.abs(gamma.end() - gamma.start()))) <= 1e-10:
        raise ConfigError("stokes needs a closed geometry.path", "/geometry/path")
    sigma = geo.contraction_bigon(gamma)
    report = tp.stokes_check(exp.A, sigma, exp.integrator)
    return {
        "lhs": _matrix_json(report.lhs.matrix),
        "rhs": _matrix_json(report.rhs.matrix),
        "error": report.error,
        "pass": bool(report.error <= 1e-5),
    }


def _cmd_bf(exp: Experiment) -> dict:
    if exp.ambient_dim != 4:
        raise ConfigError("bf needs ambient_dim 4", "/ambient_dim")
    grid, pairing = exp.grid, exp.pairing
    action = bf.bf_action(exp.cm, exp.A, exp.B, pairing, grid)
    dec = bf.action_decomposition(exp.cm, exp.A, exp.B, pairing, grid)
    crit = bf.criticality_check(exp.cm, exp.A, exp.B, pairing, grid,
                                n_directions=exp.n_directions, seed=exp.seed)
    est = bf.quadrature_error_estimate(exp.cm, exp.A, exp.B, pairing, grid)
    decomposition_gap = abs(dec.total - action)
    return {
        "S": action,
        "terms": {
            "yang_mills": dec.yang_mills,
            "bf_term": dec.bf_term,
            "cosmological": dec.cosmological,
        },
        "quadrature_error_estimate": est,
        "beta_sup": crit.beta_sup,
        "criticality": crit.as_dict(),
        "pass": bool(decomposition_gap <= 1e-9),
    }


def _cmd_transgress(exp: Experiment) -> dict:
    # only the loop_path route compares two results; the loop route reports
    # phi, A and the loop holonomy alongside it
    loop_route = "loop" in exp.geometry or "variation" in exp.geometry
    if loop_route:
        tau = exp.geometry_loop()
        tangent = tg.LoopTangent(tau, exp.geometry_variation())
    if "loop_path" not in exp.geometry:
        raise ConfigError("transgress needs geometry.loop_path, the route that checks "
                          "consistency", "/geometry")
    lp = exp.geometry_loop_path()
    pair = exp.pair()
    out = {}
    if loop_route:
        phi = tg.transgressed_phi(pair, tangent, exp.integrator)
        a_val = tg.transgressed_A(pair, tangent)
        hol = tg.loop_holonomy(pair, tau, exp.integrator)
        out["phi"] = _matrix_json(phi.matrix)
        out["A_base"] = _matrix_json(a_val.matrix)
        out["holonomy"] = _matrix_json(hol.matrix)
    rep = tg.transgression_consistency(pair, lp, exp.integrator)
    out["consistency_defect"] = rep.defect
    out["pass"] = bool(rep.defect <= 1e-4)
    return out


_HANDLERS = {
    "holonomy": _cmd_holonomy,
    "surface": _cmd_surface,
    "check-cm": _cmd_check_cm,
    "check-fc": _cmd_check_fc,
    "roundtrip": _cmd_roundtrip,
    "stokes": _cmd_stokes,
    "bf": _cmd_bf,
    "transgress": _cmd_transgress,
}


def run(command: str, cfg: dict, config_bytes: bytes | None = None) -> dict:
    """Execute a command against a parsed configuration; returns the report
    dictionary (deterministic for a fixed config and seed)."""
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command {command!r}")
    exp = Experiment(cfg)
    declared = cfg.get("command")
    if declared is not None and declared != command:
        raise ConfigError(f"config declares command {declared!r}", "/command")
    with _pair_gates_located():
        result = _HANDLERS[command](exp)
    digest = hashlib.sha256(
        config_bytes if config_bytes is not None
        else json.dumps(cfg, sort_keys=True).encode()
    ).hexdigest()
    report = {
        "command": command,
        "tool_version": __version__,
        "config_hash": digest,
        "seed": exp.seed,
        "tolerances": {
            "fc_tolerance": exp.fc_tolerance,
            "fd_step": exp.fd.step,
            "matching_hard_limit": tp.MATCHING_HARD_LIMIT,
        },
        "integrator": {
            "n_steps_path": exp.integrator.n_steps_path,
            "n_steps_surface_s": exp.integrator.n_steps_surface_s,
            "n_quad_t": exp.integrator.n_quad_t,
        },
        "result": result,
        "pass": bool(result.get("pass", True)),
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="higher-holonomy",
        description="surface holonomy experiments from JSON configs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--steps", type=int, default=None,
                       help="override all integrator step counts")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "rb") as fh:
            config_bytes = fh.read()
        try:
            cfg = validate(json.loads(config_bytes))  # the overrides need an object
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}", "/") from exc
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.steps is not None:
            cfg["integrator"] = {**cfg.get("integrator", {}), "n_steps_path": max(8, args.steps),
                                 "n_steps_surface_s": args.steps,
                                 "n_quad_t": args.steps + args.steps % 2}
        report = run(args.command, cfg, config_bytes)
    except HolonomyError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    text = dump_json(report) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
