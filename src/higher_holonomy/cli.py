"""Batch front end: JSON config in, deterministic JSON report out.

Commands: holonomy, surface, check-cm, check-fc, roundtrip, stokes, bf,
transgress.  Every report embeds the config hash, tool version, seed and
the tolerances used; floats are serialized with 17 significant digits so
identical configs and seeds produce byte-identical output.  Exit code 0
iff all embedded pass flags are true.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
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
from .errors import ConfigError, HolonomyError

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
    if not isinstance(spec, str):
        raise ConfigError("crossed module must be a string", pointer)
    spec = spec.strip()
    if spec == "b_u1":
        return hg.make_b_abelian(lc.u1())
    if spec.startswith("eg:"):
        return hg.make_eg(parse_group(spec[3:], pointer))
    if spec.startswith("aut_inner:"):
        return hg.make_aut_inner(parse_group(spec[10:], pointer))
    raise ConfigError(f"unknown crossed module {spec!r} "
                      "(expected b_u1, eg:<group>, aut_inner:<group>)", pointer)


def _require(cfg: dict, key: str, pointer: str = ""):
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r}", pointer or f"/{key}")
    return cfg[key]


def _convert(kind, value, pointer: str):
    """kind(value) (int or float), or a ConfigError at `pointer`."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"expected {what}, got {value!r}", pointer) from exc


def _parse_box(box, ambient_dim: int):
    if not box:
        return None
    if not isinstance(box, list) or len(box) != ambient_dim:
        raise ConfigError(f"box needs {ambient_dim} [lo, hi] intervals", "/box")
    for k, iv in enumerate(box):
        if not isinstance(iv, list) or len(iv) != 2:
            raise ConfigError("box interval must be [lo, hi]", f"/box/{k}")
    return tuple(tuple(_convert(float, c, f"/box/{k}/{m}") for m, c in enumerate(iv))
                 for k, iv in enumerate(box))


def _parse_one_form(tables, desc, ambient_dim, pointer):
    if tables is None:
        return fm.zero_one_form(desc, ambient_dim)
    if not isinstance(tables, list) or len(tables) != ambient_dim:
        raise ConfigError(f"expected {ambient_dim} component matrices", pointer)
    try:
        return fm.one_form_from_expressions(desc, tables, ambient_dim)
    except (HolonomyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc), pointer) from exc


def _parse_two_form(tables, desc, ambient_dim, pointer):
    if tables is None:
        return fm.two_form_from_expressions(desc, {}, ambient_dim)
    if not isinstance(tables, dict):
        raise ConfigError("expected an object of 'i,j' keys", pointer)
    parsed = {}
    for key, matrix in tables.items():
        parts = key.replace("(", "").replace(")", "").split(",")
        if len(parts) != 2:
            raise ConfigError(f"bad two-form key {key!r} (want 'i,j')", f"{pointer}/{key}")
        try:
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
        except ValueError as exc:
            raise ConfigError(f"bad two-form key {key!r} (want 'i,j')",
                              f"{pointer}/{key}") from exc
        if not 0 <= i < j < ambient_dim:
            raise ConfigError(f"two-form key {key!r} out of range", f"{pointer}/{key}")
        parsed[(i, j)] = matrix
    try:
        return fm.two_form_from_expressions(desc, parsed, ambient_dim)
    except (HolonomyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc), pointer) from exc


class Experiment:
    """Validated experiment configuration."""

    def __init__(self, cfg: dict):
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be an object", "/")
        self.ambient_dim = _convert(int, _require(cfg, "ambient_dim"), "/ambient_dim")
        if self.ambient_dim < 1:
            raise ConfigError("ambient_dim must be positive", "/ambient_dim")
        self.cm = parse_crossed_module(_require(cfg, "crossed_module"), "/crossed_module")
        self.A = _parse_one_form(cfg.get("A"), self.cm.G, self.ambient_dim, "/A")
        self.B = _parse_two_form(cfg.get("B"), self.cm.H, self.ambient_dim, "/B")
        self.seed = _convert(int, cfg.get("seed", 0), "/seed")
        fc_tolerance = cfg.get("fc_tolerance")
        self.fc_tolerance = (None if fc_tolerance is None
                             else _convert(float, fc_tolerance, "/fc_tolerance"))
        self.box = _parse_box(cfg.get("box"), self.ambient_dim)

        icfg = cfg.get("integrator", {})
        if not isinstance(icfg, dict):
            raise ConfigError("integrator must be an object", "/integrator")
        fields = dataclasses.fields(tp.IntegratorConfig)
        for key in icfg:
            if key not in {f.name for f in fields}:
                raise ConfigError(f"unknown integrator key {key!r}", f"/integrator/{key}")
        steps = {f.name: _convert(int, icfg.get(f.name, f.default), f"/integrator/{f.name}")
                 for f in fields}
        try:
            self.integrator = tp.IntegratorConfig(**steps)
        except ValueError as exc:
            raise ConfigError(str(exc), "/integrator") from exc
        fcfg = cfg.get("fd", {})
        if not isinstance(fcfg, dict):
            raise ConfigError("fd must be an object", "/fd")
        try:
            self.fd = ex.FdConfig(step=_convert(float, fcfg.get("step", 1e-3), "/fd/step"),
                                  richardson=bool(fcfg.get("richardson", True)))
        except ValueError as exc:
            raise ConfigError(str(exc), "/fd") from exc
        self.geometry = cfg.get("geometry", {})
        if not isinstance(self.geometry, dict):
            raise ConfigError("geometry must be an object", "/geometry")

        # bf settings are checked for every command, so a bad value fails before any work
        grid_cfg = cfg.get("grid", {})
        if not isinstance(grid_cfg, dict):
            raise ConfigError("grid must be an object", "/grid")
        try:
            self.grid = bf.GridSpec(_convert(int, grid_cfg.get("n", 12), "/grid/n"))
        except ValueError as exc:
            raise ConfigError(str(exc), "/grid/n") from exc
        try:
            self.pairing = bf.PairingSpec(cfg.get("pairing", "neg_trace"))
        except ValueError as exc:
            raise ConfigError(str(exc), "/pairing") from exc
        self.n_directions = _convert(int, cfg.get("n_directions", 8), "/n_directions")
        if self.n_directions < 1:
            raise ConfigError("n_directions must be at least 1", "/n_directions")

    def pair(self) -> fm.ConnectionPair:
        return fm.ConnectionPair(self.cm, self.A, self.B, fc_tolerance=self.fc_tolerance,
                                 box=self.box, seed=self.seed)

    def _geometry(self, key: str, build):
        """build(expressions) for geometry.<key>, with its errors located."""
        pointer = f"/geometry/{key}"
        exprs = self.geometry.get(key)
        if exprs is None:
            raise ConfigError(f"command needs geometry.{key}", pointer)
        if not isinstance(exprs, list):
            raise ConfigError("expected a list of expressions", pointer)
        try:
            return build(exprs)
        except (HolonomyError, TypeError, ValueError) as exc:
            raise ConfigError(str(exc), pointer) from exc

    def geometry_path(self) -> geo.Path:
        exprs = self.geometry.get("path")
        if isinstance(exprs, list) and len(exprs) != self.ambient_dim:
            raise ConfigError("path needs one expression per coordinate", "/geometry/path")
        return self._geometry("path", geo.path_from_expressions)

    def geometry_loop(self) -> geo.Loop:
        return self._geometry("loop", geo.loop_from_expressions)

    def geometry_bigon(self) -> geo.Bigon:
        return self._geometry(
            "bigon", lambda e: geo.standard_bigon(geo.chart_from_expressions(e), 1.0, 1.0))

    def geometry_loop_path(self) -> tg.LoopPath:
        return self._geometry("loop_path", tg.loop_path_from_expressions)

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
    return {
        "k": _matrix_json(res.k.matrix),
        "g_source": _matrix_json(res.g_source.matrix),
        "g_target": _matrix_json(res.g_target.matrix),
        "matching_residual": res.matching_residual,
        "pass": bool(res.matching_residual <= 1e-6),
    }


def _cmd_check_cm(exp: Experiment) -> dict:
    report = hg.verify_axioms(exp.cm, n_samples=200, tol=1e-9, seed=exp.seed)
    return report.as_dict()


def _cmd_check_fc(exp: Experiment) -> dict:
    report = fm.fake_curvature_residual(exp.cm, exp.A, exp.B, exp.box,
                                        n_samples=256, seed=exp.seed)
    tol = exp.fc_tolerance if exp.fc_tolerance is not None else \
        (1e-5 if exp.A.is_symbolic else 1e-3)
    out = report.as_dict()
    out["tolerance"] = tol
    out["pass"] = bool(report.max_residual <= tol)
    return out


def _cmd_roundtrip(exp: Experiment) -> dict:
    from .sampling import halton_box

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
    if float(np.max(np.abs(gamma.end() - gamma.start()))) > 1e-10:
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
    pair = exp.pair()
    out = {}
    ok = True
    if "loop" in exp.geometry and "variation" in exp.geometry:
        tau = exp.geometry_loop()
        tangent = tg.LoopTangent(tau, exp.geometry_variation())
        phi = tg.transgressed_phi(pair, tangent, exp.integrator)
        a_val = tg.transgressed_A(pair, tangent)
        hol = tg.loop_holonomy(pair, tau, exp.integrator)
        out["phi"] = _matrix_json(phi.matrix)
        out["A_base"] = _matrix_json(a_val.matrix)
        out["holonomy"] = _matrix_json(hol.matrix)
    if "loop_path" in exp.geometry:
        lp = exp.geometry_loop_path()
        rep = tg.transgression_consistency(pair, lp, exp.integrator)
        out["consistency_defect"] = rep.defect
        ok = ok and rep.defect <= 1e-4
    out["pass"] = bool(ok)
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
            "fc_tolerance": exp.fc_tolerance if exp.fc_tolerance is not None else
            (1e-5 if exp.A.is_symbolic else 1e-3),
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
            cfg = json.loads(config_bytes)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}", "/") from exc
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.steps is not None:
            exp_probe = dict(cfg)
            icfg = dict(exp_probe.get("integrator", {}))
            icfg["n_steps_path"] = max(8, args.steps)
            icfg["n_steps_surface_s"] = args.steps
            icfg["n_quad_t"] = args.steps if args.steps % 2 == 0 else args.steps + 1
            cfg["integrator"] = icfg
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
