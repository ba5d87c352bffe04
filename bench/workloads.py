"""Seeded inputs, operations and correctness checks for the benchmark.

A workload is a pool of operations generated from a seed.  Every operation
but one kind is a CLI command run in-process on a generated JSON config;
the morphism-calculus operation, which has no CLI command, is a sequence
of public library calls on seeded parameters.  The program only ever sees
the generated configs.

Expression structure is fixed per operation kind and only coefficients,
curves and sample points are drawn from the seed, so the cost of an
operation hardly depends on the seed while its inputs and report do.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass

import numpy as np

# su(2) basis: [[i, 0], [0, -i]], [[0, 1], [-1, 0]], [[0, i], [i, 0]]
SU2_BASIS = (
    np.array([[1j, 0], [0, -1j]]),
    np.array([[0, 1], [-1, 0]], dtype=complex),
    np.array([[0, 1j], [1j, 0]]),
)

# Workload -> the operation kinds timed as its op1_s and op2_s metrics.
WORKLOADS = {
    "sweep": ("surface", "stokes"),
    "probes": ("roundtrip", "morphism"),
    "loops": ("transgress", "holonomy"),
    "fields": ("bf", "check_cm"),
}

# Pinned acceptance tolerances (tests/test_acceptance.py and cli.py).
TOL_MATCHING = 1e-6
TOL_STOKES = 1e-5
TOL_ONE_FORM = 5e-5
TOL_TWO_FORM = 1e-4
TOL_TRANSGRESS = 1e-4
TOL_GROUP = 1e-6
TOL_AXIOMS = 1e-9
TOL_BF_FLAT = 1e-4
TOL_BF_DECOMPOSITION = 1e-9
MIN_BF_SPOILED_BETA = 0.2
MIN_BF_SPOILED_DS = 1e-2
TOL_MORPHISM = 1e-4


@dataclass(frozen=True)
class Op:
    """One benchmark operation: `command` is a CLI command name, or None
    for the morphism-calculus sequence; `text` is its JSON input."""

    kind: str
    name: str
    command: str | None
    text: str


@dataclass(frozen=True)
class Check:
    ok: bool
    problems: tuple
    share: float


# ---------------------------------------------------------------------------
# matrix-valued polynomials: {exponent tuple: 2x2 complex matrix}

def _mono(n, var=None):
    e = [0] * n
    if var is not None:
        e[var] += 1
    return tuple(e)


def _padd(p, q, factor=1.0):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + factor * c
    return out


def _pmul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 @ c2
    return out


def _pdiff(p, var):
    out = {}
    for m, c in p.items():
        if m[var]:
            e = list(m)
            e[var] -= 1
            out[tuple(e)] = out.get(tuple(e), 0) + m[var] * c
    return out


def _num(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    if im == 0.0:
        return f"({re!r})"
    if re == 0.0:
        return f"({im!r}*i)"
    return f"({re!r} + {im!r}*i)"


def _render(p, r, c, extra=0j):
    """Expression string of entry (r, c) of a matrix polynomial; `extra`
    is added to the constant term."""
    n = len(next(iter(p))) if p else 0
    const = _mono(n) if n else ()
    terms = []
    for m in sorted(set(p) | {const}):
        z = complex(p[m][r, c]) if m in p else 0j
        if m == const:
            z += extra
        if z == 0:
            continue
        factors = [_num(z)] + [f"x{k + 1}^{e}" if e > 1 else f"x{k + 1}"
                               for k, e in enumerate(m) if e]
        terms.append("*".join(factors))
    return " + ".join(terms) if terms else "0"


def _table(p, extra=None):
    extra = np.zeros((2, 2), dtype=complex) if extra is None else extra
    return [[_render(p, r, c, extra[r, c]) for c in range(2)] for r in range(2)]


def _coef(rng, lo=0.3, hi=0.45):
    """A coefficient of seeded magnitude in [lo, hi] and seeded sign."""
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))


def _su2_one_form(rng, n, layout):
    """A_i = sum of coef * x^m * basis[b] over layout[i] = [(b, var), ...]
    (var None for a constant term)."""
    comps = []
    for terms in layout:
        p = {}
        for b, var in terms:
            p = _padd(p, {_mono(n, var): _coef(rng) * SU2_BASIS[b]})
        comps.append(p)
    return comps


def _curvature(comps, i, j):
    """K_ij = d_i A_j - d_j A_i + [A_i, A_j] of a polynomial one-form."""
    k = _padd(_pdiff(comps[j], i), _pdiff(comps[i], j), -1.0)
    k = _padd(k, _pmul(comps[i], comps[j]))
    return _padd(k, _pmul(comps[j], comps[i]), -1.0)


# Fixed term layouts; only coefficients vary with the seed.
LAYOUT_2D = [[(0, 1), (1, 0)], [(0, None), (2, 1)]]
LAYOUT_4D = [[(0, 1)], [(1, 0)], [(0, 3), (2, 2)], [(2, 1)]]


def _fake_flat_tables(rng, n, layout, spoil=0.0):
    comps = _su2_one_form(rng, n, layout)
    a_tables = [_table(c) for c in comps]
    b_tables = {}
    for i in range(n):
        for j in range(i + 1, n):
            k = _curvature(comps, i, j)
            if any(np.any(c != 0) for c in k.values()):
                extra = spoil * SU2_BASIS[0] if (i, j) == (0, 1) else None
                b_tables[f"{i + 1},{j + 1}"] = _table(k, extra)
    return a_tables, b_tables


def _cfg(command, **body) -> str:
    return json.dumps({"command": command, **body}, sort_keys=True)


def _r(rng, lo, hi):
    return float(rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# per-kind generators

def gen_surface(rng, crossed_module):
    a, b = _fake_flat_tables(rng, 2, LAYOUT_2D)
    c1, c2 = _r(rng, -0.2, 0.2), _r(rng, -0.2, 0.2)
    bigon = [f"s + {c1!r}*s*t*(1 - s)", f"t + {c2!r}*s*t*(1 - t)"]
    return _cfg("surface", ambient_dim=2, crossed_module=crossed_module, A=a, B=b,
                geometry={"bigon": bigon}, seed=int(rng.integers(0, 1000)))


def gen_stokes(rng):
    a, _ = _fake_flat_tables(rng, 2, LAYOUT_2D)
    cx, cy = _r(rng, 0.4, 0.6), _r(rng, 0.4, 0.6)
    rx, ry = _r(rng, 0.25, 0.4), _r(rng, 0.25, 0.4)
    e = _r(rng, -0.05, 0.05)
    path = [f"{cx!r} + {rx!r}*cos(2*pi*t) + {e!r}*cos(4*pi*t)",
            f"{cy!r} + {ry!r}*sin(2*pi*t)"]
    return _cfg("stokes", ambient_dim=2, crossed_module="eg:SU(2)", A=a,
                geometry={"path": path}, seed=int(rng.integers(0, 1000)))


ROUNDTRIP_INTEGRATOR = {"n_steps_path": 96, "n_steps_surface_s": 64, "n_quad_t": 64}


def gen_roundtrip_eg(rng):
    a, b = _fake_flat_tables(rng, 2, LAYOUT_2D)
    return _cfg("roundtrip", ambient_dim=2, crossed_module="eg:SU(2)", A=a, B=b,
                integrator=ROUNDTRIP_INTEGRATOR, seed=int(rng.integers(0, 1000)))


def gen_roundtrip_bu1(rng):
    c0, c1, c2 = _r(rng, 0.5, 1.0), _r(rng, -0.5, 0.5), _r(rng, -0.5, 0.5)
    b = {"1,2": [[f"i*({c0!r} + {c1!r}*x1 + {c2!r}*x2^2)"]]}
    return _cfg("roundtrip", ambient_dim=2, crossed_module="b_u1", B=b,
                integrator=ROUNDTRIP_INTEGRATOR, seed=int(rng.integers(0, 1000)))


def gen_transgress(rng):
    b0, b1, b2, b3 = (_r(rng, 0.4, 0.6), _r(rng, -0.3, 0.3), _r(rng, -0.2, 0.2),
                      _r(rng, -0.2, 0.2))
    r, h = _r(rng, 0.5, 0.65), _r(rng, 0.15, 0.3)
    w1, w3 = _r(rng, -0.1, 0.1), _r(rng, 0.2, 0.35)
    b = {"1,2": [[f"i*({b0!r} + {b1!r}*x3)"]], "1,3": [[f"i*{b2!r}*x2"]],
         "2,3": [[f"i*{b3!r}*x1"]]}
    geometry = {
        "loop": [f"{r!r}*cos(2*pi*z)", f"{r!r}*sin(2*pi*z)", f"{h!r}"],
        "variation": [f"{w1!r}*cos(2*pi*z)", "0", f"{w3!r}"],
        "loop_path": [f"{r!r}*cos(2*pi*z)", f"{r!r}*sin(2*pi*z)", "t"],
    }
    return _cfg("transgress", ambient_dim=3, crossed_module="b_u1", B=b,
                box=[[-1, 1], [-1, 1], [0, 1]], geometry=geometry,
                integrator={"n_steps_path": 128, "n_steps_surface_s": 64, "n_quad_t": 64},
                seed=int(rng.integers(0, 1000)))


def gen_holonomy(rng):
    a, _ = _fake_flat_tables(rng, 2, LAYOUT_2D)
    h = _r(rng, -0.8, 0.8)
    return _cfg("holonomy", ambient_dim=2, crossed_module="eg:SU(2)", A=a,
                geometry={"path": ["t", f"{h!r}*t*(1 - t)"]},
                seed=int(rng.integers(0, 1000)))


def gen_bf(rng, spoiled):
    a, b = _fake_flat_tables(rng, 4, LAYOUT_4D, spoil=0.3 if spoiled else 0.0)
    return _cfg("bf", ambient_dim=4, crossed_module="eg:SU(2)", A=a, B=b,
                grid={"n": 12}, pairing="neg_trace", n_directions=8,
                seed=int(rng.integers(0, 1000)))


def gen_check_cm(rng, crossed_module):
    return _cfg("check-cm", ambient_dim=2, crossed_module=crossed_module,
                seed=int(rng.integers(0, 1000)))


def gen_morphism(rng):
    """Seeded parameters of criterion 10's construction: the path, the
    probe point and vector, and the modification's scalar exponent."""
    x0, y0 = _r(rng, 0.1, 0.3), _r(rng, 0.2, 0.4)
    dx, dy, hump = _r(rng, 0.4, 0.7), _r(rng, 0.1, 0.3), _r(rng, -0.4, 0.4)
    params = {
        "path": [f"{x0!r} + {dx!r}*t", f"{y0!r} + {hump!r}*t*(1 - t) + {dy!r}*t"],
        "x": [_r(rng, 0.3, 0.6), _r(rng, 0.3, 0.6)],
        "v": [_r(rng, -1.0, 1.0), _r(rng, -1.0, 1.0)],
        "a_exponent": f"{_r(rng, 0.2, 0.6)!r}*x2 + {_r(rng, 0.1, 0.3)!r}*x1",
    }
    return json.dumps(params, sort_keys=True)


# One cycle of each workload, in run order, as (shape, kind, command, input).
def _cycle(workload, rng):
    if workload == "sweep":
        return [
            ("surface-eg", "surface", "surface", gen_surface(rng, "eg:SU(2)")),
            ("stokes", "stokes", "stokes", gen_stokes(rng)),
            ("surface-aut", "surface", "surface", gen_surface(rng, "aut_inner:SU(2)")),
            ("stokes", "stokes", "stokes", gen_stokes(rng)),
        ]
    if workload == "probes":
        return [
            ("roundtrip-eg", "roundtrip", "roundtrip", gen_roundtrip_eg(rng)),
            ("morphism", "morphism", None, gen_morphism(rng)),
            ("roundtrip-bu1", "roundtrip", "roundtrip", gen_roundtrip_bu1(rng)),
        ]
    if workload == "loops":
        out = []
        for _ in range(2):
            out.append(("transgress", "transgress", "transgress", gen_transgress(rng)))
            out += [("holonomy", "holonomy", "holonomy", gen_holonomy(rng)) for _ in range(4)]
        return out
    if workload == "fields":
        # check-cm is cheap: four of each crossed module per two bf runs
        # give its median enough samples
        out = []
        for spoiled in (False, True):
            out.append(("bf-spoiled" if spoiled else "bf-flat", "bf", "bf",
                        gen_bf(rng, spoiled=spoiled)))
            for _ in range(2):
                out += [(f"check-cm-{tag}", "check_cm", "check-cm", gen_check_cm(rng, cm))
                        for tag, cm in (("eg", "eg:SU(2)"), ("aut", "aut_inner:SU(2)"),
                                        ("bu1", "b_u1"))]
        return out
    raise ValueError(f"unknown workload {workload!r}")


# Seeded cycles per pool; a closed-loop run repeats the pool.
CYCLES = {"sweep": 6, "probes": 2, "loops": 2, "fields": 1}

# The first cycle of every pool is drawn from this fixed seed, whatever the
# workload seed: tolerance_share is taken over it, so that figure compares
# the same inputs between runs and commits.
REFERENCE_SEED = 0


def make_pool(workload: str, seed: int) -> list:
    """The workload's operations for `seed`: the reference cycle, then the
    seeded cycles.  The same seed gives the same pool, byte for byte."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    salt = zlib.crc32(workload.encode())
    reference = _cycle(workload, np.random.default_rng([REFERENCE_SEED, salt, 1]))
    rng = np.random.default_rng([int(seed), salt])
    seeded = [op for _ in range(CYCLES[workload]) for op in _cycle(workload, rng)]
    pool = []
    seen = {}
    for tag, ops in (("ref", reference), ("", seeded)):
        for shape, kind, command, text in ops:
            n = seen[shape, tag] = seen.get((shape, tag), -1) + 1
            pool.append(Op(kind, f"{shape}-{tag}{n}", command, text))
    return pool


def shape_of(op: Op) -> str:
    """The input shape an operation was generated as, e.g. roundtrip-bu1."""
    return op.name.rsplit("-", 1)[0]


def is_reference(op: Op) -> bool:
    return op.name.rsplit("-", 1)[1].startswith("ref")


# ---------------------------------------------------------------------------
# running and checking

def parse(op: Op):
    """The program-side parse of an operation's input (what setup pays)."""
    from higher_holonomy import cli

    if op.command is None:
        return _morphism_data(json.loads(op.text))
    return cli.Experiment(json.loads(op.text))


def _morphism_data(params):
    """Criterion 10's construction, with A' built per point through the
    public API (the library has no vectorized gauge transform)."""
    from higher_holonomy import forms as fm
    from higher_holonomy import geometry as geo
    from higher_holonomy import higher_group as hg
    from higher_holonomy import lie_core as lc

    su2 = lc.su(2)

    def table(a, b, c):
        return [[f"i*({a})", f"({b}) + i*({c})"], [f"-({b}) + i*({c})", f"-i*({a})"]]

    a = fm.one_form_from_expressions(
        su2, [table("0.4*x2", "0.3*x1", "0"), table("0.2", "0", "0.5*x2")], 2)
    cm = hg.make_eg(su2)
    x0 = lc.AlgebraElement(su2, 0.5j * np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, -1.0]]))
    g_map = fm.exp_scalar_family(su2, "0.6*x1 + 0.3*x2^2", x0, 2)
    phi = fm.one_form_from_expressions(
        su2, [table("0.2*x2", "0", "0.1"), table("0.15*x1", "0.1", "0")], 2)

    def a_prime_component(i):
        def comp(x, i=i):
            e = np.zeros(2)
            e[i] = 1.0
            g = g_map.matrix(x)
            ad = g @ a.matrices_at(x, e) @ np.linalg.inv(g)
            return ad - g_map.mc_pullback(x, e) - hg.t_star(cm, phi(x, e)).matrix
        return comp

    a_prime = fm.OneFormField(
        su2, [fm.CallableMatrixField(a_prime_component(i), 2, 2, vectorized=False)
              for i in range(2)], 2)
    y0 = lc.AlgebraElement(su2, 0.4j * np.array([[1.0, 0.5], [0.5, -1.0]]))
    a_map = fm.exp_scalar_family(su2, params["a_exponent"], y0, 2)
    gamma = geo.path_from_expressions(params["path"])
    return {"cm": cm, "a": a, "g_map": g_map, "phi": phi, "a_prime": a_prime,
            "a_map": a_map, "gamma": gamma, "x": np.asarray(params["x"], dtype=float),
            "v": np.asarray(params["v"], dtype=float)}


def run_morphism(text: str) -> dict:
    """Transformation transport with its matching check, extraction of phi
    at one seeded (x, v) with the prop-2 connection-equation residual
    there, then the derived modification target and its prop-3 residual."""
    from higher_holonomy import extraction as ex
    from higher_holonomy import higher_group as hg
    from higher_holonomy import lie_core as lc
    from higher_holonomy import transport as tp

    d = _morphism_data(json.loads(text))
    cm, a, g_map, phi, a_prime = d["cm"], d["a"], d["g_map"], d["phi"], d["a_prime"]
    x, v = d["x"], d["v"]
    res = tp.transformation_transport(cm, g_map, phi, a_prime, d["gamma"],
                                      tp.IntegratorConfig(n_steps_path=256), a_source=a)

    cfg_rt = tp.IntegratorConfig(n_steps_path=128)

    def rho_h(path):
        return lc.ginv(tp.transformation_transport(cm, g_map, phi, a_prime, path, cfg_rt).h)

    extracted = ex.extract_transformation(g_map, rho_h, lc.su(2), 2)
    phi_xv = extracted.phi(x, v)
    g = g_map.matrix(x)
    lhs = a_prime.matrices_at(x, v) + hg.t_star(cm, phi_xv).matrix
    rhs = g @ a.matrices_at(x, v) @ np.linalg.inv(g) - g_map.mc_pullback(x, v)
    prop2 = lc.frob(lhs - rhs)

    g2_map, phi2 = tp.derived_modification_target(cm, d["a_map"], g_map, phi, a_prime)
    r3 = ex.residual_prop3(cm, d["a_map"], g_map, phi, g2_map, phi2, a_prime, [x])
    return {
        "h": [[complex(z) for z in row] for row in res.h.matrix],
        "phi_xv": [[complex(z) for z in row] for row in phi_xv.matrix],
        "matching_residual": res.matching_residual,
        "prop2_connection": prop2,
        "prop3": r3.max_residual,
        "pass": bool(res.matching_residual <= TOL_MATCHING and prop2 <= TOL_MORPHISM
                     and r3.max_residual <= TOL_MORPHISM),
    }


def execute(op: Op) -> str:
    """Run one operation and return its report serialized by cli.dump_json,
    as the CLI writes it."""
    from higher_holonomy import cli

    if op.command is None:
        report = run_morphism(op.text)
    else:
        report = cli.run(op.command, json.loads(op.text), op.text.encode())
    return cli.dump_json(report) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check(op: Op, text: str) -> Check:
    """The report's pass flag plus the thresholds it does not gate itself.

    `share` is the largest reported error over its pinned tolerance, so a
    share above 1 is a missed tolerance.  Lower bounds (spoiled BF pairs
    must be detected) gate the operation but enter no share.
    """
    report = json.loads(text)
    res = report["result"] if op.command is not None else report
    problems = []
    shares = []

    def upper(label, value, tol):
        shares.append(value / tol)
        if not value <= tol:
            problems.append(f"{label} {value:.3e} > {tol:.0e}")

    def lower(label, value, bound):
        if not value >= bound:
            problems.append(f"{label} {value:.3e} < {bound:.0e}")

    if not report["pass"]:
        problems.append("report pass flag is false")
    if op.kind == "surface":
        upper("matching_residual", res["matching_residual"], TOL_MATCHING)
    elif op.kind == "stokes":
        upper("stokes error", res["error"], TOL_STOKES)
    elif op.kind == "roundtrip":
        upper("one-form error", res["max_error_one_form"], TOL_ONE_FORM)
        upper("two-form error", res["max_error_two_form"], TOL_TWO_FORM)
    elif op.kind == "transgress":
        upper("consistency defect", res["consistency_defect"], TOL_TRANSGRESS)
    elif op.kind == "holonomy":
        upper("group defect", res["group_defect"], TOL_GROUP)
    elif op.kind == "check_cm":
        upper("axiom residual", res["max_residual"], TOL_AXIOMS)
    elif op.kind == "bf":
        terms = res["terms"]
        gap = abs(res["S"] - (terms["yang_mills"] + terms["bf_term"] + terms["cosmological"]))
        upper("decomposition gap", gap, TOL_BF_DECOMPOSITION)
        ds = res["criticality"]["max_abs_derivative"]
        if "-spoiled-" in op.name:
            lower("spoiled beta_sup", res["beta_sup"], MIN_BF_SPOILED_BETA)
            lower("spoiled max|dS|", ds, MIN_BF_SPOILED_DS)
        else:
            upper("flat max|dS|", ds, TOL_BF_FLAT)
    elif op.kind == "morphism":
        upper("matching", res["matching_residual"], TOL_MATCHING)
        upper("prop-2 residual", res["prop2_connection"], TOL_MORPHISM)
        upper("prop-3 residual", res["prop3"], TOL_MORPHISM)
    return Check(not problems, tuple(problems), max(shares))
