"""Acceptance suite: one test per shipped claim, each printing a pass/fail
line with its measured figure (run with `pytest tests/test_acceptance.py -s`
to see the lines as they complete).  Tolerances are pinned here, not
configurable."""

import time

import numpy as np

from higher_holonomy import bf_theory as bf
from higher_holonomy import extraction as ex
from higher_holonomy import forms as fm
from higher_holonomy import geometry as geo
from higher_holonomy import higher_group as hg
from higher_holonomy import lie_core as lc
from higher_holonomy import transgression as tg
from higher_holonomy import transport as tp
from higher_holonomy.errors import FakeCurvatureError

from .conftest import SU2, U1, parabola_paths, su2_matrix_table
from .oracles import leggauss_nodes, line_integral, sample_g, sample_h


def _report(number, name, passed, detail):
    line = f"[acceptance {number:2d}] {'PASS' if passed else 'FAIL'}  {name}: {detail}"
    print(line, flush=True)
    assert passed, line


def su2_test_forms():
    """Five symbolic su(2)-valued 1-forms on the unit square."""
    tables = [
        [su2_matrix_table("0.4*x2", "0.3*x1", "0"),
         su2_matrix_table("0.2", "0", "0.5*x2")],
        [su2_matrix_table("0.5*sin(x2)", "0", "0.2*x1"),
         su2_matrix_table("0.3*x1^2", "0.1", "0")],
        [su2_matrix_table("0.25*x1*x2", "0.2*x2", "0"),
         su2_matrix_table("0", "0.35*cos(x1)", "0.1")],
        [su2_matrix_table("0.3", "0.25*x2^2", "0.1*x1"),
         su2_matrix_table("0.15*x2", "0", "0.4*x1")],
        [su2_matrix_table("0.2*exp(0.5*x1)", "0", "0.3*x2"),
         su2_matrix_table("0.1*x1", "0.2*x2", "0")],
    ]
    return [fm.one_form_from_expressions(SU2, t, 2) for t in tables]


def test_criterion_01_crossed_module_axioms():
    t0 = time.time()
    worst = 0.0
    for make in (lambda: hg.make_eg(SU2), lambda: hg.make_b_abelian(U1),
                 lambda: hg.make_aut_inner(SU2)):
        report = hg.verify_axioms(make(), n_samples=200, tol=1e-9, seed=0)
        worst = max(worst, report.max_residual)
    # interchange law on 100 composable quadruples per kind
    interchange = 0.0
    for make in (lambda: hg.make_eg(SU2), lambda: hg.make_b_abelian(U1),
                 lambda: hg.make_aut_inner(SU2)):
        cm = make()
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = sample_g(cm, rng)
            k = sample_g(cm, rng)
            phi2 = hg.two_morphism(cm, g, sample_h(cm, rng))
            phi1 = hg.two_morphism(cm, phi2.target, sample_h(cm, rng))
            psi2 = hg.two_morphism(cm, k, sample_h(cm, rng))
            psi1 = hg.two_morphism(cm, psi2.target, sample_h(cm, rng))
            lhs = hg.hcompose(hg.vcompose(phi1, phi2), hg.vcompose(psi1, psi2))
            rhs = hg.vcompose(hg.hcompose(phi1, psi1), hg.hcompose(phi2, psi2))
            interchange = max(interchange, lc.frob(lhs.h_part.matrix - rhs.h_part.matrix))
    elapsed = time.time() - t0
    _report(1, "crossed-module axioms + interchange",
            worst <= 1e-9 and interchange <= 1e-9 and elapsed < 5.0,
            f"axioms {worst:.2e}, interchange {interchange:.2e}, {elapsed:.1f}s")


def test_criterion_02_path_transport_dictionary():
    t0 = time.time()
    cfg = tp.IntegratorConfig(n_steps_path=512)
    fd = ex.FdConfig(step=1e-3, richardson=True)
    rng = np.random.default_rng(2)
    worst = 0.0
    forms5 = su2_test_forms()
    samples_per_form = (7, 7, 6, 6, 6)  # 32 (x, v) samples in total
    for a, n_samples in zip(forms5, samples_per_form):
        functor = lambda g, a=a: tp.path_transport(a, g, cfg)
        for _ in range(n_samples):
            x = rng.uniform(0.15, 0.85, 2)
            v = rng.standard_normal(2)
            got = ex.extract_one_form(functor, x, v, fd)
            worst = max(worst, float(np.max(np.abs(got.matrix - a.matrices_at(x, v)))))
    elapsed = time.time() - t0
    _report(2, "path-transport dictionary (extract o transport = id on A)",
            worst <= 5e-5 and elapsed < 30.0,
            f"max error {worst:.2e} over 32 samples, {elapsed:.1f}s")


def test_criterion_03_main_theorem_round_trip():
    t0 = time.time()
    cfg = tp.IntegratorConfig(n_steps_path=96, n_steps_surface_s=96, n_quad_t=96)
    fd = ex.FdConfig(step=1e-3, richardson=True)
    pairs = []
    for a in su2_test_forms()[:3]:
        pairs.append(fm.eg_pair(a))
    cmb = hg.make_b_abelian(U1)
    for expr in ("i*(0.8 + 0.5*x1 - 0.3*x2^2)", "i*(1 + 0.4*sin(2*x1)*x2)"):
        b = fm.two_form_from_expressions(U1, {(0, 1): [[expr]]}, 2)
        pairs.append(fm.ConnectionPair(cmb, fm.zero_one_form(cmb.G, 2), b))
    rng = np.random.default_rng(3)
    worst = 0.0
    n_samples = (4, 3, 3, 3, 3)  # 16 (x, v1, v2) samples in total
    for pair, n in zip(pairs, n_samples):
        functor = tp.two_functor(pair, cfg)
        for _ in range(n):
            x = rng.uniform(0.25, 0.75, 2)
            v1 = rng.standard_normal(2)
            v1 /= np.linalg.norm(v1)
            v2 = rng.standard_normal(2)
            v2 /= np.linalg.norm(v2)
            got = ex.extract_two_form(functor, x, v1, v2, fd)
            want = pair.B.matrices_at(x, v1, v2)
            worst = max(worst, float(np.max(np.abs(got.matrix - want))))
    elapsed = time.time() - t0
    _report(3, "main-theorem round trip (extract o transport = id on B)",
            worst <= 1e-4 and elapsed < 120.0,
            f"max error {worst:.2e} over 16 samples, 5 pairs, {elapsed:.1f}s")


def _pair_for_kind(kind):
    a = fm.one_form_from_expressions(
        SU2, [su2_matrix_table("0.4*x2", "0.3*x1", "0"),
              su2_matrix_table("0.2", "0", "0.5*x2")], 2)
    if kind == "eg":
        return fm.eg_pair(a)
    if kind == "aut_inner":
        cm = hg.make_aut_inner(SU2)
        return fm.ConnectionPair(cm, a, fm.symbolic_curvature(a))
    cm = hg.make_b_abelian(U1)
    b = fm.two_form_from_expressions(U1, {(0, 1): [["i*(1 + x1 + x2^2)"]]}, 2)
    return fm.ConnectionPair(cm, fm.zero_one_form(cm.G, 2), b)


def test_criterion_04_two_functoriality():
    t0 = time.time()
    cfg = tp.IntegratorConfig(n_steps_path=128, n_steps_surface_s=128, n_quad_t=128)
    law_defect = 0.0
    matching = 0.0
    id_defect = 0.0
    heights = [(0.0, 0.25), (0.1, 0.5), (-0.2, 0.3), (0.0, 0.6), (0.2, -0.3), (-0.1, 0.45)]
    for kind in ("eg", "b_abelian", "aut_inner"):
        pair = _pair_for_kind(kind)
        dim = pair.cm.H.matrix_dim

        gamma = geo.path_from_expressions(["t", "0.3*t*(1-t)"])
        res_id = tp.surface_transport(pair, geo.identity_bigon(gamma), cfg)
        id_defect = max(id_defect, lc.frob(res_id.h_part.matrix - np.eye(dim)))
        matching = max(matching, res_id.matching_residual())

        for idx, (h0, h1) in enumerate(heights):
            if idx % 2 == 0:
                # vertical pair
                p0, p1, p2 = parabola_paths([h0, (h0 + h1) / 2, h1])
                s1, s2 = geo.bigon_between(p0, p1), geo.bigon_between(p1, p2)
                r1 = tp.surface_transport(pair, s1, cfg)
                r2 = tp.surface_transport(pair, s2, cfg)
                rc = tp.surface_transport(pair, geo.bigon_vcompose(s1, s2), cfg)
                law_defect = max(law_defect, lc.frob(
                    rc.h_part.matrix - r2.h_part.matrix @ r1.h_part.matrix))
            else:
                # horizontal pair
                p0, p1 = parabola_paths([h0, h1])
                q0, q1 = parabola_paths([h1, h0], x_offset=1.0)
                s1, s2 = geo.bigon_between(p0, p1), geo.bigon_between(q0, q1)
                r1 = tp.surface_transport(pair, s1, cfg)
                r2 = tp.surface_transport(pair, s2, cfg)
                rc = tp.surface_transport(pair, geo.bigon_hcompose(s1, s2), cfg)
                acted = pair.cm.alpha(r2.source.matrix, r1.h_part.matrix)
                law_defect = max(law_defect, lc.frob(
                    rc.h_part.matrix - r2.h_part.matrix @ acted))
            for r in (r1, r2, rc):
                matching = max(matching, r.matching_residual())
    elapsed = time.time() - t0
    _report(4, "2-functoriality of surface transport",
            law_defect <= 1e-6 and id_defect <= 1e-8 and matching <= 1e-6
            and elapsed < 60.0,
            f"laws {law_defect:.2e}, k(id) {id_defect:.2e}, "
            f"matching {matching:.2e}, {elapsed:.1f}s")


def test_criterion_05_thin_homotopy_invariance():
    t0 = time.time()
    cfg = tp.IntegratorConfig(n_steps_path=256, n_steps_surface_s=128, n_quad_t=128)
    pair = _pair_for_kind("eg")
    p0, p1 = parabola_paths([0.0, 0.6])
    sig = geo.bigon_between(p0, p1)
    base = tp.surface_transport(pair, sig, cfg).h_part.matrix
    worst = 0.0
    for bs, bt in [(geo.SmoothingProfile(0.2), None),
                   (None, geo.SmoothingProfile(0.25)),
                   (geo.SmoothingProfile(0.3), geo.SmoothingProfile(0.12))]:
        other = tp.surface_transport(pair, sig.reparameterized(bs, bt), cfg).h_part.matrix
        worst = max(worst, lc.frob(other - base))
    swapped = tp.surface_transport(
        pair, geo.bigon_between(p0, p1, geo.SmoothingProfile(0.2)), cfg).h_part.matrix
    worst = max(worst, lc.frob(swapped - base))
    elapsed = time.time() - t0
    _report(5, "thin-homotopy/reparameterization invariance of k",
            worst <= 1e-6 and elapsed < 30.0,
            f"max change {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_non_abelian_stokes():
    t0 = time.time()
    a = fm.one_form_from_expressions(
        SU2, [su2_matrix_table("0.5*x2", "0.3*x1*x2", "0"),
              su2_matrix_table("0.25*x1", "0", "0.4*x1")], 2)
    circle = geo.loop_from_expressions(
        ["0.5 + 0.35*cos(2*pi*z)", "0.5 + 0.35*sin(2*pi*z)"])
    gamma = geo.loop_to_path(circle)
    sig = geo.contraction_bigon(gamma)
    err_default = tp.stokes_check(a, sig, tp.IntegratorConfig()).error
    errs = [tp.stokes_check(a, sig, tp.IntegratorConfig(64 * f, 32 * f, 32 * f)).error
            for f in (1, 2, 4)]
    orders_ok = errs[0] / errs[1] >= 3.0 and errs[1] / errs[2] >= 3.0

    # abelian specialization against 2-D quadrature of the curvature
    au = fm.one_form_from_expressions(
        U1, [[["i*(0.3*x2 + 0.2*x2^2)"]], [["i*0.15*x1^2"]]], 2)
    rep = tp.stokes_check(au, sig, tp.IntegratorConfig(512, 128, 128))
    x0 = gamma.point(0.0)
    nodes, weights = leggauss_nodes(80)
    total = 0.0 + 0.0j
    for wi, w_ in zip(nodes, weights):
        base = circle.point(nodes)
        vel = circle.velocity(nodes)
        xs = x0 + wi * (base - x0)
        kvals = fm.curvature_matrices_at(
            au, xs, np.broadcast_to(base - x0, xs.shape), wi * vel)[..., 0, 0]
        total += w_ * np.dot(weights, kvals)
    abelian_err = abs(rep.lhs.matrix[0, 0] - np.exp(-total))
    elapsed = time.time() - t0
    _report(6, "non-abelian Stokes (holonomy = curvature transport)",
            err_default <= 1e-5 and orders_ok and abelian_err <= 1e-7
            and elapsed < 30.0,
            f"error {err_default:.2e}, refinement {errs[0]:.1e}->{errs[1]:.1e}->"
            f"{errs[2]:.1e}, abelian vs quadrature {abelian_err:.2e}, {elapsed:.1f}s")


def test_criterion_07_fake_curvature_gate():
    t0 = time.time()
    a = fm.one_form_from_expressions(
        SU2, [su2_matrix_table("0.4*x2", "0.3*x1", "0"),
              su2_matrix_table("0.2", "0", "0.5*x2")], 2)
    pair = fm.eg_pair(a)  # accepts
    accepted = pair.fc_report.max_residual <= 1e-5
    corrupted = fm.add_two_forms(
        fm.symbolic_curvature(a),
        fm.two_form_from_expressions(SU2, {(0, 1): su2_matrix_table("1", "0", "0")}, 2),
        factor=0.1,
    )
    rejected = False
    residual = 0.0
    try:
        fm.ConnectionPair(hg.make_eg(SU2), a, corrupted)
    except FakeCurvatureError as err:
        rejected = True
        residual = err.report.max_residual
    elapsed = time.time() - t0
    _report(7, "fake-curvature gate",
            accepted and rejected and residual >= 0.05 and elapsed < 5.0,
            f"accepted residual {pair.fc_report.max_residual:.2e}, "
            f"rejected residual {residual:.2e}, {elapsed:.1f}s")


def test_criterion_08_bf_criticality():
    t0 = time.time()
    a = fm.one_form_from_expressions(
        SU2,
        [su2_matrix_table("0.4*x2", "0", "0"),
         su2_matrix_table("0", "0.3*x1", "0"),
         su2_matrix_table("0.2*x4", "0", "0.1*x3"),
         su2_matrix_table("0", "0", "0.15*x2")],
        4,
    )
    cm = hg.make_eg(SU2)
    b = fm.symbolic_curvature(a)
    grid = bf.GridSpec(12)
    action = bf.bf_action(cm, a, b, grid=grid)
    crit = bf.criticality_check(cm, a, b, grid=grid, n_directions=8, seed=0)
    flat_ok = abs(action) <= 1e-5 and crit.max_abs_derivative <= 1e-4

    spoiled = fm.add_two_forms(
        b, fm.two_form_from_expressions(SU2, {(0, 1): su2_matrix_table("1", "0", "0")}, 4),
        factor=0.3)
    crit_bad = bf.criticality_check(cm, a, spoiled, grid=grid, n_directions=8, seed=0)
    bad_ok = crit_bad.beta_sup >= 0.2 and crit_bad.max_abs_derivative >= 1e-2
    elapsed = time.time() - t0
    _report(8, "BF criticality characterization",
            flat_ok and bad_ok and elapsed < 180.0,
            f"|S| {abs(action):.2e}, flat max|dS| {crit.max_abs_derivative:.2e}, "
            f"perturbed beta_sup {crit_bad.beta_sup:.2f} "
            f"max|dS| {crit_bad.max_abs_derivative:.2e}, {elapsed:.1f}s")


def test_criterion_09_transgression():
    t0 = time.time()
    cm = hg.make_b_abelian(U1)
    b = fm.two_form_from_expressions(
        U1, {(0, 1): [["i*(0.5 + 0.3*x3)"]], (0, 2): [["i*0.2*x2"]],
             (1, 2): [["i*0.1*x1"]]}, 3)
    pair = fm.ConnectionPair(cm, fm.zero_one_form(cm.G, 3), b,
                             box=[(-1, 1), (-1, 1), (0, 1)])
    cfg = tp.IntegratorConfig(n_steps_path=128, n_steps_surface_s=64, n_quad_t=128)

    configs = [
        ("0.6*cos(2*pi*z)", "0.6*sin(2*pi*z)", "0.2", lambda z: np.stack(
            [0.1 * np.cos(2 * np.pi * z), 0.1 * np.sin(2 * np.pi * z),
             np.full_like(z, 0.3)], axis=-1)),
        ("0.5*cos(2*pi*z)", "0.7*sin(2*pi*z)", "0.4", lambda z: np.stack(
            [np.zeros_like(z), 0.2 * np.cos(2 * np.pi * z),
             0.1 * np.sin(2 * np.pi * z)], axis=-1)),
        ("0.4*cos(2*pi*z)", "0.4*sin(2*pi*z)", "0.1 + 0", lambda z: np.stack(
            [0.05 * np.ones_like(z), 0.1 * np.sin(4 * np.pi * z),
             0.2 * np.cos(2 * np.pi * z)], axis=-1)),
    ]
    quad_err = 0.0
    for ex1, ex2, ex3, field in configs:
        loop = geo.loop_from_expressions([ex1, ex2, ex3])
        tangent = tg.LoopTangent(loop, field)
        got = tg.transgressed_phi(pair, tangent, cfg).matrix[0, 0]

        def integrand(z, loop=loop, tangent=tangent):
            return pair.B.matrices_at(loop.point(z), tangent.vector(z),
                                      loop.velocity(z))[0, 0]

        oracle = line_integral(integrand, 200)
        quad_err = max(quad_err, abs(got - oracle))

    lp = geo.loop_path_from_expressions(["0.6*cos(2*pi*z)", "0.6*sin(2*pi*z)", "t"])
    defects = []
    for n in (32, 64):
        c = tp.IntegratorConfig(n_steps_path=64, n_steps_surface_s=n, n_quad_t=n)
        defects.append(tg.transgression_consistency(pair, lp, c).defect)
    elapsed = time.time() - t0
    _report(9, "loop-space transgression",
            quad_err <= 1e-6 and defects[1] <= 1e-4
            and defects[0] / defects[1] >= 4.0 and elapsed < 60.0,
            f"fiber-quadrature error {quad_err:.2e}, consistency defect "
            f"{defects[1]:.2e} (ratio {defects[0] / defects[1]:.1f}), {elapsed:.1f}s")


def test_criterion_10_morphism_calculus():
    t0 = time.time()
    from .test_extraction import _transformation_data

    cm, a, b, g_map, phi, a_prime, b_prime = _transformation_data()
    cfg = tp.IntegratorConfig(n_steps_path=256)
    gamma = geo.path_from_expressions(["0.2 + 0.6*t", "0.3 + 0.4*t*(1-t) + 0.2*t"])
    res = tp.transformation_transport(cm, g_map, phi, a_prime, gamma, cfg,
                                      a_source=a)
    matching_ok = res.matching_residual is not None and res.matching_residual <= 1e-6

    # round-tripped morphism data (coarser transports suffice at 1e-4)
    cfg_rt = tp.IntegratorConfig(n_steps_path=128)

    def rho_h(path):
        return lc.ginv(tp.transformation_transport(cm, g_map, phi, a_prime,
                                                   path, cfg_rt).h)

    extracted = ex.extract_transformation(g_map, rho_h, SU2, 2)
    points = [np.array([0.35, 0.45]), np.array([0.6, 0.5])]
    r2 = ex.residual_prop2(cm, g_map, extracted.phi, a, b, a_prime, b_prime, points)

    y0 = lc.AlgebraElement(SU2, 0.4j * np.array([[1.0, 0.5], [0.5, -1.0]]))
    a_map = fm.exp_scalar_family(SU2, "0.5*x2 + 0.2*x1", y0, 2)
    g2_map, phi2 = tp.derived_modification_target(cm, a_map, g_map, phi, a_prime)
    r3 = ex.residual_prop3(cm, a_map, g_map, phi, g2_map, phi2, a_prime, points)

    # perturbed counterexamples
    bump = fm.one_form_from_expressions(
        SU2, [su2_matrix_table("1", "0", "0"), su2_matrix_table("0", "0", "0")], 2)
    r2_bad = ex.residual_prop2(cm, g_map, fm.add_one_forms(phi, bump, 0.1),
                               a, b, a_prime, b_prime, points[:1])
    phi2_wrapped = ex.one_form_from_evaluator(SU2, lambda x, v: phi2(x, v), 2)
    r3_bad = ex.residual_prop3(cm, a_map, g_map, phi,
                               g2_map, fm.add_one_forms(phi2_wrapped, bump, 0.1),
                               a_prime, points[:1])
    elapsed = time.time() - t0
    ok = (matching_ok and r2.max_residual <= 1e-4 and r3.max_residual <= 1e-4
          and r2_bad.max_residual >= 5e-2 and r3_bad.max_residual >= 5e-2
          and elapsed < 60.0)
    _report(10, "morphism calculus (transformations and modifications)",
            ok,
            f"matching {res.matching_residual:.2e}, prop2 {r2.max_residual:.2e}, "
            f"prop3 {r3.max_residual:.2e}, perturbed {r2_bad.max_residual:.2e}/"
            f"{r3_bad.max_residual:.2e}, {elapsed:.1f}s")
