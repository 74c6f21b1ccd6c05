"""End-to-end acceptance checks, one per headline guarantee.

Each test prints a single pass/fail line (visible even under capture) and
asserts at the pinned tolerance.
"""
import math

import numpy as np

from specsample import (
    Coupling,
    JacobiParams,
    StateVector,
    apply_perturbed,
    blaschke_swap,
    compression_spectrum,
    from_partial_fractions,
    inner_h,
    jm_reconstruct,
    kramer_reconstruct,
    mu_inner,
    mu_state,
    node_weights,
    omega_state,
    osc_F_integral,
    osc_F_series,
    oscillator_model,
    perturbed_spectrum,
    reconstruct,
    sample,
    to_partial_fractions,
    transform,
    truncate,
    weyl,
    weyl_approx,
    weyl_h,
    xi_norm_sq,
)

from conftest import random_model, random_state, weyl_raw


def _report(capsys, num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _interlaces(a, b):
    merged = sorted([(x, 0) for x in a] + [(x, 1) for x in b])
    return all(merged[i][1] != merged[i + 1][1]
               for i in range(len(merged) - 1))


def test_criterion_01_interlacing(capsys):
    rng = np.random.default_rng(1001)
    ok = True
    for _ in range(100):
        m = random_model(rng, int(rng.integers(2, 13)),
                         spread=float(rng.uniform(1, 100)))
        for _ in range(5):
            h1, h2 = rng.uniform(-3, 3, size=2)
            if abs(h1 - h2) < 1e-3:
                h2 += 0.5
            s1 = perturbed_spectrum(m, Coupling.finite(h1))
            s2 = perturbed_spectrum(m, Coupling.finite(h2))
            ok = ok and _interlaces(s1, s2)
    _report(capsys, 1, "interlacing", ok,
            "100 models x 5 coupling pairs, strict alternation")


def test_criterion_02_secular_residuals(capsys):
    rng = np.random.default_rng(1002)
    worst_fin = 0.0
    worst_inf = 0.0
    for _ in range(30):
        m = random_model(rng, int(rng.integers(2, 13)))
        h = rng.uniform(-4, 4)
        if abs(h) < 1e-2:
            h = 1.0
        for x in perturbed_spectrum(m, Coupling.finite(h)):
            f, _ = weyl_raw(m, x)
            worst_fin = max(worst_fin, abs(1.0 + h * f.real))
        for x in perturbed_spectrum(m, Coupling.infinite()):
            f, fp = weyl_raw(m, x)
            worst_inf = max(worst_inf, abs(f.real) / fp.real / m.scale)
    ok = worst_fin <= 1e-10 and worst_inf <= 1e-12
    _report(capsys, 2, "secular-residuals", ok,
            f"finite max |1+hF| = {worst_fin:.2e}, "
            f"infinite max |F|/F' = {worst_inf:.2e} (relative)")


def test_criterion_03_exact_reconstruction(capsys):
    rng = np.random.default_rng(1003)
    worst = 0.0
    worst_kramer = 0.0
    for _ in range(200):
        m = random_model(rng, int(rng.integers(2, 11)))
        phi = random_state(rng, m.dim)
        h = rng.uniform(-2, 2)
        s = sample(m, phi, h)
        lo, hi = m.eigenvalues[0], m.eigenvalues[-1]
        grid = [complex(rng.uniform(lo - 2, hi + 2), rng.uniform(0.3, 3))
                for _ in range(50)]
        # One Kramer call per grid equals the single-point calls bit for
        # bit (test_kramer_on_a_grid_equals_point_by_point).
        for z, cross in zip(grid, kramer_reconstruct(m, s, np.array(grid))):
            want = transform(m, phi, z)
            got = reconstruct(s, z)
            denom = max(1e-12, abs(want))
            worst = max(worst, abs(got - want) / denom)
            worst_kramer = max(worst_kramer, abs(cross - got) / denom)
    ok = worst <= 1e-9 and worst_kramer <= 1e-9
    _report(capsys, 3, "exact-reconstruction", ok,
            f"200 triples x 50 points, max rel = {worst:.2e}, "
            f"kramer vs lagrange = {worst_kramer:.2e}")


def test_criterion_04_unitarity(capsys):
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(100):
        m = random_model(rng, int(rng.integers(2, 11)))
        phi = random_state(rng, m.dim)
        psi = random_state(rng, m.dim)
        h = rng.uniform(-3, 3)
        got = inner_h(m, h, phi, psi)
        want = complex(np.vdot(phi.coords, psi.coords))
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    ok = worst <= 1e-10
    _report(capsys, 4, "unitarity", ok,
            f"100 triples, max deviation = {worst:.2e}")


def test_criterion_05_infinite_coupling_characterizations(capsys):
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(100):
        m = random_model(rng, int(rng.integers(2, 13)))
        zeros = perturbed_spectrum(m, Coupling.infinite())
        comp = compression_spectrum(m)
        worst = max(worst, float(np.max(np.abs(zeros - comp))))
    worst_jac = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 10))
        params = JacobiParams(q=rng.uniform(-2, 2, size=n),
                              b=rng.uniform(0.5, 2.0, size=n - 1))
        m = truncate(params, n)
        comp = compression_spectrum(m)
        minor = np.diag(params.q[1:n]) + np.diag(params.b[1:n - 1], 1) \
            + np.diag(params.b[1:n - 1], -1)
        lam = np.linalg.eigvalsh(minor)
        worst_jac = max(worst_jac, float(np.max(np.abs(comp - lam))))
    ok = worst <= 1e-9 and worst_jac <= 1e-8
    _report(capsys, 5, "zeros-vs-compression", ok,
            f"100 models max = {worst:.2e}, "
            f"jacobi minor max = {worst_jac:.2e}")


def test_criterion_06_partial_fractions(capsys):
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(50):
        m = random_model(rng, int(rng.integers(2, 11)))
        phi = random_state(rng, m.dim)
        rep = to_partial_fractions(m, phi)
        back = from_partial_fractions(m, rep)
        worst = max(worst, float(np.max(np.abs(back.coords - phi.coords))))
        norm_id = abs(rep.constant) ** 2
        for x, c in zip(rep.poles, rep.coefficients):
            _, fp = weyl_raw(m, x)
            norm_id += abs(c) ** 2 * fp.real
        worst = max(worst, abs(norm_id - phi.norm() ** 2) / phi.norm() ** 2)
    m = random_model(rng, 6)
    poles = compression_spectrum(m)
    for _ in range(20):
        z = complex(rng.uniform(-3, 12), rng.uniform(0.4, 2))
        worst = max(worst, abs(transform(m, mu_state(m), z) - 1.0))
        for x in poles:
            got = transform(m, omega_state(m, x), z)
            worst = max(worst, abs(got - 1.0 / (z - x)))
    ok = worst <= 1e-10
    _report(capsys, 6, "partial-fractions", ok,
            f"round trip, norm identity, unit and pole images: "
            f"max = {worst:.2e}")


def test_criterion_07_jacobi_rational_identity(capsys):
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 13))
        params = JacobiParams(q=rng.uniform(-2, 2, size=n),
                              b=rng.uniform(0.5, 2.0, size=n - 1))
        z = complex(rng.uniform(-4, 4), rng.uniform(0.3, 2))
        t = np.diag(params.q[:n]).astype(complex) \
            + np.diag(params.b[:n - 1], 1) + np.diag(params.b[:n - 1], -1)
        e1 = np.zeros(n, dtype=complex)
        e1[0] = 1.0
        direct = np.linalg.solve(t - z * np.eye(n), e1)[0]
        got = weyl_approx(params, z, n)
        worst = max(worst, abs(got - direct) / abs(direct))
    hand = weyl_approx(JacobiParams(q=[1.0, 2.0], b=[1.0]), 0.0, 2)
    ok = worst <= 1e-8 and hand == 2.0
    _report(capsys, 7, "jacobi-rational-identity", ok,
            f"50 random cases max rel = {worst:.2e}, hand case F(0) = {hand}")


def test_criterion_08_jm_convergence(capsys):
    params = JacobiParams(np.arange(1.0, 13.0), np.ones(12))
    m = truncate(params, 10)
    phi = StateVector(
        (m.sqrt_weights / (1.0 + m.eigenvalues ** 2)).astype(complex)
    )
    s = sample(m, phi, 1.5)
    grid = [2j, 5 + 2j, 8 - 2j]
    exact = [reconstruct(s, z) for z in grid]
    errs = []
    for n in (4, 6, 8, 10):
        diffs = [abs(jm_reconstruct(params, n, s, z) - e)
                 for z, e in zip(grid, exact)]
        errs.append(float(np.sqrt(np.mean(np.square(diffs)))))
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    ok = decreasing and errs[-1] <= 1e-8
    _report(capsys, 8, "jm-convergence", ok,
            "rms " + " > ".join(f"{e:.2e}" for e in errs))


def test_criterion_09_oscillator_representations(capsys):
    worst = 0.0
    for re in np.linspace(0.0, 8.0, 5):
        for im in np.linspace(0.5, 2.0, 5):
            z = complex(re, im)
            worst = max(worst,
                        abs(osc_F_series(z, 40) - osc_F_integral(z, 1024)))
    f0 = osc_F_series(0.0, 40).real
    f2 = osc_F_series(2.0, 40).real
    ok = (worst <= 1e-6 and abs(f0 - 1.4626517) <= 1e-6
          and abs(f2 - 0.207020) <= 1e-5)
    _report(capsys, 9, "oscillator-representations", ok,
            f"5x5 grid max |series - quadrature| = {worst:.2e}, "
            f"F(0) = {f0:.7f}, F(2) = {f2:.6f}")


def test_criterion_10_oscillator_sampling(capsys):
    m = oscillator_model(12)
    rng = np.random.default_rng(1010)
    phi = random_state(rng, 12)
    s = sample(m, phi, 0.0)
    worst = 0.0
    for _ in range(20):
        z = complex(rng.uniform(-2, 25), rng.uniform(0.4, 3))
        want = transform(m, phi, z)
        worst = max(worst,
                    abs(reconstruct(s, z) - want) / max(1.0, abs(want)))
    ok = worst <= 1e-8
    _report(capsys, 10, "oscillator-sampling", ok,
            f"raw 12-level model, h=0 nodes, 20 points, max = {worst:.2e}")


def test_criterion_11_space_properties(capsys, m2):
    sq2 = math.sqrt(2.0)
    phi = StateVector([1.0 / sq2, 1j / sq2])
    eta = blaschke_swap(m2, phi, 1.0 - 1.0j)
    worst = float(np.max(np.abs(eta.coords - np.array([1j, 1.0]) / sq2)))
    mult = (m2.eigenvalues - (1.0 + 1.0j)) / (m2.eigenvalues - (1.0 - 1.0j))
    worst = max(worst,
                float(np.max(np.abs(eta.coords - phi.coords * mult))))
    worst = max(worst, abs(eta.norm() - phi.norm()))
    ok_blaschke = worst <= 1e-9

    rng = np.random.default_rng(1011)
    worst_conj = 0.0
    bound_ok = True
    for _ in range(50):
        m = random_model(rng, int(rng.integers(2, 9)))
        psi = random_state(rng, m.dim)
        z = complex(rng.uniform(-4, 12), rng.uniform(0.4, 3))
        lhs = transform(m, StateVector(np.conj(psi.coords)), z)
        rhs = transform(m, psi, z.conjugate()).conjugate()
        worst_conj = max(worst_conj, abs(lhs - rhs))
        s = sample(m, psi, rng.uniform(-2, 2))
        for x, value in zip(s.nodes, s.values):
            cap = math.sqrt(xi_norm_sq(m, float(x))) * psi.norm()
            bound_ok = bound_ok and abs(value) <= cap * (1 + 1e-12)
    ok = ok_blaschke and worst_conj <= 1e-12 and bound_ok
    _report(capsys, 11, "space-properties", ok,
            f"blaschke max = {worst:.2e}, conjugation max = {worst_conj:.2e}, "
            f"evaluation bound holds = {bound_ok}")


def test_criterion_12_quasi_multiplication(capsys):
    rng = np.random.default_rng(1012)
    worst = 0.0
    for _ in range(100):
        m = random_model(rng, int(rng.integers(2, 11)))
        phi = random_state(rng, m.dim)
        h = rng.uniform(-2, 2)
        z = complex(rng.uniform(-4, 12), rng.uniform(0.4, 3))
        f_h, _, _ = weyl_h(m, h, z)
        got = transform(m, apply_perturbed(m, h, phi), z)
        want = mu_inner(m, phi) / f_h + z * transform(m, phi, z)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    ok = worst <= 1e-9
    _report(capsys, 12, "quasi-multiplication", ok,
            f"100 tuples, max rel = {worst:.2e}")
