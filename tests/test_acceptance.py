"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at run time.
"""

import time

import numpy as np
import pytest

from ovalbounds.matdense import DampedSystem, SymMatrix, spectral_norm, sym_eig
from ovalbounds.modal import (
    ModalForm,
    modal_split,
    mode_foci,
    proportional_fit,
    spread_bounds,
    to_modal,
)
from ovalbounds.overdamped import (
    CertificateRefusal,
    eigenvalue_intervals,
    eta_envelope,
    exact_definiteness_interval,
    sufficient_certificate,
)
from ovalbounds.regions import (
    Method,
    QuasiOval,
    RegionUnion,
    boundary_polylines,
    build_regions,
    component_analysis,
)
from ovalbounds.verify import check_inclusion, compare_regions, true_spectrum

from conftest import (
    clustered_system,
    lightly_damped_system,
    modally_damped_overdamped_system,
    overdamped_system,
    random_system,
    system_with_modal_data,
)
from ovalbounds.modal import quadratic_roots

MARGIN_TOL = -1e-9

PLAIN_METHODS = [
    Method.UNDAMPED_DISK_NORM,
    Method.UNDAMPED_DISK_COLSUM,
    Method.UNDAMPED_OVAL_NORM,
    Method.UNDAMPED_OVAL_REL,
    Method.UNDAMPED_OVAL_COLSUM,
    Method.UNDAMPED_OVAL_RELSUM,
    Method.MODAL_DISK_NORM,
    Method.MODAL_DISK_ROWSUM,
    Method.MODAL_OVAL_NORM,
    Method.MODAL_OVAL_ROWSUM,
    Method.BRAUER,
]


def test_criterion_1_inclusion_soundness_sweep():
    start = time.perf_counter()
    violations = 0
    worst = np.inf
    checked = 0
    for i in range(500):
        n = (i % 8) + 1
        gamma = [0.05, 0.3, 1.0, 3.0][i % 4]
        sys_ = random_system(n, 100_000 + i, gamma=gamma)
        form = to_modal(sys_)
        split = modal_split(form)
        foci = mode_foci(form, split)
        spec = true_spectrum(form)
        for method in PLAIN_METHODS:
            if method.value.startswith("MODAL_DISK") and foci.any_critical:
                continue
            report = check_inclusion(spec, build_regions(form, split, foci, method))
            worst = min(worst, report.min_margin)
            checked += 1
            if report.min_margin < MARGIN_TOL:
                violations += 1
        # modified ovals are exercised on a clustered generator
        csys = clustered_system(max(n, 2), 200_000 + i)
        cform = to_modal(csys)
        csplit = modal_split(cform, "maximal", reltol=0.05)
        cfoci = mode_foci(cform, csplit)
        creport = check_inclusion(
            true_spectrum(cform), build_regions(cform, csplit, cfoci, Method.MODIFIED_OVAL)
        )
        worst = min(worst, creport.min_margin)
        checked += 1
        if creport.min_margin < MARGIN_TOL:
            violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 1: PASS - {checked} method runs on 500 systems, "
        f"worst margin {worst:.2e}, {elapsed:.1f}s"
    )


def test_criterion_2_brauer_refinement():
    rng = np.random.default_rng(77)
    total_violations = 0
    for i in range(100):
        n = int(rng.integers(2, 9))
        sys_ = random_system(n, 300_000 + i, gamma=float(rng.uniform(0.1, 2.0)))
        form = to_modal(sys_)
        split = modal_split(form)
        foci = mode_foci(form, split)
        brauer = build_regions(form, split, foci, Method.BRAUER)
        cassini = build_regions(form, split, foci, Method.MODAL_OVAL_ROWSUM)
        cmp_ = compare_regions(brauer, cassini, 512)
        assert cmp_.samples >= 200_000
        total_violations += cmp_.subset_violations
    assert total_violations == 0
    print("ACCEPTANCE 2: PASS - 100 systems x 512^2 cells, 0 double-oval escapes")


def test_criterion_3_tightness_vs_disks():
    rng = np.random.default_rng(88)
    wins = 0
    ratio_lo, ratio_hi = np.inf, 0.0
    diameters_checked = 0
    for i in range(100):
        n = int(rng.integers(2, 6))
        sys_ = lightly_damped_system(n, 400_000 + i, level=float(rng.uniform(0.1, 0.2)))
        form = to_modal(sys_)
        split = modal_split(form)
        foci = mode_foci(form, split)
        dnorm = spectral_norm(form.D)
        assert dnorm <= 0.2 * np.min(form.omega) + 1e-12
        ovals = build_regions(form, split, foci, Method.UNDAMPED_OVAL_NORM)
        disks = build_regions(form, split, foci, Method.UNDAMPED_DISK_NORM)
        cmp_ = compare_regions(ovals, disks, 512)
        assert cmp_.samples >= 200_000
        if cmp_.area_first <= cmp_.area_second:
            wins += 1
        if i < 40:
            ca = component_analysis(ovals, 1024)
            if len(ca.components) != 2 * n:
                continue
            dx = (ca.box.xmax - ca.box.xmin) / 1024
            dy = (ca.box.ymax - ca.box.ymin) / 1024
            for comp_idx in range(len(ca.components)):
                ys, xs = np.nonzero(ca.labels == comp_idx + 1)
                width = (xs.max() - xs.min() + 1) * dx
                height = (ys.max() - ys.min() + 1) * dy
                ratio = max(width, height) / dnorm
                ratio_lo = min(ratio_lo, ratio)
                ratio_hi = max(ratio_hi, ratio)
                diameters_checked += 1
    assert wins >= 95
    assert diameters_checked > 0
    assert ratio_hi <= 1.3 and ratio_lo >= 1.0 / 1.3
    print(
        f"ACCEPTANCE 3: PASS - ovals beat norm disks in {wins}/100 systems; "
        f"{diameters_checked} focus diameters within [{ratio_lo:.3f}, {ratio_hi:.3f}] x prediction"
    )


def test_criterion_4_certificate_soundness():
    # derived endpoint check first
    form = ModalForm(np.eye(2), np.array([1.0, 2.0]), SymMatrix([[6.0, 0.1], [0.1, 10.0]]))
    cert = sufficient_certificate(form, modal_split(form), "norm")
    assert cert.p_minus == pytest.approx((-5.9 - np.sqrt(30.81)) / 2.0, abs=1e-12)
    assert cert.p_plus == pytest.approx((-9.9 + np.sqrt(82.01)) / 2.0, abs=1e-12)

    successes = 0
    attempts = 0
    while successes < 200 and attempts < 500:
        n = (attempts % 6) + 1
        sys_ = overdamped_system(n, 500_000 + attempts)
        attempts += 1
        fm = to_modal(sys_)
        sp = modal_split(fm)
        for variant in ("norm", "gershgorin"):
            c = sufficient_certificate(fm, sp, variant)
            if isinstance(c, CertificateRefusal):
                continue
            iv = exact_definiteness_interval(sys_)
            assert not iv.empty
            assert iv.lo - 1e-8 <= c.p_minus and c.p_plus <= iv.hi + 1e-8
            successes += 1
    assert successes >= 200
    print(
        f"ACCEPTANCE 4: PASS - {successes} certificates on {attempts} systems, "
        "all inside the exact definiteness interval"
    )


def test_criterion_5_interval_inclusion():
    systems = 0
    attempts = 0
    while systems < 100 and attempts < 300:
        n = (attempts % 6) + 1
        sys_ = overdamped_system(n, 600_000 + attempts)
        attempts += 1
        form = to_modal(sys_)
        split = modal_split(form)
        hit = False
        for variant in ("norm", "gershgorin"):
            cert = sufficient_certificate(form, split, variant)
            if isinstance(cert, CertificateRefusal):
                continue
            hit = True
            bounds = eigenvalue_intervals(form, split, variant)
            spec = true_spectrum(form)
            vals = np.sort(spec.values.real)
            mid = 0.5 * (cert.p_minus + cert.p_plus)
            for lam in vals:
                tol = 1e-9 * (1.0 + abs(lam))
                group = bounds.lower if lam < mid else bounds.upper
                assert any(lo - tol <= lam <= hi + tol for lo, hi in group)
        systems += 1 if hit else 0
    assert systems >= 100
    print(f"ACCEPTANCE 5: PASS - interval inclusion on {systems} certified systems, 0 exceptions")


def _relative_perturbation(sys_: DampedSystem, eps: float, rng) -> DampedSystem:
    mats = []
    for key, sign in (("M", -1.0), ("C", +1.0), ("K", -1.0)):
        A = getattr(sys_, key).array
        w, V = sym_eig(SymMatrix(A))
        root = V @ np.diag(np.sqrt(np.maximum(w, 0.0))) @ V.T
        S = rng.standard_normal(A.shape)
        S = 0.5 * (S + S.T)
        S *= eps / max(np.linalg.norm(S, 2), 1e-300)
        mats.append(SymMatrix(A + root @ S @ root))
    return DampedSystem(*mats)


def test_criterion_6_monotonicity_and_envelope():
    # growing viscosity: sorted groups spread apart
    slack_worst = 0.0
    for i in range(100):
        n = (i % 4) + 2
        sys_ = overdamped_system(n, 700_000 + i)
        iv = exact_definiteness_interval(sys_)
        assert not iv.empty
        rng = np.random.default_rng(i)

        def psd(scale, base):
            g = rng.standard_normal((n, n))
            P = g @ g.T
            return P * (scale * base / max(np.linalg.norm(P, 2), 1e-300))

        harder = DampedSystem(
            SymMatrix(sys_.M.array - psd(0.1, float(np.linalg.eigvalsh(sys_.M.array)[0]))),
            SymMatrix(sys_.C.array + psd(0.1, spectral_norm(sys_.C))),
            SymMatrix(sys_.K.array - psd(0.1, float(np.linalg.eigvalsh(sys_.K.array)[0]))),
        )
        mid = 0.5 * (iv.lo + iv.hi)
        vals = np.sort(true_spectrum(to_modal(sys_)).values.real)
        hvals = np.sort(true_spectrum(to_modal(harder)).values.real)
        minus, plus = vals[vals < mid], vals[vals >= mid]
        hminus, hplus = hvals[hvals < mid], hvals[hvals >= mid]
        assert len(minus) == n and len(hminus) == n
        slack = 1e-9 * (1.0 + np.max(np.abs(vals)))
        slack_worst = max(
            slack_worst,
            float(np.max(np.sort(hminus) - np.sort(minus), initial=-np.inf)),
            float(np.max(np.sort(plus) - np.sort(hplus), initial=-np.inf)),
        )
        assert np.all(np.sort(hminus) <= np.sort(minus) + slack)
        assert np.all(np.sort(hplus) >= np.sort(plus) - slack)

    # envelope: admissible relative perturbations stay inside the bracket
    enveloped = 0
    for i in range(100):
        n = (i % 4) + 1
        sys_ = modally_damped_overdamped_system(n, 800_000 + i)
        form = to_modal(sys_)
        d = np.diag(form.D.array)
        theta = d / (2.0 * form.omega)
        # largest eta keeping the decoupled system overdamped, by bisection
        lo_eta, hi_eta = 1.0 / np.min(theta), 1.0
        for _ in range(60):
            mid_eta = 0.5 * (lo_eta + hi_eta)
            disc = (d * mid_eta) ** 2 - 4.0 * form.omega**2
            ok = np.all(disc > 0) and np.max(
                0.5 * (-d * mid_eta - np.sqrt(np.maximum(disc, 0.0)))
            ) < np.min(0.5 * (-d * mid_eta + np.sqrt(np.maximum(disc, 0.0))))
            if ok:
                hi_eta = mid_eta
            else:
                lo_eta = mid_eta
        eps = 0.5 * (1.0 - hi_eta) / (1.0 + hi_eta)
        env = eta_envelope(form, eps)
        rng = np.random.default_rng(i + 1)
        pert = _relative_perturbation(sys_, eps, rng)
        pvals = np.sort(true_spectrum(to_modal(pert)).values.real)
        pminus, pplus = pvals[:n], pvals[n:]
        tol = 1e-8 * (1.0 + np.max(np.abs(pvals)))
        assert np.all(pminus >= env.minus_lower - tol)
        assert np.all(pminus <= env.minus_upper + tol)
        assert np.all(pplus >= env.plus_lower - tol)
        assert np.all(pplus <= env.plus_upper + tol)
        enveloped += 1
    assert enveloped == 100
    print(
        f"ACCEPTANCE 6: PASS - 100 viscosity perturbations monotone "
        f"(worst slack {slack_worst:.2e}), 100 envelopes contain all eigenvalues"
    )


def grid_search_fit(D, omega, levels=8):
    Om = np.diag(np.asarray(omega, dtype=float) ** 2)
    n = D.shape[0]

    def objective(a, b):
        r = D - a * np.eye(n) - b * Om
        return np.sum(r * r)

    scale = max(np.max(np.abs(D)), 1.0)
    a0, b0, half = 0.0, 0.0, 4.0 * scale
    for _ in range(levels):
        axs = np.linspace(a0 - half, a0 + half, 41)
        bxs = np.linspace(b0 - half, b0 + half, 41)
        vals = np.array([[objective(a, b) for b in bxs] for a in axs])
        ia, ib = np.unravel_index(np.argmin(vals), vals.shape)
        a0, b0 = axs[ia], bxs[ib]
        half /= 10.0
    return a0, b0


def test_criterion_7_proportional_comparison():
    worst_gap = np.inf
    for i in range(200):
        n = (i % 6) + 2
        sys_ = random_system(n, 900_000 + i, gamma=[0.2, 1.0, 2.5][i % 3])
        form = to_modal(sys_)
        split = modal_split(form)
        fit = proportional_fit(form)
        gap = fit.residual_norm - split.dprime_frobenius
        worst_gap = min(worst_gap, gap)
        assert gap >= -1e-10
        if i % 10 == 0:
            a, b = grid_search_fit(form.D.array, form.omega)
            assert abs(fit.alpha - a) <= 1e-6
            assert abs(fit.beta - b) <= 1e-6
    print(
        f"ACCEPTANCE 7: PASS - 200 systems, fit residual >= diagonal-split "
        f"norm (min gap {worst_gap:.2e}), grid oracle agrees to 1e-6"
    )


def test_criterion_8_spread_estimates():
    rng = np.random.default_rng(5150)
    for i in range(500):
        n = int(rng.integers(2, 10))
        g = rng.standard_normal((n, n))
        H = SymMatrix(g @ g.T) if i % 2 else SymMatrix(g + g.T)
        k = int(rng.integers(0, max(n - 1, 1)))
        cuts = np.sort(rng.choice(np.arange(1, n), size=k, replace=False)) if k else []
        edges = [0, *list(cuts), n]
        part = tuple((edges[j], edges[j + 1]) for j in range(len(edges) - 1))
        sb = spread_bounds(H, part)
        assert np.all(sb.offdiag_eigenvalues >= sb.bracket_lo - 1e-10)
        assert np.all(sb.offdiag_eigenvalues <= sb.bracket_hi + 1e-10)
        assert sb.offdiag_norm <= sb.spread + 1e-10
        if i % 2:  # PSD draw
            assert sb.offdiag_norm <= spectral_norm(H) + 1e-10
    print("ACCEPTANCE 8: PASS - 500 partitioned matrices, bracket and norm bounds hold")


# frozen rasterization-oracle goldens; the d = 1.7 and 2.3 panels sit exactly
# on the tangency |lam^2 + d lam + 1| = r|lam| at lam = -1
FIGURE_GOLDENS = [
    (0.1, 0.3, 2),
    (1.0, 0.3, 2),
    (1.7, 0.3, 1),
    (2.3, 0.3, 2),
    (2.2, 0.1, 2),
]


def test_criterion_9_figure_regression(tmp_path):
    import ovalbounds.cli as cli

    for d, r, comp_count in FIGURE_GOLDENS:
        lam_p, lam_m = quadratic_roots(d, 1.0)
        oval = QuasiOval(lam_p, lam_m, r)
        union = RegionUnion(Method.MODAL_OVAL_NORM, (oval,), ((0,),))
        ca = component_analysis(union, 512)
        assert len(ca.components) == comp_count
        (loops,) = boundary_polylines(union, 512)
        assert len(loops) >= 1
        svg_a = tmp_path / f"panel_{d}_{r}_a.svg"
        svg_b = tmp_path / f"panel_{d}_{r}_b.svg"
        cli.emit_svg([union], None, svg_a, resolution=512)
        cli.emit_svg([union], None, svg_b, resolution=512)
        assert svg_a.read_bytes() == svg_b.read_bytes()
        assert b"<path" in svg_a.read_bytes()
    print(
        "ACCEPTANCE 9: PASS - 5 panels render, component counts match goldens "
        f"{[c for _, _, c in FIGURE_GOLDENS]}, SVG byte-stable"
    )


def _analyze_escalating(union):
    from ovalbounds.errors import ResolutionTooCoarse

    for resolution in (512, 1024, 2048):
        try:
            return component_analysis(union, resolution)
        except ResolutionTooCoarse:
            continue
    return None


def test_criterion_10_component_count_law():
    isolated_ok = 0
    tries = 0
    while isolated_ok < 100 and tries < 300:
        n = (tries % 3) + 2
        sys_ = lightly_damped_system(n, 950_000 + tries, level=0.08)
        tries += 1
        form = to_modal(sys_)
        split = modal_split(form)
        foci = mode_foci(form, split)
        union = build_regions(form, split, foci, Method.MODAL_OVAL_NORM)
        ca = _analyze_escalating(union)
        if ca is None or len(ca.components) != 2 * n:
            continue
        spec = true_spectrum(form)
        counts = np.zeros(len(ca.components), dtype=int)
        for lam in spec.values:
            idx = ca.locate(complex(lam))
            assert idx is not None
            counts[idx] += 1
        assert np.all(counts == 1)
        isolated_ok += 1
    assert isolated_ok >= 100

    merged_ok = 0
    for i in range(20):
        rng = np.random.default_rng(i)
        w2 = 1.0 + float(rng.uniform(0.05, 0.15))
        coupling = float(rng.uniform(0.3, 0.4))
        D = np.array(
            [[2.05, coupling, 0.0], [coupling, 2.05 * w2, 0.0], [0.0, 0.0, 0.2]]
        )
        form = ModalForm(np.eye(3), np.array([1.0, w2, 5.0]), SymMatrix(D))
        split = modal_split(form)
        foci = mode_foci(form, split)
        union = build_regions(form, split, foci, Method.MODAL_OVAL_NORM)
        ca = component_analysis(union, 512)
        merged = [c for c in ca.components if c.modes == (0, 1)]
        if len(merged) != 1:
            continue
        spec = true_spectrum(form)
        count = sum(
            1 for lam in spec.values if ca.locate(complex(lam)) == merged[0].index
        )
        assert count == merged[0].expected_eigenvalues == 4
        merged_ok += 1
    assert merged_ok >= 15
    print(
        f"ACCEPTANCE 10: PASS - {isolated_ok} systems with 2n isolated components "
        f"(one eigenvalue each), {merged_ok} merged components hold 2 x modes"
    )
