"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The threshold-fidelity
grid (criterion 5) dominates the runtime because the p != 2 scans integrate
truncations up to degree 2^14 by adaptive quadrature.
"""

import math

import numpy as np

from cesaro_bergman.norms import (
    SpaceKind,
    SpaceSpec,
    inclusion_ratio_scan,
    monomial_norm,
    norm_quadrature,
    parseval_weights,
)
from cesaro_bergman.scans import (
    GrowthKind,
    counterexample_blowup,
    eigen_membership_scan,
    expected_eigen_membership,
    gp_nuclearity_sum,
    schauder_partial_sum_check,
)
from cesaro_bergman.series import (
    TaylorTruncation,
    binomial_series_coeffs,
    cesaro_apply,
    cesaro_inverse_apply,
    eigen_residual_exact,
    eigenfunction_truncation,
    recover_from_cesaro,
)
from cesaro_bergman.spectra import (
    filtered_grid,
    spectrum,
    step_union_crosscheck,
    waelbroeck,
)


DIVERGENT = (GrowthKind.POWER_DIVERGENT, GrowthKind.LOG_DIVERGENT)


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num} ({name}): {detail}")
    return ok


def test_criterion_1_operator_exactness():
    rng = np.random.default_rng(1001)
    worst_round = 0.0
    worst_recover = 0.0
    for _ in range(100):
        c = rng.uniform(-1, 1, 201) + 1j * rng.uniform(-1, 1, 201)
        f = TaylorTruncation(c)
        g = cesaro_apply(f)
        back = cesaro_inverse_apply(g)
        worst_round = max(worst_round, float(np.max(np.abs(back.coeffs - c))))
        rec = recover_from_cesaro(g)
        worst_recover = max(worst_recover,
                            float(np.max(np.abs(rec.coeffs - c[:200]))))
    ok = worst_round < 1e-12 and worst_recover < 1e-12
    assert report(1, "operator exactness", ok,
                  f"roundtrip max err {worst_round:.2e}, "
                  f"recover max err {worst_recover:.2e} (tol 1e-12)")


def test_criterion_2_eigen_residual():
    worst = 0.0
    exact_ok = True
    for m in range(1, 11):
        exact_ok &= eigen_residual_exact(m, 500)
        f = eigenfunction_truncation(m, 500)
        resid = cesaro_apply(f).coeffs - f.coeffs / m
        # binomial coefficients exceed 2^53 here, so zero is asserted
        # relative to each coefficient's magnitude
        scale = np.maximum(1.0, np.abs(f.coeffs))
        worst = max(worst, float(np.max(np.abs(resid) / scale)))
    ok = exact_ok and worst <= 1e-12
    assert report(2, "eigen residual", ok,
                  f"integer identity {'holds' if exact_ok else 'FAILS'}, "
                  f"float residual {worst:.2e} (tol 1e-12), m=1..10, N=500")


def test_criterion_3_monomial_norm_vs_quadrature():
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        for alpha in (0.5, 1.0, 2.0):
            for j in range(0, 51):
                coeffs = np.zeros(j + 1, dtype=complex)
                coeffs[j] = 1.0
                v = norm_quadrature(TaylorTruncation(coeffs), p, alpha,
                                    rel_tol=1e-10)
                ref = monomial_norm(j, p, alpha)
                worst = max(worst, abs(v - ref) / ref)
    ok = worst < 1e-8
    assert report(3, "monomial norm closed form vs quadrature", ok,
                  f"worst relative error {worst:.2e} over j<=50, "
                  f"p in {{1.5,2,3}}, alpha in {{0.5,1,2}} (tol 1e-8)")


def test_criterion_4_asymptotic_law():
    j = 10_000
    scaled = monomial_norm(j, 2.0, 1.0) ** 2 * j ** 2
    gap = abs(scaled - 0.5) / 0.5
    ok = gap < 0.02
    assert report(4, "monomial norm asymptotic law", ok,
                  f"norm^2 * j^2 = {scaled:.6f} vs 0.5, rel gap {gap:.4f} "
                  f"(tol 2%)")


def test_criterion_5_threshold_fidelity():
    n_max = 1 << 14
    checked = 0
    failures = []
    for p in (1.5, 2.0, 3.0):
        for alpha in (0.5, 1.0, 2.0, 3.5):
            threshold = (2.0 + alpha) / p
            for m in range(1, 6):
                if abs(m - threshold) < 1e-9:
                    continue  # boundary case: reported as evidence only
                checked += 1
                scan = eigen_membership_scan(m, p, alpha, n_max=n_max)
                want_member = expected_eigen_membership(m, p, alpha)
                got_member = scan.classification.kind is GrowthKind.CONVERGED
                got_diverges = scan.classification.kind in DIVERGENT
                if want_member != got_member or (not want_member
                                                 and not got_diverges):
                    failures.append((p, alpha, m, scan.classification.kind))
    ok = not failures
    assert report(5, "point-spectrum threshold fidelity", ok,
                  f"{checked - len(failures)}/{checked} non-boundary grid "
                  f"cases agree with m < (2+alpha)/p at N_max=2^14"
                  + (f"; failures: {failures}" if failures else ""))


def test_threshold_boundary_cases_read_log_divergent():
    # m = (2+alpha)/p: ||f_N||_p^p grows like log N, so the increments of
    # v^p have slope 0; criterion 5 skips the first three of these
    cases = ((2.0, 2.0, 2), (1.5, 1.0, 2), (3.0, 1.0, 1), (2.0, 0.0, 1),
             (2.0, 4.0, 3))
    kinds = [eigen_membership_scan(m, p, alpha, n_max=1 << 14)
             .classification.kind for p, alpha, m in cases]
    assert kinds == [GrowthKind.LOG_DIVERGENT] * len(cases)


def test_boundary_eigenfunction_lies_in_every_step():
    # m = (2+alpha)/p: f_m lies in A^p_beta for every beta > alpha, so in
    # each Frechet step alpha + 1/n, where the increments of v^p fall like
    # N^(-1/n); hence 1/m is an eigenvalue of the intersection space
    for m, p, alpha, n_max in ((2, 2.0, 2.0, 1 << 20), (3, 2.0, 4.0, 1 << 20),
                               (2, 1.5, 1.0, 1 << 13)):
        for n in (1, 2, 3):
            c = eigen_membership_scan(m, p, alpha + 1.0 / n,
                                      n_max=n_max).classification
            assert c.kind is GrowthKind.CONVERGED, (m, p, alpha, n, c)
            assert abs(c.exponent + 1.0 / (n * p)) < 7e-3, (m, p, alpha, n, c)
        desc = spectrum(SpaceSpec(p, alpha, SpaceKind.FRECHET_INTERSECTION))
        assert desc.points[-1] == 1.0 / m


def test_slow_convergence_below_the_threshold():
    # m = 2 < 3.2/1.5: the increments of v^1.5 fall like N^(-0.2), slowly
    # enough to pass for log growth on a fit of v itself
    for n_max in (1 << 13, 1 << 14):
        c = eigen_membership_scan(2, 1.5, 1.2, n_max=n_max).classification
        assert expected_eigen_membership(2, 1.5, 1.2)
        assert c.kind is GrowthKind.CONVERGED
        assert abs(c.exponent * 1.5 + 0.2) < 0.01


def test_gp_exponents_follow_the_law():
    worst = max(abs(gp_nuclearity_sum(p, 1.0, m).classification.exponent
                    - (1.0 - (1.0 - 1.0 / m) / p))
                for p in (1.5, 2.0, 3.0) for m in range(2, 7))
    assert worst < 2e-3


def test_criterion_6_non_invertibility():
    fre = counterexample_blowup(2.0, 1.0, 0.4, SpaceKind.FRECHET_INTERSECTION,
                                steps=[3, 4, 5, 6])
    fre_ok = (fre.home_step == 3
              and fre.source_scan.classification.kind is GrowthKind.CONVERGED
              and all(s.classification.kind in DIVERGENT
                      for _, s in fre.inverse_scans))
    lb = counterexample_blowup(2.0, 1.0, 0.4, SpaceKind.LB_UNION,
                               steps=[4, 5, 6, 7])
    lb_ok = (lb.source_scan.classification.kind is GrowthKind.CONVERGED
             and all(s.classification.kind in DIVERGENT
                     for _, s in lb.inverse_scans))
    ok = fre_ok and lb_ok
    assert report(6, "non-invertibility counterexample", ok,
                  "p=2 alpha=1 eps=0.4: source converged and inverse "
                  f"divergent at steps n>=3 (intersection {fre_ok}, "
                  f"union {lb_ok})")


def test_criterion_7_compact_inclusion():
    scan = inclusion_ratio_scan(2.0, 1.0, 2.0, 10_000)
    gap = abs(scan.exponent - (-0.5)) / 0.5
    monotone = bool(np.all(np.diff(scan.ratios) < 0))
    vanishing = scan.ratios[-1] < 0.05 * scan.ratios[0]
    ok = gap < 0.02 and monotone and vanishing
    assert report(7, "compact inclusion decay", ok,
                  f"fitted exponent {scan.exponent:.4f} vs -0.5 "
                  f"(rel gap {gap:.4f}, tol 2%), strictly decreasing: "
                  f"{monotone}, d_j -> 0: {vanishing}")


def test_criterion_8_non_nuclearity():
    scan = gp_nuclearity_sum(2.0, 1.0, 2, j_max=10 ** 5)
    is_power = scan.classification.kind is GrowthKind.POWER_DIVERGENT
    gap = (abs(scan.classification.exponent - 0.75) / 0.75
           if is_power else math.inf)
    ok = is_power and gap < 0.05
    assert report(8, "non-nuclearity ratio sums", ok,
                  f"classified {scan.classification.kind.value}, exponent "
                  f"{scan.classification.exponent} vs 0.75 "
                  f"(rel gap {gap:.4f}, tol 5%)")


def test_criterion_9_spectral_crosscheck():
    results = {}
    for kind in ("frechet", "lb"):
        grid = filtered_grid(kind, 2.0, 2.0, 100, nx=100, ny=100, band=1e-9)
        rep = step_union_crosscheck(kind, 2.0, 2.0, 100, grid, band=1e-9)
        results[kind] = (rep.n_checked, len(rep.disagreements))
    grids_ok = all(bad == 0 for _, bad in results.values())
    waelbroeck_ok = True
    for p, alpha in [(2.0, 2.0), (2.0, 1.0), (1.5, 0.7)]:
        fre = spectrum(SpaceSpec(p, alpha,
                                  SpaceKind.FRECHET_INTERSECTION))
        lbd = spectrum(SpaceSpec(p, alpha, SpaceKind.LB_UNION))
        banach = spectrum(SpaceSpec(p, alpha))
        waelbroeck_ok &= waelbroeck(fre) == banach == waelbroeck(lbd)
    ok = grids_ok and waelbroeck_ok
    assert report(9, "spectral step-union cross-check", ok,
                  f"checked/disagreements per kind: {results}; Waelbroeck "
                  f"set identities hold: {waelbroeck_ok}")


def test_criterion_10_schauder_basis():
    n_max = 1 << 14
    spec = SpaceSpec(2.0, 1.0, SpaceKind.FRECHET_INTERSECTION)
    targets = {
        "geometric": eigenfunction_truncation(1, 2 * n_max),
        "binomial": binomial_series_coeffs((1.0 + 1.0 - 0.4) / 2.0, 2 * n_max),
    }
    ok = True
    details = []
    for name, f in targets.items():
        rep = schauder_partial_sum_check(f, spec, n_max=n_max, steps=(1, 2, 3))
        for n, scan in rep.tails:
            decreasing = bool(np.all(np.diff(scan.values) < 0))
            # tail sums of the Parseval series: squared step seminorms
            final_tail_sum = scan.values[-1] ** 2
            ok &= decreasing and final_tail_sum < 1e-6
            details.append(f"{name} n={n}: {final_tail_sum:.2e}")
    assert report(10, "monomial basis partial sums", ok,
                  "Parseval tail sums at N=2^14 (tol 1e-6): "
                  + ", ".join(details))


def test_parseval_weight_sanity():
    # guards the weights used throughout the acceptance criteria
    w = parseval_weights(2.0, 1)
    assert abs(w[0] - 2.0 * math.gamma(2.0) * math.gamma(3.0)
               / math.gamma(5.0)) < 1e-15
