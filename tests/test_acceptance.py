"""Acceptance gate: one test per release criterion, run with -v so every
criterion shows a single PASSED/FAILED line.

Fixed tolerances appear inline next to each assertion; the session
fixtures in conftest.py provide the shared enumeration and scan runs.
"""

import math

import numpy as np

import henonlab as hl
from conftest import TIMINGS

LOG2 = math.log(2.0)


def _report(num, detail):
    print(f"criterion {num:02d}: {detail}")


def test_criterion_01_counting_fix_n(horseshoe_spectra):
    # 2^n distinct certified points for n = 1..10, residuals < 1e-10,
    # full sweep well under the 5 minute budget
    for n, s in horseshoe_spectra.items():
        assert s.complete, f"enumeration incomplete at n={n}"
        assert s.counts["fix"] == 2**n
        for o in s.orbits:
            assert o.certified and o.residual < 1e-10
    # elimination cross-check at n = 1, 2: x^2 - 6 = (1 + a) x has two
    # simple roots, and Fix_2 adds one exact period-2 pair
    r = sorted(complex(o.xs[0]).real for o in horseshoe_spectra[1].orbits)
    want = sorted(np.roots([1.0, -1.3, -6.0]).real)
    assert abs(r[0] - want[0]) < 1e-10 and abs(r[1] - want[1]) < 1e-10
    assert horseshoe_spectra[2].counts["fix"] == 4
    assert TIMINGS["horseshoe_spectra"] < 300.0
    _report(1, f"2^n certified points for n=1..10 in {TIMINGS['horseshoe_spectra']:.1f}s")


def test_criterion_02_chain_and_moebius_identities(horseshoe_spectra, mixed_spectra):
    for spectra in (horseshoe_spectra, mixed_spectra):
        for n, s in spectra.items():
            c = s.counts
            # per stores point counts: k * (number of exact-period-k orbits)
            assert sum(c["per"].values()) == c["fix"]
            assert all(v % k == 0 for k, v in c["per"].items())
            per_n = c["per"].get(n, 0)
            assert c["sper"] <= per_n <= c["fix"] <= 2**n
    _report(2, "count chain #SPer_n <= #Per_n <= #Fix_n <= 2^n holds for n=1..10, both parameters")


def test_criterion_03_saddle_majority(horseshoe_spectra, mixed_spectra):
    for s in horseshoe_spectra.values():
        assert all(o.kind == "saddle" for o in s.orbits)
    for n in range(1, 9):
        s = mixed_spectra[n]
        saddle_pts = sum(o.n for o in s.orbits if o.kind == "saddle")
        other_pts = s.counts["fix"] - saddle_pts
        assert other_pts <= 1  # the lone sink fixed point
        assert saddle_pts / s.counts["fix"] >= 1.0 - 2.0 / 2**n
    _report(3, "saddle fraction 1 at the horseshoe, >= 1 - 2/2^n at the mixed parameter")


def test_criterion_04_periods_all_realized(horseshoe_spectra):
    for n in range(2, 11):
        assert horseshoe_spectra[n].counts["per"].get(n, 0) > 0
    _report(4, "Per_n nonempty for n=2..10 at the horseshoe parameter")


def test_criterion_05_measure_convergence(horseshoe_spectra):
    mus = {n: hl.empirical_measure(horseshoe_spectra[n], "fix") for n in (4, 6, 8, 10)}
    d4 = hl.discrepancy(mus[4], mus[10], 1 / 32)
    d6 = hl.discrepancy(mus[6], mus[10], 1 / 32)
    d8 = hl.discrepancy(mus[8], mus[10], 1 / 32)
    assert d4 > d6 > d8
    mos = {n: hl.moments(mus[n], 3) for n in (4, 8, 10)}
    gap4 = max(abs(mos[4][o] - mos[10][o]) for o in mos[10])
    gap8 = max(abs(mos[8][o] - mos[10][o]) for o in mos[10])
    # the low moments already sit at the summation round-off floor by
    # n = 4, so the 2x shrink is asserted only above that floor
    floor = 100 * np.finfo(float).eps * max(abs(v) for v in mos[10].values())
    assert gap8 <= max(gap4 / 2.0, floor)
    _report(5, f"discrepancy to nu_10 decreasing ({d4:.3f} > {d6:.3f} > {d8:.3f}); moment gaps at round-off")


def test_criterion_06_lyapunov_estimators_agree(horseshoe_spectra, mixed_spectra):
    for spectra in (horseshoe_spectra, mixed_spectra):
        for s in spectra.values():
            assert s.complete
            for which in ("fix", "sper"):
                est = hl.lambda_estimate(s, which)
                if est.point_count:
                    assert est.agreement_gap < 1e-6
    for n in range(6, 11):
        fix = hl.lambda_estimate(horseshoe_spectra[n], "fix").lambda_n
        sper = hl.lambda_estimate(horseshoe_spectra[n], "sper").lambda_n
        assert abs(fix - sper) < 1e-3
    lam10 = hl.lambda_estimate(horseshoe_spectra[10], "sper").lambda_n
    assert lam10 >= LOG2 - 0.01
    _report(6, f"chi/psi forms agree to 1e-6; Lambda_10 = {lam10:.5f} >= log 2 - 0.01")


def test_criterion_07_one_dimensional_degeneration(near_1d_spectrum):
    est = hl.lambda_estimate(near_1d_spectrum, "sper")
    assert near_1d_spectrum.complete
    assert LOG2 - 0.02 <= est.lambda_n <= LOG2 + 0.02
    _report(7, f"a=1e-3 Lambda_8 = {est.lambda_n:.5f} within log 2 +- 0.02")


def test_criterion_08_multiplier_product(horseshoe_spectra, mixed_spectra, near_1d_spectrum):
    spectra = list(horseshoe_spectra.values()) + list(mixed_spectra.values())
    spectra.append(near_1d_spectrum)
    worst = 0.0
    for s in spectra:
        for o in s.orbits:
            an = s.map.a ** o.n
            worst = max(worst, abs(o.lambda_s * o.lambda_u - an) / abs(an))
    assert worst < 1e-8
    _report(8, f"max |lambda_s lambda_u - a^n| / |a|^n = {worst:.2e}")


def test_criterion_09_green_vanishing(horseshoe_spectra, mixed_spectra):
    # double-precision points drift off the bounded set too fast under
    # backward iteration at the horseshoe, so the greens are evaluated
    # on extended-precision re-polished orbits (max_iter = 100 kept)
    worst = 0.0
    for spectra in (horseshoe_spectra, mixed_spectra):
        s = spectra[8]
        for o in s.orbits:
            gp, gm = hl.orbit_greens_hp(s.map, o.xs, max_iter=100)
            worst = max(worst, gp, gm)
    assert worst < 1e-6
    _report(9, f"max green over Fix_8 points (both parameters) = {worst:.2e}")


def test_criterion_10_growth_rate(horseshoe_spectra):
    sper10 = horseshoe_spectra[10].counts["sper"]
    gap = abs(math.log(sper10) / 10.0 - LOG2)
    assert gap < 0.05
    _report(10, f"#SPer_10 = {sper10}, |(1/10) log # - log 2| = {gap:.4f}")


def test_criterion_11_scan_dichotomy(horseshoe_scan, sink_scan):
    assert horseshoe_scan.complete.all() and sink_scan.complete.all()
    assert (horseshoe_scan.n_sinks == 0).all()
    assert (sink_scan.n_sinks >= 1).all()
    horseshoe_max = hl.max_interior_defect(horseshoe_scan)
    sink_max = hl.max_interior_defect(sink_scan)
    # noise floor = what a genuinely harmonic field of the same
    # smoothness produces through this 5-point stencil on this grid
    floor = hl.lyapunov_noise_floor(horseshoe_scan)
    assert horseshoe_max < 10.0 * floor
    assert sink_max > 10.0 * horseshoe_max
    elapsed = TIMINGS["horseshoe_scan"] + TIMINGS["sink_scan"]
    assert elapsed < 900.0
    _report(11, f"defects {horseshoe_max:.2e} (floor {floor:.2e}) vs {sink_max:.2e}; "
                f"{elapsed:.0f}s combined")


def test_criterion_12_determinism(horseshoe_map, horseshoe_spectra,
                                  horseshoe_family, sink_family,
                                  horseshoe_scan, sink_scan):
    base = {n: hl.spectrum_to_json(s) for n, s in horseshoe_spectra.items()}
    for n in range(1, 11):
        rerun = hl.enumerate_fix(horseshoe_map, n)
        assert hl.spectrum_to_json(rerun) == base[n], f"enumeration differs at n={n}"
    scans = ((horseshoe_family, hl.scan_to_csv(horseshoe_scan)),
             (sink_family, hl.scan_to_csv(sink_scan)))
    for family, want in scans:
        assert hl.scan_to_csv(hl.scan(family, n=6)) == want, "scan differs on a rerun"
    _report(12, "byte-identical enumeration and scan reruns")
