"""Property-based checks of the small algebraic invariants."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import henonlab as hl
from henonlab.exponents import _psi_sum_rows, _unstable_rows, orbit_psi_sum
from henonlab.orbits import _MapRows, _certify_rows, _classify_rows, _monodromy_rows

finite = st.floats(-5.0, 5.0, allow_nan=False)
cvec = st.lists(st.tuples(finite, finite), min_size=1, max_size=6).map(
    lambda ps: np.array([complex(a, b) for a, b in ps])
)
coeff = st.tuples(finite, finite).map(lambda t: complex(*t))
henon_maps = st.builds(
    lambda cs, amod, aarg: hl.HenonMap(coeffs=tuple(cs), a=amod * cmath.exp(1j * aarg)),
    st.integers(2, 4).flatmap(lambda d: st.lists(coeff, min_size=d, max_size=d)),
    st.floats(0.05, 2.0), st.floats(-3.14, 3.14),
)


# entries that tie: signed zeros, repeats, and conjugates of each other
tie_part = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5])
tie_entry = st.one_of(
    st.tuples(tie_part, tie_part).map(lambda t: complex(*t)),
    st.tuples(finite, finite).map(lambda t: complex(*t)),
)
tie_vecs = st.one_of(
    st.lists(tie_entry, min_size=1, max_size=12),
    st.lists(tie_entry, min_size=1, max_size=6).flatmap(
        lambda b: st.permutations(b + [z.conjugate() for z in b])),
    st.tuples(tie_entry, st.integers(1, 12)).map(lambda t: [t[0]] * t[1]),
    st.tuples(st.lists(tie_entry, min_size=1, max_size=4), st.integers(2, 3)).map(
        lambda t: t[0] * t[1]),
).map(lambda zs: np.array(zs, dtype=complex))


def _coarse(t):
    """t rounded to 30 significant bits, half to even."""
    mant, expo = math.frexp(t)
    return math.ldexp(round(math.ldexp(mant, 30)), expo - 30)


def _key(xs):
    # the order _lex_order documents: every part rounded to 30 significant
    # bits first, so round-off alone never decides, then the exact parts
    exact = tuple(t for z in xs for t in (z.real, z.imag))
    return tuple(map(_coarse, exact)) + exact


def _loop_canonical_rotation(xs):
    best = xs
    for r in range(1, xs.shape[0]):
        cand = np.roll(xs, -r)
        if _key(cand) < _key(best):
            best = cand
    return best


def _loop_rotation_distance(u, v):
    return min(float(np.abs(u - np.roll(v, r)).max()) for r in range(u.shape[0]))


def _loop_gaps(xs):
    n = xs.shape[0]
    return {p: float(np.abs(xs - np.roll(xs, -p)).max()) for p in range(1, n) if n % p == 0}


@settings(max_examples=300, deadline=None)
@given(tie_vecs, tie_vecs)
def test_rotation_table_matches_roll_loops(v, w):
    # tie-breaking decides the output bytes, so agreement must be bit for bit
    u = np.resize(w, v.shape)
    assert hl.canonical_rotation(v).tobytes() == _loop_canonical_rotation(v).tobytes()
    assert hl.rotation_distance(u, v) == _loop_rotation_distance(u, v)
    assert _gap_dict(v, hl.orbits._rotation_rows(v[None])[1][0]) == _loop_gaps(v)
    rows = hl.orbits._rotations(v)
    stable = sorted(range(v.shape[0]), key=lambda r: _key(rows[r]))
    assert hl.orbits._lex_order(rows).tolist() == stable


def _gap_dict(xs, gaps):
    """The gaps of ``_rotation_rows`` keyed by their proper divisors, as ``_loop_gaps`` has them."""
    return dict(zip(hl.orbits._divisors(len(xs)), gaps.tolist()))


@st.composite
def tie_stacks(draw):
    """Rows of one length k: tie entries repeated p | k times, and rotated copies or
    conjugates of earlier rows."""
    k = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.integers(0, 2)) if rows else 0
        if kind == 0:
            p = draw(st.sampled_from(hl.orbits._divisors(k)))
            rows.append(draw(st.lists(tie_entry, min_size=p, max_size=p)) * (k // p))
        else:
            earlier = np.array(rows[draw(st.integers(0, len(rows) - 1))])
            earlier = np.conj(earlier) if kind == 1 else earlier
            rows.append(np.roll(earlier, draw(st.integers(0, k - 1))).tolist())
    return np.array(rows, dtype=complex)


# 40 rows at k = 12 span two blocks of 28; k = 1 has no proper divisor
_TWO_BLOCKS = np.array([[complex((i * j) % 3 - 1, (-0.0, 0.0, 1.0, -1.0)[(i + 2 * j) % 4])
                         for j in range(12)] for i in range(40)])


@settings(max_examples=200, deadline=None)
@given(tie_stacks())
@example(_TWO_BLOCKS)
@example(np.array([[0.0], [-0.0], [1j], [-0.0 - 0.0j], [1j]], dtype=complex))
# real parts apart by less than round-off: the imaginary parts decide
@example(np.array([[0.0] * 9 + [-5 + 1j, -4.999999999 + 0j]]))
def test_rotation_rows_match_roll_loops(X):
    # one kernel for every row of a length: bit for bit the per-row loops
    W, gaps = hl.orbits._rotation_rows(X)
    assert W.shape == X.shape and gaps.shape == (len(X), len(hl.orbits._divisors(X.shape[1])) - 1)
    for x, w, g in zip(X, W, gaps):
        assert w.tobytes() == _loop_canonical_rotation(x).tobytes()
        assert _gap_dict(x, g) == _loop_gaps(x)


#: real parts that differ only past the 30 bits of the coarse key
coarse_tie = st.tuples(st.sampled_from([1.0, -2.5, 3.0]), st.integers(-2, 2), tie_part).map(
    lambda t: complex(t[0] * (1 + t[1] * 2.0**-40), t[2]))


@st.composite
def rows_to_tie(draw):
    """Rows of one length k: random entries, repeated words, real parts equal in their
    coarse key, and conjugate pairs, each with signed zeros among their parts."""
    k = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 20))):
        kind = draw(st.sampled_from(["random", "repeat", "coarse", "conjugate"]))
        if kind == "random":
            row = draw(st.lists(tie_entry, min_size=k, max_size=k))
        elif kind == "repeat":
            p = draw(st.sampled_from(hl.orbits._divisors(k)))
            row = draw(st.lists(st.one_of(tie_entry, coarse_tie), min_size=p, max_size=p)) * (k // p)
        elif kind == "coarse":
            row = draw(st.lists(coarse_tie, min_size=k, max_size=k))
        else:
            half = draw(st.lists(st.one_of(tie_entry, coarse_tie), min_size=k // 2, max_size=k // 2))
            row = draw(st.permutations(half + [z.conjugate() for z in half]
                                       + draw(st.lists(tie_entry, min_size=k % 2, max_size=k % 2))))
        rows.append(row)
    return np.array(rows, dtype=complex)


@settings(max_examples=300, deadline=None)
@given(rows_to_tie())
@example(np.array([[1 + 1j, 1 - 1j, 1 + 1j, 1 - 1j], [-0.0 + 2j, 0.0 - 2j, 0.0 + 2j, -0.0 - 2j]]))
def test_table_free_rotation_matches_the_rotation_table(X):
    # the shift chosen from the first coordinates, and the gaps from one
    # gather per divisor, are bit for bit those of the per-row references
    W, gaps = hl.orbits._rotation_rows(X)
    for x, w, g in zip(X, W, gaps):
        assert w.tobytes() == _loop_canonical_rotation(x).tobytes()
        assert _gap_dict(x, g) == _loop_gaps(x)


@settings(max_examples=100, deadline=None)
@given(tie_stacks(), st.integers(0, 2**32 - 1))
@example(_TWO_BLOCKS, 0)
def test_lex_order_group_is_the_two_step_sort(X, seed):
    group = np.random.default_rng(seed).integers(0, 4, len(X))
    order = hl.orbits._lex_order(X)
    two_step = order[np.argsort(group[order], kind="stable")]
    assert hl.orbits._lex_order(X, group).tolist() == two_step.tolist()


@settings(max_examples=30, deadline=None)
@given(cvec, st.integers(0, 5))
def test_rotation_distance_vanishes_on_rotations(v, r):
    assert hl.rotation_distance(v, np.roll(v, r % len(v))) < 1e-12


@settings(max_examples=30, deadline=None)
@given(cvec, cvec)
def test_rotation_distance_symmetry(u, v):
    if len(u) != len(v):
        return
    assert abs(hl.rotation_distance(u, v) - hl.rotation_distance(v, u)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(cvec, st.integers(0, 5))
def test_canonical_rotation_is_rotation_invariant(v, r):
    a = hl.canonical_rotation(v)
    b = hl.canonical_rotation(np.roll(v, r % len(v)))
    assert np.array_equal(a, b)


@settings(max_examples=20, deadline=None)
@given(st.floats(-8, 8), st.floats(-8, 8),
       st.floats(0.05, 2.0), st.floats(-3.14, 3.14))
def test_filtration_radius_bounds_periodic_points(cre, cim, amod, aarg):
    # any fixed point of the map must lie inside the filtration disk
    m = hl.quadratic_map(complex(cre, cim), amod * np.exp(1j * aarg))
    R = m.filtration_radius
    roots = np.roots([1.0, -(1.0 + m.a), m.coeffs[0]])
    for x in roots:
        assert abs(x) <= R + 1e-9


@settings(max_examples=40, deadline=None)
@given(henon_maps, cvec)
def test_cyclic_kernels_agree_across_number_types(m, v):
    # one kernel serves doubles, batches and mpmath object arrays
    F, J = hl.cyclic_residual(m, v), hl.cyclic_jacobian(m, v)
    with mp.workdps(40):
        z = np.array([mp.mpc(x) for x in v], dtype=object)
        F_mp = hl.cyclic_residual(m, z).astype(complex)
        J_mp = hl.cyclic_jacobian(m, z).astype(complex)
    # error scales: the moduli of the terms that enter each entry
    ax, d = np.abs(v), m.degree
    f_scale = (ax**d + sum(abs(c) * ax**i for i, c in enumerate(m.coeffs))
               + abs(m.a) * np.roll(ax, 1) + np.roll(ax, -1))
    j_scale = (d * ax ** (d - 1) + sum(i * abs(c) * ax ** (i - 1) for i, c in enumerate(m.coeffs) if i)
               + abs(m.a) + 1.0)
    assert np.all(np.abs(F - F_mp) <= 1e-12 * f_scale)
    assert np.all(np.abs(J - J_mp) <= 1e-12 * j_scale[:, None])
    assert np.array_equal(hl.cyclic_residual(m, v[None, :])[0], F)
    assert np.array_equal(hl.cyclic_jacobian(m, v[None, :])[0], J)


def _dense_steps(m, X, F):
    """Row-by-row LAPACK steps and the rows whose Jacobian is singular to working precision.

    A row is singular when sigma_min(J) <= n eps sigma_max(J), the rule
    ``orbits._lapack_solve`` documents, or when LAPACK raises.
    """
    J = hl.cyclic_jacobian(m, X)
    n = X.shape[1]
    S, bad = np.zeros_like(F), np.zeros(len(X), dtype=bool)
    for i in range(len(X)):
        sv = np.linalg.svd(J[i], compute_uv=False)
        if not sv[-1] > n * np.finfo(float).eps * sv[0]:
            bad[i] = True
            continue
        try:
            S[i] = np.linalg.solve(J[i], F[i])
        except np.linalg.LinAlgError:
            bad[i] = True
    return S, bad


@settings(max_examples=60, deadline=None)
@given(henon_maps, st.integers(1, 16), st.integers(1, 64), st.floats(0.1, 3.0),
       st.integers(0, 2**32 - 1))
# |a| = 1 and an all-critical row: J is singular to working precision
# (sigma_min 8.6e-174, sigma_max 2) although LAPACK solves it without raising
@example(hl.HenonMap(coeffs=(0j, 0j), a=1 + 1.2e-173j), 4, 1, 1.0, 0)
def test_cyclic_tridiagonal_solve_matches_dense(m, n, B, radius, seed):
    rng = np.random.default_rng(seed)
    X = radius * (rng.normal(size=(B, n)) + 1j * rng.normal(size=(B, n)))
    # the same map without its linear term has p'(0) = 0 exactly
    m0 = hl.HenonMap(coeffs=(m.coeffs[0], 0.0, *m.coeffs[2:]), a=m.a)
    X0 = X.copy()
    X0[:, 0] = 0.0                # p'(x_0) = 0: the corner shift gamma falls back to 1
    if n % 2 == 0:
        # p' = 0 on every entry: the last Thomas pivot is -a + a = 0 although
        # J, circulant with eigenvalues -a w^-1 - w over the n-th roots w, is
        # regular unless |a| = 1, so the row must take the dense path
        X0[-1] = 0.0
    for mm, XX in ((m, X), (m0, X0)):
        F = hl.cyclic_residual(mm, XX)
        S, bad = hl.orbits._band_solve(mm.dp(XX), -mm.a, -1.0, F)
        S_ref, bad_ref = _dense_steps(mm, XX, F)
        assert np.array_equal(bad, bad_ref)
        ok = ~bad_ref
        Jinv = np.linalg.inv(hl.cyclic_jacobian(mm, XX[ok]))
        scale = np.abs(Jinv).sum(axis=2).max(axis=1) * np.abs(F[ok]).max(axis=1)
        assert np.all(np.abs(S[ok] - S_ref[ok]).max(axis=1) <= 1e-10 * scale)


def _mp_band_solve(m, z, F):
    """The O(n) solve on an object array of mpc, as ``orbits._newton`` makes it for
    ``verify.refine_orbit_hp``: one row, bands and right-hand side in mpc."""
    return hl.orbits._band_solve(m.dp(z)[None], np.array([[-mp.mpc(m.a)]], dtype=object),
                                 mp.mpc(-1), F[None])[0][0]


@settings(max_examples=40, deadline=None)
@given(henon_maps, st.integers(1, 16), st.floats(0.1, 3.0), st.integers(0, 2**32 - 1))
# J close to a cyclic shift: the Sherman-Morrison correction cancels ~1e6 times the step
@example(hl.HenonMap(coeffs=(0j, 0j), a=0.0625), 12, 0.125, 0)
def test_cyclic_tridiagonal_solve_in_extended_precision(m, n, radius, seed):
    # the same O(n) solve on object arrays of mpmath numbers, as the Newton
    # polish of verify.refine_orbit_hp makes it, against a dense mp.lu_solve
    dps = 40
    rng = np.random.default_rng(seed)
    x = radius * (rng.normal(size=n) + 1j * rng.normal(size=n))
    m0 = hl.HenonMap(coeffs=(m.coeffs[0], 0.0, *m.coeffs[2:]), a=m.a)
    x0 = x.copy()
    x0[0] = 0.0                   # p'(x_0) = 0 exactly
    cases = [(m, x), (m0, x0)]
    if n % 2 == 0:
        cases.append((m0, np.zeros(n, dtype=complex)))   # last Thomas pivot 0, J regular
    with mp.workdps(dps):
        for mm, xx in cases:
            z = np.array([mp.mpc(complex(v)) for v in xx], dtype=object)
            F = hl.cyclic_residual(mm, z)
            J = mp.matrix(hl.cyclic_jacobian(mm, z))
            try:
                ref = mp.lu_solve(J, mp.matrix(F))
            except ZeroDivisionError:   # J singular to working precision
                with pytest.raises(ZeroDivisionError):
                    _mp_band_solve(mm, z, F)
                continue
            S = _mp_band_solve(mm, z, F)
            scale = mp.mnorm(mp.inverse(J), "inf") * max(abs(f) for f in F)
            assert max(abs(s - r) for s, r in zip(S, ref)) <= mp.mpf(10) ** (5 - dps) * scale


def _mobius(q):
    sign, p = 1, 2
    while p * p <= q:
        if q % p == 0:
            q //= p
            if q % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if q > 1 else sign


def _necklaces(d, k):
    """Primitive necklaces of length k over d letters: (1/k) sum_{j|k} mu(k/j) d^j."""
    return sum(_mobius(k // j) * d**j for j in range(1, k + 1) if k % j == 0) // k


def test_lyndon_word_counts():
    for d in (2, 3, 4):
        for k in range(1, 11):
            words = hl.orbits._lyndon_words(d, k)
            assert len(words) == len(set(words)) == _necklaces(d, k)
            if d**k <= 4096:  # each word is below its proper rotations
                assert all(w < w[r:] + w[:r] for w in words for r in range(1, k))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.data())
def test_necklace_catalogue_of_random_maps(d, seed, data):
    # a generic map: Gaussian coefficients, complex a with 0.1 <= |a| <= 1.5
    n = data.draw(st.integers(1, {2: 6, 3: 4, 4: 3}[d]))
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=d) + 1j * rng.normal(size=d)
    a = rng.uniform(0.1, 1.5) * cmath.exp(2j * cmath.pi * rng.random())
    s = hl.enumerate_fix(hl.HenonMap(coeffs=tuple(coeffs), a=a), n)
    assert s.complete
    assert s.counts["per"] == {k: k * _necklaces(d, k) for k in range(1, n + 1) if n % k == 0}
    assert s.counts["fix"] == d**n
    for i, o in enumerate(s.orbits):
        assert o.certified and o.residual < 1e-10
        for q in s.orbits[i + 1:]:
            if q.n == o.n:
                assert hl.rotation_distance(o.xs, q.xs) > o.certificate_radius + q.certificate_radius


# ---------------------------------------------------------------------------
# the row-batched per-orbit layers against the per-orbit loops they replaced
# ---------------------------------------------------------------------------

def _loop_monodromy(m, xs, start=0):
    n = xs.shape[0]
    M = np.eye(2, dtype=complex)
    log_scale = 0.0
    for i in range(n):
        k = (start + i) % n
        A = np.array([[m.dp(xs[k]), -m.a], [1.0, 0.0]], dtype=complex)
        M = A @ M
        s = float(np.abs(M).max())
        if s > 0.0 and (s > 1e8 or s < 1e-8):
            M /= s
            log_scale += math.log(s)
    return M, log_scale


def _loop_scaled_eigenpair(M, log_scale):
    T = M[0, 0] + M[1, 1]
    D = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    disc = np.lib.scimath.sqrt(T * T - 4.0 * D)
    l1 = (T + disc) / 2.0 if abs(T + disc) >= abs(T - disc) else (T - disc) / 2.0
    l2 = D / l1 if l1 != 0 else 0.0 + 0j
    if abs(l2) > abs(l1):
        l1, l2 = l2, l1
    log_lu = math.log(abs(l1)) + log_scale if l1 != 0 else -math.inf
    log_ls = math.log(abs(l2)) + log_scale if l2 != 0 else -math.inf
    return complex(l1), complex(l2), log_lu, log_ls


def _loop_multipliers(m, xs, eps):
    """(lambda_u, lambda_s, chi, kind) as the per-orbit classify computed them."""
    n = xs.shape[0]
    M, log_scale = _loop_monodromy(m, xs)
    l1, l2, log_lu, log_ls = _loop_scaled_eigenpair(M, log_scale)
    scale = math.exp(log_scale) if abs(log_scale) < 690 else math.inf
    lambda_u = l1 * scale if math.isfinite(scale) else complex(math.inf, 0)
    lambda_s = l2 * scale if math.isfinite(scale) else 0.0
    if math.isfinite(log_lu) and l1 != 0:
        log_ls = n * math.log(abs(m.a)) - log_lu
        lambda_s = cmath.exp(complex(log_ls, n * cmath.phase(m.a) - cmath.phase(l1)))
    lo, hi = math.log1p(-eps), math.log1p(eps)
    if log_ls < lo and log_lu > hi:
        kind = "saddle"
    elif log_ls < lo and log_lu < lo:
        kind = "sink"
    elif log_ls > hi and log_lu > hi:
        kind = "source"
    else:
        kind = "marginal"
    return complex(lambda_u), complex(lambda_s), log_lu / n, kind


def _loop_psi_sum(m, xs):
    M, log_scale = _loop_monodromy(m, xs)
    lam = _loop_scaled_eigenpair(M, log_scale)[0]
    c1 = np.array([M[0, 1], lam - M[0, 0]], dtype=complex)
    c2 = np.array([lam - M[1, 1], M[1, 0]], dtype=complex)
    v = c1 if np.linalg.norm(c1) >= np.linalg.norm(c2) else c2
    v = v / np.linalg.norm(v)
    total = 0.0
    for k in range(xs.shape[0]):
        w = m.jacobian((xs[k], xs[k - 1])) @ v
        nrm = float(np.linalg.norm(w))
        total += math.log(nrm)
        v = w / nrm
    return total


def _loop_certify(m, xs):
    F = hl.cyclic_residual(m, xs)
    if not np.all(np.isfinite(F)):
        return False, 0.0
    try:
        Jinv = np.linalg.inv(hl.cyclic_jacobian(m, xs))
    except np.linalg.LinAlgError:
        return False, 0.0
    abs_inv = np.abs(Jinv)
    eta = float((abs_inv @ (np.abs(F) + hl.orbits._residual_rounding(m, xs))).max())
    beta = float(abs_inv.sum(axis=1).max())
    L = m.d2p_bound(float(np.abs(xs).max()) + hl.orbits._CERTIFY_BALL)
    if L <= 0.0 or not math.isfinite(beta):
        return False, 0.0
    h = beta * L * eta
    if h > 0.5:
        return False, 0.0
    rho = (1.0 - math.sqrt(1.0 - 2.0 * h)) / (beta * L)
    if rho > hl.orbits._CERTIFY_BALL:
        return False, 0.0
    return True, max(rho, np.finfo(float).eps * (1.0 + float(np.abs(xs).max())))


def _close(got, want, rtol, atol=0.0):
    return abs(got - want) <= rtol * abs(want) + atol


def _check_rows(m, X, start=0):
    """Each batched layer on X (B, n) against the loops, and each public one-row call bit for bit."""
    ok, rho, _ = _certify_rows(m, X)
    orbits = list(_classify_rows(m, X, ok, rho))
    M, log_scale = _monodromy_rows(m, X, start)
    psi = _psi_sum_rows(m, X)
    for i, xs in enumerate(X):
        ok_ref, rho_ref = _loop_certify(m, xs)
        assert ok[i] == ok_ref and _close(rho[i], rho_ref, 1e-12)
        lu, ls, chi, kind = _loop_multipliers(m, xs, hl.orbits.DEFAULT_EPS_HYP)
        o = orbits[i]
        assert o.kind == kind and o.certified == ok_ref
        assert _close(o.lambda_u, lu, 1e-13) and _close(o.lambda_s, ls, 1e-13)
        # chi of a marginal orbit is a log of 1 up to round-off
        assert _close(o.chi, chi, 1e-13, 1e-15)
        M_ref, log_scale_ref = _loop_monodromy(m, xs, start)
        scaled = M[i] * math.exp(log_scale[i] - log_scale_ref)
        assert np.abs(scaled - M_ref).max() <= 1e-13 * np.abs(M_ref).max()
        assert _close(psi[i], _loop_psi_sum(m, xs), 1e-13, 1e-13)

        # the public functions are one-row calls of the same code
        assert hl.certify(m, xs) == (ok[i], rho[i])
        one = hl.classify(m, xs)
        assert one.kind == o.kind and one.certified == o.certified
        fields = ("lambda_u", "lambda_s", "chi", "residual", "certificate_radius")
        assert (np.array([getattr(one, f) for f in fields]).tobytes()
                == np.array([getattr(o, f) for f in fields]).tobytes())
        M1, log_scale1 = hl.orbits.monodromy(m, xs, start)
        assert M1.tobytes() == M[i].tobytes() and log_scale1 == log_scale[i]
        assert np.float64(orbit_psi_sum(m, o)).tobytes() == psi[i].tobytes()
        if o.kind == "saddle":
            j = start % len(xs)
            V = _unstable_rows(m, X, j)[0]
            u = hl.unstable_direction(m, o, j)
            assert u.dir.tobytes() == hl.UnstableDirection(base=o.points[j], dir=V[i]).dir.tobytes()
    return orbits, log_scale


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.data())
def test_batched_orbit_layers_match_loops_on_random_maps(d, seed, data):
    # degree 2-4, Gaussian coefficients, complex a with 0.1 <= |a| <= 1.5
    n = data.draw(st.integers(1, {2: 6, 3: 4, 4: 3}[d]))
    start = data.draw(st.integers(0, n))
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=d) + 1j * rng.normal(size=d)
    a = rng.uniform(0.1, 1.5) * cmath.exp(2j * cmath.pi * rng.random())
    m = hl.HenonMap(coeffs=tuple(coeffs), a=a)
    for X in (b.xs for b in hl.enumerate_fix(m, n).blocks):
        _check_rows(m, X, start)


def test_batched_orbit_layers_match_loops_across_rescales(horseshoe_spectra):
    # Fix_10 stays below the 1e8 rescale (|lambda_u| <= 5.2e7); Fix_12 reaches
    # 2.1e9, so its length-12 batch mixes rescaled and unrescaled rows
    m = horseshoe_spectra[10].map
    for s in (horseshoe_spectra[10], hl.enumerate_fix(m, 12)):
        for X in (b.xs for b in s.blocks):
            _, log_scale = _check_rows(m, X, start=3)
    assert (log_scale > 0).any() and (log_scale == 0).any()


#: the sink family's saddle-node cell: p = x^2 + (1 + a)^2 / 4 has the
#: double fixed point 0.75 with multipliers 1 and a, where J is exactly singular
SADDLE_NODE = hl.quadratic_map(0.5625, 0.5)


def test_batched_orbit_layers_match_loops_on_sink_family(sink_family):
    kinds = set()
    for c in (sink_family.center, sink_family.center + 0.25 + 0.25j, sink_family.center - 0.25j):
        m = sink_family.map_at(c)
        for X in (b.xs for b in hl.enumerate_fix(m, 6).blocks):
            kinds.update(o.kind for o in _check_rows(m, X, start=1)[0])
    for X in (np.array([[0.75 + 0j]]), np.array([[0.75 + 0j, 0.75 + 0j]])):
        kinds.update(o.kind for o in _check_rows(SADDLE_NODE, X)[0])
    assert {"sink", "saddle", "marginal"} <= kinds


def test_certify_batch_rejects_only_its_singular_row(horseshoe_spectra):
    horseshoe = horseshoe_spectra[1].map
    fixed = [o.xs for o in horseshoe_spectra[1].orbits]
    period2 = [o.xs for o in hl.enumerate_fix(SADDLE_NODE, 2).orbits if o.n == 2]
    length10 = [o.xs for o in horseshoe_spectra[10].orbits if o.n == 10]
    # more rows than one stacked inverse takes, so the last batch is certified in blocks
    assert len(length10) > 2 * hl.orbits._STACK_ENTRIES // 10**2
    batches = [
        # rows of two maps: the horseshoe's fixed points around the double one
        ([horseshoe, SADDLE_NODE, horseshoe], [fixed[0], [0.75], fixed[1]], 1),
        # one map: its period-2 orbit, then its double fixed point traversed twice
        ([SADDLE_NODE] * 2, [period2[0], [0.75, 0.75]], 1),
        # the double fixed point traversed ten times, in the second block
        ([horseshoe] * 50 + [SADDLE_NODE] + [horseshoe] * (len(length10) - 50),
         length10[:50] + [[0.75] * 10] + length10[50:], 50),
    ]
    for maps, X, singular in batches:
        X = np.array(X, dtype=complex)
        rows = _MapRows.stack(maps, np.arange(len(maps)))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(hl.cyclic_jacobian(rows, X))
        ok, rho, _ = _certify_rows(rows, X)
        assert ok.tolist() == [i != singular for i in range(len(X))]
        for i, (m, xs) in enumerate(zip(maps, X)):
            ok_ref, rho_ref = _loop_certify(m, xs)
            assert ok[i] == ok_ref and _close(rho[i], rho_ref, 1e-12)


def test_classify_batch_across_maps_matches_per_map_calls(sink_family, horseshoe_spectra):
    cells = [sink_family.map_at(sink_family.center + dc) for dc in (0.0, 0.25 + 0.25j, -0.25j)]
    maps = cells + [horseshoe_spectra[6].map, SADDLE_NODE]
    by_map = [hl.enumerate_fix(m, 6).orbits for m in cells] + [horseshoe_spectra[6].orbits, []]
    rng = np.random.default_rng(1729)
    kinds = set()
    for k in (1, 2, 3, 6):
        # the double fixed point traversed k times, twice, so SADDLE_NODE owns rows too
        rows = [(i, o.xs) for i, orbits in enumerate(by_map) for o in orbits if o.n == k]
        rows += [(len(maps) - 1, np.full(k, 0.75 + 0j))] * 2
        perm = rng.permutation(len(rows))
        owner = np.array([i for i, _ in rows])[perm]
        X = np.array([xs for _, xs in rows], dtype=complex)[perm]
        assert np.count_nonzero(np.diff(owner)) >= len(maps)  # some map's rows are split
        ok, rho, _ = _certify_rows(_MapRows.stack(maps, owner), X)
        batch = list(_classify_rows(_MapRows.stack(maps, owner), X, ok, rho))
        for i, m in enumerate(maps):
            mine = np.flatnonzero(owner == i)
            for got, want in zip([batch[j] for j in mine],
                                 _classify_rows(m, X[mine], ok[mine], rho[mine])):
                kinds.add(got.kind)
                assert (got.n, got.kind, got.certified) == (want.n, want.kind, want.certified)
                for f in ("xs", "lambda_s", "lambda_u", "chi", "residual", "certificate_radius"):
                    assert (np.asarray(getattr(got, f)).tobytes()
                            == np.asarray(getattr(want, f)).tobytes())
    assert {"sink", "saddle", "marginal"} <= kinds
