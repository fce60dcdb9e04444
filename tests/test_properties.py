"""Property-based checks of the small algebraic invariants."""

import cmath

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import henonlab as hl
from henonlab import verify

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


def _key(xs):
    return tuple((z.real, z.imag) for z in xs)


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
    assert hl.orbits._period_and_gaps(v, 1e-8)[1] == _loop_gaps(v)
    rows = hl.orbits._rotations(v)
    stable = sorted(range(v.shape[0]), key=lambda r: _key(rows[r]))
    assert hl.orbits._lex_order(rows).tolist() == stable


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


@settings(max_examples=30, deadline=None)
@given(cvec, st.integers(1, 4))
def test_vector_period_of_tiled_vector_divides_base(v, reps):
    tiled = np.tile(v, reps)
    p = hl.vector_period(tiled, 1e-9)
    assert len(tiled) % p == 0
    assert p <= len(v)


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
    """Row-by-row LAPACK steps and the rows whose Jacobian it finds singular."""
    J = hl.cyclic_jacobian(m, X)
    S, bad = np.zeros_like(F), np.zeros(len(X), dtype=bool)
    for i in range(len(X)):
        try:
            S[i] = np.linalg.solve(J[i], F[i])
        except np.linalg.LinAlgError:
            bad[i] = True
    return S, bad


@settings(max_examples=60, deadline=None)
@given(henon_maps, st.integers(1, 16), st.integers(1, 64), st.floats(0.1, 3.0),
       st.integers(0, 2**32 - 1))
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
        S, bad = hl.orbits._solve_batch(mm, XX, F)
        S_ref, bad_ref = _dense_steps(mm, XX, F)
        assert np.array_equal(bad, bad_ref)
        ok = ~bad_ref
        Jinv = np.linalg.inv(hl.cyclic_jacobian(mm, XX[ok]))
        scale = np.abs(Jinv).sum(axis=2).max(axis=1) * np.abs(F[ok]).max(axis=1)
        assert np.all(np.abs(S[ok] - S_ref[ok]).max(axis=1) <= 1e-10 * scale)


@settings(max_examples=40, deadline=None)
@given(henon_maps, st.integers(1, 16), st.floats(0.1, 3.0), st.integers(0, 2**32 - 1))
# J close to a cyclic shift: the Sherman-Morrison correction cancels ~1e6 times the step
@example(hl.HenonMap(coeffs=(0j, 0j), a=0.0625), 12, 0.125, 0)
def test_cyclic_tridiagonal_solve_in_extended_precision(m, n, radius, seed):
    # the same O(n) solve on object arrays of mpmath numbers, as used by
    # verify.refine_orbit_hp, against a dense mp.lu_solve
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
                    verify._newton_step_hp(mm, z)
                continue
            S = verify._newton_step_hp(mm, z)
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
