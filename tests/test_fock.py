"""Fock-core tests; expected values come from independent truncated sums."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from qvampire import fock
from qvampire.errors import QVampireError


def bose_einstein_weights(nbar, nmax):
    """Oracle: truncated, renormalized thermal number distribution."""
    p = np.array([nbar**n / (1 + nbar) ** (n + 1) for n in range(nmax + 1)])
    return p / p.sum()


def poisson_weights(alpha, nmax):
    """Oracle: truncated, renormalized coherent number distribution."""
    p = np.array(
        [
            math.exp(-abs(alpha) ** 2) * abs(alpha) ** (2 * n) / math.factorial(n)
            for n in range(nmax + 1)
        ]
    )
    return p / p.sum()


def weights_mean(p):
    return float(np.dot(np.arange(p.size), p))


def weights_g2(p):
    n = np.arange(p.size)
    return float(np.dot(n * (n - 1), p)) / weights_mean(p) ** 2


# ---------------------------------------------------------------------------
# constructors


def test_thermal_zero_temperature_is_vacuum():
    rho = fock.make_thermal(0.0, 10)
    assert rho.populations()[0] == 1.0
    assert rho.tail_mass == 0.0


def test_thermal_mean_matches_truncated_sum():
    rho = fock.make_thermal(1.0, 40)
    expected = weights_mean(bose_einstein_weights(1.0, 40))
    assert abs(rho.mean_photons() - expected) < 1e-14
    assert abs(rho.mean_photons() - 1.0) < 1e-9


def test_thermal_tail_rejected():
    with pytest.raises(QVampireError, match="thermal nbar=100.0 at nmax=20: tail"):
        fock.make_thermal(100.0, 20)


def test_coherent_alpha_zero_is_vacuum():
    rho = fock.make_coherent(0.0, 10)
    assert rho.populations()[0] == 1.0


def test_coherent_mean_and_g2_match_truncated_sums():
    rho = fock.make_coherent(1.0, 30)
    p = poisson_weights(1.0, 30)
    mean_n, g2 = rho.mean_photons(), weights_g2(rho.populations())
    assert abs(mean_n - weights_mean(p)) < 1e-12
    assert abs(mean_n - 1.0) < 1e-9
    assert abs(g2 - weights_g2(p)) < 1e-12
    assert abs(g2 - 1.0) < 1e-9


def test_coherent_tail_rejected():
    with pytest.raises(QVampireError, match=r"coherent \|alpha\|=5.0 at nmax=10: tail"):
        fock.make_coherent(5.0, 10)


def test_fock_construction():
    assert fock.make_fock(0, 10).populations()[0] == 1.0
    assert fock.make_fock(5, 10).mean_photons() == 5.0
    with pytest.raises(QVampireError, match="Fock level 11 above truncation 10"):
        fock.make_fock(11, 10)


def test_density_matrix_invariants_enforced():
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = 1.0  # not Hermitian
    bad[0, 0] = 1.0
    with pytest.raises(QVampireError, match="not Hermitian"):
        fock.DensityMatrix(bad)
    with pytest.raises(QVampireError, match="trace 1.5 differs from 1"):
        fock.DensityMatrix(np.eye(3) * 0.5)  # trace 1.5
    with pytest.raises(QVampireError, match="elements must be finite"):
        fock.DensityMatrix(np.full((2, 2), np.nan))  # passes every comparison


@pytest.mark.parametrize("eigenvalue, refused", [(-5e-11, False), (-5e-10, True)])
def test_a_negative_eigenvalue_is_refused_past_1e_10(eigenvalue, refused):
    # rounding may leave an eigenvalue of a state just below 0; past the
    # tolerance the matrix is no state
    elements = np.diag([1.0 - eigenvalue, eigenvalue])
    if refused:
        with pytest.raises(QVampireError, match="negative eigenvalue below -1e-10"):
            fock.DensityMatrix(elements)
    else:
        assert fock.DensityMatrix(elements).elements[1, 1] == eigenvalue


# ---------------------------------------------------------------------------
# annihilation and subtraction


def lowering_operator(d):
    """Oracle: dense truncated a with a[n-1, n] = sqrt(n), over |0> .. |d-1>."""
    return np.diag(np.sqrt(np.arange(1.0, d)), k=1).astype(complex)


@pytest.mark.parametrize(
    "rho",
    [
        fock.make_coherent(0.6 - 0.8j, 30),
        fock.DensityMatrix(
            0.5 * fock.make_thermal(0.5, 30).elements
            + 0.5 * fock.make_coherent(0.9 + 0.4j, 30).elements
        ),
    ],
    ids=["coherent", "thermal_coherent_mixture"],
)
def test_subtract_photon_matches_dense_lowering_operator(rho):
    a = lowering_operator(rho.dim)
    expected = a @ rho.elements @ a.conj().T
    out, weight = fock.subtract_photon(rho)
    assert abs(weight - np.trace(expected).real) < 1e-15
    assert np.abs(out.elements - expected / weight).max() < 1e-15
    assert np.abs(out.elements[np.triu_indices(rho.dim, 1)]).max() > 0.01  # off-diagonal


def test_subtract_thermal_doubles_mean():
    rho = fock.make_thermal(1.0, 40)
    out, weight = fock.subtract_photon(rho)
    assert abs(out.mean_photons() - 2.0) < 1e-6
    assert abs(weight - rho.mean_photons()) < 1e-12
    # truncation loses one level: the top population is structurally zero
    assert out.populations()[-1] == 0.0


def test_subtract_coherent_is_fixed_point():
    rho = fock.make_coherent(1.0, 30)
    out, _ = fock.subtract_photon(rho)
    assert fock.fidelity(out, rho) >= 1 - 1e-10


def test_subtract_fock_steps_down():
    out, weight = fock.subtract_photon(fock.make_fock(5, 10))
    assert weight == 5.0
    assert abs(out.populations()[4] - 1.0) < 1e-14


def test_subtract_vacuum_raises():
    with pytest.raises(QVampireError, match="cannot subtract a photon"):
        fock.subtract_photon(fock.make_fock(0, 10))


def test_subtract_k_matches_diagonal_recursion_oracle():
    nbar, k, nmax = 0.5, 3, 60
    p = bose_einstein_weights(nbar, nmax)
    for _ in range(k):  # oracle: P'(n) proportional to (n+1) P(n+1)
        p = np.arange(1, p.size) * p[1:]
        p = np.append(p, 0.0)
        p /= p.sum()
    expected = weights_mean(p)
    out = fock.make_thermal(nbar, nmax)
    for _ in range(k):
        out, _ = fock.subtract_photon(out)
    got = out.mean_photons()
    assert abs(got - expected) < 1e-12
    assert abs(got - 2.0) < 1e-5


def test_subtract_k_trivial_cases():
    once, _ = fock.subtract_photon(fock.make_fock(2, 10))
    twice, _ = fock.subtract_photon(once)
    assert twice.populations()[0] == 1.0
    with pytest.raises(QVampireError, match="cannot subtract a photon"):
        fock.subtract_photon(twice)


# ---------------------------------------------------------------------------
# statistics


@pytest.mark.parametrize(
    "rho,expected",
    [
        (fock.make_thermal(1.0, 40), 2.0),
        (fock.make_coherent(1.0, 30), 1.0),
        (fock.make_fock(5, 10), 0.8),
    ],
)
def test_g2_values(rho, expected):
    assert abs(weights_g2(rho.populations()) - expected) < 1e-8


def test_g2_thermal_matches_weight_oracle():
    # make_thermal's weights are the truncated Bose-Einstein ones, so their g2 is too
    got = fock.make_thermal(1.0, 40).populations()
    oracle = bose_einstein_weights(1.0, 40)
    assert np.abs(got - oracle).max() < 1e-14
    assert abs(weights_g2(got) - weights_g2(oracle)) < 1e-12


@pytest.mark.parametrize(
    "rho",
    [
        fock.make_thermal(0.5, 50),
        fock.make_thermal(1.0, 50),
        fock.make_coherent(1.2, 50),
        fock.make_fock(4, 50),
        fock.DensityMatrix(
            0.5 * fock.make_thermal(1.0, 50).elements + 0.5 * fock.make_coherent(1.0, 50).elements
        ),
    ],
)
def test_subtraction_brightness_identity(rho):
    """Mean after subtraction equals g2 times mean before, exactly."""
    p = rho.populations()
    mean_n, g2 = weights_mean(p), weights_g2(p)
    out, weight = fock.subtract_photon(rho)
    assert abs(out.mean_photons() - g2 * mean_n) < 1e-8
    assert abs(weight - mean_n) < 1e-12


# ---------------------------------------------------------------------------
# beam-splitter unitary acting on two-mode states


def _mix(rho_s, rho_r, t, r):
    """Joint (S, R) density matrix after the t/r splitter, S the slow index."""
    u = fock.beamsplitter_unitary(rho_s.dim, rho_r.dim, t, r)
    return u @ np.kron(rho_s.elements, rho_r.elements) @ u.conj().T


def _mode_mean(joint, d, mode):
    """Mean photon number of mode 0 (S) or 1 (R) of a d x d joint state."""
    pops = np.diag(joint).real.reshape(d, d).sum(axis=1 - mode)
    return float(np.dot(np.arange(d), pops))


def _thermal_vacuum_pair(nbar=1.0, nmax=30):
    # keep nbar small enough for the truncation tail at the given nmax
    return fock.make_thermal(nbar, nmax), fock.make_fock(0, nmax)


def test_beamsplitter_identity_at_zero_reflectivity():
    s, r = _thermal_vacuum_pair(nbar=0.2, nmax=12)
    out = _mix(s, r, t=1.0, r=0.0)
    assert np.allclose(out, np.kron(s.elements, r.elements), atol=1e-12)


def test_beamsplitter_single_photon_split():
    out = _mix(fock.make_fock(1, 3), fock.make_fock(0, 3), t=0.8, r=0.6)
    t = out.reshape(4, 4, 4, 4)
    assert abs(t[1, 0, 1, 0].real - 0.64) < 1e-12
    assert abs(t[0, 1, 0, 1].real - 0.36) < 1e-12


def test_beamsplitter_reflected_mean_linear_input_output():
    s, r = _thermal_vacuum_pair()
    out = _mix(s, r, t=math.sqrt(1 - 0.01), r=0.1)
    assert abs(_mode_mean(out, s.dim, 1) - 0.01 * s.mean_photons()) < 1e-10


def test_beamsplitter_unitarity_and_inverse():
    s, r = _thermal_vacuum_pair(nbar=0.5, nmax=20)
    t, refl = math.sqrt(1 - 0.09), 0.3
    u = fock.beamsplitter_unitary(s.dim, r.dim, t, refl)
    joint = np.kron(s.elements, r.elements)
    out = u @ joint @ u.conj().T
    assert abs(out.trace().real - 1.0) < 1e-10
    # purity Tr(rho^2) of a Hermitian matrix is its squared Frobenius norm
    assert abs(np.linalg.norm(out) ** 2 - np.linalg.norm(joint) ** 2) < 1e-10
    back_u = fock.beamsplitter_unitary(s.dim, r.dim, t, -refl)
    # the truncation keeps the blocks n_i + n_j < d and zeroes the rest
    kept = np.add.outer(np.arange(s.dim), np.arange(r.dim)).ravel() < s.dim
    assert np.abs(back_u @ u - np.diag(kept.astype(float))).max() < 1e-10
    back = back_u @ out @ back_u.conj().T
    assert np.abs(back - joint).max() < 1e-10


def test_beamsplitter_preserves_total_photon_distribution():
    s, r = _thermal_vacuum_pair(nbar=0.3, nmax=15)
    out = _mix(s, r, t=0.6, r=0.8)
    d = s.dim
    total = np.add.outer(np.arange(d), np.arange(d)).ravel()
    before = np.diag(np.kron(s.elements, r.elements)).real
    after = np.diag(out).real
    for n in range(6):
        assert abs(before[total == n].sum() - after[total == n].sum()) < 1e-12


def _closed_form_block(total, t, r):
    """<p, N-p| U |n, N-n> from U a_i+ U+ = t a_i+ - r a_j+, U a_j+ U+ = r a_i+ + t a_j+.

    Expanding the two binomials gives the SU(2) (Wigner-d) matrix elements
    of Campos, Saleh & Teich, PRA 40, 1371 (1989).
    """
    out = np.zeros((total + 1, total + 1))
    for p in range(total + 1):
        for n in range(total + 1):
            m = total - n
            amp = sum(
                math.comb(n, k) * math.comb(m, p - k)
                * t**k * (-r) ** (n - k) * r ** (p - k) * t ** (m - p + k)
                for k in range(max(0, p - m), min(n, p) + 1)
            )
            scale = math.factorial(p) * math.factorial(total - p)
            out[p, n] = amp * math.sqrt(scale / (math.factorial(n) * math.factorial(m)))
    return out


def _kron_generator(d):
    """Dense truncated ai+ aj - ai aj+ over |n_i, n_j>, n_i the slow index."""
    a = lowering_operator(d)
    return np.kron(a.conj().T, a) - np.kron(a, a.conj().T)


@pytest.mark.parametrize("theta", [0.3, 1.1, 2.5])
def test_beamsplitter_blocks_match_su2_closed_form(theta):
    d = 12
    t, r = math.cos(theta), math.sin(theta)
    u = fock.beamsplitter_unitary(d, d, t, r)
    # blocks with N < d hold every |n, N-n>: they are the SU(2) rotation itself
    for total in range(d):
        idx = [n * d + total - n for n in range(total + 1)]
        got = u[np.ix_(idx, idx)]
        assert np.abs(got - _closed_form_block(total, t, r)).max() < 1e-12
    # the truncation leaves those blocks whole, so there the matrix is the
    # exponential of the dense truncated generator; the blocks N >= d are cut
    # and every entry of their rows and columns is zero
    kept = np.add.outer(np.arange(d), np.arange(d)).ravel() < d
    want = scipy.linalg.expm(theta * _kron_generator(d))
    assert np.abs(u - want)[np.ix_(kept, kept)].max() < 1e-12
    assert not u[~kept].any() and not u[:, ~kept].any()


def _exact_blocks(size, t, r):
    """Blocks N < size of the splitter at rational (t, r), exact until one final rounding.

    U |n, m> = (t ai+ - r aj+)^n (r ai+ + t aj+)^m |0, 0> / sqrt(n! m!), the
    closed form of ``_closed_form_block``.  Over the common denominator c of
    t = a / c and r = b / c the coefficients of the two binomials are
    integers; each element is then sign(s) sqrt(s^2 p! (N-p)! / (c^2N n! m!))
    with s an integer, and Python's int division rounds that ratio correctly.
    """
    c = math.lcm(t.denominator, r.denominator)
    a, b = int(t * c), int(r * c)
    fact = [math.factorial(k) for k in range(size)]
    blocks = [np.zeros((total + 1, total + 1)) for total in range(size)]
    column = [1]  # coefficients of x^p y^(N-p) in (a x - b y)^n (b x + a y)^m
    for n in range(size):
        if n:
            column = [a * u - b * v for u, v in zip([0] + lowered, lowered + [0])]
        lowered = column
        for m in range(size - n):
            if m:
                column = [b * u + a * v for u, v in zip([0] + column, column + [0])]
            total = n + m
            den = c ** (2 * total) * fact[n] * fact[m]
            blocks[total][:, n] = [
                math.copysign(math.sqrt(s * s * fact[p] * fact[total - p] / den), s)
                for p, s in enumerate(column)
            ]
    return blocks


@pytest.mark.parametrize(
    "t, r",
    [(Fraction(3, 5), Fraction(4, 5)), (Fraction(4, 5), Fraction(-3, 5)),
     (Fraction(-4, 5), Fraction(3, 5)), (Fraction(20, 29), Fraction(21, 29))],
)
def test_beamsplitter_blocks_match_exact_rational_closed_form(t, r):
    # Pythagorean (t, r): the closed form is exact in rational arithmetic
    exact = _exact_blocks(61, t, r)
    for d in (29, 61):
        got = fock.beamsplitter_blocks(d, float(t), float(r))  # the blocks N < d
        assert max(np.abs(g - e).max() for g, e in zip(got, exact)) <= 1e-13


def test_beamsplitter_generator_conserves_total_photon_number():
    """The basis of the block form: [ai+ aj - ai aj+, n_i + n_j] = 0."""
    d = 12
    gen = _kron_generator(d)
    total = np.diag(np.add.outer(np.arange(d), np.arange(d)).ravel().astype(float))
    assert np.abs(gen @ total - total @ gen).max() < 1e-12


def test_beamsplitter_rejects_nonunitary_params():
    with pytest.raises(QVampireError, match=r"t\^2 \+ r\^2 = .* != 1"):
        fock.beamsplitter_unitary(6, 6, t=0.9, r=0.5)


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_self_and_orthogonal():
    rho = fock.make_thermal(1.0, 30)
    assert abs(fock.fidelity(rho, rho) - 1.0) < 1e-10
    v0, v1 = fock.make_fock(0, 5), fock.make_fock(1, 5)
    assert fock.fidelity(v0, v1) < 1e-12


def test_fidelity_dimension_mismatch():
    with pytest.raises(QVampireError, match="dims 6 vs 7"):
        fock.fidelity(fock.make_fock(0, 5), fock.make_fock(0, 6))


def test_fidelity_cross_checked_against_independent_algorithms():
    # nmax 46: the n-bar 2 tail (2/3)^47 = 5e-9 stays inside the 1e-8 tolerance
    rho1 = fock.make_thermal(1.0, 46)
    rho2 = fock.make_thermal(2.0, 46)
    got = fock.fidelity(rho1, rho2)
    # algorithm 2: matrix square roots via scipy
    s1 = scipy.linalg.sqrtm(rho1.elements)
    inner = scipy.linalg.sqrtm(s1 @ rho2.elements @ s1)
    alt = float(np.trace(inner).real) ** 2
    assert abs(got - alt) < 1e-8
    # algorithm 3: closed form for commuting diagonal states
    diag = float(np.sqrt(rho1.populations() * rho2.populations()).sum()) ** 2
    assert abs(got - diag) < 1e-8


def test_fidelity_takes_one_square_root_per_state(monkeypatch):
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: pytest.fail("a second decomposition"))
    # the eigh that validates a state is the one its square root is taken from
    rho1, rho2 = fock.make_thermal(0.5, 20), fock.make_coherent(1.0, 20)
    for a, b in ((rho1, rho2), (rho2, rho1), (rho1, rho1)):
        fock.fidelity(a, b)
    assert len(calls) == 2
    # the cached root is the per-call one, so fidelities are bitwise those of
    # square-rooting both arguments on every call
    w, v = eigh(rho2.elements)
    assert np.array_equal(rho2._sqrt, (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)
    assert not rho2._sqrt.flags.writeable


def test_fidelity_symmetry():
    rho1 = fock.make_thermal(0.5, 30)
    rho2 = fock.make_coherent(1.0, 30)
    assert abs(fock.fidelity(rho1, rho2) - fock.fidelity(rho2, rho1)) < 1e-10
