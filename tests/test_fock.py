"""Fock-core tests; expected values come from independent truncated sums."""

import math

import numpy as np
import pytest
import scipy.linalg

from qvampire import fock
from qvampire.errors import (
    DimensionMismatch,
    InvalidState,
    NonUnitaryParams,
    OutOfTruncation,
    TailMassExceeded,
    UndefinedG2,
    VacuumSubtraction,
)


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
    with pytest.raises(TailMassExceeded):
        fock.make_thermal(100.0, 20)


def test_coherent_alpha_zero_is_vacuum():
    rho = fock.make_coherent(0.0, 10)
    assert rho.populations()[0] == 1.0


def test_coherent_mean_and_g2_match_truncated_sums():
    rho = fock.make_coherent(1.0, 30)
    p = poisson_weights(1.0, 30)
    st = fock.stats(rho)
    assert abs(st.mean_n - weights_mean(p)) < 1e-12
    assert abs(st.mean_n - 1.0) < 1e-9
    assert abs(st.g2 - weights_g2(p)) < 1e-12
    assert abs(st.g2 - 1.0) < 1e-9


def test_coherent_tail_rejected():
    with pytest.raises(TailMassExceeded):
        fock.make_coherent(5.0, 10)


def test_fock_construction():
    assert fock.make_fock(0, 10).populations()[0] == 1.0
    assert fock.make_fock(5, 10).mean_photons() == 5.0
    with pytest.raises(OutOfTruncation):
        fock.make_fock(11, 10)


def test_density_matrix_invariants_enforced():
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = 1.0  # not Hermitian
    bad[0, 0] = 1.0
    with pytest.raises(InvalidState):
        fock.DensityMatrix(bad)
    with pytest.raises(InvalidState):
        fock.DensityMatrix(np.eye(3) * 0.5)  # trace 1.5
    with pytest.raises(InvalidState, match="finite"):
        fock.DensityMatrix(np.full((2, 2), np.nan))  # passes every comparison


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
    with pytest.raises(VacuumSubtraction):
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
    with pytest.raises(VacuumSubtraction):
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
    assert abs(fock.stats(rho).g2 - expected) < 1e-8


def test_g2_thermal_matches_weight_oracle():
    got = fock.stats(fock.make_thermal(1.0, 40)).g2
    assert abs(got - weights_g2(bose_einstein_weights(1.0, 40))) < 1e-12


def test_g2_undefined_on_vacuum():
    with pytest.raises(UndefinedG2):
        fock.stats(fock.make_fock(0, 10))


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
    st = fock.stats(rho)
    out, weight = fock.subtract_photon(rho)
    assert abs(out.mean_photons() - st.g2 * st.mean_n) < 1e-8
    assert abs(weight - st.mean_n) < 1e-12


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
    assert np.abs(back_u @ u - np.eye(u.shape[0])).max() < 1e-10
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
    # blocks with N >= d are cut by the truncation: compare the whole matrix
    # with the exponential of the dense truncated generator
    assert np.abs(u - scipy.linalg.expm(theta * _kron_generator(d))).max() < 1e-12


def test_beamsplitter_generator_conserves_total_photon_number():
    """The basis of the block form: [ai+ aj - ai aj+, n_i + n_j] = 0."""
    d = 12
    gen = _kron_generator(d)
    total = np.diag(np.add.outer(np.arange(d), np.arange(d)).ravel().astype(float))
    assert np.abs(gen @ total - total @ gen).max() < 1e-12


def test_beamsplitter_rejects_nonunitary_params():
    with pytest.raises(NonUnitaryParams):
        fock.beamsplitter_unitary(6, 6, t=0.9, r=0.5)


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_self_and_orthogonal():
    rho = fock.make_thermal(1.0, 30)
    assert abs(fock.fidelity(rho, rho) - 1.0) < 1e-10
    v0, v1 = fock.make_fock(0, 5), fock.make_fock(1, 5)
    assert fock.fidelity(v0, v1) < 1e-12


def test_fidelity_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
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


def test_fidelity_symmetry():
    rho1 = fock.make_thermal(0.5, 30)
    rho2 = fock.make_coherent(1.0, 30)
    assert abs(fock.fidelity(rho1, rho2) - fock.fidelity(rho2, rho1)) < 1e-10
