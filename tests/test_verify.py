"""Regional-subtraction pipeline tests against independent expansions."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from qvampire import cli, fock, verify
from qvampire.errors import HeraldImpossible, ResidualOrthogonalPopulation


def test_recombination_unitary_on_supported_blocks():
    d = 8
    w = verify.recombination_unitary(0.6, d)
    # columns (n, m) with n + m <= d - 1 must be orthonormal
    cols = [n * d + m for n in range(d) for m in range(d - n)]
    sub = w[:, cols]
    gram = sub.T @ sub
    assert np.abs(gram - np.eye(len(cols))).max() < 1e-12


def test_split_isometry_matches_binomial_expansion():
    d = 8
    c_a = 0.6
    c_b = math.sqrt(1 - c_a**2)
    v = verify.recombination_unitary(c_a, d)[:, np.arange(d) * d]
    for n in range(d):
        for k in range(n + 1):
            expected = math.sqrt(math.comb(n, k)) * c_a**k * c_b ** (n - k)
            assert abs(v[k * d + (n - k), n] - expected) < 1e-12
    assert np.abs(v.T @ v - np.eye(d)).max() < 1e-12


def _split(rho, c_a):
    """Joint (A, B) state of the split, as a (d, d, d, d) ket-ket-bra-bra tensor."""
    v = verify.recombination_unitary(c_a, rho.dim)[:, np.arange(rho.dim) * rho.dim]
    return (v @ rho.elements @ v.conj().T).reshape((rho.dim,) * 4)


def _split_mean(t, mode):
    """Mean photon number of mode 0 (A) or 1 (B) of a split tensor."""
    d = t.shape[0]
    pops = np.einsum("abab->ab", t).real.sum(axis=1 - mode)
    return float(np.dot(np.arange(d), pops))


def test_mode_split_fock2_weights():
    t = _split(fock.make_fock(2, 6), 0.6)
    weights = [t[2, 0, 2, 0].real, t[1, 1, 1, 1].real, t[0, 2, 0, 2].real]
    assert np.allclose(weights, [0.1296, 0.4608, 0.4096], atol=1e-12)
    assert abs(sum(weights) - 1.0) < 1e-12


def test_mode_split_everything_into_a():
    rho = fock.make_thermal(0.2, 12)
    t = _split(rho, 1.0)
    assert abs(_split_mean(t, 1)) < 1e-12
    assert abs(_split_mean(t, 0) - rho.mean_photons()) < 1e-12


def test_mode_split_single_photon_amplitudes():
    c_a = 0.3
    t = _split(fock.make_fock(1, 4), c_a)
    assert abs(t[1, 0, 1, 0].real - c_a**2) < 1e-12
    assert abs(t[0, 1, 0, 1].real - (1 - c_a**2)) < 1e-12
    # pure state: coherence between the two branches survives
    assert abs(t[1, 0, 0, 1] - c_a * math.sqrt(1 - c_a**2)) < 1e-12


def test_operator_model_equals_direct_subtraction():
    rho = fock.make_thermal(1.0, 28)
    direct, _ = fock.subtract_photon(rho)
    cfg = verify.SplitConfig(c_a=math.sqrt(0.3), r=0.1, herald_model=verify.OPERATOR)
    res = verify.regional_subtraction(rho, cfg)
    assert fock.fidelity(res.state, direct) >= 1 - 1e-9
    assert res.complement_population <= 1e-10


def test_operator_model_at_large_truncation():
    # two-mode dimension 61^2 = 3721: the pipeline runs per photon-number block
    rho = fock.make_thermal(2.0, 60)
    direct, _ = fock.subtract_photon(rho)
    res = verify.regional_subtraction(rho, verify.SplitConfig(c_a=0.5, r=0.1))
    assert fock.fidelity(res.state, direct) >= 1 - 1e-9
    assert res.complement_population <= 1e-10
    assert abs(res.herald_prob - 0.1**2 * 0.5**2 * 2.0) < 1e-10


def test_operator_model_herald_probability():
    rho = fock.make_thermal(1.0, 28)
    for c_a in (0.3, 0.7):
        for r in (0.05, 0.2):
            res = verify.regional_subtraction(rho, verify.SplitConfig(c_a=c_a, r=r))
            expected = r**2 * c_a**2 * rho.mean_photons()
            assert abs(res.herald_prob - expected) < 1e-10


def test_coherent_state_unchanged_by_regional_subtraction():
    rho = fock.make_coherent(1.0, 28)
    res = verify.regional_subtraction(
        rho, verify.SplitConfig(c_a=0.5, r=0.1, herald_model=verify.OPERATOR)
    )
    assert fock.fidelity(res.state, rho) >= 1 - 1e-9
    # the physical click model keeps the tap's attenuation: exact only as r -> 0
    click = verify.regional_subtraction(
        rho, verify.SplitConfig(c_a=0.5, r=0.1, herald_model=verify.CLICK_POVM)
    )
    assert fock.fidelity(click.state, rho) >= 1 - 1e-4


def test_single_photon_regional_subtraction_gives_vacuum():
    res = verify.regional_subtraction(
        fock.make_fock(1, 10), verify.SplitConfig(c_a=0.5, r=0.1)
    )
    assert abs(res.state.populations()[0] - 1.0) < 1e-10


def test_zero_reflectivity_cannot_herald():
    with pytest.raises(HeraldImpossible):
        verify.regional_subtraction(
            fock.make_thermal(0.5, 20), verify.SplitConfig(c_a=0.5, r=0.0)
        )
    with pytest.raises(HeraldImpossible):
        verify.regional_subtraction(
            fock.make_fock(0, 10), verify.SplitConfig(c_a=0.5, r=0.1)
        )


def _click_fidelities(rho, c_a, rs):
    """Fidelity of the click-heralded whole-beam state to ideal subtraction, per r."""
    ideal, _ = fock.subtract_photon(rho)
    return [
        fock.fidelity(
            verify.regional_subtraction(
                rho, verify.SplitConfig(c_a=c_a, r=r, herald_model=verify.CLICK_POVM)
            ).state,
            ideal,
        )
        for r in rs
    ]


def test_click_model_converges_to_operator_model():
    rho = fock.make_thermal(1.0, 26)
    fids = _click_fidelities(rho, math.sqrt(0.3), [0.02, 0.05, 0.1, 0.2])
    assert all(f2 < f1 for f1, f2 in zip(fids, fids[1:]))  # monotone in r
    assert fids[0] > 1 - 1e-7  # r -> 0: the tap implements pure lowering


def test_click_model_deviation_is_quadratic_in_r():
    rho = fock.make_thermal(1.0, 26)
    f1, f2 = _click_fidelities(rho, math.sqrt(0.3), [0.05, 0.1])
    # Bures distance to the ideal subtracted state, the fidelity-derived metric
    d1 = math.sqrt(2 * (1 - math.sqrt(f1)))
    d2 = math.sqrt(2 * (1 - math.sqrt(f2)))
    assert abs(d2 / d1 - 4.0) < 4.0 * 0.3


# Click model, thermal nbar = 1 at nmax 26, c_A = sqrt(0.3): (fidelity to
# ideal subtraction, herald_prob, complement_population) as computed by the
# dense d^2 x d^2 pipeline that preceded the block form.  The fidelities are
# those of its states by the closed form for commuting (diagonal) states;
# fock.fidelity read 3.1e-12 higher at r = 0.05 because that pipeline left
# 5e-17 off-diagonal roundoff in the state.
CLICK_PINS = {
    0.05: (0.9999996834609519, 0.0007494377722584196, 6.568233528181366e-07),
    0.2: (0.9999184208201969, 0.011857705461960358, 0.00017040777240584504),
}


@pytest.mark.parametrize("r", sorted(CLICK_PINS))
def test_click_model_regression_pin(r):
    rho = fock.make_thermal(1.0, 26)
    ideal, _ = fock.subtract_photon(rho)
    cfg = verify.SplitConfig(c_a=math.sqrt(0.3), r=r, herald_model=verify.CLICK_POVM)
    res = verify.regional_subtraction(rho, cfg)
    got = (fock.fidelity(res.state, ideal), res.herald_prob, res.complement_population)
    assert np.abs(np.subtract(got, CLICK_PINS[r])).max() < 1e-12


@pytest.mark.parametrize("r", [0.05, 0.1, 0.2])
def test_fidelity_to_pure_reference_is_its_expectation(r):
    # with a pure reference |psi>, F = <psi|rho|psi>; square roots of the
    # reference's roundoff eigenvalues must not leak into the result
    reference = fock.make_coherent(1.0, verify.DEFAULT_VERIFY_NMAX)
    psi = np.linalg.eigh(reference.elements)[1][:, -1]
    cfg = verify.SplitConfig(c_a=0.5, r=r, herald_model=verify.CLICK_POVM)
    rho = verify.regional_subtraction(reference, cfg).state
    expected = float((psi.conj() @ rho.elements @ psi).real)
    assert abs(fock.fidelity(rho, reference) - expected) < 1e-13


def test_click_model_complement_population_is_reported():
    rho = fock.make_thermal(1.0, 26)
    res = verify.regional_subtraction(
        rho, verify.SplitConfig(c_a=0.5, r=0.2, herald_model=verify.CLICK_POVM)
    )
    assert res.complement_population > 0.0
    assert res.complement_population < 1e-3


def test_split_config_validation():
    with pytest.raises(ValueError):
        verify.SplitConfig(c_a=1.5, r=0.1)
    with pytest.raises(ValueError):
        verify.SplitConfig(c_a=0.5, r=-0.1)
    with pytest.raises(ValueError):
        verify.SplitConfig(c_a=0.5, r=0.1, herald_model="photon_number")


def test_complement_tolerance_binds_only_the_operator_model(monkeypatch):
    # a negative tolerance is breached by any population, even exactly zero
    monkeypatch.setattr(verify, "COMPLEMENT_TOL", -1.0)
    rho = fock.make_thermal(0.3, 14)
    with pytest.raises(ResidualOrthogonalPopulation):
        verify.regional_subtraction(rho, verify.SplitConfig(c_a=0.5, r=0.1))
    click = verify.SplitConfig(c_a=0.5, r=0.1, herald_model=verify.CLICK_POVM)
    res = verify.regional_subtraction(rho, click)
    assert res.complement_population > -1.0


# ---------------------------------------------------------------------------
# the cached split kernel against the per-call algorithm it replaced


DEFAULT_STATES = cli.DEFAULT_STATES.split(",")
SPLITS = ((0.1, 0.05), (0.5, 0.1), (0.9, 0.2))  # (c_A, r) from the default grid


def _state(spec):
    return cli._parse_state(spec, verify.DEFAULT_VERIFY_NMAX)


def _clear_caches():
    for cached in (fock._hop_eigenbases, fock.beamsplitter_blocks,
                   verify._herald_images, verify._herald_kernel):
        cached.cache_clear()


def _oracle_blocks(dim_i, dim_j, t, r):
    """beamsplitter_blocks as one eigh per block per (t, r), nothing cached."""
    blocks = []
    for total in range(dim_i + dim_j - 1):
        n = np.arange(max(0, total - dim_j + 1), min(total, dim_i - 1), dtype=float)
        hop = np.sqrt((n + 1) * (total - n))
        evals, evecs = np.linalg.eigh(1j * (np.diag(hop, -1) - np.diag(hop, 1)))
        u = (evecs * np.exp(-1j * math.atan2(r, t) * evals)) @ evecs.conj().T
        blocks.append(u.real)
    return blocks


def _oracle_split(d, c_a, r, model):
    """The recombination blocks and herald images of one split, uncached."""
    rec = _oracle_blocks(d, d, c_a, -math.sqrt(max(1.0 - c_a * c_a, 0.0)))
    u = _oracle_blocks(d, d, math.sqrt(max(1.0 - r * r, 0.0)), r)
    herald = np.zeros((d, d))
    for k in range(1, d):
        tapped = u[k][:, k]
        if model == verify.OPERATOR:
            herald[k, :k] = u[k - 1].T @ (np.sqrt(k - np.arange(k)) * tapped[:k])
        else:
            herald[k, :k] = tapped[:k]
    return rec, herald


def _oracle_regional_subtraction(rho, rec, herald, model):
    """(state elements, herald_prob, complement_population), the amplitudes
    of every input Fock state rebuilt for this one state."""
    d = rho.dim
    lost = 1 if model == verify.OPERATOR else 0
    split = np.zeros((d, d))
    for n in range(d):
        split[n, : n + 1] = rec[n][:, n]
    amp = np.zeros((d, d, d))
    idx = np.arange(d)
    for total in range(d - lost):
        a = idx[: total + 1, None]
        rr = idx[None, : d - lost - total]
        n = total + lost + rr
        k = a + rr + lost
        x = split[n, k] * herald[k, a]
        amp[total - a, n - a, n] = rec[total].T @ x
    beam = np.zeros((d, d), dtype=complex)
    for j in range(lost, d):
        kj = amp[:, j, j:]
        beam[: d - j, : d - j] += (kj.T @ kj) * rho.elements[j:, j:]
    herald_weight = float(beam.trace().real)
    comp_vacuum = float((amp[0] ** 2).sum(axis=0) @ rho.populations())
    beam = (beam + beam.conj().T) / 2.0
    beam /= beam.trace().real
    return beam, herald_weight, 1.0 - comp_vacuum / herald_weight


@pytest.mark.parametrize("dims", [(29, 29), (7, 11)])
def test_beamsplitter_blocks_equal_the_per_angle_eigh(dims):
    # blocks N >= min(dims) are cut by the truncation and are covered too
    for theta in (0.05, 0.3, 1.1, 2.5, -0.4):
        t, r = math.cos(theta), math.sin(theta)
        got = fock.beamsplitter_blocks(*dims, t, r)
        want = _oracle_blocks(*dims, t, r)
        assert len(got) == len(want) == sum(dims) - 1
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("model", verify.HERALD_MODELS)
def test_regional_subtraction_equals_the_per_state_algorithm(model):
    d = verify.DEFAULT_VERIFY_NMAX + 1
    for c_a, r in SPLITS:
        rec, herald = _oracle_split(d, c_a, r, model)
        for spec in DEFAULT_STATES:
            rho = _state(spec)
            res = verify.regional_subtraction(rho, verify.SplitConfig(c_a, r, model))
            state, herald_prob, complement = _oracle_regional_subtraction(rho, rec, herald, model)
            assert np.array_equal(res.state.elements, state)
            assert res.herald_prob == herald_prob
            assert res.complement_population == complement


def test_sweep_order_does_not_change_results_and_cached_arrays_are_read_only():
    cases = [
        (spec, c_a, r, model)
        for spec in DEFAULT_STATES
        for c_a, r in SPLITS
        for model in verify.HERALD_MODELS
    ]
    states = {spec: _state(spec) for spec in DEFAULT_STATES}
    sweeps = []
    for order in (cases, sorted(cases, key=lambda case: case[1:])):  # state- then split-major
        _clear_caches()
        sweeps.append({
            (spec, c_a, r, model): verify.regional_subtraction(
                states[spec], verify.SplitConfig(c_a, r, model)
            )
            for spec, c_a, r, model in order
        })
    for case in cases:
        first, second = sweeps[0][case], sweeps[1][case]
        assert np.array_equal(first.state.elements, second.state.elements)
        assert first.herald_prob == second.herald_prob
        assert first.complement_population == second.complement_population

    d = verify.DEFAULT_VERIFY_NMAX + 1
    cached = [array for basis in fock._hop_eigenbases(d, d) for array in basis]
    for c_a, r in SPLITS:
        for model in verify.HERALD_MODELS:
            grams, comp_vacuum = verify._herald_kernel(d, c_a, r, model)
            cached += [*grams, comp_vacuum, verify._herald_images(d, r, model)]
        cached += fock.beamsplitter_blocks(d, d, *verify._split_params(c_a))
    assert fock._hop_eigenbases.cache_info().misses == 1
    assert verify._herald_kernel.cache_info().misses == len(SPLITS) * len(verify.HERALD_MODELS)
    assert all(not array.flags.writeable for array in cached)


def test_default_sweep_builds_each_split_once(tmp_path, monkeypatch, capsys):
    # the 54 operator cases at nmax 28 hold 9 distinct (c_A, r) splits: each
    # kernel build reads the herald images once, the blocks take their 57
    # eigendecompositions once, and fock.fidelity takes two per case
    _clear_caches()
    kernels, eighs = [], []
    images, eigh = verify._herald_images, np.linalg.eigh
    monkeypatch.setattr(verify, "_herald_images", lambda *key: kernels.append(key) or images(*key))
    monkeypatch.setattr(np.linalg, "eigh", lambda m: eighs.append(m.shape) or eigh(m))
    tracemalloc.start()
    try:
        assert cli.main(["verify", "--out", str(tmp_path)]) == 0
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        fock._hop_eigenbases.cache_clear()
        verify._herald_kernel.cache_clear()
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.splitlines()[-1].startswith("verify: 54 cases")
    assert len(kernels) == 9
    d = verify.DEFAULT_VERIFY_NMAX + 1
    assert len(eighs) == (2 * d - 1) + 2 * 54
    # the kernels and eigenbases the sweep leaves alive: about 0.8 MB, where
    # a dense d x d x d kernel per split would hold 2 MB
    assert 0 < held < 1.5e6
