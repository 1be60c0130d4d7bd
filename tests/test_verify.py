"""Regional-subtraction pipeline tests against independent expansions."""

import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qvampire import cli, fock, verify
from qvampire.errors import QVampireError


def test_recombination_unitary_on_supported_blocks():
    d = 8
    w = verify.recombination_unitary(0.6, d)
    # columns (n, m) with n + m <= d - 1 must be orthonormal
    cols = [n * d + m for n in range(d) for m in range(d - n)]
    sub = w[:, cols]
    gram = sub.T @ sub
    assert np.abs(gram - np.eye(len(cols))).max() < 1e-12


def test_recombination_unitary_builds_only_the_blocks_it_keeps(monkeypatch):
    # its columns n + m >= d are zero, so no truncated block N >= d is built,
    # and the blocks N < d come from the recursion: no eigenbasis at all
    _clear_caches()
    monkeypatch.setattr(np.linalg, "eigh", lambda m: pytest.fail("an eigensolver"))
    d = 8
    w = verify.recombination_unitary(0.6, d)
    assert not w[:, np.add.outer(np.arange(d), np.arange(d)).ravel() >= d].any()


def test_the_dense_two_mode_matrices_call_no_lapack(monkeypatch):
    # both scatter the recursion's blocks N < d, so no eigensolver builds a block
    _clear_caches()
    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, lambda *a, _name=name, **k: pytest.fail(_name))
    fock.beamsplitter_unitary(8, 8, 0.6, 0.8)
    verify.recombination_unitary(0.6, 8)


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
    # SplitConfig refuses r = 0, so the floor is met at a tiny positive r
    with pytest.raises(QVampireError, match="herald weight .* below"):
        verify.regional_subtraction(
            fock.make_thermal(0.5, 20), verify.SplitConfig(c_a=0.5, r=1e-20)
        )
    with pytest.raises(QVampireError, match="herald weight .* below"):
        verify.regional_subtraction(
            fock.make_fock(0, 10), verify.SplitConfig(c_a=0.5, r=0.1)
        )
    for model in verify.HERALD_MODELS:  # a one-level truncation holds no photon to herald
        with pytest.raises(QVampireError, match="herald weight .* below"):
            verify.regional_subtraction(
                fock.make_fock(0, 0), verify.SplitConfig(c_a=0.5, r=0.1, herald_model=model)
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


def test_every_default_case_has_a_non_negative_complement_population(tmp_path, capsys):
    # a population is a ratio of sums of squares: a zero one is never read off
    # as 1 minus a ratio, whose rounding residue can fall below zero
    assert cli.main(["verify", "--out", str(tmp_path), "--models", "operator,click_povm"]) == 0
    capsys.readouterr()
    rows = (tmp_path / "verify.csv").read_text().splitlines()[1:]
    populations = [float(row.rsplit(",", 1)[1]) for row in rows]
    assert len(populations) == 108 and min(populations) >= 0.0


def test_split_config_validation():
    with pytest.raises(QVampireError):
        verify.SplitConfig(c_a=1.5, r=0.1)
    with pytest.raises(QVampireError):
        verify.SplitConfig(c_a=0.5, r=-0.1)
    for c_a, r in ((0.0, 0.1), (0.5, 0.0)):  # no photon reaches the herald
        with pytest.raises(QVampireError, match=r"must lie in \(0, 1\]"):
            verify.SplitConfig(c_a=c_a, r=r)
    with pytest.raises(QVampireError):
        verify.SplitConfig(c_a=0.5, r=0.1, herald_model="photon_number")


def test_complement_tolerance_binds_only_the_operator_model(monkeypatch, tmp_path, capsys):
    # a negative tolerance is breached by any population, even exactly zero:
    # each operator case FAILs, each click case stays INFO, and verify prints
    # every case line before it exits 2
    monkeypatch.setattr(verify, "COMPLEMENT_TOL", -1.0)
    rho = fock.make_thermal(0.3, 14)
    # regional_subtraction returns the population and leaves the rule to the sweep
    assert verify.regional_subtraction(rho, verify.SplitConfig(0.5, 0.1)).complement_population > -1
    splits = [verify.SplitConfig(0.5, 0.1, model) for model in verify.HERALD_MODELS]
    operator, click = verify.sweep([("thermal:0.3", rho)], splits)
    assert operator.status == "FAIL" and operator.margin >= 0.0  # the fidelity holds
    assert (click.status, click.margin) == ("INFO", None)
    rc = cli.main(["verify", "--out", str(tmp_path / "v"), "--states", "thermal:0.3,fock:1",
                   "--ca", "0.5", "--r", "0.1,0.2", "--models", "operator,click_povm",
                   "--nmax", "14"])
    printed = capsys.readouterr()
    lines = printed.out.splitlines()
    assert rc == 2 and len(lines) == 8 + 1
    assert [line.split()[0] for line in lines[:-1]] == ["FAIL", "INFO"] * 4
    assert lines[-1].startswith("verify: 8 cases; operator model: min fidelity - floor = +")
    assert printed.err == ("verify: operator-model breach of the fidelity floor or the "
                           "complement tolerance\n")
    assert len((tmp_path / "v" / "verify.csv").read_text().splitlines()) == 1 + 8


@pytest.mark.parametrize("population, status", [(5e-11, "PASS"), (5e-10, "FAIL")])
def test_an_operator_case_fails_past_a_complement_population_of_1e_10(monkeypatch, population,
                                                                       status):
    # the sweep's rule at its tolerance: the case's fidelity holds, so its
    # complement population alone decides
    exact = verify.regional_subtraction
    monkeypatch.setattr(verify, "regional_subtraction", lambda rho, split: exact(rho, split)
                        ._replace(complement_population=population))
    (case,) = verify.sweep([("thermal:0.3", fock.make_thermal(0.3, 14))],
                           [verify.SplitConfig(0.5, 0.1)])
    assert case.margin >= 0.0 and case.status == status


# ---------------------------------------------------------------------------
# the cached split kernel against the per-call algorithm it replaced


DEFAULT_STATES = cli.DEFAULT_STATES.split(",")
SPLITS = ((0.1, 0.05), (0.5, 0.1), (0.9, 0.2))  # (c_A, r) from the default grid


def _state(spec):
    return verify.parse_state(spec, verify.DEFAULT_VERIFY_NMAX)


def _clear_caches():
    for cached in (fock.beamsplitter_blocks, verify._herald_images, verify._layout,
                   verify._herald_kernel):
        cached.cache_clear()


def _exchange_basis(order: int) -> np.ndarray:
    """Orthogonal Q whose first ceil(order/2) columns are even and the rest odd
    under the site reversal k <-> order - 1 - k."""
    half = order // 2
    q = np.zeros((order, order))
    k = np.arange(half)
    q[k, k] = q[order - 1 - k, k] = q[k, order - half + k] = math.sqrt(0.5)
    q[order - 1 - k, order - half + k] = -math.sqrt(0.5)
    if order % 2:
        q[half, half] = 1.0  # the middle site is its own mirror image
    return q


def _oracle_blocks(d, t, r):
    """The splitter's blocks N = 0 .. d - 1 from each block's split eigh at
    (t, r), nothing cached: the reference for the one-photon recursion.

    Over the block's sites k the gauge D = diag(i^k) turns the generator
    into a real tridiagonal matrix with the palindromic off-diagonal
    sqrt((n + 1)(N - n)), so the mode exchange n <-> N - n splits it into
    an even and an odd eigenproblem of half the order (Cantoni & Butler,
    Linear Algebra Appl. 13, 275, 1976).  Each block is the real part of
    D W e^{-i theta L} W^T D+.
    """
    blocks = []
    for total in range(d):
        n = np.arange(total, dtype=float)
        hop = np.sqrt((n + 1) * (total - n))
        order = len(hop) + 1
        q = _exchange_basis(order)
        split = q.T @ (np.diag(hop, -1) + np.diag(hop, 1)) @ q
        half = order - order // 2
        even_vals, even_vecs = np.linalg.eigh(split[:half, :half])
        odd_vals, odd_vecs = np.linalg.eigh(split[half:, half:])
        evals = np.concatenate((even_vals, odd_vals))
        w = np.hstack((q[:, :half] @ even_vecs, q[:, half:] @ odd_vecs))
        gauged = np.array([1, 1j, -1, -1j])[np.arange(order) % 4, None] * w
        rotated = gauged * np.exp(-1j * math.atan2(r, t) * evals)
        blocks.append(rotated.view(np.float64) @ gauged.view(np.float64).T)
    return blocks


def _oracle_split(d, c_a, r, model):
    """The recombination blocks and herald images of one split, the images
    rebuilt uncached.  The blocks are the production ones, which
    ``test_beamsplitter_blocks_equal_the_per_angle_eigh`` holds to the eigen
    reference, so the contraction is checked to the bit."""
    rec = fock.beamsplitter_blocks(d, c_a, -math.sqrt(max(1.0 - c_a * c_a, 0.0)))
    u = fock.beamsplitter_blocks(d, math.sqrt(max(1.0 - r * r, 0.0)), r)
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
    complement = float((amp[1:] ** 2).sum(axis=(0, 1)) @ rho.populations())
    beam = (beam + beam.conj().T) / 2.0
    beam /= beam.trace().real
    return beam, herald_weight, complement / herald_weight


def test_beamsplitter_blocks_equal_the_per_angle_eigh():
    # the one-photon recursion against the eigen reference, over blocks of
    # every order 1 .. d; each stays orthogonal, so no rounding builds up
    default_d = verify.DEFAULT_VERIFY_NMAX + 1
    for d, thetas in ((default_d, (0.05, 0.3, 1.1, 2.5, -0.4)), (121, (0.3, 1.1, 2.5))):
        for theta in thetas:
            t, r = math.cos(theta), math.sin(theta)
            got = fock.beamsplitter_blocks(d, t, r)  # the blocks N < d the truncation leaves whole
            want = _oracle_blocks(d, t, r)
            assert len(got) == d
            assert max(np.abs(g - w).max() for g, w in zip(got, want, strict=True)) <= 1e-13
            assert max(np.abs(g.T @ g - np.eye(len(g))).max() for g in got) <= 1e-13
            # each block is a real array of its own, not a view of a complex product
            assert all(
                g.dtype == np.float64 and g.flags.c_contiguous and g.flags.owndata for g in got
            )


def test_beamsplitter_unitary_rejects_unequal_dims():
    # production builds square splitters only
    with pytest.raises(QVampireError, match="needs equal dims, got 7 vs 11"):
        fock.beamsplitter_unitary(7, 11, 0.6, 0.8)


def _complex_states(nmax):
    """A coherent state with complex amplitude and a full-rank, non-diagonal mixture."""
    coherent = fock.make_coherent(0.7 + 0.4j, nmax)
    thermal = fock.make_thermal(1.0, nmax)
    mixture = fock.DensityMatrix(
        (thermal.elements + coherent.elements) / 2.0,
        tail_mass=(thermal.tail_mass + coherent.tail_mass) / 2.0,
    )
    return [coherent, mixture]


@pytest.mark.parametrize("model", verify.HERALD_MODELS)
def test_regional_subtraction_equals_the_per_state_algorithm(model):
    # the complex states exercise the imaginary half of the contraction;
    # nmax 40 builds the cached layouts at a second d
    nmax = verify.DEFAULT_VERIFY_NMAX
    cases = [(nmax, [*map(_state, DEFAULT_STATES), *_complex_states(nmax)]), (40, _complex_states(40))]
    for (nmax, states), (c_a, r) in itertools.product(cases, SPLITS):
        rec, herald = _oracle_split(nmax + 1, c_a, r, model)
        for rho in states:
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
    cached = []
    for c_a, r in SPLITS:
        for model in verify.HERALD_MODELS:
            cached += [*verify._herald_kernel(d, c_a, r, model), verify._herald_images(d, r, model)]
        cached += fock.beamsplitter_blocks(d, *verify._split_params(c_a))
    cached += [*verify._layout(d, 0), *verify._layout(d, 1)]  # the two models' lost
    assert fock.beamsplitter_blocks.cache_info().misses == 2 * len(SPLITS)  # c_A's and r's
    assert verify._herald_kernel.cache_info().misses == len(SPLITS) * len(verify.HERALD_MODELS)
    assert verify._layout.cache_info().misses == len(verify.HERALD_MODELS)
    assert all(not array.flags.writeable for array in cached)


def test_default_sweep_builds_each_split_once(tmp_path, monkeypatch, capsys):
    # the 54 operator cases at nmax 28 hold 9 distinct (c_A, r) splits: each
    # kernel build reads the herald images once, the splitter blocks come from
    # the one-photon recursion with no eigensolver, no block N >= d is built,
    # and each state takes one eigh, which validates it and gives
    # fock.fidelity its square root: the 6 input states, the 54 outputs and
    # the 6 directly subtracted states
    _clear_caches()
    kernels, eighs = [], []
    images, eigh = verify._herald_images, np.linalg.eigh
    monkeypatch.setattr(verify, "_herald_images", lambda *key: kernels.append(key) or images(*key))
    monkeypatch.setattr(np.linalg, "eigh", lambda m: eighs.append(m.shape) or eigh(m))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: pytest.fail("a second decomposition"))
    tracemalloc.start()
    try:
        assert cli.main(["verify", "--out", str(tmp_path)]) == 0
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        verify._herald_kernel.cache_clear()
        fock.beamsplitter_blocks.cache_clear()
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.splitlines()[-1].startswith("verify: 54 cases")
    assert len(kernels) == 9
    d = verify.DEFAULT_VERIFY_NMAX + 1
    assert eighs == [(d, d)] * (6 + 54 + 6)
    # the kernels and splitter blocks the sweep leaves alive: 0.56 + 0.44 MB,
    # where the truncated blocks N >= d would add 0.53 MB and a dense
    # d x d x d kernel per split 2 MB
    assert 0 < held < 1.15e6


# ---------------------------------------------------------------------------
# the sweep qvampire verify prints


def test_sweep_checks_each_case_against_direct_subtraction():
    states = [(spec, verify.parse_state(spec, 20)) for spec in ("thermal:0.5", "fock:2")]
    models = (verify.OPERATOR, verify.CLICK_POVM)
    splits = [verify.SplitConfig(0.5, 0.1, model) for model in models]
    cases = list(verify.sweep(states, splits))
    assert [(case.label, case.split) for case in cases] == list(itertools.product(
        ["thermal:0.5", "fock:2"], splits
    ))
    for case, (label, rho) in zip(cases, [states[0]] * 2 + [states[1]] * 2):
        direct, _ = fock.subtract_photon(rho)
        res = verify.regional_subtraction(rho, case.split)
        assert np.array_equal(case.result.state.elements, res.state.elements)
        assert case.fidelity == fock.fidelity(res.state, direct)
        if case.split.herald_model == verify.OPERATOR:
            assert case.status == "PASS"
            assert case.margin == case.fidelity - verify.FIDELITY_FLOOR >= 0
        else:
            assert (case.status, case.margin) == ("INFO", None)


def test_sweep_fails_an_operator_case_below_the_floor(monkeypatch):
    # the sweep reads fock.fidelity at each case, so a patched one reaches it
    monkeypatch.setattr(fock, "fidelity", lambda a, b: verify.FIDELITY_FLOOR - 1e-12)
    states = [("fock:1", verify.parse_state("fock:1", 8))]
    splits = [verify.SplitConfig(0.5, 0.1, model) for model in verify.HERALD_MODELS]
    operator, click = verify.sweep(states, splits)
    assert operator.status == "FAIL" and operator.margin == pytest.approx(-1e-12, abs=1e-15)
    assert (click.status, click.margin) == ("INFO", None)
