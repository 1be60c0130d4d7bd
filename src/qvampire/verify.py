"""Brute-force check that heralded subtraction in a sub-mode acts on the whole beam.

The pipeline splits a single-mode state into the sub-mode A hit by the tap
beam splitter and its orthogonal complement B, adjoins a vacuum herald
mode R, couples (A, R) on a reflectivity-r splitter, heralds on R, traces
R out, and recombines (A, B) through the adjoint of the splitting
isometry.  Everything is computed from explicit matrices; no step assumes
the conclusion.

Two herald models are provided.  The ``operator`` model applies the
beam-splitter-transformed herald lowering operator at the input plane,
which is the exact content of the mode-decomposition identity the effect
rests on: the transmitted part of the herald operator annihilates the
vacuum port, leaving r times the sub-mode lowering operator.  The
``click_povm`` model propagates the state through the physical splitter
unitary and applies the non-resolving detector's click element
1 - |0><0| on R; it includes the real transmitted-arm attenuation and
multi-photon reflections, and converges to the operator model as r -> 0.

Internally states are pushed through the pipeline one eigenvector at a
time (the pipeline is linear in the density matrix), which keeps memory
at vectors of size dim^3 instead of dim^3 x dim^3 matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import HeraldImpossible, ResidualOrthogonalPopulation
from .fock import (
    DensityMatrix,
    VACUUM_WEIGHT_FLOOR,
    annihilation_matrix,
    beamsplitter_unitary,
    fidelity,
    subtract_photon,
)

OPERATOR = "operator"
CLICK_POVM = "click_povm"
HERALD_MODELS = (OPERATOR, CLICK_POVM)

DEFAULT_VERIFY_NMAX = 28
COMPLEMENT_TOL = 1e-10


@dataclass(frozen=True)
class SplitConfig:
    """Sub-mode power split, tap reflectivity, and herald model."""

    c_a: float
    r: float
    herald_model: str = OPERATOR

    def __post_init__(self):
        if not 0.0 <= self.c_a <= 1.0:
            raise ValueError("c_a must lie in [0, 1]")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError("r must lie in [0, 1]")
        if self.herald_model not in HERALD_MODELS:
            raise ValueError(f"herald_model must be one of {HERALD_MODELS}")


@dataclass(frozen=True)
class RegionalSubtractionResult:
    """Whole-beam output state plus heralding diagnostics."""

    state: DensityMatrix
    herald_prob: float
    complement_population: float


@lru_cache(maxsize=64)
def _recombination_cached(c_a: float, dim: int) -> np.ndarray:
    c_b = math.sqrt(max(1.0 - c_a * c_a, 0.0))
    logf = np.cumsum(np.log(np.maximum(np.arange(dim), 1)))  # log n!
    w = np.zeros((dim * dim, dim * dim))
    for n in range(dim):
        jn = np.arange(n + 1)
        pn = (
            np.array([math.comb(n, j) for j in jn])
            * c_a**jn
            * c_b ** (n - jn)
        )
        for m in range(dim - n):
            lm = np.arange(m + 1)
            qm = (
                np.array([math.comb(m, l) for l in lm])
                * (-c_b) ** lm
                * c_a ** (m - lm)
            )
            coeff = np.convolve(pn, qm)  # over a_A+^k a_B+^(n+m-k)
            k = np.arange(n + m + 1)
            amp = coeff * np.exp(0.5 * (logf[k] + logf[n + m - k] - logf[n] - logf[m]))
            w[k * dim + (n + m - k), n * dim + m] = amp
    w.setflags(write=False)
    return w


def recombination_unitary(c_a: float, dim: int) -> np.ndarray:
    """Change of basis from (beam, complement) to (A, B) occupations.

    Column (n, m) holds the Fock expansion of n beam-mode and m
    complement-mode photons over the (A, B) pixel-partition modes,
    obtained by expanding the two binomials of creation operators.
    Columns with n + m > dim - 1 are not representable in the truncation
    and are left zero; the matrix is exactly unitary on the total-photon
    blocks that fit.
    """
    return _recombination_cached(float(c_a), int(dim))


def split_isometry(c_a: float, dim: int) -> np.ndarray:
    """Isometry sending |n> to its binomial split over modes (A, B)."""
    return recombination_unitary(c_a, dim)[:, np.arange(dim) * dim]


def _apply_on_a_r(mat: np.ndarray, tens: np.ndarray, d: int) -> np.ndarray:
    """Apply a (d^2, d^2) operator to the (A, R) axes of an (A, B, R) tensor."""
    x = tens.transpose(0, 2, 1).reshape(d * d, d)
    return (mat @ x).reshape(d, d, d).transpose(0, 2, 1)


def regional_subtraction(
    rho: DensityMatrix,
    cfg: SplitConfig,
    complement_tol: float = COMPLEMENT_TOL,
) -> RegionalSubtractionResult:
    """Herald one subtraction in sub-mode A and return the whole-beam state.

    The returned complement population is the probability of finding any
    photon outside the original beam mode: zero (to tolerance) means the
    output keeps the input's transverse profile, i.e. no shadow.
    """
    d = rho.dim
    t = math.sqrt(max(1.0 - cfg.r * cfg.r, 0.0))
    w_rec = recombination_unitary(cfg.c_a, d)
    v_split = split_isometry(cfg.c_a, d)
    u_tap = beamsplitter_unitary(d, d, t, cfg.r)
    if cfg.herald_model == OPERATOR:
        herald_op = u_tap.conj().T @ np.kron(np.eye(d), annihilation_matrix(d - 1)) @ u_tap
    else:
        herald_op = None

    evals, evecs = np.linalg.eigh(rho.elements)
    sigma_ab = np.zeros((d * d, d * d), dtype=complex)
    herald_weight = 0.0
    for lam, vec in zip(evals, evecs.T):
        if lam <= 1e-15:
            continue
        psi_ab = (v_split @ vec).reshape(d, d)
        tens = np.zeros((d, d, d), dtype=complex)
        tens[:, :, 0] = psi_ab  # herald mode R starts in vacuum
        if cfg.herald_model == OPERATOR:
            phi = _apply_on_a_r(herald_op, tens, d)
        else:
            phi = _apply_on_a_r(u_tap, tens, d)
            phi[:, :, 0] = 0.0  # click POVM: remove the no-photon component of R
        herald_weight += lam * float(np.vdot(phi, phi).real)
        x = phi.reshape(d * d, d)  # trace out R below
        sigma_ab += lam * (x @ x.conj().T)

    if herald_weight < VACUUM_WEIGHT_FLOOR:
        raise HeraldImpossible(
            f"herald weight {herald_weight:.3e} below {VACUUM_WEIGHT_FLOOR}"
        )
    sigma_ab /= herald_weight

    rec = w_rec.conj().T @ sigma_ab @ w_rec  # (beam, complement) basis
    rec_t = rec.reshape(d, d, d, d)
    beam = np.trace(rec_t, axis1=1, axis2=3)
    comp = np.trace(rec_t, axis1=0, axis2=2)
    complement_population = float(1.0 - comp[0, 0].real)
    if cfg.herald_model == OPERATOR and complement_population > complement_tol:
        raise ResidualOrthogonalPopulation(
            f"operator-model complement population {complement_population:.3e} "
            f"exceeds {complement_tol:.1e}"
        )

    beam = (beam + beam.conj().T) / 2.0
    beam /= beam.trace().real
    tail = rho.tail_mass * d / max(rho.mean_photons(), VACUUM_WEIGHT_FLOOR)
    return RegionalSubtractionResult(
        state=DensityMatrix(beam, tail_mass=tail),
        herald_prob=float(herald_weight),
        complement_population=complement_population,
    )


def herald_model_gap(
    rho: DensityMatrix, c_a: float, r_values
) -> list[tuple[float, float]]:
    """Fidelity of the click-heralded whole-beam state to ideal subtraction.

    Returns (r, fidelity) pairs; the deviation 1 - fidelity shrinks as
    r^2, which is how fast the physical tap-plus-detector converges to
    the pure lowering operator.
    """
    for r in r_values:
        if not 0.0 < r <= 0.5:
            raise ValueError("herald gap sweep expects r in (0, 0.5]")
    ideal, _ = subtract_photon(rho)
    out = []
    for r in r_values:
        res = regional_subtraction(rho, SplitConfig(c_a=c_a, r=r, herald_model=CLICK_POVM))
        out.append((float(r), fidelity(res.state, ideal)))
    return out
