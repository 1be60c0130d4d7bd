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

Every stage conserves the total photon number or lowers it by one: the
beam splitters move one photon at a time and the herald removes at most
one.  So each input Fock state |n> is pushed through on its own, as
products of photon-number blocks of size at most dim, and the output is
read off the resulting (beam, complement, R) amplitudes; no dense
dim^2 x dim^2 operator is formed.

Those amplitudes do not depend on the input state, so the whole heralded
map is built once per split and cached on (dim, c_A, r, herald model):
``_herald_kernel`` keeps, for each number j of photons the map removes
from the beam, the Gram matrix of its amplitudes, plus the weight each
|n> leaves in the complement vacuum.  A call of ``regional_subtraction``
multiplies those Gram blocks into the state elementwise.
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
    beamsplitter_blocks,
    beamsplitter_unitary,
)

OPERATOR = "operator"
CLICK_POVM = "click_povm"
HERALD_MODELS = (OPERATOR, CLICK_POVM)

DEFAULT_VERIFY_NMAX = 28
COMPLEMENT_TOL = 1e-10
FIDELITY_FLOOR = 1.0 - 1e-9  # operator-model pass rule against direct subtraction


@dataclass(frozen=True)
class SplitConfig:
    """Sub-mode power split, tap reflectivity, and herald model."""

    c_a: float
    r: float
    herald_model: str = OPERATOR

    def __post_init__(self):
        if not 0.0 <= self.c_a <= 1.0:
            raise ValueError(f"c_a must lie in [0, 1], got {self.c_a!r}")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must lie in [0, 1], got {self.r!r}")
        if self.herald_model not in HERALD_MODELS:
            raise ValueError(f"herald_model {self.herald_model!r} is not one of {HERALD_MODELS}")


@dataclass(frozen=True)
class RegionalSubtractionResult:
    """Whole-beam output state plus heralding diagnostics."""

    state: DensityMatrix
    herald_prob: float
    complement_population: float


def _split_params(c_a: float) -> tuple[float, float]:
    """(t, r) of the splitter taking (beam, complement) modes to (A, B) modes.

    It sends a_A+ to the beam mode c_a a_A+ + c_b a_B+ and a_B+ to the
    complement mode -c_b a_A+ + c_a a_B+.
    """
    return float(c_a), -math.sqrt(max(1.0 - c_a * c_a, 0.0))


def recombination_unitary(c_a: float, dim: int) -> np.ndarray:
    """Change of basis from (beam, complement) to (A, B) occupations.

    Column (n, m) holds the Fock expansion of n beam-mode and m
    complement-mode photons over the (A, B) pixel-partition modes.
    Columns with n + m > dim - 1 are not representable in the truncation
    and are left zero; the matrix is exactly unitary on the total-photon
    blocks that fit.
    """
    w = beamsplitter_unitary(dim, dim, *_split_params(c_a))
    w[:, np.add.outer(np.arange(dim), np.arange(dim)).ravel() >= dim] = 0.0
    return w


@lru_cache(maxsize=64)
def _herald_images(dim: int, r: float, model: str) -> np.ndarray:
    """Row k: the (A, R) image of |k_A, 0_R> under the herald, over A = 0 .. k - 1.

    The image holds k - 1 photons (operator model) or k (click model), so
    entry A has R = k - 1 - A or R = k - A photons.
    """
    u = beamsplitter_blocks(dim, math.sqrt(max(1.0 - r * r, 0.0)), r)
    images = np.zeros((dim, dim))
    for k in range(1, dim):
        tapped = u[k][:, k]  # U |k, 0> over A = 0 .. k, with R = k - A
        if model == OPERATOR:
            # U+ a_R U |k, 0>, where a_R |A, k - A> = sqrt(k - A) |A, k - 1 - A>
            images[k, :k] = u[k - 1].T @ (np.sqrt(k - np.arange(k)) * tapped[:k])
        else:
            images[k, :k] = tapped[:k]  # click POVM: drop the R-vacuum entry A = k
    images.setflags(write=False)
    return images


@lru_cache(maxsize=32)
def _herald_kernel(d: int, c_a: float, r: float, model: str) -> tuple:
    """The part of regional subtraction that does not read the state.

    Returns ``(grams, comp_vacuum)``.  ``grams`` holds the (d - j) x (d - j)
    Gram matrices K_j^T K_j for j = lost .. d - 1, where lost is the number
    of photons the herald destroys and K_j[m, n] is the amplitude that input
    |n> leaves n - j beam photons and m complement photons (n >= j).
    ``comp_vacuum[n]`` is the weight input |n> leaves in the complement
    vacuum.  An entry holds about d^3 / 3 doubles: 62 kB at d = 29 (the
    default nmax 28), 2.7 MB at d = 101.
    """
    lost = 1 if model == OPERATOR else 0  # photons the herald destroys
    rec = beamsplitter_blocks(d, *_split_params(c_a))  # blocks < d fit
    herald = _herald_images(d, r, model)
    split = np.zeros((d, d))  # split[n, k]: amplitude of |k_A, (n - k)_B> in |n>
    for n in range(d):
        split[n, : n + 1] = rec[n][:, n]

    # amp[m, j, n]: amplitude that input |n> leaves n - j beam photons and m
    # complement photons; the herald mode then holds j - lost - m photons
    amp = np.zeros((d, d, d))
    idx = np.arange(d)
    for total in range(d - lost):  # photons in (A, B) after the herald
        a = idx[: total + 1, None]  # A photons after the herald; B = total - a
        rr = idx[None, : d - lost - total]  # herald-mode photons
        n = total + lost + rr  # input photons
        k = a + rr + lost  # A photons before the herald
        x = split[n, k] * herald[k, a]
        p = a  # beam photons after recombination; complement = total - p
        amp[total - p, n - p, n] = rec[total].T @ x

    # trace out the complement and R: terms pair up only at equal (m, j)
    grams = []
    for j in range(lost, d):
        kj = amp[:, j, j:]
        gram = kj.T @ kj
        gram.setflags(write=False)
        grams.append(gram)
    comp_vacuum = (amp[0] ** 2).sum(axis=0)
    comp_vacuum.setflags(write=False)
    return tuple(grams), comp_vacuum


def regional_subtraction(rho: DensityMatrix, cfg: SplitConfig) -> RegionalSubtractionResult:
    """Herald one subtraction in sub-mode A and return the whole-beam state.

    The returned complement population is the probability of finding any
    photon outside the original beam mode: zero (to tolerance) means the
    output keeps the input's transverse profile, i.e. no shadow.
    """
    d = rho.dim
    grams, comp_vacuum = _herald_kernel(d, float(cfg.c_a), float(cfg.r), cfg.herald_model)
    beam = np.zeros((d, d), dtype=complex)
    for gram in grams:  # the block of j = d - size
        size = len(gram)
        beam[:size, :size] += gram * rho.elements[d - size :, d - size :]
    herald_weight = float(beam.trace().real)
    if herald_weight < VACUUM_WEIGHT_FLOOR:
        raise HeraldImpossible(
            f"herald weight {herald_weight:.3e} below {VACUUM_WEIGHT_FLOOR}"
        )
    complement_population = 1.0 - float(comp_vacuum @ rho.populations()) / herald_weight
    if cfg.herald_model == OPERATOR and complement_population > COMPLEMENT_TOL:
        raise ResidualOrthogonalPopulation(
            f"operator-model complement population {complement_population:.3e} "
            f"exceeds {COMPLEMENT_TOL:.1e}"
        )

    beam = (beam + beam.conj().T) / 2.0
    beam /= beam.trace().real
    tail = rho.tail_mass * d / max(rho.mean_photons(), VACUUM_WEIGHT_FLOOR)
    return RegionalSubtractionResult(
        state=DensityMatrix(beam, tail_mass=tail),
        herald_prob=herald_weight,
        complement_population=complement_population,
    )

