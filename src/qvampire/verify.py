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
``_herald_kernel`` keeps the Gram matrix of the amplitudes for each number
j of photons the map removes from the beam, all in one flat j-major array,
plus the weight each |n> leaves in the complement vacuum.  A call of
``regional_subtraction`` gathers the state entry of each Gram entry and
sums the products per output cell with ``np.bincount``, in ascending j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import fock  # the sweep looks its fidelity up at each call
from .errors import QVampireError
from .fock import (
    DensityMatrix,
    VACUUM_WEIGHT_FLOOR,
    _freeze,
    _scatter_blocks,
    beamsplitter_blocks,
)

OPERATOR = "operator"
CLICK_POVM = "click_povm"
HERALD_MODELS = (OPERATOR, CLICK_POVM)

DEFAULT_VERIFY_NMAX = 28
COMPLEMENT_TOL = 1e-10
FIDELITY_FLOOR = 1.0 - 1e-9  # operator-model pass rule against direct subtraction
STATE_FORMS = "thermal:<nbar>, coherent:<alpha> or fock:<n>"


@dataclass(frozen=True)
class SplitConfig:
    """Sub-mode power split and tap reflectivity, each in (0, 1], and herald model."""

    c_a: float
    r: float
    herald_model: str = OPERATOR

    def __post_init__(self):
        if not 0.0 < self.c_a <= 1.0:
            raise QVampireError(f"c_a must lie in (0, 1], got {self.c_a!r}")
        if not 0.0 < self.r <= 1.0:
            raise QVampireError(f"r must lie in (0, 1], got {self.r!r}")
        if self.herald_model not in HERALD_MODELS:
            raise QVampireError(f"herald_model {self.herald_model!r} is not one of {HERALD_MODELS}")


class RegionalSubtractionResult(NamedTuple):
    """Whole-beam output state plus heralding diagnostics."""

    state: DensityMatrix
    herald_prob: float
    complement_population: float


class Case(NamedTuple):
    """One case of a sweep, checked against direct subtraction of its state."""

    label: str
    split: SplitConfig
    result: RegionalSubtractionResult
    fidelity: float
    status: str  # PASS or FAIL (operator model: FIDELITY_FLOOR, COMPLEMENT_TOL), INFO (click)
    margin: float | None  # fidelity - FIDELITY_FLOOR, operator model only


def _split_params(c_a: float) -> tuple[float, float]:
    """(t, r) of the splitter taking (beam, complement) modes to (A, B) modes.

    It sends a_A+ to the beam mode c_a a_A+ + c_b a_B+ and a_B+ to the
    complement mode -c_b a_A+ + c_a a_B+.
    """
    return float(c_a), -math.sqrt(max(1.0 - c_a * c_a, 0.0))


def recombination_unitary(c_a: float, dim: int) -> np.ndarray:
    """Change of basis from (beam, complement) to (A, B) occupations.

    Column (n, m) holds the Fock expansion of n beam-mode and m complement-mode
    photons over the (A, B) pixel-partition modes.  The columns n + m >= dim, which
    the truncation cuts, are zero; the matrix is unitary on the blocks that fit.
    """
    return _scatter_blocks(dim, beamsplitter_blocks(dim, *_split_params(c_a)))


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
    return _freeze(images)


@lru_cache(maxsize=8)
def _layout(d: int, lost: int) -> tuple:
    """Read-only flat index arrays of the heralded map at truncation d.

    The kernel build runs over (total, a, rr) in C order (total photons in
    (A, B) after the herald, a of them in A, rr in R): where ``split`` and
    the herald images hold each amplitude's factors, where each total's run
    starts, and where its amplitude lands in the flat ``amp``.  The
    contraction runs over (j, p, q) in C order: output cell p * d + q and
    state entry (p + j) * d + q + j.  0.22 MB at d = 29, 9.5 MB at d = 101.
    """
    t, a, rr = np.ogrid[: d - lost, : d - lost, : d - lost]
    t, a, rr = np.nonzero((a <= t) & (t + rr < d - lost))
    n, k = t + lost + rr, a + rr + lost  # input photons, A photons before the herald
    # a also counts beam photons after recombination: amp[t - a, n - a, n]
    kernel = (n * d + k, k * d + a, np.flatnonzero(np.diff(t)) + 1, ((t - a) * d + n - a) * d + n)
    j, p, q = np.ogrid[:d, :d, :d]
    j, p, q = np.nonzero((j >= lost) & (p + j < d) & (q + j < d))
    return tuple(map(_freeze, (*kernel, p * d + q, (p + j) * d + q + j)))


@lru_cache(maxsize=32)
def _herald_kernel(d: int, c_a: float, r: float, model: str) -> tuple:
    """The part of regional subtraction that does not read the state.

    Returns ``(grams, cells, entries, comp_vacuum)``.  ``grams`` holds the
    (d - j) x (d - j) Gram matrices K_j^T K_j for j = lost .. d - 1 in one
    flat array, j-major and each block in C order.  Here lost is the number
    of photons the herald destroys and K_j[m, n] is the amplitude that input
    |n> leaves n - j beam photons and m complement photons (n >= j).  Term i
    of the output is grams[i] times state entry ``entries[i]``, added to
    cell ``cells[i]`` (``_layout``'s arrays).  ``comp_vacuum[n]`` is the
    weight input |n> leaves in the complement vacuum.  The flat indices only
    move numbers.  Each total's amplitudes come from one ``rec[total].T @ x``
    and each block from one ``kj.T @ kj``; a padded 3-D ``matmul`` of either
    would change the last bits.  An entry holds about d^3 / 3 doubles: 62 kB
    at d = 29 (the default nmax 28), 2.7 MB at d = 101.
    """
    lost = 1 if model == OPERATOR else 0  # photons the herald destroys
    rec = beamsplitter_blocks(d, *_split_params(c_a))  # blocks < d fit
    herald = _herald_images(d, r, model)
    split = np.zeros((d, d))  # split[n, k]: amplitude of |k_A, (n - k)_B> in |n>
    for n in range(d):
        split[n, : n + 1] = rec[n][:, n]
    split_at, herald_at, ends, amp_at, cells, entries = _layout(d, lost)

    # amp[m, j, n]: amplitude that input |n> leaves n - j beam photons and m
    # complement photons; the herald mode then holds j - lost - m photons
    runs = np.split(split.ravel()[split_at] * herald.ravel()[herald_at], ends)
    amp = np.zeros((d, d, d))
    amp.reshape(-1)[amp_at] = np.concatenate(
        [(rec[total].T @ x.reshape(total + 1, -1)).ravel() for total, x in enumerate(runs)]
    )

    # trace out the complement and R: terms pair up only at equal (m, j)
    blocks = (amp[:, j, j:] for j in range(lost, d))  # none when d = lost
    grams = np.concatenate([np.zeros(0), *((kj.T @ kj).ravel() for kj in blocks)])
    return _freeze(grams), cells, entries, _freeze((amp[0] ** 2).sum(axis=0))


def regional_subtraction(rho: DensityMatrix, cfg: SplitConfig) -> RegionalSubtractionResult:
    """Herald one subtraction in sub-mode A and return the whole-beam state.

    The returned complement population is the probability of finding any
    photon outside the original beam mode: zero (to tolerance) means the
    output keeps the input's transverse profile, i.e. no shadow.
    """
    d = rho.dim
    grams, cells, entries, comp_vacuum = _herald_kernel(
        d, float(cfg.c_a), float(cfg.r), cfg.herald_model
    )
    # np.bincount adds each cell's terms in array order: ascending j, from
    # zero, real and imaginary parts apart
    terms = rho.elements.ravel()[entries]
    parts = [np.bincount(cells, grams * part, d * d) for part in (terms.real, terms.imag)]
    beam = np.stack(parts, axis=-1).view(complex).reshape(d, d)
    herald_weight = float(beam.trace().real)
    if herald_weight < VACUUM_WEIGHT_FLOOR:
        raise QVampireError(f"herald weight {herald_weight:.3e} below {VACUUM_WEIGHT_FLOOR}")
    complement_population = 1.0 - float(comp_vacuum @ rho.populations()) / herald_weight

    beam = (beam + beam.conj().T) / 2.0
    beam /= beam.trace().real
    tail = rho.tail_mass * d / max(rho.mean_photons(), VACUUM_WEIGHT_FLOOR)
    return RegionalSubtractionResult(
        state=DensityMatrix(beam, tail_mass=tail),
        herald_prob=herald_weight,
        complement_population=complement_population,
    )


def parse_state(spec: str, nmax: int) -> DensityMatrix:
    """The input state a spec names: ``STATE_FORMS``, truncated at ``nmax``."""
    makers = {
        "thermal": (float, fock.make_thermal),
        "coherent": (complex, fock.make_coherent),
        "fock": (int, fock.make_fock),
    }
    kind, _, value = spec.partition(":")
    try:
        convert, make = makers[kind]
        number = convert(value)
    except (KeyError, ValueError):
        raise QVampireError(f"state spec {spec!r}: expected {STATE_FORMS}") from None
    try:
        rho = make(number, nmax)
        if (mean := rho.mean_photons()) < VACUUM_WEIGHT_FLOOR:  # no photon to subtract
            raise QVampireError(f"mean photon number {mean:.3e} below {VACUUM_WEIGHT_FLOOR}")
    except QVampireError as exc:  # a value out of range
        raise QVampireError(f"state spec {spec!r}: {exc}") from None
    return rho


def sweep(states, splits):
    """Yield a ``Case`` for each ``(label, state)`` under each split, state-major.

    An operator-model case FAILs, a breach, below ``FIDELITY_FLOOR`` or above
    ``COMPLEMENT_TOL`` of complement population; the click model is not exact
    at finite r, so its case is INFO.
    """
    for label, rho in states:
        direct, _ = fock.subtract_photon(rho)
        for split in splits:
            try:
                res = regional_subtraction(rho, split)
            except QVampireError as exc:  # named by its case, as cli prints one
                case = f"{label} c_A={split.c_a} r={split.r} {split.herald_model}"
                raise QVampireError(f"case {case}: {exc}") from None
            fid = fock.fidelity(res.state, direct)
            if split.herald_model == OPERATOR:
                margin = fid - FIDELITY_FLOOR
                held = fid >= FIDELITY_FLOOR and res.complement_population <= COMPLEMENT_TOL
                status = "PASS" if held else "FAIL"
            else:
                margin, status = None, "INFO"
            yield Case(label, split, res, fid, status, margin)
