"""Exact truncated Fock-space engine: states, photon subtraction, fidelity.

States are dense single-mode density matrices over the number basis
|0>..|nmax>.  Two-mode operators, such as the beam-splitter unitary,
conserve the total photon number and are kept as one block per total;
applying them to a state is the job of ``verify``.  Only the blocks
N < dim, which the truncation leaves whole, are built: they are real, and
each is built from the one below it by adding one photon (Risbo's
recursion), with no eigensolver.  A dense two-mode matrix holds those
blocks and is zero on the states N >= dim.  All operations are pure
functions; the backing arrays are frozen so values can be shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import QVampireError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
DEFAULT_TAIL_TOL = 1e-8
VACUUM_WEIGHT_FLOOR = 1e-14
UNITARY_PARAM_TOL = 1e-12


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _validate_density(elements: np.ndarray, what: str):
    """The elements as a frozen complex array, with their eigenvalues and
    eigenvectors from the one ``eigh`` that checks them positive semidefinite."""
    arr = np.array(elements, dtype=complex)
    if not np.isfinite(arr).all():
        raise QVampireError(f"{what}: elements must be finite")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise QVampireError(f"{what}: elements must be a square matrix")
    if np.abs(arr - arr.conj().T).max() > HERMITICITY_TOL:
        raise QVampireError(f"{what}: not Hermitian within {HERMITICITY_TOL}")
    tr = arr.trace().real
    if abs(tr - 1.0) > TRACE_TOL:
        raise QVampireError(f"{what}: trace {tr} differs from 1 beyond {TRACE_TOL}")
    eigh = np.linalg.eigh(arr)
    if eigh[0].min() < -PSD_TOL:
        raise QVampireError(f"{what}: negative eigenvalue below -{PSD_TOL}")
    return _freeze(arr), eigh


@dataclass(frozen=True)
class DensityMatrix:
    """Truncated single-mode quantum state in the Fock basis.

    ``tail_mass`` records the probability the untruncated state carries
    above the cutoff (exact for the constructors, an estimate after
    photon subtraction).
    """

    elements: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        elements, eigh = _validate_density(self.elements, "DensityMatrix")
        object.__setattr__(self, "elements", elements)
        # kept for ``_sqrt``, so a state is decomposed once
        object.__setattr__(self, "_eigh", eigh)

    @property
    def dim(self) -> int:
        return self.elements.shape[0]

    def populations(self) -> np.ndarray:
        return np.diag(self.elements).real.copy()

    def mean_photons(self) -> float:
        n = np.arange(self.dim)
        return float(np.dot(n, self.populations()))

    @cached_property
    def _sqrt(self) -> np.ndarray:
        """The PSD square root, taken once per state for ``fidelity`` from the
        eigenpairs its validation found."""
        w, v = self._eigh  # w >= -1e-10 by construction
        return _freeze((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)


# ---------------------------------------------------------------------------
# constructors


def make_thermal(nbar: float, nmax: int) -> DensityMatrix:
    """Thermal state with Bose-Einstein weights, renormalized over 0..nmax."""
    if not math.isfinite(nbar):
        raise QVampireError(f"nbar must be finite, got {nbar}")
    if nbar < 0:
        raise QVampireError("nbar must be non-negative")
    if nmax < 1:
        raise QVampireError("nmax must be at least 1")
    if nbar == 0:
        return make_fock(0, nmax)
    q = nbar / (1.0 + nbar)
    weights = q ** np.arange(nmax + 1) / (1.0 + nbar)
    tail = q ** (nmax + 1)
    if tail > DEFAULT_TAIL_TOL:
        raise QVampireError(
            f"thermal nbar={nbar} at nmax={nmax}: tail {tail:.3e} > {DEFAULT_TAIL_TOL:.1e}"
        )
    return DensityMatrix(np.diag(weights / weights.sum()), tail_mass=float(tail))


def make_coherent(alpha: complex, nmax: int) -> DensityMatrix:
    """Pure coherent state, renormalized over 0..nmax."""
    if not np.isfinite(alpha):
        raise QVampireError(f"alpha must be finite, got {alpha}")
    if nmax < 1:
        raise QVampireError("nmax must be at least 1")
    if alpha == 0:
        return make_fock(0, nmax)
    n = np.arange(nmax + 1)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    amp = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(complex(alpha)) - 0.5 * log_fact)
    norm2 = float(np.vdot(amp, amp).real)
    tail = 1.0 - norm2
    if tail > DEFAULT_TAIL_TOL:
        raise QVampireError(
            f"coherent |alpha|={abs(alpha)} at nmax={nmax}: "
            f"tail {tail:.3e} > {DEFAULT_TAIL_TOL:.1e}"
        )
    amp = amp / math.sqrt(norm2)
    return DensityMatrix(np.outer(amp, amp.conj()), tail_mass=max(tail, 0.0))


def make_fock(n: int, nmax: int) -> DensityMatrix:
    """Number state |n><n|."""
    if n < 0:
        raise QVampireError("n must be non-negative")
    if n > nmax:
        raise QVampireError(f"Fock level {n} above truncation {nmax}")
    mat = np.zeros((nmax + 1, nmax + 1), dtype=complex)
    mat[n, n] = 1.0
    return DensityMatrix(mat, tail_mass=0.0)


# ---------------------------------------------------------------------------
# photon subtraction and fidelity


def subtract_photon(rho: DensityMatrix) -> tuple[DensityMatrix, float]:
    """Heralded single-photon subtraction: a rho a+ renormalized.

    The success weight Tr(a rho a+) equals the input mean photon number.
    The output tail_mass is the estimate (nmax+1) * tail_in / <n>, the
    leading term of the subtracted weight lost above the cutoff.
    """
    weight = rho.mean_photons()
    if weight < VACUUM_WEIGHT_FLOOR:
        raise QVampireError("cannot subtract a photon from (near-)vacuum")
    s = np.sqrt(np.arange(1.0, rho.dim))  # a[n-1, n] = sqrt(n)
    out = np.zeros_like(rho.elements)
    out[:-1, :-1] = s[:, None] * rho.elements[1:, 1:] * s / weight
    tail = rho.tail_mass * rho.dim / weight
    return DensityMatrix(out, tail_mass=tail), float(weight)


def fidelity(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Uhlmann fidelity (squared overlap convention), in [0, 1].

    F = ||sqrt(rho1) sqrt(rho2)||_1^2, the squared sum of singular values
    (Jozsa, J. Mod. Opt. 41, 2315, 1994); symmetric by construction.
    """
    if rho1.dim != rho2.dim:
        raise QVampireError(f"dims {rho1.dim} vs {rho2.dim}")
    root = np.linalg.svd(rho1._sqrt @ rho2._sqrt, compute_uv=False).sum()
    return float(min(root * root, 1.0))


# ---------------------------------------------------------------------------
# two-mode unitaries, one block per total photon number N


@lru_cache(maxsize=64)
def beamsplitter_blocks(dim: int, t: float, r: float) -> tuple:
    """exp(theta (ai+ aj - ai aj+)), t = cos, r = sin, on the blocks the
    truncation leaves whole.

    Both modes are truncated to dim levels.  Block N = 0 .. dim - 1 acts on
    all of |n, N - n>, n = 0 .. N, and is built from block N - 1 by adding
    one photon, with no eigensolver.  Block N is U (x) U^(N-1) restricted
    to the states symmetric under exchange of the N photons (Risbo,
    J. Geodesy 70, 383, 1996): with w[n] = sqrt(n / N), wb[n] = w[N - n]
    and B the block N - 1, zero outside its range,

        B_N[k, n] = w[k] (t w[n] B[k-1, n-1] + r wb[n] B[k-1, n])
                  + wb[k] (t wb[n] B[k, n] - r w[n] B[k, n-1]).

    The symmetric split keeps every step a contraction, so the blocks stay
    orthogonal to rounding; building each column by the one-sided
    (t ai+ - r aj+) / sqrt(n) does not.  The blocks are cached on
    (dim, t, r) as frozen C-contiguous real arrays.
    """
    if abs(t * t + r * r - 1.0) > UNITARY_PARAM_TOL:
        raise QVampireError(f"t^2 + r^2 = {t * t + r * r} != 1")
    # the weights times sqrt(N), so block N takes one division by N
    roots = np.sqrt(np.arange(dim, dtype=float))
    t_roots, r_roots = t * roots, r * roots
    pad = np.zeros((dim + 1, dim + 1))  # B[k, n] at pad[k + 1, n + 1], zero around it
    blocks = [_freeze(np.ones((1, 1)))]
    for total in range(1, dim):
        pad[1 : total + 1, 1 : total + 1] = blocks[-1]
        s, ts, rs = roots[: total + 1], t_roots[: total + 1], r_roots[: total + 1]
        # the new photon in mode i (rows k - 1 of B) and in mode j (rows k)
        up = ts * pad[: total + 1, : total + 1] + rs[::-1] * pad[: total + 1, 1 : total + 2]
        down = ts[::-1] * pad[1 : total + 2, 1 : total + 2] - rs * pad[1 : total + 2, : total + 1]
        blocks.append(_freeze((s[:, None] * up + s[::-1, None] * down) / total))
    return tuple(blocks)


def beamsplitter_unitary(dim_i: int, dim_j: int, t: float, r: float) -> np.ndarray:
    """exp(theta (ai+ aj - ai aj+)) as a dense matrix over |n_i, n_j>, n_i slow.

    Only square splitters (dim_i == dim_j) are built.  Its blocks N < d are
    those of ``beamsplitter_blocks``; the rows and columns n_i + n_j >= d,
    whose blocks the truncation cuts, are zero, so the matrix is unitary on
    the states that fit.
    """
    if dim_i != dim_j:
        raise QVampireError(f"beam splitter needs equal dims, got {dim_i} vs {dim_j}")
    return _scatter_blocks(dim_i, beamsplitter_blocks(dim_i, t, r))


def _scatter_blocks(d: int, blocks) -> np.ndarray:
    """Blocks N = 0 .. d - 1 as one dense matrix over |n_i, n_j>, n_i slow; the rest is zero."""
    u = np.zeros((d * d,) * 2)
    for total, block in enumerate(blocks):
        n_i = np.arange(total + 1)
        u[np.ix_(n_i * d + total - n_i, n_i * d + total - n_i)] = block
    return u
