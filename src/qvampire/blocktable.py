"""The quadrature rule a thermal scan tile draws its block intensities from.

Given a coherence block's intensity u, in units of its mean so that
u ~ Exp(1), the camera and herald click counts c and h of its s bins are
independent binomials, so the joint pmf of a block's outcome is

    P(c, h) = int_0^inf e^-u Bin(c; s, p_cam(u)) Bin(h; s, p_her(u)) du,
    p(u) = dark + (1 - dark)(1 - exp(-x u)),

with x the mean photons a bin brings the detector at u = 1.  It has no
closed form when x_cam != x_her, so ``block_table`` integrates it with a
composite Gauss-Legendre rule (Golub & Welsch, Math. Comp. 23, 1969) that
checks its own refinement, and returns the accepted rule.  On that rule
P(c, h) = sum_i w_i Bin(c; s, p_cam(u_i)) Bin(h; s, p_her(u_i)), which is the
law of a block whose intensity is the node u_i with probability w_i, so
``qvampire.montecarlo`` draws a tile from the nodes and never from the
table.  The (s+1)^2 table exists only inside the check.  ``montecarlo``
imports this module, and with it ``numpy.polynomial``, at a thermal tile's
first rule, so commands that do not scan never load either.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureUnresolved

# The rule integrates over u up to TABLE_U_MAX (e^-40 ~ 4e-18 is the mass
# left out), with equal panels in r = sqrt(u): there a cell's binomial peak
# is about 1 / (2 sqrt(s x)) wide wherever it sits, so the panels number the
# least power of two, at least TABLE_MIN_PANELS, that reaches 2 + 4 sqrt(s x).
# Each panel starts at TABLE_NODES nodes, and the nodes double until the rule
# agrees with its refinement to TABLE_TOL; no rule may pass TABLE_NODE_CAP nodes.
TABLE_U_MAX = 40.0
TABLE_MIN_PANELS = 4
TABLE_NODES = 12
TABLE_NODE_CAP = 1 << 14
TABLE_TOL = 1e-12
# nodes per product of the table contraction: (s+1) x 24 x (s+1) at s = 83
# stays below OpenBLAS's threading size (m n k <= 2^18), so it runs on one core
TABLE_NODE_BLOCK = 24
# nodes whose binomial rows are held at once, which bounds a rule's memory
TABLE_ROW_NODES = 16 * TABLE_NODE_BLOCK


@lru_cache(maxsize=None)
def _log_factorials(n: int) -> np.ndarray:
    out = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _panel_rule(panels: int, nodes: int):
    """Nodes u and weights of the composite rule for the integral of f(u) e^-u du."""
    t, w = leggauss(nodes)
    edges = np.linspace(0.0, math.sqrt(TABLE_U_MAX), panels + 1)
    half = np.diff(edges)[:, None] / 2.0
    r = (edges[:-1, None] + half * (1.0 + t)).ravel()
    # u = r^2, so e^-u du = 2 r e^-r^2 dr
    weights = (half * w).ravel() * 2.0 * r * np.exp(-r * r)
    u = r * r
    u.setflags(write=False)
    weights.setflags(write=False)
    return u, weights


def _binomial_rows(size: int, x_u: np.ndarray, dark: float) -> np.ndarray:
    """Bin(c; size, p) for c = 0..size, one row per mean photon number x_u of a
    bin, with p = dark + (1 - dark) (1 - exp(-x_u)).

    Every log term but the binomial coefficient is non-positive, so a row is
    exact to rounding; entries below 1e-100 are set to 0, which moves no
    cell of a table by more than that and keeps its products out of slow
    subnormals.
    """
    lf = _log_factorials(size)
    c = np.arange(size + 1)
    # 1 - p = (1 - dark) exp(-x_u) has an exact log; p below 1e-300 only adds
    # entries of c >= 1 far below 1e-100
    log_q = math.log1p(-dark) - x_u
    log_p = np.log(np.maximum(dark + (1.0 - dark) * -np.expm1(-x_u), 1e-300))
    logs = np.multiply.outer(log_q, size - c)
    logs += np.multiply.outer(log_p, c)
    logs += lf[size] - lf - lf[::-1]
    rows = np.exp(logs)
    rows[logs < math.log(1e-100)] = 0.0
    return rows


def _quadrature_table(bpb, x_cam, dark_cam, x_her, dark_her, panels, nodes):
    """P(c, h) of one block on the composite rule of ``panels`` x ``nodes``."""
    u, weights = _panel_rule(panels, nodes)
    table = np.zeros((bpb + 1, bpb + 1))
    for lo in range(0, len(u), TABLE_ROW_NODES):
        part = slice(lo, lo + TABLE_ROW_NODES)
        cam = _binomial_rows(bpb, x_cam * u[part], dark_cam) * weights[part, None]
        her = _binomial_rows(bpb, x_her * u[part], dark_her)
        for k in range(0, len(cam), TABLE_NODE_BLOCK):
            table += cam[k : k + TABLE_NODE_BLOCK].T @ her[k : k + TABLE_NODE_BLOCK]
    return table


def block_table(bpb: int, x_cam: float, dark_cam: float, x_her: float, dark_her: float):
    """Nodes u_i and normalized weights w_i of the rule for the joint pmf P(c, h)
    of the click counts of a block of ``bpb`` bins.

    The check tabulates P(c, h) on the first rule whose refinement (twice
    the nodes per panel) agrees with it to ``TABLE_TOL`` per cell and sums to
    1 within ``TABLE_TOL``, and the refined rule is returned; its tables are
    freed on return.  A block drawn at intensity u_i with probability w_i
    follows the accepted table up to ``_binomial_rows``' cut of entries below
    1e-100.  No such rule within ``TABLE_NODE_CAP`` nodes raises
    ``QuadratureUnresolved``.
    """
    args = (bpb, x_cam, dark_cam, x_her, dark_her)
    panels = TABLE_MIN_PANELS
    wanted = 2.0 + 4.0 * math.sqrt(bpb * max(x_cam, x_her))
    # double the panels while the doubled first refinement stays within the cap
    while panels < wanted and 4 * panels * TABLE_NODES <= TABLE_NODE_CAP:
        panels *= 2
    nodes = TABLE_NODES
    coarse = _quadrature_table(*args, panels, nodes)
    while True:
        fine = _quadrature_table(*args, panels, 2 * nodes)
        residual = max(float(np.abs(fine - coarse).max()), abs(float(fine.sum()) - 1.0))
        if residual <= TABLE_TOL:
            u, weights = _panel_rule(panels, 2 * nodes)
            return u, weights / weights.sum()
        if panels * 4 * nodes > TABLE_NODE_CAP:
            raise QuadratureUnresolved(
                f"block table ({bpb} bins, x_cam {x_cam:.3g}, x_her {x_her:.3g}) leaves "
                f"residual {residual:.2e} > {TABLE_TOL:.0e} at {panels} panels of "
                f"{2 * nodes} nodes"
            )
        nodes *= 2
        coarse = fine
