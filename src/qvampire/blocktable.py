"""The quadrature rule a thermal scan tile draws its block intensities from.

Given a coherence block's intensity u, in units of its mean so that
u ~ Exp(1), the camera and herald click counts c and h of its s bins are
independent binomials, so the joint pmf of a block's outcome is

    P(c, h) = int_0^inf e^-u Bin(c; s, p_cam(u)) Bin(h; s, p_her(u)) du,
    p(u) = dark + (1 - dark)(1 - exp(-x u)),

with x the mean photons a bin brings the detector at u = 1.  It has no
closed form when x_cam != x_her, so ``block_rules`` integrates it with a
composite Gauss-Legendre rule (Golub & Welsch, Math. Comp. 23, 1969) in
r = sqrt(u), whose node count an a-priori bound on its error certifies.
On that rule P(c, h) = sum_i w_i Bin(c; s, p_cam(u_i)) Bin(h; s, p_her(u_i)),
which is the law of a block whose intensity is the node u_i with
probability w_i, so ``qvampire.montecarlo`` draws a tile from the nodes.

The bound (Trefethen, SIAM Rev. 50:67, 2008, Thm. 4.5): Gauss-Legendre
with m nodes on a panel of half-width h errs by at most
h 64 M / (15 (rho^2 - 1) rho^(2(m - 1))) on an integrand analytic inside
the panel's Bernstein ellipse E_rho and bounded there by M.  Each cell
g(r) = 2r e^(-r^2) Bin(c; s, p_cam(r^2)) Bin(h; s, p_her(r^2)) of the joint
table is entire, and the moduli of all cells sum to

    F(r) = 2|r| e^(-Re r^2) (|p_cam| + |q_cam|)^s (|p_her| + |q_her|)^s,
    q = (1 - dark) e^(-x r^2),  p = 1 - q,

so one bound on F serves every cell, both marginals and the block's total
mass.  By the maximum-modulus principle a cell's maximum over the ellipse
lies on its boundary; F is bounded there arc by arc, not sampled (see
``_ellipse_arcs``).  The bound never forms a binomial row, so a rule costs
O(panels) whatever s is, and it holds at any s; the tests hold its rules
to the per-cell check of the (s+1)^2 table against its refinement up to
s = 1024, and to the check of both marginals up to s = 4096.

In a scan only x_cam varies from tile to tile, and the herald's factor of
F depends on the rule only through its panel count, so ``block_rules``
takes all of a scan's camera means in one call and bounds the herald's
factor once per panel count.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import QVampireError

# The rule integrates over u up to TABLE_U_MAX (e^-40 ~ 4e-18 is the mass
# left out), with equal panels in r = sqrt(u): there a cell's binomial peak
# is about 1 / (2 sqrt(s x)) wide wherever it sits, so the panels number the
# least power of two, at least TABLE_MIN_PANELS, that reaches 2 + 4 sqrt(s x).
# Each panel takes the fewest of 2 TABLE_NODES, 4 TABLE_NODES, ... nodes whose
# error bound, on the ellipse E_TABLE_RHO bounded on TABLE_ARCS arcs of each
# half, is at most TABLE_TOL; no rule may pass TABLE_NODE_CAP nodes.
TABLE_U_MAX = 40.0
TABLE_MIN_PANELS = 4
TABLE_NODES = 12
TABLE_NODE_CAP = 1 << 14
TABLE_TOL = 1e-12
TABLE_RHO = 4.0
TABLE_ARCS = 32


def _legendre_series(x, c):
    """The Legendre series of coefficients ``c`` (at least two) at x, by
    Clenshaw's recurrence as numpy.polynomial.legendre.legval sums it."""
    nd, c0, c1 = len(c), c[-2], c[-1]
    for i in range(3, len(c) + 1):
        tmp = c0
        nd = nd - 1
        c0 = c[-i] - c1 * ((nd - 1) / nd)
        c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=None)
def _gauss_legendre(nodes: int):
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1], at least two
    nodes: numpy.polynomial.legendre.leggauss step for step, so bit for bit,
    without loading numpy.polynomial.

    The nodes are the eigenvalues of the symmetric Jacobi matrix, polished
    by one Newton step on P_n, and w_i is proportional to
    1 / (P_n'(t_i) P_{n-1}(t_i)), normalized to sum to 2.
    """
    c = np.zeros(nodes + 1)
    c[-1] = 1.0
    k = np.arange(nodes)
    # P_n' = sum of (2k + 1) P_k over k = n - 1, n - 3, ...
    dc = np.where((nodes - 1 - k) % 2 == 0, 2.0 * k + 1.0, 0.0)
    scl = 1.0 / np.sqrt(2 * k + 1)
    off = np.arange(1, nodes) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    dy = _legendre_series(x, c)
    df = _legendre_series(x, dc)
    x -= dy / df
    fm = _legendre_series(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def _panel_rule(panels: int, nodes: int):
    """Nodes u and weights of the composite rule for the integral of f(u) e^-u du."""
    t, w = _gauss_legendre(nodes)
    edges = np.linspace(0.0, math.sqrt(TABLE_U_MAX), panels + 1)
    half = np.diff(edges)[:, None] / 2.0
    r = (edges[:-1, None] + half * (1.0 + t)).ravel()
    # u = r^2, so e^-u du = 2 r e^-r^2 dr
    weights = (half * w).ravel() * 2.0 * r * np.exp(-r * r)
    u = r * r
    u.setflags(write=False)
    weights.setflags(write=False)
    return u, weights


class _Arcs(NamedTuple):
    """Bounds over each arc of the upper half of each panel's Bernstein
    ellipse, a row per panel; the lower half mirrors it, as F(conj r) = F(r)."""

    half: np.ndarray  # each panel's half-width h
    re2: np.ndarray  # Re r^2, bounded below
    im2: np.ndarray  # |Im r^2|, bounded above
    log_weight: np.ndarray  # log(2 |r| e^(-Re r^2)), bounded above


def _ellipse_arcs(panels: int) -> _Arcs:
    """The ``_Arcs`` of the rule of ``panels`` panels.

    The boundary of E_rho about the panel [c - h, c + h] is
    r = c + h (A cos t + i B sin t), A, B = (rho +- 1/rho) / 2.  The arcs
    split t in [0, pi] at TABLE_ARCS equal steps, pi / 2 among them, so on
    each arc X = Re r and Y = Im r >= 0 are monotone: X^2 and Y^2 lie between
    their values at the arc's ends (X^2 down to 0 where X changes sign), and
    |r|^2 = X^2 + Y^2, Re r^2 = X^2 - Y^2 and |Im r^2| = 2|X| Y are bounded from
    those ranges.  A bound that holds on every arc holds on the boundary, so
    no point between samples is missed.
    """
    edges = np.linspace(0.0, math.sqrt(TABLE_U_MAX), panels + 1)
    centre = (edges[:-1, None] + edges[1:, None]) / 2.0
    half = np.diff(edges) / 2.0
    t = np.linspace(0.0, math.pi, TABLE_ARCS + 1)
    a, b = (TABLE_RHO + 1 / TABLE_RHO) / 2.0, (TABLE_RHO - 1 / TABLE_RHO) / 2.0
    x = centre + half[:, None] * a * np.cos(t)
    y2 = (half[:, None] * b * np.sin(t)) ** 2
    x2 = x * x
    x2_max, y2_max = np.maximum(x2[:, :-1], x2[:, 1:]), np.maximum(y2[:, :-1], y2[:, 1:])
    x2_min = np.where(x[:, :-1] * x[:, 1:] <= 0.0, 0.0, np.minimum(x2[:, :-1], x2[:, 1:]))
    re2 = x2_min - y2_max
    log_weight = math.log(2.0) + 0.5 * np.log(x2_max + y2_max) - re2
    return _Arcs(half, re2, 2.0 * np.sqrt(x2_max * y2_max), log_weight)


def _log_binomial_bound(bpb: int, x: float, dark: float, arcs: _Arcs) -> np.ndarray:
    """s log(|p| + |q|), one detector's factor of log F, bounded above on each
    of the ``arcs``, with s = ``bpb``.

    With |q| = (1 - dark) e^(-x Re r^2) and phi = x Im r^2,
    |p|^2 = (1 - |q|)^2 + 4 |q| sin^2(phi / 2), and |p| + |q| grows with |q|
    (its derivative is 1 + (|q| - cos phi) / |p| >= 0) and with |phi| up to
    pi, past which |p| <= 1 + |q| takes phi = pi; so each arc's bound takes
    its least Re r^2 and its largest |Im r^2|.  The logs keep it finite where
    x is: |q| past e^30 takes |p| + |q| <= 1 + 2 |q|, and an x r^2 past the
    float range gives an infinite factor, a panel no node count certifies.
    """
    with np.errstate(over="ignore"):  # an overflow is an infinite bound
        log_q = math.log1p(-dark) - x * arcs.re2
        phi = np.minimum(x * arcs.im2, math.pi)
    capped = np.minimum(log_q, 30.0)
    q, one_minus_q = np.exp(capped), -np.expm1(capped)
    cross = 4.0 * q * np.sin(phi / 2.0) ** 2
    p = np.sqrt(one_minus_q * one_minus_q + cross)
    # |p| + |q| - 1, free of cancellation: below |q| = 1 it is the ratio
    # (|p|^2 - (1 - |q|)^2) / (|p| + 1 - |q|), 0 where both vanish
    excess = np.divide(cross, p + one_minus_q, out=p - one_minus_q, where=one_minus_q > 0.0)
    log_sum = np.where(log_q > 30.0, np.logaddexp(0.0, math.log(2.0) + log_q), np.log1p(excess))
    return bpb * log_sum


def _log_error_bound(log_moduli: np.ndarray, half: np.ndarray, nodes: int) -> float:
    """log of the bound on the error of every cell of the rule of ``nodes``
    nodes on each panel of half-width ``half``, given ``log_moduli``, log F
    bounded on each arc of each panel: the sum over panels of
    h 64 M / (15 (rho^2 - 1) rho^(2(nodes - 1)))."""
    log_m = np.log(half) + log_moduli.max(axis=1)
    constant = math.log(64.0 / (15.0 * (TABLE_RHO**2 - 1.0)))
    return float(np.logaddexp.reduce(log_m)) + constant - 2 * (nodes - 1) * math.log(TABLE_RHO)


def _panel_count(bpb: int, x: float) -> int:
    """Panels of the rule for a block whose brighter detector sees x a bin at u = 1:
    doubled while twice as many panels of 2 ``TABLE_NODES`` nodes stay within the cap."""
    panels = TABLE_MIN_PANELS
    wanted = 2.0 + 4.0 * math.sqrt(bpb * x)
    while panels < wanted and 4 * panels * TABLE_NODES <= TABLE_NODE_CAP:
        panels *= 2
    return panels


def block_rules(bpb: int, x_cams, dark_cam: float, x_her: float, dark_her: float):
    """Nodes u_i and normalized weights w_i of the rule for the joint pmf P(c, h)
    of the click counts of a block of ``bpb`` bins, one rule per camera mean
    of ``x_cams``.

    Each rule takes the fewest nodes a panel, from 2 ``TABLE_NODES`` doubling,
    whose error bound is at most ``TABLE_TOL`` in every cell of the joint
    table; no such rule within ``TABLE_NODE_CAP`` nodes raises
    ``QVampireError`` naming the mean.  Each mean given gets its rule, so a
    caller passes distinct ones; the ellipse's arcs and the herald's factor
    of the bound are built once per panel count a call meets.
    """
    herald, rules = {}, []
    for x_cam in x_cams:
        panels = _panel_count(bpb, max(x_cam, x_her))
        if panels not in herald:
            arcs = _ellipse_arcs(panels)
            herald[panels] = arcs, arcs.log_weight + _log_binomial_bound(bpb, x_her, dark_her, arcs)
        arcs, log_her = herald[panels]
        log_moduli = log_her + _log_binomial_bound(bpb, x_cam, dark_cam, arcs)
        nodes = 2 * TABLE_NODES
        while (log_error := _log_error_bound(log_moduli, arcs.half, nodes)) > math.log(TABLE_TOL):
            if panels * 2 * nodes > TABLE_NODE_CAP:
                raise QVampireError(
                    f"block rule ({bpb} bins, x_cam {x_cam:.3g}, x_her {x_her:.3g}) has error "
                    f"bound 10^{log_error / math.log(10.0):.3g} > {TABLE_TOL:.0e} at {panels} "
                    f"panels of {nodes} nodes"
                )
            nodes *= 2
        u, weights = _panel_rule(panels, nodes)
        rules.append((u, weights / weights.sum()))
    return rules
