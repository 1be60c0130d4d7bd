"""The quadrature rule a thermal scan tile draws its block intensities from.

Given a coherence block's intensity u, in units of its mean so that
u ~ Exp(1), the camera and herald click counts c and h of its s bins are
independent binomials, so the joint pmf of a block's outcome is

    P(c, h) = int_0^inf e^-u Bin(c; s, p_cam(u)) Bin(h; s, p_her(u)) du,
    p(u) = dark + (1 - dark)(1 - exp(-x u)),

with x the mean photons a bin brings the detector at u = 1.  It has no
closed form when x_cam != x_her, so ``block_rules`` integrates it with a
composite Gauss-Legendre rule in r = sqrt(u), whose node count an a-priori
bound on its error certifies, and whose base rule's nodes are found by
Newton's method on the Legendre recurrence, not by an eigensolver.
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
takes all of a scan's camera means in one call, bounds the herald's factor
once per panel count and the camera's for all means at once, and builds
the base rules they need in one pass.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import QVampireError

# The rule integrates over u up to TABLE_U_MAX (e^-40 ~ 4e-18 is the mass
# left out), with 1, 2, 4, ... equal panels in r = sqrt(u), each with the
# fewest nodes whose error bound, on the ellipse E_TABLE_RHO bounded on
# TABLE_ARCS arcs of each half, is at most TABLE_TOL: the panel count of the
# fewest nodes in all wins, and no rule may pass TABLE_NODE_CAP nodes.
TABLE_U_MAX = 40.0
TABLE_NODE_CAP = 1 << 14
TABLE_TOL = 1e-12
TABLE_RHO = 4.0
TABLE_ARCS = 32

# node count -> the nodes and weights of its Gauss-Legendre rule, each built once
_BASE_RULES: dict = {}


def _legendre(t: np.ndarray, n: np.ndarray, parts: dict):
    """P_n and P_n' at each t in (-1, 1), n its entry of ``n``, by the three-term
    recurrence run to the largest n: ``parts`` maps each n to the slice of its
    entries, kept at step n; the later steps, bounded by 1, go unread."""
    p0, p1 = np.ones_like(t), t
    kept = np.empty((2, len(t)))
    for k in range(2, max(parts) + 1):
        p0, p1 = p1, ((2 * k - 1) * t * p1 - (k - 1) * p0) / k
        if k in parts:
            kept[:, parts[k]] = p0[parts[k]], p1[parts[k]]
    return kept[1], n * (kept[0] - t * kept[1]) / (1.0 - t * t)


def _gauss_legendre(*counts: int):
    """Nodes, ascending, and weights of the Gauss-Legendre rule on [-1, 1] of
    each node count of ``counts``, at least two (Hale & Townsend, SIAM J. Sci.
    Comput. 35:A652, 2013).  The rules not built before are built together,
    their roots in one array, so each pass of the recurrence serves them all.

    The roots of P_n in [0, 1) start from Tricomi's estimates
    (1 - (n - 1) / (8 n^3)) cos(pi (4k - 1) / (4n + 2)), k = 1, 2, ..., the
    cosine written as sin(pi (n + 1 - 2k) / (2n + 1)) so that an odd rule's
    middle node is exactly 0.  They start within about a thousandth of their
    spacing, so three Newton steps on P_n leave them at rounding.  The last
    step d is below 2e-12, so P_n' at the root is P_n' - d P_n'' before it,
    with P_n'' = (2t P_n' - n(n + 1) P_n) / (1 - t^2) (Legendre's equation),
    and w = 2 / ((1 - t^2) P_n'^2).  The negative half mirrors the roots, so
    the rule is exactly symmetric.
    """
    new = sorted(set(counts) - _BASE_RULES.keys())
    if new:
        halves = [np.arange(1 - nodes % 2, nodes, 2) for nodes in new]
        ends = np.cumsum([len(h) for h in halves]).tolist()
        parts = {nodes: slice(end - len(h), end) for nodes, h, end in zip(new, halves, ends)}
        n = np.repeat(np.array(new, dtype=float), [len(h) for h in halves])
        t = np.sin(np.pi * np.concatenate(halves) / (2 * n + 1))
        t *= 1.0 - (n - 1) / (8.0 * n**3)
        for _ in range(3):
            p, dp = _legendre(t, n, parts)
            t = t - (step := p / dp)
        dp -= step * (2 * (t + step) * dp - n * (n + 1) * p) / (1.0 - (t + step) ** 2)
        w = 2.0 / ((1.0 - t * t) * dp**2)
        for nodes, part in parts.items():
            rule = [np.concatenate((a[part][::-1], b[part][nodes % 2 :])) for a, b in ((-t, t), (w, w))]
            for array in rule:
                array.setflags(write=False)
            _BASE_RULES[nodes] = tuple(rule)
    return [_BASE_RULES[nodes] for nodes in counts]


@lru_cache(maxsize=None)
def _panel_rule(panels: int, nodes: int):
    """Nodes u and weights of the composite rule for the integral of f(u) e^-u du."""
    ((t, w),) = _gauss_legendre(nodes)
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


def _log_error_bound(log_moduli: np.ndarray, half: np.ndarray, nodes):
    """log of the bound on the error of every cell of the rule of ``nodes``
    nodes on each panel of half-width ``half``, given ``log_moduli``, log F
    bounded on each arc (last axis) of each panel (the axis before it): the
    sum over panels of h 64 M / (15 (rho^2 - 1) rho^(2(nodes - 1))), one per
    row of any axes before those."""
    log_m = np.log(half) + log_moduli.max(axis=-1)
    constant = math.log(64.0 / (15.0 * (TABLE_RHO**2 - 1.0)))
    return np.logaddexp.reduce(log_m, axis=-1) + constant - 2 * (nodes - 1) * math.log(TABLE_RHO)


def block_rules(bpb: int, x_cams, dark_cam: float, x_her: float, dark_her: float):
    """Nodes u_i and normalized weights w_i of the rule for the joint pmf P(c, h)
    of the click counts of a block of ``bpb`` bins, one rule per camera mean
    of ``x_cams``.

    The bound is L - 2 (m - 1) log rho in the nodes m a panel, so each panel
    count 1, 2, 4, ... takes m = max(2, 1 + ceil((L - log TABLE_TOL) / (2 log rho))),
    the fewest whose bound is at most ``TABLE_TOL`` in every cell of the joint
    table, and a mean takes the rule of fewest nodes in all.  None within
    ``TABLE_NODE_CAP`` nodes raises ``QVampireError`` naming the mean and how
    far above the tolerance its least bound stays.  Each mean gets the rule it
    would get alone, so a caller passes distinct ones.
    """
    x = np.array(x_cams, dtype=float)[:, None, None]
    log_tol, step = math.log(TABLE_TOL), 2.0 * math.log(TABLE_RHO)
    # on the real axis F = 2r e^(-r^2), at most M on each panel, so the panels'
    # h M sum to at least half F's integral, about 1/2: no panel count takes
    # fewer nodes a panel than one panel of half-width 1/2 with M = 1 does
    floor = _log_error_bound(np.zeros((1, 1)), np.full(1, 0.5), 1)
    fewest = max(2.0, 1.0 + math.ceil((floor - log_tol) / step))
    # per mean: the fewest nodes certified and their panels, and the least
    # bound within the cap
    best, best_panels = np.full(len(x), TABLE_NODE_CAP + 1.0), np.ones(len(x), dtype=int)
    closest, panels = np.full(len(x), np.inf), 1
    # a bound past the float range is infinite, and takes infinitely many nodes
    with np.errstate(over="ignore", invalid="ignore"):
        while (searching := np.flatnonzero(panels * fewest < best)).size:
            arcs = _ellipse_arcs(panels)
            log_moduli = (arcs.log_weight + _log_binomial_bound(bpb, x_her, dark_her, arcs)
                          + _log_binomial_bound(bpb, x[searching], dark_cam, arcs))
            bound = _log_error_bound(log_moduli, arcs.half, 1)
            nodes = np.maximum(2.0, 1.0 + np.ceil((bound - log_tol) / step))
            nodes += bound - (nodes - 1) * step > log_tol  # rounding may leave it a node short
            fewer = panels * nodes < best[searching]
            best[searching[fewer]], best_panels[searching[fewer]] = panels * nodes[fewer], panels
            least = bound - (TABLE_NODE_CAP // panels - 1) * step
            closest[searching] = np.minimum(closest[searching], least)
            panels *= 2
    if (refused := np.flatnonzero(best > TABLE_NODE_CAP)).size:
        raise QVampireError(
            f"block rule ({bpb} bins, x_cam {x[refused[0], 0, 0]:.3g}, x_her {x_her:.3g}) has error "
            f"bound {(closest[refused[0]] - log_tol) / math.log(10.0):.3g} decades above "
            f"{TABLE_TOL:.0e} at best within {TABLE_NODE_CAP} nodes")
    nodes = best.astype(int) // best_panels
    _gauss_legendre(*nodes.tolist())  # every base rule the means need, in one pass
    rules = [_panel_rule(*shape) for shape in zip(best_panels.tolist(), nodes.tolist())]
    return [(u, weights / weights.sum()) for u, weights in rules]
