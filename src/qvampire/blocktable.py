"""The quadrature rule a thermal scan tile draws its block intensities from.

Given a coherence block's intensity u, in units of its mean so that
u ~ Exp(1), the camera and herald click counts c and h of its s bins are
independent binomials, so the joint pmf of a block's outcome is

    P(c, h) = int_0^inf e^-u Bin(c; s, p_cam(u)) Bin(h; s, p_her(u)) du,
    p(u) = dark + (1 - dark)(1 - exp(-x u)),

with x the mean photons a bin brings the detector at u = 1.  It has no
closed form when x_cam != x_her, so ``block_rules`` integrates it with a
composite Gauss-Legendre rule (Golub & Welsch, Math. Comp. 23, 1969) that
checks its own refinement, and returns the accepted rule.  On that rule
P(c, h) = sum_i w_i Bin(c; s, p_cam(u_i)) Bin(h; s, p_her(u_i)), which is the
law of a block whose intensity is the node u_i with probability w_i, so
``qvampire.montecarlo`` draws a tile from the nodes.  The check never forms
the (s+1)^2 table: it compares the two marginals cell by cell and the mixed
moments sum_i w_i p_cam^a p_her^b (a, b = 1, 2), O(nodes s) a level, and
the tests hold its rules to those of the table's per-cell check to s = 1024.

In a scan only x_cam varies from tile to tile, and a rule's nodes depend on
x only through its panel count, so ``block_rules`` checks all of a scan's
camera means in one call, each on its own, with the herald's marginal of
each refinement level built once for all of them.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QVampireError

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
# nodes whose binomial rows are held at once, which bounds a check's memory
TABLE_ROW_NODES = 384


@lru_cache(maxsize=None)
def _log_binomials(n: int) -> np.ndarray:
    """log C(n, c) for c = 0..n, each the log of the exact integer C(n, c), so
    within a rounding of its value: the sum test of a long block's marginal
    then checks the quadrature, not the coefficients."""
    logs, comb = [], 1
    for c in range(n + 1):
        logs.append(math.log(comb))
        comb = comb * (n - c) // (c + 1)
    out = np.array(logs)
    out.setflags(write=False)
    return out


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


def _binomial_rows(size: int, x_u: np.ndarray, dark: float) -> np.ndarray:
    """Bin(c; size, p) for c = 0..size, one row per mean photon number x_u of a
    bin, with p = dark + (1 - dark) (1 - exp(-x_u)).

    An entry is exp(log C(size, c) + size log(1 - p) + c log(p / (1 - p))),
    exact to rounding relative to its largest term; entries below 1e-100 are
    raised to 1e-100, which moves no cell of a marginal by more than that
    and keeps exp and the sums out of slow subnormals.
    """
    c = np.arange(size + 1.0)
    # 1 - p = (1 - dark) exp(-x_u) has an exact log; p below 1e-300 only adds
    # entries of c >= 1 far below 1e-100
    log_q = math.log1p(-dark) - x_u
    log_p = np.log(np.maximum(dark + (1.0 - dark) * -np.expm1(-x_u), 1e-300))
    logs = np.multiply.outer(log_p - log_q, c)
    logs += (size * log_q)[:, None]
    logs += _log_binomials(size)
    return np.exp(np.maximum(logs, math.log(1e-100), out=logs), out=logs)


def _marginal(bpb, x, dark, panels, nodes):
    """One detector's marginal sum_i w_i Bin(.; bpb, p(u_i)) on the composite
    rule of ``panels`` x ``nodes``, its rows summed ``TABLE_ROW_NODES`` nodes at
    a time, and its click probabilities p(u_i) at the nodes."""
    u, weights = _panel_rule(panels, nodes)
    out = np.zeros(bpb + 1)
    for lo in range(0, len(u), TABLE_ROW_NODES):
        part = slice(lo, lo + TABLE_ROW_NODES)
        # einsum's own loop, not a BLAS kernel whose summation order varies by build
        out += np.einsum("i,ij->j", weights[part], _binomial_rows(bpb, x * u[part], dark))
    return out, dark + (1.0 - dark) * -np.expm1(-x * u)


def _level(bpb, x_cam, dark_cam, herald, panels, nodes):
    """What the check compares of the rule of ``panels`` x ``nodes`` at camera
    mean ``x_cam``, given the herald's ``_marginal`` of that rule: both
    marginals, the mixed moments sum_i w_i p_cam^a p_her^b (a, b = 1, 2),
    and, last, the sums of the two marginals."""
    weights = _panel_rule(panels, nodes)[1]
    cam, p_cam = _marginal(bpb, x_cam, dark_cam, panels, nodes)
    her, p_her = herald
    moments = np.einsum("i,ai,bi->ab", weights, [p_cam, p_cam**2], [p_her, p_her**2])
    return np.concatenate([cam, her, moments.ravel(), [cam.sum(), her.sum()]])


def _panel_count(bpb: int, x: float) -> int:
    """Panels of the rule for a block whose brighter detector sees x a bin at u = 1:
    doubled while the doubled first refinement stays within the cap."""
    panels = TABLE_MIN_PANELS
    wanted = 2.0 + 4.0 * math.sqrt(bpb * x)
    while panels < wanted and 4 * panels * TABLE_NODES <= TABLE_NODE_CAP:
        panels *= 2
    return panels


def block_rules(bpb: int, x_cams, dark_cam: float, x_her: float, dark_her: float):
    """Nodes u_i and normalized weights w_i of the rule for the joint pmf P(c, h)
    of the click counts of a block of ``bpb`` bins, one rule per camera mean
    of ``x_cams``.

    The check accepts the first rule whose refinement (twice the nodes per
    panel) agrees with it to ``TABLE_TOL`` in each cell of both marginals
    and in the four mixed moments, with each marginal of the refinement
    summing to 1 within ``TABLE_TOL``, and returns the refinement.  No such
    rule within ``TABLE_NODE_CAP`` nodes raises ``QVampireError``
    naming the mean.  Each mean given is checked, so a caller passes distinct
    ones; a (panels, nodes) level's herald marginal is built once per call.
    """
    herald = {}

    def level(x_cam, panels, nodes):
        if (panels, nodes) not in herald:
            herald[panels, nodes] = _marginal(bpb, x_her, dark_her, panels, nodes)
        return _level(bpb, x_cam, dark_cam, herald[panels, nodes], panels, nodes)

    rules = []
    for x_cam in x_cams:
        panels, nodes = _panel_count(bpb, max(x_cam, x_her)), TABLE_NODES
        coarse = level(x_cam, panels, nodes)
        while True:
            fine = level(x_cam, panels, 2 * nodes)
            residual = float(max(np.abs(fine - coarse).max(), np.abs(fine[-2:] - 1.0).max()))
            if residual <= TABLE_TOL:
                break
            if panels * 4 * nodes > TABLE_NODE_CAP:
                raise QVampireError(
                    f"block rule ({bpb} bins, x_cam {x_cam:.3g}, x_her {x_her:.3g}) leaves "
                    f"residual {residual:.2e} > {TABLE_TOL:.0e} at {panels} panels of "
                    f"{2 * nodes} nodes"
                )
            coarse, nodes = fine, 2 * nodes
        u, weights = _panel_rule(panels, 2 * nodes)
        rules.append((u, weights / weights.sum()))
    return rules
