"""The lattice dynamic-programming oracle (brute_force_field) and its kernels.

The oracle shares nothing with the exact evaluator but the Hamiltonians'
leg costs: a backward step over interpolated lattice paths on each side
(_dp_side_step), and one exact straight exit leg from the junction node's
own trace (_exit_legs), on a lattice span that _dp_domain can size.
"""

from __future__ import annotations

import numpy as np

from ._util import SolverError, sorted_unique
from .flux_models import Hamiltonian

_EXIT_BLOCK = 1 << 15  # node-by-column elements per block of nodes in _exit_legs


def _dp_side_step(H: Hamiltonian, nodes, dt):
    """The backward step on one side, as a function of the side's node values V.

    The step value at each node x is min_y [V~(y) + leg(x - y, dt)] over the
    side's nodes' span, with V~ the linear interpolant of V. The leg costs 0
    for y <= x - dh0 dt and R (y - x) for y >= x - dhr dt; V~ is linear between
    nodes, so on these two outer regions the minimum is reached at a node: a
    running minimum of V on the left, of V + R y, less R x, on the right. Only
    the cells that meet [x - dh0 dt, x - dhr dt] take the per-cell minimum,
    which is exact because the objective is convex in y on each cell; where
    V's slope on a cell leaves [-R, 0] the cell's minimum sits at a node that
    the running minima hold. So no assumption on V's slopes is needed.
    Everything that depends only on the nodes and dt is built once: the cell
    indices and spans, the node gaps, R times the nodes, and the two
    running-minimum buffers that each step refills.
    """
    x, free, steep = nodes[:, None], nodes - H.dh0 * dt, nodes - H.dhr * dt
    n_left = np.searchsorted(nodes, free, side="right")  # nodes[:n_left] <= x - dh0 dt
    n_right = np.searchsorted(nodes, steep, side="left")  # nodes[n_right:] >= x - dhr dt
    first = np.searchsorted(nodes[1:], free, side="left")  # cells meeting the middle
    last = np.searchsorted(nodes[:-1], steep, side="right") - 1
    cell = np.minimum(first[:, None] + np.arange(np.max(last - first) + 1), last[:, None])
    cell1 = cell + 1
    lo, hi = nodes[cell], nodes[cell1]
    gaps, span, ramp = np.diff(nodes), hi - lo, H.R * nodes
    # running minima: V's prefix minima after an inf, V + R y's suffix minima before one
    left, right = np.full(len(nodes) + 1, np.inf), np.full(len(nodes) + 1, np.inf)

    def step(V):
        alpha = H.slope_for_cost_slope((V[1:] - V[:-1]) / gaps)
        y = np.minimum(np.maximum(x - dt * alpha[cell], lo), hi)
        w = (y - lo) / span  # in [0, 1]: the interpolant keeps the sign of V
        mid = ((1.0 - w) * V[cell] + w * V[cell1] + H.leg_cost(x - y, dt)).min(axis=1)
        np.minimum.accumulate(V, out=left[1:])
        np.minimum.accumulate((V + ramp)[::-1], out=right[-2::-1])
        return np.minimum(mid, np.minimum(left[n_left], right[n_right] - ramp))

    return step


def _exit_legs(H: Hamiltonian, xs, ts, a):
    """E[i, k] = min over j < k of a[j] + leg(xs[i], ts[k] - ts[j]), inf at k = 0.

    For fixed x the leg cost is convex in its duration, being the perspective
    of the convex L, so the matrix a[j] + leg(x, ts[k] - ts[j]) is Monge and
    each row's leftmost argmin is nondecreasing in k. Rows go coarse to fine
    (divide and conquer): a row scans only the columns between the argmins
    of its nearest rows already solved, O(log len(ts)) scans of the trace per
    node. Nodes go in blocks that keep the temporaries small.
    """
    n = len(ts) - 1
    E = np.full((len(xs), n + 1), np.inf)
    block = max(1, _EXIT_BLOCK // (2 * n + 1))
    for b in range(0, len(xs), block):
        x = xs[b : b + block, None]
        arg = np.zeros((len(x), n + 2), dtype=np.intp)  # sentinel rows 0 and n + 1
        arg[:, -1] = n - 1
        s = 1 << (n.bit_length() - 1)
        while s:
            rows = np.arange(s, n + 1, 2 * s)
            jlo = arg[:, rows - s]
            jhi = np.minimum(arg[:, np.minimum(rows + s, n + 1)], rows - 1)
            jhi = np.maximum(jhi, jlo)  # rounding may break the order near ties
            cnt = (jhi - jlo + 1).ravel()
            start = np.cumsum(cnt) - cnt
            j = np.arange(start[-1] + cnt[-1]) - np.repeat(start - jlo.ravel(), cnt)
            k = np.repeat(np.broadcast_to(rows, jlo.shape).ravel(), cnt)
            vals = a[j] + H.leg_cost(np.repeat(np.broadcast_to(x, jlo.shape).ravel(), cnt),
                                     ts[k] - ts[j])
            best = np.minimum.reduceat(vals, start)
            hit = np.where(vals == np.repeat(best, cnt), np.arange(len(vals)), len(vals))
            arg[:, rows] = j[np.minimum.reduceat(hit, start)].reshape(jlo.shape)  # leftmost
            E[b : b + block, rows] = best.reshape(jlo.shape)
            s >>= 1
    return E


def _dp_domain(model, t, x=0.0):
    """The DP lattice span: 0 and x, widened by 1.05 times the fastest
    characteristic reach over time t on each side."""
    reach_l = max(model.left.dh0, model.right.dh0)
    reach_r = max(-model.left.dhr, -model.right.dhr)
    return (min(0.0, x) - 1.05 * reach_l * t, max(0.0, x) + 1.05 * reach_r * t)


def brute_force_field(model, u0, A, t, lattice=(200, 200), *, domain):
    """DP oracle on the whole lattice: (nodes, times, V), V[i, k] ~ u(nodes[i], times[k]).

    Paths are piecewise linear with vertices at lattice times, positions
    interpolated between lattice abscissae; they change sign only through
    the zero node, where parking costs -integral(A). A path may also end on
    one exact straight exit leg from the zero node: every node x != 0 takes
    the cheaper of its lattice value and min over earlier lattice times t_j
    of V(0, t_j) + leg(x, t - t_j), read from the DP's own junction trace
    (Lax-Hopf with an internal boundary condition), so long exit legs are
    not chained through interpolated steps. First-order accurate: the error
    left is the linear interpolation of the value between abscissae.
    domain must hold x = 0 in its interior. Node x keeps every path whose
    legs move at characteristic speeds where the domain holds
    _dp_domain(model, t, x); nearer the domain's ends paths are
    cut, so values there can lie above u by more than the first-order error.
    """
    nx, nt = lattice
    if nx < 8 or nt < 8:
        raise SolverError("lattice must be at least 8x8")
    if not 0 < t <= A.horizon + 1e-12:  # NaN too
        raise SolverError(f"t = {t} outside (0, {A.horizon}]")
    if not domain[0] < 0.0 < domain[1]:
        raise SolverError(f"DP domain ({domain[0]}, {domain[1]}) must contain x = 0 in its interior")
    Hl, Hr = model.left, model.right
    nodes = sorted_unique(np.concatenate([np.linspace(domain[0], domain[1], nx), [0.0]]))
    iz = int(np.searchsorted(nodes, 0.0))
    ts = np.linspace(0.0, t, nt + 1)
    dt = ts[1] - ts[0]
    V = np.asarray(u0.eval(nodes), dtype=float)
    out = np.empty((len(nodes), nt + 1))
    out[:, 0] = V
    step_l, step_r = _dp_side_step(Hl, nodes[: iz + 1], dt), _dp_side_step(Hr, nodes[iz:], dt)
    cum = A.cumulative(ts)  # parking on [ts[k], ts[k + 1]] costs -(cum[k + 1] - cum[k])
    for k in range(nt):
        vl = step_l(V[: iz + 1])
        vr = step_r(V[iz:])
        new = np.empty_like(V)
        new[:iz] = vl[:-1]
        new[iz + 1 :] = vr[1:]
        new[iz] = min(vl[-1], vr[0], V[iz] - (cum[k + 1] - cum[k]))
        V = new
        out[:, k + 1] = V
    # one exact straight exit leg from the junction node, on the DP's own trace
    out[:iz] = np.minimum(out[:iz], _exit_legs(Hl, nodes[:iz], ts, out[iz]))
    out[iz + 1 :] = np.minimum(out[iz + 1 :], _exit_legs(Hr, nodes[iz + 1 :], ts, out[iz]))
    return nodes, ts, out
