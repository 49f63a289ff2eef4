"""Exact evaluator of the junction Hamilton-Jacobi value function and its field
checks (check_times, gradient_audit); the lattice DP oracle lives in dp_oracle.

The value u^A(x, t) is the infimum of the path cost over two families that
exhaust the minimizers:

  F1  straight legs (y, 0) -> (x, t) staying on one closed side of 0;
  F2  a leg (y, 0) -> (0, a), a stay at the junction on [a, b] paying
      -integral(A, a, b), then a leg (0, b) -> (x, t).

With I the running integral of A, G(a) the cheapest straight approach to
(0, a) and W the exit-leg cost, F2 splits into the junction trace
V0(b) = u(0, b) = min_{a <= b} [G(a) + I(a)] - I(b) and one exit leg,
F2(x, t) = min_b V0(b) + W(x, t - b) (Lax-Hopf with an internal boundary
condition; Claudel and Bayen, IEEE TAC 2010; Mazare et al., Transp. Res. B
2011). G is the envelope of an affine candidate per datum piece and a fan
per datum kink, so G + I is convex on each (candidate, control cell) piece
and V0, built once per Evaluator, is the envelope of few convex segments:
the candidates (a = b) and holds M - I(b) at the levels M reached at piece
minimizers. On an affine segment of slope v the exit slope p solves
H(p) = -v on the branch of the exit direction and b = t - x / H'(p) is
clipped to the segment; on a fan segment approach and exit share one flux
level H(p), where both squared speeds are affine in H(p) on a piece pair and
the stay end solves one monotone equation (JunctionModel.fan_duration). Every
candidate is a true path cost and every minimization is exact, so the value
is the infimum up to rounding. Tie selection reads the exact minimizer
sets of the same pieces: a segment's stay end, which runs on to the
segment's end only where exits at full speed cost a constant (an A = 0
hold), and a piece's stationary point, clipped to the piece.

Every mesh output goes through one walk (_walk) over blocks of mesh rows
(times), each block evaluated once per side of the junction, on its columns
x < 0, x = 0 and x > 0; rows at t = 0 hold the datum. The node-by-lane
kernels (lanes: datum pieces, trace segments, fans or pieces of G + I) put
the lanes on the leading axis, so each minimum or maximum over lanes runs
across whole rows of nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dp_oracle
from ._util import SolverError, sorted_unique, write_csv
from .controls import Control
from .flux_models import Hamiltonian, InitialData, JunctionModel, ModelError

MOST_AT_ZERO = "MostAtZero"
LEAST_AT_ZERO = "LeastAtZero"

TIE_SCALE = 1e-14  # paths within TIE_SCALE (1 + |v|) of the value v tie: rounding only
CONTROL_RANGE_TOL = 1e-9
GRADIENT_TOL_STEPS = 3.0  # gradient_audit's tolerance, in mesh steps times the Lipschitz bound
_BLOCK = 1 << 18  # node-by-lane elements per block of rows in the mesh walk


@dataclass(frozen=True)
class Mesh:
    """Rectangular space-time grid with strictly increasing axes."""

    xs: np.ndarray
    ts: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ts = np.asarray(self.ts, dtype=float)
        if xs.ndim != 1 or ts.ndim != 1 or len(xs) < 1 or len(ts) < 1:
            raise SolverError("mesh axes must be non-empty 1-d arrays")
        if not (np.all(np.diff(xs) > 0) and np.all(np.diff(ts) > 0)):  # NaN too
            raise SolverError("mesh axes must be strictly increasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ts", ts)

    @classmethod
    def regular(cls, xmin, xmax, nx, tmax, nt, tmin=0.0) -> "Mesh":
        return cls(np.linspace(xmin, xmax, nx), np.linspace(tmin, tmax, nt))


@dataclass(frozen=True)
class TrajectoryDescriptor:
    """Minimizing path in reduced form: straight leg or dwell triple (y, a, b)."""

    x: float
    t: float
    kind: str  # "straight" | "dwell"
    y: float
    cost: float
    a: Optional[float] = None
    b: Optional[float] = None

    @property
    def dwells(self) -> bool:
        return self.kind == "dwell"


@dataclass(frozen=True)
class ValueField:
    """u^A sampled on a mesh, u[i, j] = u(xs[i], ts[j])."""

    xs: np.ndarray
    ts: np.ndarray
    u: np.ndarray

    def write_csv(self, path):
        write_csv(path, "x,t,u", *np.meshgrid(self.xs, self.ts), self.u.T)


class Evaluator:
    """Reusable u^A evaluator for one (model, datum, control) triple."""

    def __init__(self, model: JunctionModel, u0: InitialData, A: Control):
        rl, rr = u0.capacities
        if abs(rl - model.left.R) > 1e-12 or abs(rr - model.right.R) > 1e-12:
            raise ModelError("initial datum capacities do not match the model")
        if not A.restricted_values_ok(model.A0, tol=CONTROL_RANGE_TOL):
            raise SolverError(
                f"control values must lie in [{model.A0}, 0]; got {A.values}"
            )
        self.model = model
        self.u0 = u0
        self.A = A
        lo, hi, q, yref, uref = u0.pieces()
        self._pieces = {}
        for side, (s_lo, s_hi) in ((-1, (-np.inf, 0.0)), (1, (0.0, np.inf))):
            keep = np.maximum(lo, s_lo) <= np.minimum(hi, s_hi)
            H = model.left if side < 0 else model.right
            self._pieces[side] = dict(
                lo=np.maximum(lo, s_lo)[keep],
                hi=np.minimum(hi, s_hi)[keep],
                q=q[keep],
                yref=yref[keep],
                uref=uref[keep],
                alpha=np.asarray(H.slope_for_cost_slope(q[keep]), dtype=float),
            )
        self._build_trace()

    # ---- straight family ---------------------------------------------------

    def _side_min(self, side: int, xe, dt, need_y=False):
        """Exact min over y in the side's pieces (the lanes) of leg(xe - y, dt) + u0(y)."""
        P = self._pieces[side]
        H = self.model.left if side < 0 else self.model.right
        xe, dt = np.asarray(xe, dtype=float), np.asarray(dt, dtype=float)
        lanes = (slice(None),) + (None,) * max(xe.ndim, dt.ndim)
        yc = np.clip(xe - dt * P["alpha"][lanes], P["lo"][lanes], P["hi"][lanes])
        vals = H.leg_cost(xe - yc, dt) + P["uref"][lanes] + P["q"][lanes] * (yc - P["yref"][lanes])
        best = np.minimum.reduce(vals, axis=0)
        if not need_y:
            return best, None
        return best, np.take_along_axis(yc, np.argmin(vals, axis=0)[None], axis=0)[0]

    def straight_value(self, x, t, need_y=False):
        """F1: cheapest one-sided straight leg into (x, t); a side that holds
        no node is not priced."""
        x = np.asarray(x, dtype=float)
        vl, yl = self._side_min(-1, x, t, need_y) if (x <= 0).any() else (np.inf, np.nan)
        vr, yr = self._side_min(1, x, t, need_y) if (x >= 0).any() else (np.inf, np.nan)
        vl = np.where(x <= 0, vl, np.inf)
        vr = np.where(x >= 0, vr, np.inf)
        out = np.minimum(vl, vr)
        if not need_y:
            return out, None
        return out, np.where(vl <= vr, yl, yr)

    def approach_cost(self, a, need_y=False):
        """G(a): cheapest straight approach to the junction point (0, a)."""
        a = np.asarray(a, dtype=float)
        return self.straight_value(np.zeros_like(a), a, need_y)

    def exit_cost(self, x, t, b):
        """W(b): exit leg (0, b) -> (x, t), priced on x's side only; for x = 0
        only b = t is admissible."""
        x, s = np.asarray(x, dtype=float), np.asarray(t, dtype=float) - b
        at_zero = np.where(s == 0.0, 0.0, np.inf) if (x == 0).any() else 0.0
        return self.model.own_side(Hamiltonian.leg_cost, x, x, s, at_zero)

    # ---- junction trace ------------------------------------------------------

    def _build_trace(self):
        """The convex pieces of G + I and the segments of the trace V0, once."""
        model, A = self.model, self.A
        T = A.horizon
        aff = set()  # affine approach candidates (d0, d1, c, v): G(a) <= c + v a on [d0, d1]
        fans = {}  # datum kinks (side, e) -> u0(e): G(a) <= u0(e) + leg(-e, a)
        for side, P in self._pieces.items():
            H = model.left if side < 0 else model.right
            for lo, hi, q, yref, uref, al in zip(*P.values()):
                # the interior minimizer y = -a H'(q) stays in the piece for a in [d0, d1];
                # with H'(q) = 0 it sits at y = 0, the piece end handled below
                d0, d1 = sorted((-lo / al, -hi / al)) if al != 0 else (np.inf, -np.inf)
                if max(d0, 0.0) <= min(d1, T):
                    aff.add((max(d0, 0.0), min(d1, T), uref - q * yref, -float(H.value(q))))
                for e in (lo, hi):  # outside it the minimizer sticks to a piece end
                    if e == 0.0:
                        aff.add((0.0, T, 0.0, H.f_max))  # sitting beside the junction
                    elif np.isfinite(e):
                        fans[(side, float(e))] = float(self.u0.eval(e))
        # candidates (d0, d1, c, v, e, side); a fan adds the leg from the kink e on its
        # side (0 for none), on all of [0, T]
        cand = np.array([(*row, 0.0, 0) for row in sorted(aff)]
                        + [(0.0, T, u, 0.0, e, side) for (side, e), u in fans.items()])
        self._fans = bool(fans)

        # G + I on each (candidate, control cell): affine, or convex along a fan
        t0, t1, ak = np.asarray(A.times[:-1]), np.asarray(A.times[1:]), np.asarray(A.values)
        phi = dict(
            lo=np.maximum.outer(cand[:, 0], t0).ravel(),
            hi=np.minimum.outer(cand[:, 1], t1).ravel(),
            c=np.add.outer(cand[:, 2], A.cumulative(t0) - ak * t0).ravel(),
            v=np.add.outer(cand[:, 3], ak).ravel(),
            e=np.repeat(cand[:, 4], len(ak)),
            side=np.repeat(cand[:, 5], len(ak)),
        )
        phi = {k: v[phi["lo"] <= phi["hi"]] for k, v in phi.items()}
        arg = np.where(phi["v"] >= 0, phi["lo"], phi["hi"])
        if self._fans:  # a fan piece is stationary where its leg's flux level H(p) equals A
            with np.errstate(divide="ignore"):
                a = np.abs(phi["e"]) / self.model.speed(phi["side"], phi["v"], True)
            arg = np.where(phi["side"] != 0, np.clip(a, phi["lo"], phi["hi"]), arg)
        phi["arg"] = arg
        self._phi = phi
        mu = self._piece(phi, slice(None), arg)

        # holds: a prefix minimum of G + I only takes levels reached at piece minimizers
        order = np.argsort(arg, kind="stable")
        run = np.minimum.accumulate(mu[order])
        drop = np.concatenate([[True], run[1:] < run[:-1]])
        ra, rm = arg[order][drop], run[drop]
        z = sorted_unique(np.concatenate([ra, A.times]))
        z = z[z >= ra[0]]
        zl, zh = (z, z) if len(z) == 1 else (z[:-1], z[1:])
        j = np.searchsorted(ra, zl, side="right") - 1
        k = np.clip(np.searchsorted(A.times, zl, side="right") - 1, 0, len(ak) - 1)

        # trace segments: the candidates themselves (approach and leave at once), then holds
        seg = dict(
            lo=np.concatenate([cand[:, 0], zl]),
            hi=np.concatenate([cand[:, 1], zh]),
            c=np.concatenate([cand[:, 2], rm[j] - A.cumulative(zl) + ak[k] * zl]),
            v=np.concatenate([cand[:, 3], -ak[k]]),
            e=np.concatenate([cand[:, 4], np.zeros(len(zl))]),
            side=np.concatenate([cand[:, 5], np.zeros(len(zl))]),
            a=np.concatenate([np.full(len(cand), np.nan), ra[j]]),  # dwell start; nan: a = b
        )
        with np.errstate(divide="ignore"):  # exit slope p with H(p) = -v, as 1 / |H'(p)|
            seg["lag"] = [1.0 / self.model.speed(side, -seg["v"], False) for side in (-1, 1)]
        self._seg = seg

    def _piece(self, tab, idx, z):
        """Value at z of the pieces idx of a table: c + v z, plus the kink-fan leg."""
        out = tab["c"][idx] + tab["v"][idx] * z
        if not self._fans:
            return out
        return out + self.model.own_side(Hamiltonian.leg_cost, tab["side"][idx], -tab["e"][idx], z)

    def _fan_ends(self, x, t):
        """Stay ends on the fan segments, shaped (fans, *nodes): the approach
        from the kink, which starts at time 0, takes b (JunctionModel.fan_duration)."""
        S, fan = self._seg, self._seg["side"] != 0
        lanes = (fan,) + (None,) * max(np.ndim(x), np.ndim(t))
        return self.model.fan_duration(S["side"][lanes], np.abs(S["e"])[lanes], x, t)

    # ---- dwell family --------------------------------------------------------

    def _stay_ends(self, x, t):
        """Cheapest stay end b per trace segment and node, and its path cost,
        shaped (segments, *nodes): the segments lead, the nodes being the
        broadcast (x, t).

        On an affine segment of slope v the exit is stationary where its slope
        p solves H(p) = -v on the branch of the exit direction, so
        b = t - |x| / |H'(p)|, clipped to the segment. Segments that start
        after t cost inf.
        """
        S = self._seg
        lanes = (slice(None),) + (None,) * max(np.ndim(x), np.ndim(t))
        with np.errstate(invalid="ignore"):  # x is not broadcast against t: s keeps x's size
            s = np.where(x == 0, 0.0, np.abs(x) * np.where(x < 0, *(g[lanes] for g in S["lag"])))
        b = np.clip(t - s, S["lo"][lanes], np.minimum(S["hi"][lanes], t))
        if self._fans:
            b[S["side"] != 0] = self._fan_ends(x, t)
        cost = self._piece(S, lanes, b) + self.exit_cost(x, t, b)
        return b, np.where(S["lo"][lanes] <= t, cost, np.inf)

    def dwell_batch(self, x, t):
        """min over 0 <= a <= b <= t of the dwell-path cost at the broadcast nodes (x, t)."""
        return np.minimum.reduce(self._stay_ends(x, t)[1], axis=0)

    def _dwell_start(self, a):
        """Dwell starts a, first-leg starts y and approach costs G(a); a dwell that
        is entered from y = 0 hovers at the junction and snaps to a = 0."""
        g, y = self.approach_cost(a, need_y=True)
        snap = (a <= 0.0) | (np.abs(y) <= 1e-12)
        return np.where(snap, 0.0, a), np.where(snap, 0.0, y), np.where(snap, 0.0, g)

    # ---- trajectory selection ----------------------------------------------------

    def selection(self, x, t, select: str):
        """The selected path into each node of the broadcast (x, t), t > 0, under the tie rule.

        A path ties when it costs the value v within TIE_SCALE (1 + |v|),
        which only absorbs rounding. Among tied paths the dwell end b is
        maximized first; MostAtZero then minimizes the dwell start a and
        prefers dwelling over a tied straight line, LeastAtZero maximizes a
        and prefers a tied straight line. Each pick reads exact minimizer
        sets: b is the latest stay end of the tied trace segments, the one
        _stay_ends prices, or the segment's end where the stay-end cost is
        flat; a is the earliest or latest minimizer of the tied pieces of
        G + I below b, each piece's stationary point clipped into it. So the
        dwell measures of the two selections are the one-sided derivatives
        of the value in A (Danskin). Only the nodes where the selector
        dwells pick a and b. A node's result does not depend on the other
        nodes. The nodes are a block of grid rows or scattered points; the
        results are flat per-node arrays in the broadcast's C order:
        (is_dwell, a, b, value), a and b NaN on straight paths, then the
        selected path's first-leg start y and cost. The segment-by-node and
        piece-by-node arrays hold the lanes on axis 0 and are reduced there;
        the index of the latest tied segment is searched only at nodes where
        no piece of G + I ties, whose a falls back on that segment's own start.
        """
        if select not in (MOST_AT_ZERO, LEAST_AT_ZERO):
            raise SolverError(f"unknown selector {select!r}")
        x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
        x, t = x.ravel(), t.ravel()
        f1, y1 = self.straight_value(x, t, need_y=True)
        b, cost = self._stay_ends(x, t)
        vd = np.minimum.reduce(cost, axis=0)
        v = np.minimum(f1, vd)
        thresh = v + TIE_SCALE * (1.0 + np.abs(v))
        most = select == MOST_AT_ZERO
        use_dwell = vd <= thresh if most else f1 > thresh
        a_out, b_out = np.full(len(x), np.nan), np.full(len(x), np.nan)
        k = np.flatnonzero(use_dwell)  # straight nodes keep (nan, nan, y1, f1)
        if not k.size:
            return use_dwell, a_out, b_out, v, y1, f1
        S, P, lanes = self._seg, self._phi, (slice(None), None)
        x, t, thresh = x[k], t[k], thresh[k]
        # b: the latest stay end of the tied segments; on an affine segment of slope 0
        # off the fans (an A = 0 hold) exits at full speed cost a constant, so its stay
        # ends run on to the segment's end, before t where exits take time
        end = np.minimum(S["hi"][lanes], np.where(x == 0, t, np.nextafter(t, -np.inf)))
        flat = ((S["v"] == 0) & (S["side"] == 0))[lanes]
        ends = np.where(cost[:, k] <= thresh, np.where(flat, end, b[:, k]), -np.inf)
        del b, cost  # segment-by-node arrays of every node
        b_sel = np.maximum.reduce(ends, axis=0)
        # a: the extreme minimizer of the tied pieces of G + I on [lo, min(hi, b)]
        psi = self.exit_cost(x, t, b_sel) - self.A.cumulative(b_sel)
        good = np.clip(P["arg"][lanes], P["lo"][lanes], np.minimum(P["hi"][lanes], b_sel))
        tied = (P["lo"][lanes] <= b_sel) & (self._piece(P, lanes, good) <= thresh - psi)
        a_sel = (np.minimum.reduce(np.where(tied, good, np.inf), axis=0) if most
                 else np.maximum.reduce(np.where(tied, good, -np.inf), axis=0))
        fb = np.flatnonzero(~np.isfinite(a_sel))  # no piece ties: the start of the segment's own path
        if fb.size:
            j = np.argmax(ends[:, fb], axis=0)
            a_sel[fb] = np.fmin(S["a"][j], b_sel[fb])
        a_sel, y, g = self._dwell_start(a_sel)
        a_out[k], b_out[k], y1[k], f1[k] = a_sel, b_sel, y, g + self.A.cumulative(a_sel) + psi
        return use_dwell, a_out, b_out, v, y1, f1


# ---- module-level operations -------------------------------------------------


def _selected(model, u0, A, x, t, select: str):
    """u^A(x, t) and the descriptor of the path select picks, from one selection."""
    x, t = float(x), float(t)
    if not 0.0 < t <= A.horizon + 1e-12:
        raise SolverError(f"t = {t} outside (0, {A.horizon}]")
    dwells, a, b, v, y, cost = (float(r[0]) for r in Evaluator(model, u0, A).selection(x, t, select))
    if dwells:
        return v, TrajectoryDescriptor(x, t, "dwell", y, cost, a, b)
    return v, TrajectoryDescriptor(x, t, "straight", y, cost)


def value(model, u0, A, x, t):
    """u^A(x, t) and the MostAtZero descriptor, as optimal_trajectory selects it."""
    return _selected(model, u0, A, x, t, MOST_AT_ZERO)


def check_times(ts, A: Control):
    """Reject times past the control horizon or before 0."""
    if ts.size and ts.max() > A.horizon + 1e-12:
        raise SolverError(f"t = {ts.max()} beyond the control horizon {A.horizon}")
    if ts.size and not ts.min() >= 0.0:  # NaN too
        raise SolverError(f"times must be nonnegative, got {ts.min()}")


def _walk(ev: Evaluator, xs, ts, select=None):
    """The value u (select None) or selection's (is_dwell, a, b, value) at the
    nodes (xs[i], ts[j]), 0 <= ts[j] <= T, as (len(xs), len(ts)) arrays. Each
    block of rows holds about _BLOCK node-by-lane elements, the lanes being
    the wider of the trace segments and the pieces of G + I. It goes to the
    Evaluator as broadcast (x, t) once per side of the junction that holds
    columns: x < 0, x = 0 and x > 0, so that every exit leg is priced by one
    Hamiltonian and the straight family by the sides that hold nodes."""
    check_times(ts, ev.A)
    fill = (np.nan,) if select is None else (False, np.nan, np.nan, np.nan)
    outs = [np.full((len(xs), len(ts)), f) for f in fill]
    live = np.flatnonzero(ts)
    if len(live) < len(ts):  # rows at t = 0 hold the datum
        outs[-1][:, ts == 0.0] = np.asarray(ev.u0.eval(xs), dtype=float)[:, None]
    step = max(1, _BLOCK // (len(xs) * max(len(ev._seg["lo"]), len(ev._phi["lo"]))))
    zl, zr = np.searchsorted(xs, 0.0, side="left"), np.searchsorted(xs, 0.0, side="right")
    sides = [c for c in (slice(0, zl), slice(zl, zr), slice(zr, len(xs))) if c.start < c.stop]
    for lo in range(0, len(live), step):
        r = live[lo : lo + step]
        t = ts[r, None]
        for c in sides:
            x = xs[None, c]
            if select is None:
                res = (np.minimum(ev.straight_value(x, t)[0], ev.dwell_batch(x, t)),)
            else:
                res = ev.selection(x, t, select)
            for out, v in zip(outs, res):
                out[c, r] = v.reshape(len(r), -1).T
    return outs


def value_grid(model, u0, A, mesh: Mesh) -> ValueField:
    """u^A on the mesh."""
    (u,) = _walk(Evaluator(model, u0, A), mesh.xs, mesh.ts)
    return ValueField(mesh.xs, mesh.ts, u)


def optimal_trajectory(model, u0, A, x, t, select: str) -> TrajectoryDescriptor:
    """Best descriptor under the MostAtZero / LeastAtZero tie rule."""
    return _selected(model, u0, A, x, t, select)[1]


def trajectory_field(model, u0, A, mesh: Mesh, select: str):
    """Descriptor data for every mesh node: (is_dwell, a, b, value) arrays."""
    out = _walk(Evaluator(model, u0, A), mesh.xs, mesh.ts, select)
    return dict(zip(("is_dwell", "a", "b", "value"), out))


# the DP oracle's name here, under which the benchmark's tracer and workloads and the tests import it
brute_force_field = dp_oracle.brute_force_field


def junction_values(model, u0, A, ts):
    """u^A(0, t) for each requested time in [0, T] (direct evaluation, no extrapolation)."""
    return _walk(Evaluator(model, u0, A), np.zeros(1), np.asarray(ts, dtype=float))[0][0]


def gradient_audit(field: ValueField, model: JunctionModel):
    """Check the discrete gradient bounds u_x in [-R, 0], u_t in [0, f_max].

    Difference quotients of the exact value satisfy the bounds with no
    slack; the tolerance only absorbs solver error. Quotient pairs that
    straddle x = 0 use the weaker of the two side bounds.
    """
    xs, ts, u = field.xs, field.ts, field.u
    L, R = model.left, model.right
    lip = max(L.R, R.R, L.f_max, R.f_max)
    r = np.where(xs[1:] <= 0, L.R, np.where(xs[:-1] >= 0, R.R, max(L.R, R.R)))[:, None]
    fmax = np.where(xs < 0, L.f_max, np.where(xs > 0, R.f_max, max(L.f_max, R.f_max)))[:, None]
    report = dict(max_violation_x=0.0, max_violation_t=0.0, tol_x=0.0, tol_t=0.0)
    # u_x in [-R, 0] per column pair, u_t in [0, f_max] per column
    for axis, key, grid, lo, hi in ((0, "x", xs, -r, 0.0), (1, "t", ts, 0.0, fmax)):
        if len(grid) > 1:
            q = np.diff(u, axis=axis) / np.expand_dims(np.diff(grid), 1 - axis)
            tol = GRADIENT_TOL_STEPS * float(np.max(np.diff(grid))) * lip
            report[f"max_violation_{key}"] = float(max(0.0, np.maximum(q - hi - tol, lo - q - tol).max()))
            report[f"tol_{key}"] = tol
    report["ok"] = report["max_violation_x"] <= 0.0 and report["max_violation_t"] <= 0.0
    return report
