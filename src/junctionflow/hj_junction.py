"""Junction Hamilton-Jacobi value function via straight / dwell path families.

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
level H(p), bisected until its bracket is one ulp wide. Every candidate is
a true path cost and every minimization is exact, so the value is the
infimum up to rounding. Tie selection reads its band edges from the same
segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .controls import Control
from .flux_models import Hamiltonian, InitialData, JunctionModel, ModelError

MOST_AT_ZERO = "MostAtZero"
LEAST_AT_ZERO = "LeastAtZero"

TIE_SCALE = 1e-8
CONTROL_RANGE_TOL = 1e-9
_BLOCK = 1 << 18  # node-by-segment elements per block of rows in dwell_batch
_SELECT_BLOCK = 1 << 14  # node-by-piece elements per block of nodes in trajectory_field


class SolverError(ValueError):
    """Evaluation outside the contract (bad times, meshes, controls)."""


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
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ts) <= 0):
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

    def recompute_cost(self, model: JunctionModel, u0: InitialData, A: Control) -> float:
        """Re-assemble the path cost from its parts."""
        if self.kind == "straight":
            H = model.side(self.y if self.x == 0 else self.x)
            return float(H.leg_cost(self.x - self.y, self.t) + u0.eval(self.y))
        first = 0.0 if self.a == 0 else float(
            model.side(self.y).leg_cost(-self.y, self.a) + u0.eval(self.y)
        )
        stay = -(A.cumulative(self.b) - A.cumulative(self.a))
        last = 0.0 if self.b == self.t else float(
            model.side(self.x).leg_cost(self.x, self.t - self.b)
        )
        return first + stay + last


@dataclass(frozen=True)
class ValueField:
    """u^A sampled on a mesh, u[i, j] = u(xs[i], ts[j])."""

    xs: np.ndarray
    ts: np.ndarray
    u: np.ndarray
    control_id: str = ""
    model_id: str = ""

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("x,t,u\n")
            for j, t in enumerate(self.ts):
                for i, x in enumerate(self.xs):
                    fh.write(f"{x:.17g},{t:.17g},{self.u[i, j]:.17g}\n")


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
        """Exact min over y in the side's pieces of leg(xe - y, dt) + u0(y)."""
        P = self._pieces[side]
        H = self.model.left if side < 0 else self.model.right
        xe_b, dt_b = np.broadcast_arrays(
            np.asarray(xe, dtype=float), np.asarray(dt, dtype=float)
        )
        shape = xe_b.shape
        xe_f = xe_b.reshape(-1)
        dt_f = dt_b.reshape(-1)
        y = xe_f[None, :] - dt_f[None, :] * P["alpha"][:, None]
        yc = np.clip(y, P["lo"][:, None], P["hi"][:, None])
        vals = (
            H.leg_cost(xe_f[None, :] - yc, dt_f[None, :])
            + P["uref"][:, None]
            + P["q"][:, None] * (yc - P["yref"][:, None])
        )
        best = np.min(vals, axis=0)
        if not need_y:
            return best.reshape(shape), None
        ybest = yc[np.argmin(vals, axis=0), np.arange(vals.shape[1])]
        return best.reshape(shape), ybest.reshape(shape)

    def straight_value(self, x, t, need_y=False):
        """F1: cheapest one-sided straight leg into (x, t)."""
        x = np.asarray(x, dtype=float)
        vl, yl = self._side_min(-1, x, t, need_y)
        vr, yr = self._side_min(1, x, t, need_y)
        x_b = np.broadcast_arrays(x, np.asarray(t, dtype=float))[0]
        vl = np.where(x_b <= 0, vl, np.inf)
        vr = np.where(x_b >= 0, vr, np.inf)
        out = np.minimum(vl, vr)
        if not need_y:
            return out, None
        return out, np.where(vl <= vr, yl, yr)

    def approach_cost(self, a, need_y=False):
        """G(a): cheapest straight approach to the junction point (0, a)."""
        a = np.asarray(a, dtype=float)
        return self.straight_value(np.zeros_like(a), a, need_y)

    def exit_cost(self, x, t, b):
        """W(b): exit leg (0, b) -> (x, t); for x = 0 only b = t is admissible."""
        x, t, b = np.broadcast_arrays(
            np.asarray(x, dtype=float), np.asarray(t, dtype=float), np.asarray(b, dtype=float)
        )
        s = t - b
        wl = self.model.left.leg_cost(x, s)
        wr = self.model.right.leg_cost(x, s)
        w = np.where(x < 0, wl, wr)
        return np.where(x == 0, np.where(s == 0.0, 0.0, np.inf), w)

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
                a = np.abs(phi["e"]) / self._speed(phi["side"], phi["v"], True)
            arg = np.where(phi["side"] != 0, np.clip(a, phi["lo"], phi["hi"]), arg)
        phi["arg"] = arg
        self._phi = phi
        mu = self._piece(phi, slice(None), arg)

        # holds: a prefix minimum of G + I only takes levels reached at piece minimizers
        order = np.argsort(arg, kind="stable")
        run = np.minimum.accumulate(mu[order])
        drop = np.concatenate([[True], run[1:] < run[:-1]])
        ra, rm = arg[order][drop], run[drop]
        z = np.unique(np.concatenate([ra, A.times]))
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
            seg["lag"] = [1.0 / self._speed(side, -seg["v"], False) for side in (-1, 1)]
        self._seg = seg

    def _piece(self, tab, idx, z):
        """Value at z of the pieces idx of a table: c + v z, plus the kink-fan leg."""
        out = tab["c"][idx] + tab["v"][idx] * z
        if not self._fans:
            return out
        e, side = tab["e"][idx], tab["side"][idx]
        leg = np.where(side < 0, self.model.left.leg_cost(-e, z), self.model.right.leg_cost(-e, z))
        return out + np.where(side != 0, leg, 0.0)

    def _speed(self, side, h, inward):
        """|H'(p)| of a leg on the given side at flux level H(p) = h, moving toward
        the junction (inward) or away from it."""
        d = 1 if inward else -1
        return np.where(np.asarray(side) < 0, self.model.left.level_speed(h, d),
                        self.model.right.level_speed(h, -d))

    def _fan_ends(self, x, t):
        """Stay ends on the fan segments: approach and exit legs share a flux level h
        at the optimum, and their durations, falling in h, add up to t there."""
        L, R, fan = self.model.left, self.model.right, self._seg["side"] != 0
        e, side = np.abs(self._seg["e"][fan]), self._seg["side"][fan]
        h_lo = np.maximum(np.where(side < 0, L.h_min, R.h_min), np.where(x < 0, L.h_min, R.h_min))
        shape = np.broadcast_shapes(np.shape(x), np.shape(t), e.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            exit_time = lambda h: np.where(x == 0, 0.0, np.abs(x) / self._speed(x, h, False))
            h = _bisect(lambda h: e / self._speed(side, h, True) + exit_time(h) >= t,
                        np.broadcast_to(h_lo, shape), np.zeros(shape))
            return np.clip(t - exit_time(h), 0.0, t)

    # ---- dwell family --------------------------------------------------------

    def _stay_ends(self, x, t):
        """Cheapest stay end b per node and trace segment (last axis), and its path cost.

        On an affine segment of slope v the exit is stationary where its slope
        p solves H(p) = -v on the branch of the exit direction, so
        b = t - |x| / |H'(p)|, clipped to the segment. Segments that start
        after t cost inf.
        """
        S = self._seg
        with np.errstate(invalid="ignore"):
            s = np.where(x == 0, 0.0, np.abs(x) * np.where(x < 0, *S["lag"]))
        b = np.clip(t - s, S["lo"], np.minimum(S["hi"], t))
        if self._fans:
            b[..., S["side"] != 0] = self._fan_ends(x, t)
        cost = self._piece(S, slice(None), b) + self.exit_cost(x, t, b)
        return b, np.where(S["lo"] <= t, cost, np.inf)

    def dwell_batch(self, xs, ts):
        """min over 0 <= a <= b <= t of the dwell-path cost, shaped (Nr, Nx).

        All rows share the x axis. Rows go in blocks that keep the
        node-by-segment arrays small.
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.empty((len(ts), len(xs)))
        step = max(1, _BLOCK // (len(xs) * len(self._seg["lo"])))
        for r in range(0, len(ts), step):
            _, cost = self._stay_ends(xs[None, :, None], ts[r : r + step, None, None])
            out[r : r + step] = cost.min(axis=2)
        return out

    # ---- values ----------------------------------------------------------------

    def value(self, x: float, t: float):
        """u^A(x, t) along with an achieving descriptor."""
        self._check_time(t)
        x, t = float(x), float(t)
        f1, y1 = (float(v[0]) for v in self.straight_value(np.array([x]), t, need_y=True))
        b, cost = (v[0] for v in self._stay_ends(np.array([[x]]), t))
        j = int(np.argmin(cost))
        vd, b = float(cost[j]), float(b[j])
        if vd >= f1:
            return f1, TrajectoryDescriptor(x, t, "straight", y1, f1)
        a, y, _ = (float(v[0]) for v in self._dwell_start(np.fmin(self._seg["a"][[j]], b)))
        return vd, TrajectoryDescriptor(x, t, "dwell", y, vd, a, b)

    def _dwell_start(self, a):
        """Dwell starts a, first-leg starts y and approach costs G(a); a dwell that
        is entered from y = 0 hovers at the junction and snaps to a = 0."""
        g, y = self.approach_cost(a, need_y=True)
        snap = (a <= 0.0) | (np.abs(y) <= 1e-12)
        return np.where(snap, 0.0, a), np.where(snap, 0.0, y), np.where(snap, 0.0, g)

    def _check_time(self, t):
        if np.min(t) <= 0.0:
            raise SolverError(f"t must be positive, got {np.min(t)}")
        if np.max(t) > self.A.horizon + 1e-12:
            raise SolverError(f"t = {np.max(t)} beyond the control horizon {self.A.horizon}")

    # ---- trajectory selection ----------------------------------------------------

    def selection(self, x, t, select: str):
        """The selected path into each node (x[i], t[i]) under the documented tie rule.

        Among paths within the tie band the dwell end b is maximized first;
        MostAtZero then minimizes the dwell start a and prefers dwelling over
        a tied straight line, LeastAtZero maximizes a and prefers a tied
        straight line. The b-edge is the furthest end of the band over the
        trace segments, the a-edge the extreme end of {G + I <= budget} over
        the pieces of G + I. Returns per-node arrays (is_dwell, a, b, value),
        a and b NaN on straight paths, then the selected path's first-leg
        start y and cost.
        """
        if select not in (MOST_AT_ZERO, LEAST_AT_ZERO):
            raise SolverError(f"unknown selector {select!r}")
        x, t = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, t))
        self._check_time(t)
        f1, y1 = self.straight_value(x, t, need_y=True)
        b, cost = self._stay_ends(x[:, None], t[:, None])
        vd = cost.min(axis=1)
        v = np.minimum(f1, vd)
        thresh = v + TIE_SCALE * (1.0 + np.abs(v))
        most = select == MOST_AT_ZERO
        use_dwell = vd <= thresh if most else f1 > thresh

        S, P = self._seg, self._phi
        end = np.minimum(S["hi"], t[:, None]) + np.zeros_like(b)
        end = np.where((x[:, None] != 0) & (end >= t[:, None]),  # exits take time
                       np.nextafter(t, -np.inf)[:, None], end)
        edges = _edges(lambda i, j, z: (S["lo"][j] <= z)
                       & (self._piece(S, j, z) + self.exit_cost(x[i], t[i], z) <= thresh[i]),
                       b, end, -np.inf)
        j, b_sel = np.argmax(edges, axis=1), np.max(edges, axis=1)
        b_sel = np.where(np.isfinite(b_sel), b_sel, t)  # no dwell path in the band
        psi = self.exit_cost(x, t, b_sel) - self.A.cumulative(b_sel)
        hi = np.minimum(P["hi"], b_sel[:, None])
        ends = _edges(lambda i, j, z: (P["lo"][j] <= z) & (z <= b_sel[i])
                      & (self._piece(P, j, z) <= thresh[i] - psi[i]),
                      np.clip(P["arg"], P["lo"], hi), P["lo"] + 0.0 * hi if most else hi,
                      np.inf if most else -np.inf)
        a_sel = ends.min(axis=1) if most else ends.max(axis=1)
        a_fb = np.fmin(S["a"][j], b_sel)  # the start of the segment's own path
        a_sel, y, g = self._dwell_start(np.where(np.isfinite(a_sel), a_sel, a_fb))
        cost_sel = g + self.A.cumulative(a_sel) + psi
        return (use_dwell, np.where(use_dwell, a_sel, np.nan), np.where(use_dwell, b_sel, np.nan),
                v, np.where(use_dwell, y, y1), np.where(use_dwell, cost_sel, f1))


def _bisect(ok, good, bad):
    """The good-side end of the bracket [good, bad] around the switch of ok.

    ok holds at good, fails at bad and switches once between them. The
    bracket halves until it is one ulp of its starting magnitude wide.
    """
    good, bad = np.array(good, dtype=float), np.array(bad, dtype=float)
    res = np.spacing(np.maximum(np.abs(good), np.abs(bad)))
    while True:
        live = np.abs(bad - good) > res
        if not live.any():
            return good
        mid = 0.5 * (good + bad)
        hit = ok(mid)
        good = np.where(live & hit, mid, good)
        bad = np.where(live & ~hit, mid, bad)


def _edges(ok, good, end, fill):
    """Per (node, piece): the end of {ok} reaching toward end on a convex piece.

    ok(i, j, z) tests point z of piece j for node i. Where ok holds at end
    that is the edge; where it holds only at good (the piece minimizer) the
    edge is bisected between them; elsewhere it is fill.
    """
    i, j = np.indices(good.shape)
    at_end = ok(i, j, end)
    at_good = ok(i, j, good)
    edge = np.where(at_end, end, np.where(at_good, good, fill))
    inner = at_good & ~at_end
    if inner.any():
        ii, jj = i[inner], j[inner]
        edge[inner] = _bisect(lambda z: ok(ii, jj, z), good[inner], end[inner])
    return edge


# ---- module-level operations -------------------------------------------------


def value(model, u0, A, x, t):
    """u^A(x, t) and a best descriptor (straight or dwell)."""
    ev = Evaluator(model, u0, A)
    return ev.value(x, t)


def _grid_block(ev: Evaluator, xs, ts_block):
    out = np.empty((len(xs), len(ts_block)))
    pos = ts_block > 0
    if np.any(pos):
        ts = ts_block[pos]
        f1, _ = ev.straight_value(xs[None, :], ts[:, None])
        out[:, pos] = np.minimum(f1, ev.dwell_batch(xs, ts)).T
    if np.any(~pos):
        out[:, ~pos] = np.asarray(ev.u0.eval(xs), dtype=float)[:, None]
    return out


def _check_mesh(mesh: Mesh, A: Control):
    if mesh.ts[-1] > A.horizon + 1e-12:
        raise SolverError("mesh extends beyond the control horizon")
    if mesh.ts[0] < 0:
        raise SolverError("mesh times must be nonnegative")


def value_grid(model, u0, A, mesh: Mesh) -> ValueField:
    """u^A on the mesh."""
    ev = Evaluator(model, u0, A)
    _check_mesh(mesh, A)
    u = _grid_block(ev, mesh.xs, mesh.ts)
    return ValueField(mesh.xs, mesh.ts, u, control_id=A.ident(), model_id=model.ident())


def optimal_trajectory(model, u0, A, x, t, select: str) -> TrajectoryDescriptor:
    """Best descriptor under the MostAtZero / LeastAtZero tie rule."""
    x, t = float(x), float(t)
    dwells, a, b, _, y, cost = (v[0] for v in Evaluator(model, u0, A).selection(x, t, select))
    if dwells:
        return TrajectoryDescriptor(x, t, "dwell", float(y), float(cost), float(a), float(b))
    return TrajectoryDescriptor(x, t, "straight", float(y), float(cost))


def trajectory_field(model, u0, A, mesh: Mesh, select: str):
    """Descriptor data for every mesh node: (is_dwell, a, b, value) arrays.

    The nodes go in blocks that keep the node-by-piece arrays small; a
    node's result does not depend on its block.
    """
    ev = Evaluator(model, u0, A)
    _check_mesh(mesh, A)
    X, T = (g.ravel() for g in np.meshgrid(mesh.xs, mesh.ts, indexing="ij"))
    out = dict(is_dwell=np.zeros(X.size, dtype=bool), a=np.full(X.size, np.nan),
               b=np.full(X.size, np.nan), value=np.asarray(u0.eval(X), dtype=float))
    live = np.flatnonzero(T > 0)  # t = 0 holds the datum
    step = max(1, _SELECT_BLOCK // max(len(ev._seg["lo"]), len(ev._phi["lo"])))
    for lo in range(0, len(live), step):
        k = live[lo : lo + step]
        for key, v in zip(out, ev.selection(X[k], T[k], select)):
            out[key][k] = v
    return {key: v.reshape(len(mesh.xs), len(mesh.ts)) for key, v in out.items()}


def _dp_side_step(H: Hamiltonian, nodes, V, targets, dt):
    """One backward step restricted to one side: min over piecewise-linear V.

    The step value is min_y [V~(y) + leg(target - y, dt)] with V~ the linear
    interpolant of V between the side's nodes; the per-cell minimum is exact
    because the objective is convex in y on each cell.
    """
    lo, hi = nodes[:-1], nodes[1:]
    vlo = V[:-1]
    m = np.diff(V) / np.diff(nodes)
    alpha = np.asarray(H.slope_for_cost_slope(np.clip(m, -H.R, 0.0)), dtype=float)
    y = targets[None, :] - dt * alpha[:, None]
    yc = np.clip(y, lo[:, None], hi[:, None])
    cand = (
        vlo[:, None]
        + m[:, None] * (yc - lo[:, None])
        + H.leg_cost(targets[None, :] - yc, dt)
    )
    return np.min(cand, axis=0)


def brute_force_field(model, u0, A, t, lattice=(200, 200), domain=None, pad=1.05):
    """DP oracle on the whole lattice: (nodes, times, V), V[i, k] ~ u(nodes[i], times[k]).

    Paths are piecewise linear with vertices at lattice times, positions
    interpolated between lattice abscissae; they change sign only through
    the zero node, where parking costs -integral(A). First-order accurate.
    """
    nx, nt = lattice
    if nx < 8 or nt < 8:
        raise SolverError("lattice must be at least 8x8")
    if t <= 0 or t > A.horizon + 1e-12:
        raise SolverError(f"t = {t} outside (0, {A.horizon}]")
    Hl, Hr = model.left, model.right
    reach_l = max(Hl.dh0, Hr.dh0)
    reach_r = max(-Hl.dhr, -Hr.dhr)
    if domain is None:
        domain = (-pad * reach_l * t, pad * reach_r * t)
    nodes = np.unique(np.concatenate([np.linspace(domain[0], domain[1], nx), [0.0]]))
    iz = int(np.searchsorted(nodes, 0.0))
    ts = np.linspace(0.0, t, nt + 1)
    dt = ts[1] - ts[0]
    V = np.asarray(u0.eval(nodes), dtype=float)
    out = np.empty((len(nodes), nt + 1))
    out[:, 0] = V
    left, right = nodes[: iz + 1], nodes[iz:]
    for k in range(nt):
        park = -(A.cumulative(ts[k + 1]) - A.cumulative(ts[k]))
        vl = _dp_side_step(Hl, left, V[: iz + 1], left, dt)
        vr = _dp_side_step(Hr, right, V[iz:], right, dt)
        new = np.empty_like(V)
        new[:iz] = vl[:-1]
        new[iz + 1 :] = vr[1:]
        new[iz] = min(vl[-1], vr[0], V[iz] + park)
        V = new
        out[:, k + 1] = V
    return nodes, ts, out


def brute_force_value(model, u0, A, x, t, lattice=(200, 200)) -> float:
    """Independent lattice-path oracle for a single point; see brute_force_field."""
    Hl, Hr = model.left, model.right
    reach_l = max(Hl.dh0, Hr.dh0)
    reach_r = max(-Hl.dhr, -Hr.dhr)
    domain = (min(0.0, x) - 1.05 * reach_l * t, max(0.0, x) + 1.05 * reach_r * t)
    nodes, _, V = brute_force_field(model, u0, A, t, lattice, domain=domain)
    return float(np.interp(float(x), nodes, V[:, -1]))


def junction_values(model, u0, A, ts):
    """u^A(0, t) for each requested time (direct evaluation, no extrapolation)."""
    return _grid_block(Evaluator(model, u0, A), np.array([0.0]), np.asarray(ts, dtype=float))[0]


def gradient_audit(field: ValueField, model: JunctionModel, tol_factor: float = 3.0):
    """Check the discrete gradient bounds u_x in [-R, 0], u_t in [0, f_max].

    Difference quotients of the exact value satisfy the bounds with no
    slack; the tolerance only absorbs solver error. Quotient pairs that
    straddle x = 0 use the weaker of the two side bounds.
    """
    xs, ts, u = field.xs, field.ts, field.u
    lip = max(model.left.R, model.right.R, model.left.f_max, model.right.f_max)
    report = dict(max_violation_x=0.0, max_violation_t=0.0, tol_x=0.0, tol_t=0.0)
    if len(xs) > 1:
        dx = np.diff(xs)[:, None]
        qx = np.diff(u, axis=0) / dx
        tol = tol_factor * float(np.max(np.diff(xs))) * lip
        r_of = np.where(
            xs[1:] <= 0,
            model.left.R,
            np.where(xs[:-1] >= 0, model.right.R, max(model.left.R, model.right.R)),
        )[:, None]
        viol = np.maximum(qx - tol, -(qx + r_of) - tol)
        report["max_violation_x"] = float(max(0.0, viol.max()))
        report["tol_x"] = tol
    if len(ts) > 1:
        dt = np.diff(ts)[None, :]
        qt = np.diff(u, axis=1) / dt
        tol = tol_factor * float(np.max(np.diff(ts))) * lip
        fmax = np.where(
            xs < 0,
            model.left.f_max,
            np.where(xs > 0, model.right.f_max, max(model.left.f_max, model.right.f_max)),
        )[:, None]
        viol = np.maximum(qt - fmax - tol, -qt - tol)
        report["max_violation_t"] = float(max(0.0, viol.max()))
        report["tol_t"] = tol
    report["ok"] = report["max_violation_x"] <= 0.0 and report["max_violation_t"] <= 0.0
    return report
