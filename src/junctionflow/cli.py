"""Experiment runner: config parsing, named commands, reproducible outputs.

Commands (exit codes 0 ok / 1 audit failure / 2 config error, which
includes an entry of the wrong TOML type):

  solve              u.csv, rho_hj.csv, trace.csv (t,u: the exact u(0, t) at
                     the mesh times), summary.json
  cost               cost_report.json
  optimize           result.json, history.csv
  audit              audit.json, components.json
  crosscheck         crosscheck.json, rho_cl.csv, rho_hj.csv
  reproduce-prop511  canonical box-flux experiment: conditions, three control
                     costs, bang-bang optimization, optimality audit,
                     report.json

Every command runs in one process. --workers N and [run] workers are still
accepted and validated (a positive integer), but change nothing.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
import tomllib
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import _toml
from ._util import write_csv
from .cl_oracle import DensityField, cross_check, density_from_value_field, make_grid
from .controls import Control
from .flux_models import Hamiltonian, InitialData, JunctionModel
from .functionals import BoxWeight, CostSpec, Problem, cost_report, make_box_weight
from .hj_junction import Mesh, SolverError, gradient_audit, junction_values, value_grid
from .optimality import check_optimality
from .optimizer import MIN_BUDGET, optimize_bangbang, optimize_relaxed, pattern_extract

EXIT_OK = 0
EXIT_AUDIT = 1
EXIT_CONFIG = 2
_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
          list: "a list of numbers"}
_MISSING = object()


def _is_kind(value, kind) -> bool:
    if kind is list:
        return isinstance(value, list) and all(_is_kind(v, float) for v in value)
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


class ConfigError(ValueError):
    """Carries the full list of validation problems."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# ---- config assembly --------------------------------------------------------


class _Builder:
    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.problems = []

    def fail(self, msg: str):
        self.problems.append(msg)

    def need(self, path: str, kind=None):
        node = self.get(path, _MISSING)
        if node is _MISSING:
            self.fail(f"missing config entry [{path}]")
            return None
        if kind is not None and not isinstance(node, kind):
            self.fail(f"config entry [{path}] has the wrong type")
            return None
        return node

    def get(self, path: str, default=None):
        node = self.cfg
        for part in path.split("."):
            if not isinstance(node, dict) or part not in node:
                return default
            node = node[part]
        return node

    def entry(self, path: str, default, kind, minimum=None):
        """An entry of the given kind (a float entry takes an integer, a list
        entry holds numbers and comes back as a tuple of floats, only a bool
        entry takes a bool; float and list entries must be finite), at least
        minimum when one is given. With the default _MISSING the entry is
        required. On a problem, the default comes back (None for a required
        entry)."""
        value = self.get(path, default)
        if value is _MISSING:
            self.fail(f"missing config entry [{path}]")
            return None
        if not _is_kind(value, kind):
            self.fail(f"config entry [{path}] must be {_KINDS[kind]}, got {value!r}")
            return None if default is _MISSING else default
        if kind in (float, list) and not np.all(np.isfinite(value)):
            self.fail(f"config entry [{path}] must be a finite number, got {value!r}")
            return None if default is _MISSING else default
        if minimum is not None and value < minimum:
            self.fail(f"config entry [{path}] must be at least {minimum}, got {value!r}")
            return default
        if kind is list:
            return tuple(float(v) for v in value)
        return float(value) if kind is float else value

    def make(self, where: str, since: int, build, *args, **kwargs):
        """build(*args, **kwargs), or None if more than `since` problems are
        known; a ValueError it raises is a problem of [where]."""
        if len(self.problems) > since:
            return None
        try:
            return build(*args, **kwargs)
        except ValueError as exc:
            self.fail(f"[{where}] {exc}")
            return None

    def hamiltonian(self, side: str) -> Optional[Hamiltonian]:
        path = f"model.{side}"
        if self.need(path, dict) is None:
            return None
        n = len(self.problems)
        kind = self.entry(f"{path}.kind", "quadratic", str)
        R = self.entry(f"{path}.R", 1.0, float)
        if kind == "tabulated":
            ps = self.entry(f"{path}.samples_p", _MISSING, list)
            hs = self.entry(f"{path}.samples_H", _MISSING, list)
            if ps is not None and hs is not None and len(ps) != len(hs):
                self.fail(f"[{path}] samples_p and samples_H differ in length")
            samples = tuple(zip(ps or (), hs or ()))
            return self.make(path, n, Hamiltonian, R=R, kind=kind, samples=samples)
        if kind != "quadratic":
            self.fail(f"[{path}] unknown kind {kind!r}")
        return self.make(path, n, Hamiltonian, R=R, kappa=self.entry(f"{path}.kappa", 1.0, float))

    def model(self) -> Optional[JunctionModel]:
        left = self.hamiltonian("left")
        right = self.hamiltonian("right")
        n = len(self.problems)
        equal_minima = self.entry("model.equal_minima", False, bool)
        if left is None or right is None:
            return None
        return self.make("model", n, JunctionModel, left, right, equal_minima=equal_minima)

    def initial_data(self, model) -> Optional[InitialData]:
        if self.need("initial_data", dict) is None:
            return None
        n = len(self.problems)
        breakpoints = self.entry("initial_data.breakpoints", [], list)
        slopes = self.entry("initial_data.slopes", [], list)
        allow = self.entry("initial_data.allow_boundary_slopes", False, bool)
        if model is None:
            return None
        return self.make("initial_data", n, InitialData, breakpoints, slopes,
                         capacities=(model.left.R, model.right.R), allow_boundary_slopes=allow)

    def control(self, model) -> Optional[Control]:
        if self.need("control", dict) is None:
            return None
        n = len(self.problems)
        ctrl = self.make("control", n, Control, self.entry("control.times", [], list),
                         self.entry("control.values", [], list))
        if ctrl is not None and model is not None and not ctrl.restricted_values_ok(model.A0):
            self.fail(f"[control] values must lie in [{model.A0}, 0]")
            return None
        return ctrl

    def mesh(self) -> Optional[Mesh]:
        if self.need("mesh", dict) is None:
            return None
        n = len(self.problems)
        xmin, xmax, tmax = (self.entry(f"mesh.{k}", _MISSING, float) for k in ("xmin", "xmax", "tmax"))
        nx, nt = (self.entry(f"mesh.{k}", _MISSING, int, 1) for k in ("nx", "nt"))
        tmin = self.entry("mesh.tmin", 0.0, float, 0.0)  # u is defined for t >= 0 only
        return self.make("mesh", n, Mesh.regular, xmin, xmax, nx, tmax, nt, tmin=tmin)

    def spec(self, mesh) -> Optional[CostSpec]:
        if self.need("functional", dict) is None:
            return None
        n = len(self.problems)
        linear_coeff = self.entry("functional.linear_coeff", 0.0, float)
        if self.need("functional.box", dict) is None:
            return None
        edges = [self.entry(f"functional.box.{k}", _MISSING, float)
                 for k in ("x1", "x2", "t1", "t2", "t3", "t4", "delta")]
        weight = self.make("functional.box", n, make_box_weight, *edges)
        if weight is None:
            return None
        if mesh is not None:
            (x_lo, x_hi), (t_lo, t_hi) = weight.support()
            if x_lo < mesh.xs[0] or x_hi > mesh.xs[-1] or t_lo < mesh.ts[0] or t_hi > mesh.ts[-1]:
                self.fail("[mesh] does not cover the weight support")
            elif not weight.phi_grid(mesh).any():  # J and every D(s) would read 0
                self.fail("[mesh] has no node where the weight is nonzero")
        return CostSpec(weight, linear_coeff=linear_coeff)

    def optimizer(self, horizon):
        """The [optimizer] entries; the horizon defaults to the given one."""
        if self.need("optimizer", dict) is None:
            return None
        opt = SimpleNamespace(
            method=self.entry("optimizer.method", "bangbang", str),
            horizon=self.entry("optimizer.horizon", horizon, float),
            budget=self.entry("optimizer.budget", 260, int, MIN_BUDGET),
            k_max=self.entry("optimizer.k_max", 2, int, 1),
            m_cells=self.entry("optimizer.m_cells", 8, int, 1),
        )
        if opt.method not in ("bangbang", "relaxed"):
            self.fail(f"[optimizer] unknown method {opt.method!r}")
        return opt

    def crosscheck(self, ctrl):
        """The [crosscheck] cell faces, snapshot times, CFL number and tolerance."""
        if self.need("crosscheck", dict) is None:
            return None
        cc = SimpleNamespace(
            cells=self.entry("crosscheck.cells", 400, int, 1),
            slices=self.entry("crosscheck.slices", 13, int, 2),  # t = 0 alone compares nothing
            cfl=self.entry("crosscheck.cfl", 0.9, float),
            l1_tol=self.entry("crosscheck.l1_tol", 0.05, float),
        )
        if not 0.0 < cc.cfl <= 1.0:
            self.fail(f"config entry [crosscheck.cfl] must lie in (0, 1], got {cc.cfl!r}")
        try:
            cc.faces = make_grid(self.entry("crosscheck.xmin", -8.0, float),
                                 self.entry("crosscheck.xmax", 8.0, float), cc.cells)
        except ValueError as exc:
            self.fail(f"[crosscheck] {exc}")
        if ctrl is not None:
            cc.times = np.linspace(0.0, ctrl.horizon, cc.slices)
        return cc

    def inputs(self, *parts, horizon=None):
        """The model, the datum and the named parts of a command's inputs, or
        a ConfigError with every problem found.

        parts are among "control", "mesh", "spec" (the weight on the mesh),
        "optimizer" (its horizon defaults to horizon, else to the mesh's last
        time) and "crosscheck".
        The mesh must stay within the horizon.
        """
        model = self.model()
        got = SimpleNamespace(model=model, u0=self.initial_data(model), opt=None, cc=None)
        got.ctrl = self.control(model) if "control" in parts else None
        got.mesh = self.mesh() if "mesh" in parts else None
        got.spec = self.spec(got.mesh) if "spec" in parts else None
        if "optimizer" in parts:
            got.opt = self.optimizer(horizon or (got.mesh.ts[-1] if got.mesh is not None else 0.0))
        if "crosscheck" in parts:
            got.cc = self.crosscheck(got.ctrl)
        T = got.ctrl.horizon if got.ctrl is not None else getattr(got.opt, "horizon", None)
        if T is not None and got.mesh is not None and got.mesh.ts[-1] > T + 1e-12:
            self.fail("[mesh] tmax exceeds the control horizon")
        self.done()
        return got

    def run_options(self, out_dir):
        """The output directory: the flag, else [run.out_dir]. [run.workers]
        is only validated."""
        self.entry("run.workers", 1, int, 1)
        return out_dir or self.entry("run.out_dir", "out", str)

    def done(self):
        if self.problems:
            raise ConfigError(self.problems)


def _write_json(path, obj):
    """obj as sorted, indented JSON; a NaN or infinity raises before the file opens."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_density_csv(path, field):
    """-u_x between mesh columns, as x,t,rho rows at the column midpoints."""
    mids = 0.5 * (field.xs[:-1] + field.xs[1:])
    DensityField(mids, field.ts, density_from_value_field(field)).write_csv(path)


# ---- commands ---------------------------------------------------------------


def cmd_solve(cfg, out_dir):
    inp = _Builder(cfg).inputs("control", "mesh")
    field = value_grid(inp.model, inp.u0, inp.ctrl, inp.mesh)
    field.write_csv(os.path.join(out_dir, "u.csv"))
    _write_density_csv(os.path.join(out_dir, "rho_hj.csv"), field)
    trace = junction_values(inp.model, inp.u0, inp.ctrl, inp.mesh.ts)
    write_csv(os.path.join(out_dir, "trace.csv"), "t,u", inp.mesh.ts, trace)
    audit = gradient_audit(field, inp.model)
    summary = dict(
        command="solve",
        model=inp.model.ident(),
        control=inp.ctrl.ident(),
        gradient_audit=audit,
        nx=len(inp.mesh.xs),
        nt=len(inp.mesh.ts),
    )
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return EXIT_OK if audit["ok"] else EXIT_AUDIT


def cmd_cost(cfg, out_dir):
    inp = _Builder(cfg).inputs("control", "mesh", "spec")
    rep = cost_report(inp.model, inp.u0, inp.spec, inp.ctrl, inp.mesh)
    _write_json(os.path.join(out_dir, "cost_report.json"), rep)
    return EXIT_OK


def cmd_optimize(cfg, out_dir):
    inp = _Builder(cfg).inputs("mesh", "spec", "optimizer")
    opt = inp.opt
    search, size = ((optimize_bangbang, opt.k_max) if opt.method == "bangbang"
                    else (optimize_relaxed, opt.m_cells))
    res = search(inp.model, inp.u0, inp.spec, opt.horizon, size, opt.budget, inp.mesh)
    out = res.as_dict()
    out["pattern"] = pattern_extract(res, inp.model.A0).as_dict()
    _write_json(os.path.join(out_dir, "result.json"), out)
    write_csv(os.path.join(out_dir, "history.csv"), "evals,best_cost",
              [n for n, _ in res.history], [v for _, v in res.history])
    return EXIT_OK


def cmd_audit(cfg, out_dir):
    inp = _Builder(cfg).inputs("control", "mesh", "spec")
    audit = check_optimality(inp.model, inp.u0, inp.ctrl, inp.spec, inp.mesh)
    _write_json(os.path.join(out_dir, "audit.json"), audit.as_dict())
    _write_json(os.path.join(out_dir, "components.json"), audit.components.as_dict())
    return EXIT_OK if audit.ok else EXIT_AUDIT


def cmd_crosscheck(cfg, out_dir):
    inp = _Builder(cfg).inputs("control", "crosscheck")
    cc = inp.cc
    try:
        rep = cross_check(inp.model, inp.u0, inp.ctrl, cc.faces, cc.times, cfl=cc.cfl)
    except SolverError as exc:
        raise ConfigError([f"[crosscheck] {exc}"]) from None
    rep["density"].write_csv(os.path.join(out_dir, "rho_cl.csv"))
    out = dict(
        l1_density_error=rep["l1_density_error"],
        per_slice=[float(v) for v in rep["per_slice"]],
        mass_balance_error=rep["mass_balance_error"],
        tolerance=cc.l1_tol,
        ok=rep["l1_density_error"] <= cc.l1_tol,
    )
    _write_json(os.path.join(out_dir, "crosscheck.json"), out)
    _write_density_csv(os.path.join(out_dir, "rho_hj.csv"), rep["field"])
    return EXIT_OK if out["ok"] else EXIT_AUDIT


# ---- the canonical reproduction ----------------------------------------------


CANONICAL = dict(
    model=dict(
        left=dict(kind="quadratic", kappa=1.0, R=1.0),
        right=dict(kind="quadratic", kappa=1.0, R=1.0),
        equal_minima=True,
    ),
    initial_data=dict(breakpoints=[], slopes=[-0.8]),
    control=dict(times=[0.0, 1.5, 6.0], values=[0.0, -0.25]),
    functional=dict(
        box=dict(x1=0.1, x2=0.18, t1=1.0, t2=1.5, t3=4.5, t4=5.0, delta=0.015),
        linear_coeff=0.0,
    ),
    mesh=dict(xmin=0.08, xmax=0.2, nx=41, tmin=0.9, tmax=5.1, nt=161),
    optimizer=dict(method="bangbang", k_max=2, budget=260, horizon=6.0),
    crosscheck=dict(xmin=-8.0, xmax=8.0, cells=400, cfl=0.9, slices=13, l1_tol=0.05),
    run=dict(command="reproduce-prop511", out_dir="out", workers=1),
)


def canonical_config() -> dict:
    return json.loads(json.dumps(CANONICAL))  # deep copy


_OPS = {"<=": operator.le, "<": operator.lt, ">": operator.gt}


def verify_box_conditions(model, p: float, box: BoxWeight):
    """The three closed-form conditions plus the crossing-geometry
    inequality, as (name, lhs, rhs, op, ok) with ok = lhs op rhs."""
    H, a0 = model.left, model.A0
    hp, dh0 = float(H.value(p)), H.dh0
    conds = [
        ("x2 <= H(p) t1 / p", box.x2, hp * box.t1 / p, "<="),
        ("t2 H'(0) / (H'(0) - H(p)/p) < t3", box.t2 * dh0 / (dh0 - hp / p), box.t3, "<"),
        ("-t2 A0 / (H(p) - A0) < t3", -box.t2 * a0 / (hp - a0), box.t3, "<"),
        ("x1/t2 > x2/t3", box.x1 / box.t2, box.x2 / box.t3, ">"),
    ]
    return [(n, float(l), float(r), op, bool(_OPS[op](l, r))) for n, l, r, op in conds]


def _merge(base: dict, over: dict):
    """Lay over's entries on base, nested tables entry by entry."""
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value


def cmd_reproduce_prop511(cfg, out_dir):
    base = canonical_config()
    keys = ("functional", "mesh", "optimizer", "initial_data", "model", "crosscheck")
    _merge(base, {key: cfg[key] for key in keys if key in cfg})
    inp = _Builder(base).inputs("mesh", "spec", "optimizer", horizon=6.0)
    model, u0, mesh, spec, opt = inp.model, inp.u0, inp.mesh, inp.spec, inp.opt
    if len(u0.slopes) != 1:
        raise ConfigError(["reproduction requires a single-slope datum"])
    if model.left != model.right:  # the box conditions read one H(p)
        raise ConfigError(["reproduction requires equal left and right Hamiltonians"])
    p = u0.slopes[0]
    box = spec.weight
    conds = verify_box_conditions(model, p, box)
    for name, lhs, rhs, op, ok in conds:
        print(f"condition {name}: {lhs:.6g} {op} {rhs:.6g} -> {'ok' if ok else 'VIOLATED'}")
    bad = [name for name, *_, ok in conds if not ok]
    if bad:
        raise ConfigError([f"box condition violated: {n}" for n in bad])

    T = opt.horizon
    t2 = box.t2
    controls = {
        "free_flow": Control((0.0, T), (model.A0,)),
        "blocked": Control((0.0, T), (0.0,)),
        "switch_at_t2": Control((0.0, t2, T), (0.0, model.A0)),
    }
    problem = Problem(model, u0, spec, mesh)
    costs = {}
    for name, ctrl in controls.items():
        costs[name] = problem.cost(ctrl)
        print(f"J({name}) = {costs[name]:.12g}")

    res = optimize_bangbang(model, u0, spec, T, opt.k_max, opt.budget, mesh)
    print(f"optimizer: J = {res.cost:.12g} with switches {list(res.control.times[1:-1])}")
    audit = check_optimality(model, u0, res.control, spec, mesh)
    pat = pattern_extract(res, model.A0)

    margin_free = costs["free_flow"] - costs["switch_at_t2"]
    margin_blocked = costs["blocked"] - costs["switch_at_t2"]
    scale = abs(costs["switch_at_t2"])
    verdicts = dict(
        switch_beats_free_flow=bool(margin_free > 0),
        switch_beats_blocked=bool(margin_blocked > 0),
        relative_margin_free=margin_free / scale,
        relative_margin_blocked=margin_blocked / scale,
        optimizer_not_worse=bool(res.cost <= costs["switch_at_t2"] + 1e-12),
        audit_violations=audit.violations,
    )
    out = dict(
        conditions=[dict(name=n, lhs=l, rhs=r, ok=ok) for n, l, r, _, ok in conds],
        costs=costs,
        optimizer=res.as_dict(),
        pattern=pat.as_dict(),
        audit=audit.as_dict(),
        components=audit.components.as_dict(),
        verdicts=verdicts,
    )
    _write_json(os.path.join(out_dir, "report.json"), out)
    with open(os.path.join(out_dir, "canonical.toml"), "w") as fh:
        fh.write(_toml.dump(base))
    ok = (
        verdicts["switch_beats_free_flow"]
        and verdicts["switch_beats_blocked"]
        and audit.violations == 0
    )
    return EXIT_OK if ok else EXIT_AUDIT


# ---- entry point --------------------------------------------------------------


COMMANDS = {
    "solve": cmd_solve,
    "cost": cmd_cost,
    "optimize": cmd_optimize,
    "audit": cmd_audit,
    "crosscheck": cmd_crosscheck,
    "reproduce-prop511": cmd_reproduce_prop511,
}


def _worker_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="junctionflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="TOML experiment config")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--workers", type=_worker_count,
                        help="accepted for existing callers; every command runs in one process")
    args = parser.parse_args(argv)

    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = tomllib.loads(fh.read())
        except (OSError, UnicodeDecodeError, tomllib.TOMLDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    elif args.command != "reproduce-prop511":
        print("config error: --config is required for this command", file=sys.stderr)
        return EXIT_CONFIG

    try:
        b = _Builder(cfg)
        out_dir = b.run_options(args.out)
        b.done()
        os.makedirs(out_dir, exist_ok=True)
        return COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        for p in exc.problems:
            print(f"config error: {p}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
