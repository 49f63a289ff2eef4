"""Experiment runner: config parsing, named commands, reproducible outputs.

Commands (exit codes 0 ok / 1 audit failure / 2 config error):

  solve              u.csv, rho_hj.csv, trace.csv, summary.json
  cost               cost_report.json
  optimize           result.json, history.csv
  audit              audit.json, components.json
  crosscheck         crosscheck.json, rho_cl.csv, rho_hj.csv
  reproduce-prop511  canonical box-flux experiment: conditions, three control
                     costs, bang-bang optimization, optimality audit,
                     report.json (byte-identical for any worker count)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tomllib
from typing import Optional

import numpy as np

from . import _toml
from ._util import default_workers, reject_non_finite
from .cl_oracle import cross_check, density_from_value_field, make_grid
from .controls import Control
from .flux_models import Hamiltonian, InitialData, JunctionModel
from .functionals import BoxWeight, CostSpec, cost_report, make_box_weight
from .hj_junction import (
    Mesh,
    gradient_audit,
    junction_trace,
    value_grid,
)
from .optimality import check_optimality, component_report
from .optimizer import optimize_bangbang, optimize_relaxed, pattern_extract

EXIT_OK = 0
EXIT_AUDIT = 1
EXIT_CONFIG = 2


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
        node = self.cfg
        for part in path.split("."):
            if not isinstance(node, dict) or part not in node:
                self.fail(f"missing config entry [{path}]")
                return None
            node = node[part]
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

    def hamiltonian(self, side: str) -> Optional[Hamiltonian]:
        block = self.need(f"model.{side}", dict)
        if block is None:
            return None
        kind = block.get("kind", "quadratic")
        try:
            if kind == "quadratic":
                return Hamiltonian(R=float(block.get("R", 1.0)), kind="quadratic",
                                   kappa=float(block.get("kappa", 1.0)))
            if kind == "tabulated":
                samples = block.get("samples_p"), block.get("samples_H")
                if samples[0] is None or samples[1] is None:
                    self.fail(f"[model.{side}] tabulated kind needs samples_p and samples_H")
                    return None
                pairs = tuple(zip(map(float, samples[0]), map(float, samples[1])))
                return Hamiltonian(R=float(block.get("R", 1.0)), kind="tabulated", samples=pairs)
            self.fail(f"[model.{side}] unknown kind {kind!r}")
        except ValueError as exc:
            self.fail(f"[model.{side}] {exc}")
        return None

    def model(self) -> Optional[JunctionModel]:
        left = self.hamiltonian("left")
        right = self.hamiltonian("right")
        if left is None or right is None:
            return None
        try:
            return JunctionModel(left, right, equal_minima=bool(self.get("model.equal_minima", False)))
        except ValueError as exc:
            self.fail(f"[model] {exc}")
            return None

    def initial_data(self, model) -> Optional[InitialData]:
        block = self.need("initial_data", dict)
        if block is None or model is None:
            return None
        try:
            return InitialData(
                tuple(map(float, block.get("breakpoints", []))),
                tuple(map(float, block.get("slopes", []))),
                capacities=(model.left.R, model.right.R),
                allow_boundary_slopes=bool(block.get("allow_boundary_slopes", False)),
            )
        except ValueError as exc:
            self.fail(f"[initial_data] {exc}")
            return None

    def control(self, model) -> Optional[Control]:
        block = self.need("control", dict)
        if block is None:
            return None
        try:
            ctrl = Control(tuple(map(float, block.get("times", []))),
                           tuple(map(float, block.get("values", []))))
        except ValueError as exc:
            self.fail(f"[control] {exc}")
            return None
        if model is not None and not ctrl.restricted_values_ok(model.A0):
            self.fail(f"[control] values must lie in [{model.A0}, 0]")
            return None
        return ctrl

    def mesh(self) -> Optional[Mesh]:
        block = self.need("mesh", dict)
        if block is None:
            return None
        try:
            return Mesh.regular(
                float(block["xmin"]), float(block["xmax"]), int(block["nx"]),
                float(block["tmax"]), int(block["nt"]), tmin=float(block.get("tmin", 0.0)),
            )
        except (KeyError, ValueError) as exc:
            self.fail(f"[mesh] {exc!r}")
            return None

    def spec(self, mesh) -> Optional[CostSpec]:
        block = self.need("functional", dict)
        if block is None:
            return None
        box = block.get("box")
        if not isinstance(box, dict):
            self.fail("missing config entry [functional.box]")
            return None
        try:
            weight = make_box_weight(
                float(box["x1"]), float(box["x2"]), float(box["t1"]), float(box["t2"]),
                float(box["t3"]), float(box["t4"]), float(box["delta"]),
            )
        except (KeyError, ValueError) as exc:
            self.fail(f"[functional.box] {exc!r}")
            return None
        if mesh is not None:
            (x_lo, x_hi), (t_lo, t_hi) = weight.support()
            if x_lo < mesh.xs[0] or x_hi > mesh.xs[-1] or t_lo < mesh.ts[0] or t_hi > mesh.ts[-1]:
                self.fail("[mesh] does not cover the weight support")
        return CostSpec(weight, linear_coeff=float(block.get("linear_coeff", 0.0)))

    def run_options(self, out_dir, workers):
        """Output directory and worker count: the flags, else the [run] entries."""
        out_dir = out_dir or self.get("run.out_dir", "out")
        if not isinstance(out_dir, str):
            self.fail("config entry [run.out_dir] must be a string")
        if workers is None:
            workers = self.get("run.workers", default_workers())
            if isinstance(workers, bool) or not isinstance(workers, int):
                self.fail(f"config entry [run.workers] must be an integer, got {workers!r}")
        return out_dir, workers

    def done(self):
        if self.problems:
            raise ConfigError(self.problems)


def _write_json(path, obj):
    reject_non_finite(obj)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_density_csv(path, field):
    """-u_x between mesh columns, as x,t,rho rows at the column midpoints."""
    rho = density_from_value_field(field)
    mids = 0.5 * (field.xs[:-1] + field.xs[1:])
    with open(path, "w") as fh:
        fh.write("x,t,rho\n")
        for j, t in enumerate(field.ts):
            for i, x in enumerate(mids):
                fh.write(f"{x:.17g},{t:.17g},{rho[i, j]:.17g}\n")


def _horizon_check(b: _Builder, ctrl, mesh):
    if ctrl is not None and mesh is not None and mesh.ts[-1] > ctrl.horizon + 1e-12:
        b.fail("[mesh] tmax exceeds the control horizon")


# ---- commands ---------------------------------------------------------------


def cmd_solve(cfg, out_dir, workers):
    b = _Builder(cfg)
    model = b.model()
    u0 = b.initial_data(model)
    ctrl = b.control(model)
    mesh = b.mesh()
    _horizon_check(b, ctrl, mesh)
    if mesh is not None and not np.any(np.abs(mesh.xs) <= 1e-12):
        b.fail("[mesh] needs an x = 0 column for the junction trace")
    b.done()
    field = value_grid(model, u0, ctrl, mesh, workers=workers)
    field.write_csv(os.path.join(out_dir, "u.csv"))
    _write_density_csv(os.path.join(out_dir, "rho_hj.csv"), field)
    trace = junction_trace(field)
    with open(os.path.join(out_dir, "trace.csv"), "w") as fh:
        fh.write("t,u_left,u_right\n")
        for row in trace:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    audit = gradient_audit(field, model)
    summary = dict(
        command="solve",
        model=model.ident(),
        control=ctrl.ident(),
        gradient_audit=audit,
        nx=len(mesh.xs),
        nt=len(mesh.ts),
    )
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return EXIT_OK if audit["ok"] else EXIT_AUDIT


def cmd_cost(cfg, out_dir, workers):
    b = _Builder(cfg)
    model = b.model()
    u0 = b.initial_data(model)
    ctrl = b.control(model)
    mesh = b.mesh()
    spec = b.spec(mesh)
    _horizon_check(b, ctrl, mesh)
    b.done()
    rep = cost_report(model, u0, spec, ctrl, mesh, workers=workers)
    _write_json(os.path.join(out_dir, "cost_report.json"), rep)
    return EXIT_OK


def cmd_optimize(cfg, out_dir, workers):
    b = _Builder(cfg)
    model = b.model()
    u0 = b.initial_data(model)
    mesh = b.mesh()
    spec = b.spec(mesh)
    opt = b.need("optimizer", dict) or {}
    method = opt.get("method", "bangbang")
    horizon = float(opt.get("horizon", mesh.ts[-1] if mesh is not None else 0.0))
    if method not in ("bangbang", "relaxed"):
        b.fail(f"[optimizer] unknown method {method!r}")
    b.done()
    budget = int(opt.get("budget", 260))
    if method == "bangbang":
        res = optimize_bangbang(model, u0, spec, horizon, int(opt.get("k_max", 2)),
                                budget, mesh, workers=workers)
    else:
        res = optimize_relaxed(model, u0, spec, horizon, int(opt.get("m_cells", 8)),
                               budget, mesh, workers=workers)
    out = res.as_dict()
    pat = pattern_extract(res, model.A0)
    out["pattern"] = pat.as_dict()
    _write_json(os.path.join(out_dir, "result.json"), out)
    with open(os.path.join(out_dir, "history.csv"), "w") as fh:
        fh.write("evals,best_cost\n")
        for n, v in res.history:
            fh.write(f"{n},{v:.17g}\n")
    return EXIT_OK


def cmd_audit(cfg, out_dir, workers):
    b = _Builder(cfg)
    model = b.model()
    u0 = b.initial_data(model)
    ctrl = b.control(model)
    mesh = b.mesh()
    spec = b.spec(mesh)
    _horizon_check(b, ctrl, mesh)
    b.done()
    audit = check_optimality(model, u0, ctrl, spec, mesh, workers=workers)
    report = component_report(model, u0, ctrl, mesh, spec=spec, workers=workers)
    _write_json(os.path.join(out_dir, "audit.json"), audit.as_dict())
    _write_json(os.path.join(out_dir, "components.json"), report.as_dict())
    return EXIT_OK if audit.ok else EXIT_AUDIT


def cmd_crosscheck(cfg, out_dir, workers):
    b = _Builder(cfg)
    model = b.model()
    u0 = b.initial_data(model)
    ctrl = b.control(model)
    cc = b.need("crosscheck", dict) or {}
    b.done()
    try:
        faces = make_grid(float(cc.get("xmin", -8.0)), float(cc.get("xmax", 8.0)),
                          int(cc.get("cells", 400)))
    except ValueError as exc:
        raise ConfigError([f"[crosscheck] {exc}"])
    slices = int(cc.get("slices", 13))
    times = np.linspace(0.0, ctrl.horizon, slices)
    rep = cross_check(model, u0, ctrl, faces, times, cfl=float(cc.get("cfl", 0.9)),
                      workers=workers)
    tol = float(cc.get("l1_tol", 0.05))
    rep["density"].write_csv(os.path.join(out_dir, "rho_cl.csv"))
    out = dict(
        l1_density_error=rep["l1_density_error"],
        per_slice=[float(v) for v in rep["per_slice"]],
        mass_balance_error=rep["mass_balance_error"],
        tolerance=tol,
        ok=rep["l1_density_error"] <= tol,
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


def verify_box_conditions(model, p: float, box: BoxWeight):
    """The three closed-form conditions plus the crossing-geometry inequality."""
    H = model.left
    hp = float(H.value(p))
    dh0 = H.dh0
    a0 = model.A0
    conds = [
        ("x2 <= H(p) t1 / p", box.x2, hp * box.t1 / p, box.x2 <= hp * box.t1 / p),
        (
            "t2 H'(0) / (H'(0) - H(p)/p) < t3",
            box.t2 * dh0 / (dh0 - hp / p),
            box.t3,
            box.t2 * dh0 / (dh0 - hp / p) < box.t3,
        ),
        ("-t2 A0 / (H(p) - A0) < t3", -box.t2 * a0 / (hp - a0), box.t3,
         -box.t2 * a0 / (hp - a0) < box.t3),
        ("x1/t2 > x2/t3", box.x1 / box.t2, box.x2 / box.t3, box.geometry_ok),
    ]
    return [dict(name=n, lhs=float(l), rhs=float(r), ok=bool(ok)) for n, l, r, ok in conds]


def cmd_reproduce_prop511(cfg, out_dir, workers):
    base = canonical_config()
    if cfg:
        for key in ("functional", "mesh", "optimizer", "initial_data", "model", "crosscheck"):
            if key in cfg:
                base[key] = cfg[key]
    b = _Builder(base)
    model = b.model()
    u0 = b.initial_data(model)
    mesh = b.mesh()
    spec = b.spec(mesh)
    b.done()
    if len(u0.slopes) != 1:
        raise ConfigError(["reproduction requires a single-slope datum"])
    p = u0.slopes[0]
    box = spec.weight
    conds = verify_box_conditions(model, p, box)
    for c in conds:
        side = "<=" if "<=" in c["name"] else ("<" if "<" in c["name"] else ">")
        print(f"condition {c['name']}: {c['lhs']:.6g} {side} {c['rhs']:.6g} -> "
              f"{'ok' if c['ok'] else 'VIOLATED'}")
    if not all(c["ok"] for c in conds):
        bad = [c["name"] for c in conds if not c["ok"]]
        raise ConfigError([f"box condition violated: {n}" for n in bad])

    opt_cfg = base["optimizer"]
    T = float(opt_cfg.get("horizon", 6.0))
    t2 = box.t2
    controls = {
        "free_flow": Control((0.0, T), (model.A0,)),
        "blocked": Control((0.0, T), (0.0,)),
        "switch_at_t2": Control((0.0, t2, T), (0.0, model.A0)),
    }
    costs = {}
    for name, ctrl in controls.items():
        costs[name] = cost_report(model, u0, spec, ctrl, mesh, workers=workers)["J"]
        print(f"J({name}) = {costs[name]:.12g}")

    res = optimize_bangbang(model, u0, spec, T, int(opt_cfg.get("k_max", 2)),
                            int(opt_cfg.get("budget", 260)), mesh, workers=workers)
    switches = [float(s) for s in res.control.times[1:-1]]
    print(f"optimizer: J = {res.cost:.12g} with switches {switches}")
    audit = check_optimality(model, u0, res.control, spec, mesh, workers=workers)
    report = component_report(model, u0, res.control, mesh, spec=spec, workers=workers)
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
        conditions=conds,
        costs=costs,
        optimizer=res.as_dict(),
        pattern=pat.as_dict(),
        audit=audit.as_dict(),
        components=report.as_dict(),
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="junctionflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="TOML experiment config")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--workers", type=int, default=None)
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
        out_dir, workers = b.run_options(args.out, args.workers)
        b.done()
        os.makedirs(out_dir, exist_ok=True)
        return COMMANDS[args.command](cfg, out_dir, workers)
    except ConfigError as exc:
        for p in exc.problems:
            print(f"config error: {p}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
