import copy
import json
import os
import tomllib

import numpy as np
import pytest

from junctionflow import Control, _toml, junction_values
from junctionflow.cli import EXIT_AUDIT, EXIT_CONFIG, EXIT_OK, canonical_config, main

from conftest import H_OF_P, P_SLOPE


def write_config(tmp_path, cfg, name="exp.toml"):
    path = tmp_path / name
    path.write_text(_toml.dump(cfg))
    return str(path)


def solve_config(nx=41, nt=13, tmax=2.0):
    return dict(
        model=dict(
            left=dict(kind="quadratic", kappa=1.0, R=1.0),
            right=dict(kind="quadratic", kappa=1.0, R=1.0),
        ),
        initial_data=dict(breakpoints=[], slopes=[-0.8]),
        control=dict(times=[0.0, tmax], values=[-0.25]),
        mesh=dict(xmin=-1.0, xmax=1.0, nx=nx, tmin=0.0, tmax=tmax, nt=nt),
        run=dict(command="solve", out_dir="out", workers=1),
    )


CANONICAL_BOX_AND_MESH = dict(
    functional=dict(box=dict(x1=0.1, x2=0.18, t1=1.0, t2=1.5, t3=4.5, t4=5.0, delta=0.015)),
    mesh=dict(xmin=0.08, xmax=0.2, nx=21, tmin=0.9, tmax=5.1, nt=81),
)


class TestTomlRoundTrip:
    def test_canonical_round_trips(self):
        cfg = canonical_config()
        assert tomllib.loads(_toml.dump(cfg)) == cfg

    def test_mixed_types(self):
        cfg = dict(
            a=dict(name="x y", flag=True, nums=[1, 2.5, -3.0], empty=[]),
            b=dict(nested=dict(v=1)),
            top=7,
        )
        assert tomllib.loads(_toml.dump(cfg)) == cfg

    @pytest.mark.parametrize("text", ["[a\nk=1", "just words", "[a]\nk = 1 2\n"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.toml"
        path.write_text(text)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err


class TestRunOptions:
    @pytest.mark.parametrize("bad", ['"x"', "2.5", "true"])
    def test_bad_workers_exits_2(self, tmp_path, capsys, bad):
        path = tmp_path / "exp.toml"
        path.write_text(f"[run]\nworkers = {bad}\n")
        rc = main(["reproduce-prop511", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "config error: config entry [run.workers]" in capsys.readouterr().err

    @pytest.mark.parametrize("command,table,entry,bad", [
        ("reproduce-prop511", "optimizer", "budget", '"x"'),
        ("reproduce-prop511", "optimizer", "k_max", "1.5"),
        ("reproduce-prop511", "optimizer", "budget", "10"),
        ("reproduce-prop511", "optimizer", "horizon", "true"),
        ("optimize", "optimizer", "m_cells", "2.5"),
        ("crosscheck", "crosscheck", "xmin", '"a"'),
        ("crosscheck", "crosscheck", "xmax", "true"),
        ("crosscheck", "crosscheck", "cells", "2.5"),
        ("crosscheck", "crosscheck", "slices", '"x"'),
        ("crosscheck", "crosscheck", "cfl", "1.5"),
        ("crosscheck", "crosscheck", "l1_tol", "[1]"),
        ("cost", "functional", "linear_coeff", '"x"'),
        ("cost", "model.left", "R", "[1]"),
        ("cost", "mesh", "nx", "[41]"),
        ("cost", "mesh", "nx", "41.7"),
        ("cost", "initial_data", "breakpoints", "5"),
        ("cost", "model.right", "samples_p", '3\nkind = "tabulated"'),  # sets the kind too
        ("cost", "model", "equal_minima", '"no"'),
        ("cost", "initial_data", "allow_boundary_slopes", '"no"'),
        ("cost", "control", "times", '["0", "6"]'),
        ("cost", "functional.box", "x1", "true"),
    ])
    def test_bad_entry_exits_2_before_any_work(self, tmp_path, capsys, command, table, entry, bad):
        base = {"reproduce-prop511": {}, "crosscheck": solve_config(),
                "optimize": dict(solve_config(tmax=6.0), **CANONICAL_BOX_AND_MESH),
                "cost": dict(solve_config(tmax=6.0), **CANONICAL_BOX_AND_MESH)}[command]
        block = base = copy.deepcopy(base)
        for part in table.split("."):
            block = block.setdefault(part, {})
        block.update(tomllib.loads(f"{entry} = {bad}"))
        path = tmp_path / "exp.toml"
        path.write_text(_toml.dump(base))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert f"config error: config entry [{table}.{entry}]" in err
        assert "J(" not in out

    @pytest.mark.parametrize("bad", ["0", "x"])
    def test_bad_workers_flag_exits_2(self, tmp_path, bad):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce-prop511", "--out", str(tmp_path / "o"), "--workers", bad])
        assert exc.value.code == EXIT_CONFIG

    def test_stdout_prints_plain_floats(self, tmp_path, capsys):
        cfg = dict(
            optimizer=dict(method="bangbang", k_max=1, budget=60, horizon=6.0),
            mesh=dict(xmin=0.08, xmax=0.2, nx=21, tmin=0.9, tmax=5.1, nt=81),
        )
        path = write_config(tmp_path, cfg)
        assert main(["reproduce-prop511", "--config", path, "--out", str(tmp_path / "o"),
                     "--workers", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "with switches [" in out
        assert "np.float64(" not in out


class TestReproduceProp511:
    def test_config_overrides_entry_by_entry(self, tmp_path, capsys):
        path = tmp_path / "exp.toml"
        path.write_text("[optimizer]\nk_max = 1\n\n[mesh]\nnx = 21\n")
        assert main(["reproduce-prop511", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK
        with open(tmp_path / "o" / "canonical.toml", "rb") as fh:
            resolved = tomllib.load(fh)
        expect = canonical_config()
        expect["optimizer"]["k_max"] = 1
        expect["mesh"]["nx"] = 21
        assert resolved["optimizer"] == expect["optimizer"] and resolved["mesh"] == expect["mesh"]
        assert resolved["model"] == expect["model"]

    @pytest.mark.parametrize("text", [
        "[model.right]\nkappa = 0.25\nR = 2.0\n",  # the same minimum, another H
        "[model]\nequal_minima = false\n\n[model.left]\nkappa = 1.0\nR = 1.0\n\n"
        "[model.right]\nkappa = 0.5\nR = 2.0\n",
    ], ids=["equal_minima", "unequal_minima"])
    def test_unequal_sides_exit_2_before_any_cost(self, tmp_path, capsys, text):
        path = tmp_path / "exp.toml"
        path.write_text(text)
        assert main(["reproduce-prop511", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert "config error: reproduction requires equal left and right Hamiltonians" in err
        assert out == ""
        assert not (tmp_path / "o" / "report.json").exists()


class TestSolve:
    def test_golden_field_and_outputs(self, tmp_path):
        cfg = write_config(tmp_path, solve_config())
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        for name in ("u.csv", "rho_hj.csv", "trace.csv", "summary.json"):
            assert (out / name).exists()
        rows = (out / "u.csv").read_text().splitlines()
        assert rows[0] == "x,t,u"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        expect = P_SLOPE * data[:, 0] - H_OF_P * data[:, 1]
        assert np.abs(data[:, 2] - expect).max() <= 1e-9
        # the t = 0 block equals the datum
        first = data[data[:, 1] == 0.0]
        assert np.abs(first[:, 2] - P_SLOPE * first[:, 0]).max() <= 1e-12
        summary = json.loads((out / "summary.json").read_text())
        assert summary["gradient_audit"]["ok"]
        assert summary["control"] == "A(times=(0.0, 2.0),values=(-0.25,))"  # plain floats

    def test_trace_is_the_exact_junction_value(self, tmp_path, model, u0):
        cfg_dict = solve_config(nx=40, tmax=6.0)  # no x = 0 column
        cfg_dict["control"] = dict(times=[0.0, 1.5, 6.0], values=[0.0, -0.25])
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path, cfg_dict), "--out", str(out)]) == EXIT_OK
        rows = (out / "trace.csv").read_text().splitlines()
        assert rows[0] == "t,u"
        t, u = np.array([[float(v) for v in r.split(",")] for r in rows[1:]]).T
        assert np.array_equal(t, np.linspace(0.0, 6.0, 13))
        A = Control((0.0, 1.5, 6.0), (0.0, -0.25))
        assert np.array_equal(u, junction_values(model, u0, A, t))

    def test_free_flow_trace(self, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path, solve_config()), "--out", str(out)]) == EXIT_OK
        t, u = np.array([[float(v) for v in r.split(",")]
                         for r in (out / "trace.csv").read_text().splitlines()[1:]]).T
        assert np.abs(u - (-H_OF_P) * t).max() <= 1e-12

    def test_missing_control_block_reported(self, tmp_path, capsys):
        cfg_dict = solve_config()
        del cfg_dict["control"]
        cfg = write_config(tmp_path, cfg_dict)
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "[control]" in err

    def test_exhaustive_validation(self, tmp_path, capsys):
        cfg_dict = solve_config()
        del cfg_dict["control"]
        del cfg_dict["mesh"]
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "[control]" in err and "[mesh]" in err

    def test_requires_config(self, capsys):
        assert main(["solve"]) == EXIT_CONFIG


class TestCost:
    def test_cost_report(self, tmp_path):
        cfg_dict = solve_config(tmax=6.0, nt=25)
        cfg_dict["mesh"] = dict(xmin=0.08, xmax=0.2, nx=41, tmin=0.9, tmax=5.1, nt=161)
        cfg_dict["control"] = dict(times=[0.0, 1.5, 6.0], values=[0.0, -0.25])
        cfg_dict["functional"] = dict(
            box=dict(x1=0.1, x2=0.18, t1=1.0, t2=1.5, t3=4.5, t4=5.0, delta=0.015),
            linear_coeff=0.0,
        )
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "out"
        assert main(["cost", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rep = json.loads((out / "cost_report.json").read_text())
        assert rep["J"] == pytest.approx(-0.042089678530786, rel=1e-9)
        assert rep["J_linear_term"] == 0.0
        assert rep["J"] == pytest.approx(rep["J_field_term"] + rep["J_linear_term"])

    def test_mesh_must_cover_support(self, tmp_path, capsys):
        cfg_dict = solve_config(tmax=6.0)
        cfg_dict["control"] = dict(times=[0.0, 6.0], values=[-0.25])
        cfg_dict["mesh"] = dict(xmin=0.12, xmax=0.3, nx=21, tmin=0.0, tmax=6.0, nt=31)
        cfg_dict["functional"] = dict(
            box=dict(x1=0.1, x2=0.18, t1=1.0, t2=1.5, t3=4.5, t4=5.0, delta=0.015)
        )
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["cost", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "support" in capsys.readouterr().err


class TestCrosscheck:
    def test_small_run(self, tmp_path):
        cfg_dict = solve_config(tmax=2.0)
        cfg_dict["crosscheck"] = dict(xmin=-2.0, xmax=2.0, cells=100, cfl=0.9,
                                      slices=5, l1_tol=0.05)
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "out"
        assert main(["crosscheck", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rep = json.loads((out / "crosscheck.json").read_text())
        assert rep["ok"]
        assert rep["l1_density_error"] <= 0.05
        assert (out / "rho_cl.csv").exists() and (out / "rho_hj.csv").exists()


class TestOptimize:
    def test_optimize_writes_result(self, tmp_path):
        cfg_dict = solve_config(tmax=6.0)
        del cfg_dict["control"]
        cfg_dict["mesh"] = dict(xmin=0.08, xmax=0.2, nx=21, tmin=0.9, tmax=5.1, nt=81)
        cfg_dict["functional"] = dict(
            box=dict(x1=0.1, x2=0.18, t1=1.0, t2=1.5, t3=4.5, t4=5.0, delta=0.015)
        )
        cfg_dict["optimizer"] = dict(method="bangbang", k_max=1, budget=60, horizon=6.0)
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "out"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == EXIT_OK
        res = json.loads((out / "result.json").read_text())
        assert res["method"] == "bangbang"
        assert "int_A" in res and "int_sA" in res
        hist = (out / "history.csv").read_text().splitlines()
        assert hist[0] == "evals,best_cost"
        assert len(hist) > 2
