import json
import os
import warnings

import numpy as np
import pytest

from locadmm import grid, network
from locadmm.harness import EXIT_DIVERGED, EXIT_ERROR, EXIT_OK, build_parser, main

from network_reference import json_save_network


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("LOCADMM_SEED", raising=False)


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.json"
    code = main(
        [
            "generate",
            "--nodes", "12", "--anchors", "3", "--range", "0.55",
            "--sigma", "0.01", "--noise", "awgn", "--seed", "7",
            "--out", str(path),
        ]
    )
    assert code == EXIT_OK
    return path


class TestGenerate:
    def test_writes_valid_file_and_summary(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = main(
            [
                "generate", "--nodes", "20", "--anchors", "2", "--range", "0.4",
                "--seed", "3", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "D_avg=" in printed and "N_max=" in printed and "d_max=" in printed
        graph, truth, meas = network.load_network(out)
        assert graph.num_nodes == 20 and graph.num_anchors == 2
        assert truth is not None and meas is not None

    def test_range_noise_selects_model(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        base = ["generate", "--nodes", "10", "--anchors", "2", "--range", "0.6",
                "--sigma", "0.05", "--seed", "5"]
        assert main(base + ["--noise", "awgn", "--out", str(out_a)]) == EXIT_OK
        assert main(base + ["--noise", "range", "--out", str(out_b)]) == EXIT_OK
        _, _, ma = network.load_network(out_a)
        _, _, mb = network.load_network(out_b)
        assert not np.array_equal(ma.d, mb.d)

    def test_single_node_network(self, tmp_path, capsys):
        # one anchor, no edges: no range to report but zero
        out = tmp_path / "one.json"
        argv = ["generate", "--nodes", "1", "--anchors", "1", "--range", "0.1", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert "d_max=0.000000" in capsys.readouterr().out
        graph, _, meas = network.load_network(out)
        assert graph.num_nodes == 1 and meas is None

    def test_infinite_side(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        argv = ["generate", "--nodes", "5", "--anchors", "1", "--range", "0.5",
                "--side", "inf", "--out", str(out)]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == "error: area_side must be positive and finite\n"
        assert not out.exists()

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--nodes", "5", "--anchors", "1", "--range", "0.5"])
        assert exc.value.code != 0

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        args = ["generate", "--nodes", "8", "--anchors", "1", "--range", "0.6"]
        monkeypatch.setenv("LOCADMM_SEED", "123")
        main(args + ["--seed", "7", "--out", str(out_a)])
        monkeypatch.delenv("LOCADMM_SEED")
        main(args + ["--seed", "123", "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()


class TestRun:
    def test_produces_trace_and_estimates(self, net_file, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        est = tmp_path / "e.json"
        code = main(
            [
                "run", "--net", str(net_file), "--algo", "lite",
                "--c", "0.1", "--rho", "0.1", "--iters", "50",
                "--trace", str(trace), "--est", str(est), "--threads", "1",
            ]
        )
        assert code == EXIT_OK
        lines = trace.read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "t,rmse,S,U,P,F,L,potential,comm_scalars,wall_ms"
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 51
        _, est_truth, _ = network.load_network(est)
        assert est_truth.positions.shape == (12, 2)
        assert "rmse=" in capsys.readouterr().out

    def test_byte_reproducible(self, net_file, tmp_path):
        args = lambda out: [
            "run", "--net", str(net_file), "--algo", "full",
            "--c", "0.2", "--rho", "0.15", "--iters", "40",
            "--init", "uniform", "--u0", "half", "--seed", "11",
            "--trace", str(out), "--threads", "1",
        ]
        t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert main(args(t1)) == EXIT_OK
        assert main(args(t2)) == EXIT_OK
        assert t1.read_bytes() == t2.read_bytes()

    @pytest.mark.parametrize("algo", ["full", "lite"])
    def test_directions_from_the_origin_are_zero_rows(self, net_file, tmp_path, algo):
        # every node starts at the origin, so the direction rows are zero and
        # the run is the one from --u0 zeros
        def estimates(u0):
            est = tmp_path / f"{u0}.json"
            code = main(["run", "--net", str(net_file), "--algo", algo, "--c", "0.1",
                         "--rho", "0.1", "--iters", "5", "--init", "zeros", "--u0", u0,
                         "--est", str(est)])
            assert code == EXIT_OK
            return est.read_bytes()

        assert estimates("directions") == estimates("zeros")

    def test_auto_rho_uses_bounds(self, net_file, tmp_path):
        from locadmm import diagnostics as dg

        trace = tmp_path / "t.csv"
        code = main(
            [
                "run", "--net", str(net_file), "--c", "1.0", "--rho", "auto",
                "--iters", "5", "--trace", str(trace), "--threads", "1",
            ]
        )
        assert code == EXIT_OK
        graph, _, meas = network.load_network(net_file)
        bounds = dg.parameter_bounds(graph, meas, 1.0)
        meta = dict(
            line[2:].split("=", 1)
            for line in trace.read_text().splitlines()
            if line.startswith("# ")
        )
        assert float(meta["rho"]) == bounds.rho_min

    def test_full_and_lite_traces_match(self, net_file, tmp_path):
        outs = {}
        for algo in ("full", "lite"):
            path = tmp_path / f"{algo}.csv"
            code = main(
                [
                    "run", "--net", str(net_file), "--algo", algo,
                    "--c", "0.3", "--rho", "0.3", "--iters", "60",
                    "--init", "truth", "--u0", "zeros",
                    "--trace", str(path), "--threads", "1",
                ]
            )
            assert code == EXIT_OK
            rows = [
                l.split(",")
                for l in path.read_text().splitlines()
                if not l.startswith("#") and not l.startswith("t,")
            ]
            outs[algo] = rows
        for row_f, row_l in zip(outs["full"], outs["lite"]):
            for cell_f, cell_l, name in zip(
                row_f, row_l, ("t", "rmse", "S", "U", "P", "F", "L")
            ):
                if name in ("t",) or cell_f == "" or cell_l == "":
                    assert cell_f == cell_l
                else:
                    a, b = float(cell_f), float(cell_l)
                    assert abs(a - b) <= 1e-9 * (1.0 + abs(a))

    def test_repeated_metrics_are_dropped_alike(self, net_file, tmp_path):
        # every rmse goes without positions, every potential for lite
        graph, _, meas = network.load_network(net_file)
        blind = tmp_path / "blind.json"
        network.save_network(blind, graph, None, meas)
        base = ["run", "--net", str(blind), "--c", "0.1", "--rho", "0.1", "--iters", "3"]
        once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
        assert main(base + ["--metrics", "rmse", "--trace", str(once)]) == EXIT_OK
        assert main(base + ["--metrics", "rmse,rmse", "--trace", str(twice)]) == EXIT_OK
        assert twice.read_bytes() == once.read_bytes()
        trace = tmp_path / "potential.csv"
        code = main(["run", "--net", str(net_file), "--algo", "lite", "--c", "0.1", "--rho", "0.1",
                     "--iters", "3", "--metrics", "potential,potential", "--trace", str(trace)])
        assert code == EXIT_OK
        meta = dict(
            line[2:].split("=", 1)
            for line in trace.read_text().splitlines()
            if line.startswith("# ")
        )
        assert meta["kappa1"] == meta["kappa2"] == ""

    @pytest.mark.parametrize("algo", ["full", "lite"])
    def test_divergence_exit_code(self, net_file, algo, capsys):
        # the divergence is reported once, with no NumPy warning before it
        code = main(
            [
                "run", "--net", str(net_file), "--algo", algo, "--c", "1e308",
                "--rho", "0.1", "--iters", "5", "--threads", "1",
            ]
        )
        assert code == EXIT_DIVERGED
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("diverged: ")


    @pytest.mark.parametrize(
        "flags",
        [
            ["--algo", "full", "--c", "1e308", "--rho", "0.1", "--metrics", "all"],
            ["--c", "1e308", "--rho", "auto"],
            ["--c", "0.1", "--rho", "0.1", "--init", "uniform", "--init-lo=-1e308",
             "--init-hi=1e308"],
            ["--c", "-1", "--rho", "0.1"],
            ["--c", "0.1", "--rho", "0"],
            ["--c", "0.1", "--rho", "0.1", "--iters", "0"],
            ["--c", "nan", "--rho", "0.1"],
        ],
        ids=["c-overflows-bounds", "c-overflows-auto-rho", "unbounded-uniform-init",
             "negative-c", "zero-rho", "zero-iters", "nan-c"],
    )
    def test_overflowing_parameters_are_invalid(self, net_file, flags, capsys):
        code = main(["run", "--net", str(net_file), "--iters", "3", *flags])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_rho_scale_in_trace_header(self, net_file, tmp_path):
        from locadmm import diagnostics as dg

        trace = tmp_path / "t.csv"
        code = main(["run", "--net", str(net_file), "--c", "1.0", "--rho-scale", "0.5",
                     "--iters", "2", "--trace", str(trace)])
        assert code == EXIT_OK
        graph, _, meas = network.load_network(net_file)
        bounds = dg.parameter_bounds(graph, meas, 1.0)
        assert f"# rho={bounds.rho_min * 0.5!r}" in trace.read_text().splitlines()

    def test_no_metrics(self, net_file, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        code = main(["run", "--net", str(net_file), "--c", "0.1", "--rho", "0.1",
                     "--iters", "2", "--metrics", "none", "--trace", str(trace)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "done: iters=2\n"
        rows = [l for l in trace.read_text().splitlines() if not l.startswith("#")][1:]
        assert [r.split(",")[0] for r in rows] == ["0", "1", "2"]
        assert all(set(r.split(",")[1:8]) == {""} for r in rows)

    def test_init_truth_needs_positions(self, net_file, tmp_path, capsys):
        graph, _, meas = network.load_network(net_file)
        blind = tmp_path / "blind.json"
        network.save_network(blind, graph, None, meas)
        code = main(["run", "--net", str(blind), "--c", "0.1", "--rho", "0.1",
                     "--iters", "2", "--init", "truth"])
        assert code == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: init 'truth' needs a network file with positions\n"

    def test_file_without_ranges(self, net_file, tmp_path, capsys):
        graph, truth, _ = network.load_network(net_file)
        unmeasured = tmp_path / "unmeasured.json"
        network.save_network(unmeasured, graph, truth)
        code = main(["run", "--net", str(unmeasured), "--c", "0.1", "--rho", "0.1",
                     "--iters", "2"])
        assert code == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {unmeasured} carries no measurements\n"

    def test_overflowing_bounds_name_c(self, net_file, capsys):
        # (c + 1)^2 is finite at c = 1e154, but tau and rho_min are not
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--net", str(net_file), "--iters", "3",
                         "--c", "1e154", "--rho", "auto"])
        assert code == EXIT_ERROR
        assert not caught
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: c = 1e+154 overflows the parameter bounds"]


class TestSweep:
    def test_grid_shape(self, net_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--net", str(net_file),
                "--c-list", "0.05,0.1,0.3", "--rho-list", "0.05,0.1,0.3",
                "--iters", "20", "--out", str(out), "--threads", "1",
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "c,rho,seed,final_rmse,min_F,diverged"
        assert len(lines) == 1 + 9

    def test_seed_column(self, net_file, tmp_path):
        out = tmp_path / "sweep.csv"
        main(
            [
                "sweep", "--net", str(net_file), "--c-list", "0.1",
                "--rho-list", "0.1", "--seeds", "1,2,3", "--iters", "10",
                "--out", str(out), "--threads", "1",
            ]
        )
        lines = out.read_text().splitlines()[1:]
        assert [l.split(",")[2] for l in lines] == ["1", "2", "3"]

    def test_auto_rho_entry(self, net_file, tmp_path):
        # an "auto" cell runs at the bound `run --rho auto` resolves, and the
        # CSV names that value
        out, trace = tmp_path / "sweep.csv", tmp_path / "t.csv"
        code = main(
            [
                "sweep", "--net", str(net_file), "--c-list", "0.5",
                "--rho-list", "auto,0.035", "--iters", "5", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        run = ["run", "--net", str(net_file), "--algo", "lite", "--c", "0.5",
               "--iters", "5", "--trace", str(trace), "--metrics", "rmse,F"]
        assert main(run + ["--rho", "auto"]) == EXIT_OK
        meta = dict(
            line[2:].split("=", 1)
            for line in trace.read_text().splitlines()
            if line.startswith("# ")
        )
        assert [r[1] for r in rows] == [meta["rho"], "0.035"]
        assert [r[5] for r in rows] == ["0", "0"]
        final_rmse = trace.read_text().splitlines()[-1].split(",")[1]
        assert rows[0][3] == final_rmse

    @staticmethod
    def run_trace(net_file, path, argv):
        """``locadmm run`` with ``argv`` and ``--metrics rmse,F``: its exit
        code, trace header fields and data rows."""
        code = main(["run", "--net", str(net_file), *argv, "--metrics", "rmse,F",
                     "--trace", str(path)])
        if code != EXIT_OK:
            return code, None, None
        lines = path.read_text().splitlines()
        meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        return code, meta, rows

    @pytest.mark.parametrize("algo", ["lite", "full"])
    def test_rows_are_their_runs(self, net_file, tmp_path, algo):
        # each row holds the final rmse and the least F (column 5) of the
        # run of that cell
        out, trace = tmp_path / "sweep.csv", tmp_path / "t.csv"
        shared = ["--algo", algo, "--iters", "6", "--init", "uniform", "--u0", "half"]
        code = main(["sweep", "--net", str(net_file), *shared, "--c-list", "0.1,0.5",
                     "--rho-list", "auto,0.2", "--seeds", "1,2", "--out", str(out)])
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        cells = [(c, rho, seed) for c in ("0.1", "0.5") for rho in ("auto", "0.2")
                 for seed in ("1", "2")]
        assert len(rows) == len(cells)
        for row, (c, rho, seed) in zip(rows, cells):
            argv = [*shared, "--c", c, "--rho", rho, "--seed", seed]
            code, meta, data = self.run_trace(net_file, trace, argv)
            assert code == EXIT_OK
            assert row[:3] == [meta["c"], meta["rho"], seed]
            assert row[3] == data[-1][1]
            assert row[4] == repr(min(float(r[5]) for r in data[1:]))
            assert row[5] == "0"

    @pytest.mark.parametrize("algo", ["lite", "full"])
    def test_divergent_row_is_its_diverged_run(self, net_file, tmp_path, algo):
        out, trace = tmp_path / "sweep.csv", tmp_path / "t.csv"
        shared = ["--algo", algo, "--iters", "6", "--rho", "0.2"]
        code = main(["sweep", "--net", str(net_file), *shared[:4], "--c-list", "0.1,1e308,0.5",
                     "--rho-list", "0.2", "--out", str(out)])
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[5] for r in rows] == ["0", "1", "0"]
        for row in rows:
            code, _, data = self.run_trace(net_file, trace, [*shared, "--c", row[0]])
            if row[5] == "1":
                assert code == EXIT_DIVERGED and row[3:5] == ["", ""]
            else:
                assert code == EXIT_OK and row[3] == data[-1][1]

    @pytest.mark.parametrize("batch", ["one cell", "five cells"])
    def test_batches_give_the_same_rows(self, net_file, tmp_path, monkeypatch, batch):
        # a grid split into batches writes what it writes whole, and no
        # batch holds more stacked rows than the budget allows
        def argv(out):
            return ["sweep", "--net", str(net_file), "--c-list", "0.05,0.1,1e308",
                    "--rho-list", "0.1,0.3", "--seeds", "1,2", "--iters", "8",
                    "--init", "uniform", "--out", str(out)]

        whole, split = tmp_path / "whole.csv", tmp_path / "split.csv"
        assert main(argv(whole)) == EXIT_OK
        edges = network.load_network(net_file)[0].sum_degree
        budget = 1 if batch == "one cell" else 5 * edges
        sizes = []
        stack = network.NetworkGraph.stack

        def recording(graph, copies):
            sizes.append(copies)
            return stack(graph, copies)

        monkeypatch.setattr(grid, "GRID_ROWS", budget)
        monkeypatch.setattr(network.NetworkGraph, "stack", recording)
        assert main(argv(split)) == EXIT_OK
        assert split.read_bytes() == whole.read_bytes()
        assert sum(sizes) == 12 and max(sizes) * edges <= max(budget, edges)
        assert sizes == ([1] * 12 if batch == "one cell" else [4, 4, 4])

    def test_zero_iters_is_invalid(self, net_file, capsys):
        code = main(["sweep", "--net", str(net_file), "--c-list", "0.1",
                     "--rho-list", "0.1", "--iters", "0"])
        assert code == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_interior_optimum_in_c(self, tmp_path):
        # a fixed-rho row: extreme penalties do worse than a moderate one
        net = tmp_path / "net.json"
        main(
            [
                "generate", "--nodes", "30", "--anchors", "6", "--range", "0.45",
                "--sigma", "0.0", "--seed", "2", "--out", str(net),
            ]
        )
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--net", str(net), "--c-list", "1e-4,0.2,2e3",
                "--rho-list", "0.2", "--iters", "400", "--init", "uniform",
                "--u0", "zeros", "--seed", "4", "--out", str(out), "--threads", "1",
            ]
        )
        assert code == EXIT_OK
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        rmse_by_c = {float(r[0]): float(r[3]) for r in rows}
        assert rmse_by_c[0.2] < rmse_by_c[1e-4]
        assert rmse_by_c[0.2] < rmse_by_c[2e3]


class TestAllAnchors:
    """A network whose nodes are all anchors solves, but has no position
    error: ``run`` and ``sweep`` leave rmse empty, ``compare`` refuses."""

    @pytest.fixture
    def all_anchors(self, tmp_path):
        path = tmp_path / "all.json"
        argv = ["generate", "--nodes", "6", "--anchors", "6", "--range", "0.9", "--out", str(path)]
        assert main(argv) == EXIT_OK
        return path

    @pytest.mark.parametrize("algo", ["lite", "full"])
    def test_run_leaves_rmse_empty(self, all_anchors, tmp_path, algo, capsys):
        trace, est = tmp_path / "t.csv", tmp_path / "e.json"
        argv = ["run", "--net", str(all_anchors), "--algo", algo, "--c", "0.1", "--rho", "0.1",
                "--iters", "3", "--trace", str(trace), "--est", str(est)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == "done: iters=3\n"
        rows = [line.split(",") for line in trace.read_text().splitlines()
                if not line.startswith("#")]
        assert rows[0][:2] == ["t", "rmse"] and len(rows) == 5
        assert all(row[1] == "" for row in rows[1:])
        graph, truth, _ = network.load_network(all_anchors)
        _, estimates, _ = network.load_network(est)
        assert np.array_equal(estimates.positions, truth.positions)

    @pytest.mark.parametrize("algo", ["lite", "full"])
    def test_sweep_leaves_rmse_empty(self, all_anchors, tmp_path, algo):
        out = tmp_path / "s.csv"
        argv = ["sweep", "--net", str(all_anchors), "--algo", algo, "--c-list", "0.1,0.2",
                "--rho-list", "0.1,auto", "--iters", "3", "--out", str(out)]
        assert main(argv) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "c,rho,seed,final_rmse,min_F,diverged"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4
        assert all(row[3] == "" and row[5] == "0" for row in rows)

    def test_compare_refuses(self, all_anchors, capsys):
        code = main(["compare", "--net", str(all_anchors), "--est", str(all_anchors)])
        assert code == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err == "error: every node is an anchor\n"


class TestBadNumbers:
    @pytest.mark.parametrize(
        "argv, option, entry",
        [
            (["run", "--c", "0.1", "--rho", "abc", "--iters", "2"], "--rho", "abc"),
            (["sweep", "--c-list", "0.1,x", "--rho-list", "0.1", "--iters", "2"],
             "--c-list", "x"),
            (["sweep", "--c-list", "0.1", "--rho-list", "0.1,", "--iters", "2"],
             "--rho-list", ""),
            (["sweep", "--c-list", "0.1", "--rho-list", "0.1", "--seeds", "1,a",
              "--iters", "2"], "--seeds", "a"),
        ],
        ids=["rho", "c-list", "empty-rho-list-entry", "seeds"],
    )
    def test_one_error_line(self, net_file, argv, option, entry, capsys):
        code = main([argv[0], "--net", str(net_file), *argv[1:]])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {option}: bad entry {entry!r}"]


class TestNonFinitePenalties:
    """Every command words a bad penalty alike, wherever it is checked."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--c", "inf", "--rho", "1", "--iters", "2"],
             "c must be positive and finite, got inf"),
            (["run", "--c", "inf", "--iters", "2"], "c must be positive and finite, got inf"),
            (["sweep", "--c-list", "inf", "--rho-list", "0.1", "--iters", "2"],
             "c must be positive and finite, got inf"),
            (["run", "--c", "0.1", "--rho", "nan", "--iters", "2"],
             "rho must be positive and finite, got nan"),
        ],
        ids=["run", "run-auto-rho", "sweep", "run-nan-rho"],
    )
    def test_one_error_line(self, net_file, argv, message, capsys):
        code = main([argv[0], "--net", str(net_file), *argv[1:]])
        assert code == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"


class TestNegativeSeeds:
    RUN = ["--c", "0.1", "--rho", "0.1", "--iters", "2"]

    @pytest.mark.parametrize(
        "argv, env, option",
        [
            (["generate", "--nodes", "5", "--anchors", "1", "--range", "0.8",
              "--out", "{tmp}/g.json", "--seed", "-1"], None, "--seed"),
            (["run", "--net", "{net}", *RUN, "--seed", "-1"], None, "--seed"),
            (["sweep", "--net", "{net}", "--c-list", "0.1", "--rho-list", "0.1",
              "--iters", "2", "--seed", "-1"], None, "--seed"),
            (["sweep", "--net", "{net}", "--c-list", "0.1", "--rho-list", "0.1",
              "--iters", "2", "--seeds", "1,-1"], None, "--seeds"),
            (["oracle-check", "--net", "{small}", "--trials", "1", "--seed", "-1"],
             None, "--seed"),
            (["run", "--net", "{net}", *RUN], "-3", "LOCADMM_SEED"),
            (["oracle-check", "--net", "{small}", "--trials", "1"], "-3", "LOCADMM_SEED"),
        ],
        ids=["generate", "run", "sweep", "sweep-seeds", "oracle-check", "env-run",
             "env-oracle-check"],
    )
    def test_one_error_line(self, net_file, tmp_path, monkeypatch, capsys, argv, env, option):
        small = tmp_path / "small.json"
        assert main(["generate", "--nodes", "6", "--anchors", "2", "--range", "0.8",
                     "--seed", "3", "--out", str(small)]) == EXIT_OK
        if env is not None:
            monkeypatch.setenv("LOCADMM_SEED", env)
        capsys.readouterr()
        fill = {"tmp": str(tmp_path), "net": str(net_file), "small": str(small)}
        code = main([a.format(**fill) for a in argv])
        assert code == EXIT_ERROR
        out, err = capsys.readouterr()
        seed = "-3" if env is not None else "-1"
        assert out == ""
        assert err == f"error: {option}: seeds must be non-negative integers, got {seed}\n"
        assert not (tmp_path / "g.json").exists()


class TestFileErrors:
    """A file a command cannot open or write ends it with one error line."""

    RUN = ["--c", "0.1", "--rho", "0.1", "--iters", "2"]
    SWEEP = ["--c-list", "0.1", "--rho-list", "0.1", "--iters", "2"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--nodes", "5", "--anchors", "1", "--range", "0.8",
             "--out", "{tmp}/nodir/g.json"],
            ["run", "--net", "{tmp}/missing.json", *RUN],
            ["run", "--net", "{net}", *RUN, "--trace", "{tmp}/nodir/t.csv"],
            ["run", "--net", "{net}", *RUN, "--est", "{tmp}/nodir/e.json"],
            ["sweep", "--net", "{tmp}/missing.json", *SWEEP],
            ["sweep", "--net", "{net}", *SWEEP, "--out", "{tmp}/nodir/s.csv"],
            ["oracle-check", "--net", "{tmp}/missing.json"],
            ["compare", "--net", "{tmp}/missing.json", "--est", "{net}"],
            ["compare", "--net", "{net}", "--est", "{tmp}/missing.json"],
        ],
        ids=["generate-out", "run-net", "run-trace", "run-est", "sweep-net", "sweep-out",
             "oracle-check-net", "compare-net", "compare-est"],
    )
    def test_one_error_line(self, net_file, tmp_path, argv, capsys):
        argv = [a.format(tmp=tmp_path, net=net_file) for a in argv]
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "nodir").exists()


class TestOutputsInPlace:
    """Outputs are rewritten in place: a shorter output over a longer one
    leaves the bytes a fresh path gets, and a device path works."""

    RUN = ["--c", "0.1", "--rho", "0.1", "--threads", "1"]

    def commands(self, net):
        """Per command: the argv of a longer output, of a shorter one, and
        its output flags."""
        run = ["run", "--net", net, *self.RUN]
        full = [*run, "--algo", "full", "--metrics", "all"]
        sweep = ["sweep", "--net", net, "--rho-list", "0.1", "--iters", "3", "--c-list"]
        generate = ["generate", "--anchors", "2", "--range", "0.6", "--seed", "3", "--nodes"]
        return {
            "run-lite": ([*run, "--iters", "20"], [*run, "--iters", "5"], ["--trace", "--est"]),
            "run-full": ([*full, "--iters", "20"], [*full, "--iters", "5"], ["--trace", "--est"]),
            "sweep": ([*sweep, "0.1,0.2,0.3"], [*sweep, "0.1"], ["--out"]),
            "generate": ([*generate, "40"], [*generate, "8"], ["--out"]),
        }

    @pytest.mark.parametrize("command", ["run-lite", "run-full", "sweep", "generate"])
    def test_shorter_output_over_a_longer_one(self, net_file, tmp_path, command):
        longer, shorter, flags = self.commands(str(net_file))[command]

        def outputs(name):
            return [arg for flag in flags for arg in (flag, str(tmp_path / (name + flag[2:])))]

        assert main(longer + outputs("over")) == EXIT_OK
        assert main(shorter + outputs("over")) == EXIT_OK
        assert main(shorter + outputs("fresh")) == EXIT_OK
        for flag in flags:
            over, fresh = tmp_path / ("over" + flag[2:]), tmp_path / ("fresh" + flag[2:])
            assert over.read_bytes() == fresh.read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_outputs_to_dev_null(self, net_file):
        run = ["run", "--net", str(net_file), *self.RUN, "--iters", "3"]
        assert main(run + ["--trace", "/dev/null", "--est", "/dev/null"]) == EXIT_OK
        assert main(run + ["--algo", "full", "--metrics", "all", "--trace", "/dev/null"]) == EXIT_OK
        assert main(["sweep", "--net", str(net_file), "--c-list", "0.1", "--rho-list", "0.1",
                     "--iters", "3", "--out", "/dev/null"]) == EXIT_OK
        assert main(["generate", "--nodes", "6", "--anchors", "2", "--range", "0.8",
                     "--out", "/dev/null"]) == EXIT_OK


class TestSchemas:
    """A schema-1 network file and its schema-2 re-save give the same
    outputs, byte for byte."""

    @pytest.fixture
    def both(self, net_file, tmp_path):
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        json_save_network(one, *network.load_network(net_file))
        network.save_network(two, *network.load_network(one))
        assert two.read_bytes() == net_file.read_bytes()
        return one, two

    @pytest.mark.parametrize("metrics", [[], ["--metrics", "all"]], ids=["default", "all"])
    @pytest.mark.parametrize("algo", ["lite", "full"])
    def test_run_outputs(self, both, tmp_path, algo, metrics):
        outputs = []
        for net in both:
            trace, est = tmp_path / f"{net.stem}.csv", tmp_path / f"{net.stem}-est.json"
            argv = ["run", "--net", str(net), "--algo", algo, "--c", "0.1", "--rho", "0.1",
                    "--iters", "20", *metrics, "--trace", str(trace), "--est", str(est)]
            assert main(argv) == EXIT_OK
            outputs.append((trace.read_bytes(), est.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_sweep_outputs(self, both, tmp_path):
        outputs = []
        for net in both:
            out = tmp_path / f"{net.stem}-sweep.csv"
            argv = ["sweep", "--net", str(net), "--c-list", "0.1,0.2", "--rho-list", "0.1,auto",
                    "--iters", "5", "--out", str(out)]
            assert main(argv) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestOracleCheckCommand:
    def test_pass_and_exit_zero(self, tmp_path, capsys):
        net = tmp_path / "small.json"
        main(
            [
                "generate", "--nodes", "6", "--anchors", "2", "--range", "0.8",
                "--sigma", "0.01", "--seed", "4", "--out", str(net),
            ]
        )
        code = main(["oracle-check", "--net", str(net), "--trials", "5"])
        assert code == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_refuses_large_instance(self, net_file, capsys):
        code = main(["oracle-check", "--net", str(net_file)])
        assert code == EXIT_ERROR
        assert "toy instances" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_refuses_no_trials(self, tmp_path, trials, capsys):
        net = tmp_path / "small.json"
        main(["generate", "--nodes", "6", "--anchors", "2", "--range", "0.8",
              "--sigma", "0.01", "--seed", "3", "--out", str(net)])
        capsys.readouterr()
        assert main(["oracle-check", "--net", str(net), "--trials", trials]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: trials must be >= 1, got {trials}\n"


class TestIsolatedNode:
    """A node without a neighbor has no parameter bounds: ``--rho auto``
    ends the command with one error line that names the node."""

    @pytest.fixture
    def iso_file(self, net_file, tmp_path):
        # edited as a schema-1 document, so the per-entry reader is covered too
        path = tmp_path / "iso.json"
        json_save_network(path, *network.load_network(net_file))
        data = json.loads(path.read_text())
        data["edges"] = [e for e in data["edges"] if 5 not in (e["i"], e["j"])]
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--c", "0.1", "--iters", "3"],
            ["sweep", "--c-list", "0.1", "--rho-list", "0.1,auto", "--iters", "3",
             "--out", "{tmp}/s.csv"],
        ],
        ids=["run", "sweep"],
    )
    def test_auto_rho_names_the_node(self, iso_file, tmp_path, argv, capsys):
        argv = [a.format(tmp=tmp_path) for a in argv]
        with pytest.warns(UserWarning, match="not connected"):
            code = main([argv[0], "--net", str(iso_file), *argv[1:]])
        assert code == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: parameter bounds need every node to have a neighbor; node 5 has none\n"
        )
        assert not (tmp_path / "s.csv").exists()


class TestCompare:
    def test_recomputes_rmse(self, net_file, tmp_path, capsys):
        est = tmp_path / "est.json"
        main(
            [
                "run", "--net", str(net_file), "--c", "0.1", "--rho", "0.1",
                "--iters", "30", "--init", "truth", "--est", str(est),
                "--threads", "1",
            ]
        )
        capsys.readouterr()
        code = main(["compare", "--net", str(net_file), "--est", str(est)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        value = float(printed.strip().split("=", 1)[1])

        graph, truth, _ = network.load_network(net_file)
        _, est_positions, _ = network.load_network(est)
        assert value == network.rmse(est_positions.positions, truth, graph)

    @pytest.mark.parametrize(
        "other, message",
        [
            (["--nodes", "12", "--dim", "3", "--range", "0.9"], "holds 12 positions in dim 3"),
            (["--nodes", "20", "--range", "0.5"], "holds 20 positions in dim 2"),
        ],
        ids=["other-dim", "more-nodes"],
    )
    def test_estimates_of_another_network_rejected(self, net_file, tmp_path, capsys,
                                                   other, message):
        est = tmp_path / "other.json"
        assert main(["generate", "--anchors", "3", "--seed", "1", "--out", str(est)] + other) == 0
        capsys.readouterr()
        code = main(["compare", "--net", str(net_file), "--est", str(est)])
        assert code == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {est} {message}, but {net_file} has 12 nodes in dim 2\n"

    def test_files_without_positions(self, net_file, tmp_path, capsys):
        graph, _, meas = network.load_network(net_file)
        blind = tmp_path / "blind.json"
        network.save_network(blind, graph, None, meas)
        for net, est, message in [
            (blind, net_file, f"{blind} carries no positions to compare against"),
            (net_file, blind, f"{blind} carries no positions"),
        ]:
            assert main(["compare", "--net", str(net), "--est", str(est)]) == EXIT_ERROR
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: {message}\n"


class TestParserReuse:
    """``main`` builds its parser once per process: no option, default or
    ``--wall`` state may carry over from one call to the next."""

    @staticmethod
    def calls(net, out):
        run = ["run", "--net", str(net), "--c", "0.1", "--iters", "5"]
        return [
            run + ["--algo", "full", "--rho", "0.1", "--wall", "--metrics", "all",
                   "--trace", str(out / "wall.csv"), "--est", str(out / "wall.json")],
            run + ["--trace", str(out / "plain.csv"), "--est", str(out / "plain.json")],
            ["sweep", "--net", str(net), "--c-list", "0.1,1e308", "--rho-list", "0.1,0.2",
             "--iters", "3"],
            run + ["--rho", "abc"],
            run + ["--iters", "abc"],
        ]

    @staticmethod
    def outcome(argv, out, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        printed = capsys.readouterr()
        files = {}
        for path in sorted(out.iterdir()):
            text = path.read_text()
            if path.name == "wall.csv":  # the wall_ms column differs from run to run
                text = "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())
            files[path.name] = text
            path.unlink()
        return code, printed.out, printed.err, files

    def test_calls_match_fresh_parsers(self, net_file, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        fresh = []
        for argv in self.calls(net_file, out):
            build_parser.cache_clear()
            fresh.append(self.outcome(argv, out, capsys))
        build_parser.cache_clear()
        shared = [self.outcome(argv, out, capsys) for argv in self.calls(net_file, out)]
        assert build_parser.cache_info().misses == 1
        assert shared == fresh
        codes = [c for c, *_ in fresh]
        assert codes == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_ERROR, ("exit", 2)]
        assert fresh[2][1].endswith(",,,1\n")  # the divergent sweep cell
        plain = fresh[1][3]["plain.csv"].splitlines()
        assert plain[-1].endswith(",")  # no wall time without --wall
