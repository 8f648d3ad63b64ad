import os

import pytest

from locadmm import network
from locadmm.harness import EXIT_DIVERGED, EXIT_ERROR, EXIT_OK, main


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
        assert ma.d != mb.d

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
