"""CLI: subcommands, exit codes, output schemas, determinism."""

import csv
import io
import json

import numpy as np
import pytest

import walkdist.cli as cli
from walkdist import (
    Guvab,
    NoLaterNeighborError,
    complete_graph,
    cycle_graph,
    enumerate_connected_graphs,
    graph_to_text,
    path_graph,
    xi_k,
)
from walkdist import analysis, transport


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(graph_to_text(cycle_graph(4)))
    return str(path)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text(graph_to_text(path_graph(3)))
    return str(path)


def _parse_trace_csv(text):
    rows = []
    footer = None
    for line in text.strip().splitlines():
        if line.startswith("# "):
            footer = json.loads(line[2:])
        elif not line.startswith("k,"):
            k, w, err = line.split(",")
            rows.append((int(k), float(w), float(err)))
    return rows, footer


# -- classify -----------------------------------------------------------------------

def test_classify_c4(c4_file, capsys):
    code, out, _ = run_cli(
        ["classify", "--graph", c4_file, "--u", "0", "--v", "1", "--alpha", "0", "--beta", "0"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["category"] == "W1"
    assert report["limit"] == 1.0
    assert report["constancy_predicted"] is True


def test_classify_malformed_graph(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 0\n")
    code, _, err = run_cli(
        ["classify", "--graph", str(bad), "--u", "0", "--v", "1", "--alpha", "0", "--beta", "0"],
        capsys,
    )
    assert code == 2
    assert "error" in err


def test_classify_vertex_out_of_range(c4_file, capsys):
    code, _, err = run_cli(
        ["classify", "--graph", c4_file, "--u", "9", "--v", "1", "--alpha", "0", "--beta", "0"],
        capsys,
    )
    assert code == 2
    assert "u=9" in err


def test_classify_from_config(tmp_path, c4_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": c4_file, "u": 0, "v": 1, "alpha": 0.0, "beta": 0.3}))
    code, out, _ = run_cli(["classify", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["category"] == "W_HALF"


@pytest.mark.parametrize("key", ["tol_gap", "tol_mass", "colour"])
def test_config_rejects_unknown_key(key, tmp_path, c4_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"graph": c4_file, "u": 0, "v": 1, "alpha": 0.0, "beta": 0.3, key: 1e-10}
    ))
    code, out, err = run_cli(["classify", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert key in err


@pytest.mark.parametrize(
    "raw",
    ["7", '{"graph": "GRAPH", "u": null, "v": 1, "alpha": 0.0, "beta": 0.3}',
     '{"graph": "GRAPH", "u": 1.7, "v": 0, "alpha": 0.0, "beta": 0.3}',
     '{"graph": null, "u": 0, "v": 1, "alpha": 0.0, "beta": 0.3}'],
    ids=["top-level-number", "null-u", "fractional-u", "null-graph"],
)
def test_config_rejects_malformed_values(raw, tmp_path, c4_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(raw.replace("GRAPH", c4_file))
    code, out, err = run_cli(["classify", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert "config" in err


@pytest.mark.parametrize("command", ["classify", "tree-transport"])
def test_json_only_commands_reject_csv_format(command, c4_file, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--graph", c4_file, "--u", "0", "--v", "1",
                  "--alpha", "0", "--beta", "0", "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--u", "0", "--v", "1", "--alpha", "0", "--beta", "0"],
        ["distance", "--mu", "mu.csv", "--nu", "nu.csv"],
        ["sweep", "--nmax", "2"],
    ],
)
def test_seed_flag_is_gone(argv, c4_file, capsys):
    if argv[0] != "sweep":
        argv = argv + ["--graph", c4_file]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--u", "0", "--v", "1", "--alpha", "0", "--beta", "0", "--tol-mass", "1e-9"],
        ["trace", "--u", "0", "--v", "1", "--alpha", "0", "--beta", "0", "--tol-mass", "1e-9"],
        ["tree-transport", "--u", "0", "--v", "1", "--alpha", "0", "--beta", "0",
         "--tol-gap", "1e-9"],
        ["distance", "--mu", "mu.csv", "--nu", "nu.csv", "--tol-gap", "1e-9"],
        ["sweep", "--nmax", "2", "--tol-mass", "1e-9"],
        ["sweep", "--nmax", "2", "--format", "csv"],
        ["classify", "--u", "0", "--v", "1", "--alpha", "0", "--beta", "0", "--tol-gap", "1e-9"],
        ["trace", "--u", "0", "--v", "1", "--alpha", "0", "--beta", "0", "--tol-gap", "1e-9"],
        ["sweep", "--nmax", "2", "--tol-gap", "1e-9"],
        ["tree-transport", "--u", "0", "--v", "1", "--alpha", "0", "--beta", "0",
         "--tol-mass", "1e-9"],
        ["distance", "--mu", "mu.csv", "--nu", "nu.csv", "--tol-mass", "1e-9"],
        ["sweep", "--nmax", "2", "--kmax", "400"],
    ],
)
def test_unread_flags_are_gone(argv, c4_file, capsys):
    if argv[0] != "sweep":
        argv = argv + ["--graph", c4_file]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["classify"], ["trace", "--format", "json"]])
def test_oscillating_pair_reports_json(argv, tmp_path, capsys):
    # frozen target on the path 0-1: W_k alternates 1, 0, 1, ... and never converges
    p2 = tmp_path / "p2.txt"
    p2.write_text(graph_to_text(path_graph(2)))
    code, out, _ = run_cli(
        argv + ["--graph", str(p2), "--u", "0", "--v", "1", "--alpha", "0", "--beta", "1"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    report = payload.get("report", payload)
    assert report["converges"] is False
    assert (report["limit_even"], report["limit_odd"]) == (1.0, 0.0)


# -- trace ---------------------------------------------------------------------------

def test_trace_gluvab_constant(p3_file, capsys):
    code, out, _ = run_cli(
        [
            "trace", "--graph", p3_file, "--u", "1", "--v", "2",
            "--alpha", str(1 / 3), "--beta", "1", "--kmax", "30",
        ],
        capsys,
    )
    assert code == 0
    rows, footer = _parse_trace_csv(out)
    assert len(rows) == 31
    assert all(w == 1.0 for _, w, _ in rows)
    assert footer["rate_even"] is None and footer["rate_odd"] is None


def test_trace_w_half_rate_column(c4_file, capsys):
    beta = 0.3
    code, out, _ = run_cli(
        [
            "trace", "--graph", c4_file, "--u", "0", "--v", "1",
            "--alpha", "0", "--beta", str(beta), "--kmax", "40",
        ],
        capsys,
    )
    assert code == 0
    rows, footer = _parse_trace_csv(out)
    # error column halves geometrically with ratio |1 - 2 beta|
    ratio = abs(1 - 2 * beta)
    for k, _, err in rows:
        assert err == pytest.approx(0.5 * ratio**k, abs=1e-9)
    assert footer["rate_even"]["lambda"] == pytest.approx(ratio, abs=1e-3)
    assert footer["rate_odd"]["lambda"] == pytest.approx(ratio, abs=1e-3)


def test_trace_kmax_zero(c4_file, capsys):
    code, out, _ = run_cli(
        ["trace", "--graph", c4_file, "--u", "0", "--v", "2",
         "--alpha", "0", "--beta", "0", "--kmax", "0"],
        capsys,
    )
    assert code == 0
    rows, _ = _parse_trace_csv(out)
    assert rows[0][:2] == (0, 2.0)  # W_0 = d(u, v)
    assert len(rows) == 1


def test_trace_deterministic(c4_file, capsys):
    argv = [
        "trace", "--graph", c4_file, "--u", "0", "--v", "1",
        "--alpha", "0.25", "--beta", "0.75", "--kmax", "25",
    ]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


# -- tree-transport ---------------------------------------------------------------------

def test_tree_transport_w1_large_k(c4_file, capsys):
    code, out, _ = run_cli(
        [
            "tree-transport", "--graph", c4_file, "--u", "0", "--v", "1",
            "--alpha", "0", "--beta", "0", "--k", "20",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["inequalities"]["holds"] is True
    assert payload["cost"] == pytest.approx(1.0, abs=1e-9)
    assert payload["wasserstein"] == pytest.approx(1.0, abs=1e-9)
    assert payload["half_l1"] == pytest.approx(1.0, abs=1e-9)


def test_tree_transport_point_masses_fail_inequalities(tmp_path, capsys):
    p5 = tmp_path / "p5.txt"
    p5.write_text(graph_to_text(path_graph(5)))
    code, out, _ = run_cli(
        [
            "tree-transport", "--graph", str(p5), "--u", "0", "--v", "4",
            "--alpha", "0", "--beta", "0", "--k", "0",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["inequalities"]["holds"] is False


def test_tree_transport_zero_xi(c4_file, capsys):
    code, out, _ = run_cli(
        [
            "tree-transport", "--graph", c4_file, "--u", "2", "--v", "2",
            "--alpha", "0.5", "--beta", "0.5", "--k", "3",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cost"] == 0.0
    assert payload["wasserstein"] == 0.0


def test_tree_transport_dust_split_xi(tmp_path, capsys):
    # xi_43 on K3 is ~1.1e-13 at vertex 1, split into two arcs below the dust level
    k3 = tmp_path / "k3.txt"
    k3.write_text(graph_to_text(complete_graph(3)))
    code, out, _ = run_cli(
        [
            "tree-transport", "--graph", str(k3), "--u", "1", "--v", "0",
            "--alpha", "0", "--beta", "0", "--k", "43",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert 0.0 < payload["half_l1"] < 1e-12
    assert payload["trace"]["plan"] == []


def test_tree_transport_precondition_exit_code(c4_file, capsys, monkeypatch):
    # canonical orderings are not known to strand mass; exercise the exit-code
    # contract by injecting the failure
    def boom(*args, **kwargs):
        raise NoLaterNeighborError(step=2, vertex=0)

    monkeypatch.setattr(cli.tree_transport, "run_tree_transport", boom)
    code, _, err = run_cli(
        [
            "tree-transport", "--graph", c4_file, "--u", "0", "--v", "1",
            "--alpha", "0", "--beta", "0", "--k", "1",
        ],
        capsys,
    )
    assert code == 4
    assert "step 2" in err


# -- distance ------------------------------------------------------------------------------

def test_distance_json(tmp_path, p3_file, capsys):
    mu = tmp_path / "mu.csv"
    mu.write_text("vertex,mass\n0,1.0\n")
    nu = tmp_path / "nu.csv"
    nu.write_text("vertex,mass\n2,1.0\n")
    code, out, _ = run_cli(
        ["distance", "--graph", p3_file, "--mu", str(mu), "--nu", str(nu)], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2.0
    assert payload["duality_gap"] <= 1e-9


def test_distance_csv_outputs(tmp_path, p3_file, capsys):
    mu = tmp_path / "mu.csv"
    mu.write_text("vertex,mass\n0,0.5\n1,0.5\n")
    nu = tmp_path / "nu.csv"
    nu.write_text("vertex,mass\n2,1.0\n")
    out_path = tmp_path / "plan.csv"
    code, out, _ = run_cli(
        [
            "distance", "--graph", p3_file, "--mu", str(mu), "--nu", str(nu),
            "--format", "csv", "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    plan_rows = list(csv.DictReader(io.StringIO(out_path.read_text())))
    assert sum(float(r["mass"]) for r in plan_rows) == pytest.approx(1.0)
    pot_rows = list(csv.DictReader(io.StringIO((tmp_path / "plan.csv.potential.csv").read_text())))
    assert len(pot_rows) == 3


def test_distance_builds_no_metric(tmp_path, p3_file, capsys, monkeypatch):
    from walkdist import graphs

    calls = []
    build = graphs.all_pairs_distances
    monkeypatch.setattr(graphs, "all_pairs_distances", lambda g: calls.append(g) or build(g))
    mu = tmp_path / "mu.csv"
    mu.write_text("vertex,mass\n0,1.0\n")
    nu = tmp_path / "nu.csv"
    nu.write_text("vertex,mass\n2,1.0\n")
    code, out, _ = run_cli(
        ["distance", "--graph", p3_file, "--mu", str(mu), "--nu", str(nu)], capsys
    )
    assert code == 0
    assert json.loads(out)["value"] == 2.0
    assert calls == []


@pytest.mark.parametrize("beta", ["0", "0.3"], ids=["W1", "W_HALF"])
def test_trace_below_beta_one_builds_no_metric(beta, c4_file, capsys, monkeypatch):
    from walkdist import graphs

    calls = []
    build = graphs.all_pairs_distances
    monkeypatch.setattr(graphs, "all_pairs_distances", lambda g: calls.append(g) or build(g))
    argv = ["trace", "--graph", c4_file, "--u", "0", "--v", "1", "--alpha", "0", "--beta", beta]
    code, _, _ = run_cli(argv + ["--kmax", "10"], capsys)
    assert code == 0
    assert calls == []


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or fn(*args))
    return calls


@pytest.mark.parametrize("u", ["0", "1"], ids=["u-ne-v", "u-eq-v"])
def test_trace_beta_one_solves_no_flow_and_builds_no_metric(u, c4_file, capsys, monkeypatch):
    from walkdist import graphs

    solves = _count_calls(monkeypatch, transport, "_min_cost_flow")
    metrics = _count_calls(monkeypatch, graphs, "all_pairs_distances")
    argv = ["trace", "--graph", c4_file, "--u", u, "--v", "1", "--alpha", "0.3", "--beta", "1"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert len(_parse_trace_csv(out)[0]) == 61
    assert solves == [] and metrics == []


def test_trace_below_beta_one_solves_every_step_after_the_first(c4_file, capsys, monkeypatch):
    # xi_0 = delta_u - delta_v takes the closed form; every later xi_k of this
    # pair has two sources and two sinks
    solves = _count_calls(monkeypatch, transport, "_min_cost_flow")
    argv = ["trace", "--graph", c4_file, "--u", "0", "--v", "1", "--alpha", "0", "--beta", "0.3"]
    code, _, _ = run_cli(argv + ["--kmax", "60"], capsys)
    assert code == 0
    assert len(solves) == 60


def test_distance_unbalanced(tmp_path, p3_file, capsys):
    mu = tmp_path / "mu.csv"
    mu.write_text("0,1.0\n")
    nu = tmp_path / "nu.csv"
    nu.write_text("2,0.5\n")
    code, _, err = run_cli(
        ["distance", "--graph", p3_file, "--mu", str(mu), "--nu", str(nu)], capsys
    )
    assert code == 2
    assert "mass" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_distance_rejects_non_finite_mass(bad, tmp_path, p3_file, capsys):
    mu = tmp_path / "mu.csv"
    mu.write_text(f"vertex,mass\n0,{bad}\n1,1.0\n")
    nu = tmp_path / "nu.csv"
    nu.write_text("vertex,mass\n2,1.0\n")
    code, out, err = run_cli(
        ["distance", "--graph", p3_file, "--mu", str(mu), "--nu", str(nu)], capsys
    )
    assert code == 2
    assert out == ""
    assert "non-finite" in err


# -- sweep ----------------------------------------------------------------------------------

def test_sweep_n3_default_grid(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(["sweep", "--nmax", "3", "--out", str(out_path)], capsys)
    assert code == 0
    text = out_path.read_text()
    data_rows = [
        line for line in text.strip().splitlines()[1:] if not line.startswith("#")
    ]
    # 1 + 4 + 4*9 pairs of vertices across graphs, times 21 laziness pairs
    assert len(data_rows) == (1 + 4 + 4 * 9) * 21
    assert "# skipped_alpha_gt_beta_pairs=15" in text
    reader = csv.DictReader(
        io.StringIO("\n".join(line for line in text.splitlines() if not line.startswith("#")))
    )
    for row in reader:
        assert row["category"] in {"W0", "W_HALF", "W1", "BETA1"}
        assert row["constancy_agree"] in {"true", ""} or row["constancy_agree"] == "true"
        assert float(row["err_even"]) <= 1e-5


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--nmax", "0"], "enumeration supports 1..6 vertices, got 0"),
        (["--nmax", "7"], "enumeration supports 1..6 vertices, got 7"),
        (["--nmax", "3", "--grid", "nan"], "laziness=nan outside [0, 1]"),
        (["--nmax", "3", "--grid", "0.5,1.5"], "laziness=1.5 outside [0, 1]"),
    ],
    ids=["nmax-0", "nmax-7", "grid-nan", "grid-1.5"],
)
def test_sweep_rejects_bad_arguments_before_output(argv, message, tmp_path, capsys):
    # a rejected sweep writes no CSV header, neither to stdout nor to a new --out file
    out_path = tmp_path / "sweep.csv"
    for extra in ([], ["--out", str(out_path)]):
        code, out, err = run_cli(["sweep", *argv, *extra], capsys)
        assert (code, out) == (2, "")
        assert message in err
        assert not out_path.exists()


def test_sweep_custom_grid_skips_reversed_pairs(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        ["sweep", "--nmax", "2", "--grid", "0.75,0.25", "--out", str(out_path)], capsys
    )
    assert code == 0
    text = out_path.read_text()
    assert "# skipped_alpha_gt_beta_pairs=1" in text
    data_rows = [l for l in text.strip().splitlines()[1:] if not l.startswith("#")]
    # single-vertex graph (1 pair) plus P2 (4 pairs), 3 kept laziness pairs
    assert len(data_rows) == (1 + 4) * 3


def test_sweep_n4_full_grid_exits_clean(tmp_path, capsys):
    # full exhaustive harness; ~5 s
    out_path = tmp_path / "sweep4.csv"
    code, _, _ = run_cli(
        ["sweep", "--nmax", "4", "--grid", "0,0.25,0.5,0.3333333333333333,0.75,1",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    assert "# discrepancies=0" in out_path.read_text()


def test_sweep_corner_table_matches_flow_solver():
    # every connected labeled graph with n <= 4, every default-grid pair
    ks = (0, 1, 2, 7, 40, 400)
    grid = cli.SWEEP_GRID
    for graph in enumerate_connected_graphs(4):
        mu = cli._sweep_series(graph, grid, max(ks))
        for i, a in enumerate(grid):
            for j, b in enumerate(grid):
                if a > b:
                    continue
                xi, table = cli._pair_table(graph, mu, i, j)
                for k in ks:
                    for u in range(graph.n):
                        for v in range(graph.n):
                            flow = transport._flow_value(graph, xi[k, u, v])
                            assert abs(table[k, u, v] - flow) <= 1e-12, (graph, a, b, k, u, v)


def test_xi_k_matches_sweep_table_states():
    # vector and batched products round differently: close, not bitwise equal
    ks = (0, 1, 7, 40)
    pairs = ((0.0, 0.5), (0.25, 1.0 / 3.0), (0.0, 0.0), (1.0 / 3.0, 0.75))
    grid = cli.SWEEP_GRID
    for graph in enumerate_connected_graphs(4):
        mu = cli._sweep_series(graph, grid, max(ks))
        for a, b in pairs:
            xi, _ = cli._pair_table(graph, mu, grid.index(a), grid.index(b))
            for k in ks:
                for u in range(graph.n):
                    for v in range(graph.n):
                        got = xi_k(Guvab(graph, u, v, a, b), k).values
                        gap = np.abs(got - xi[k, u, v]).max()
                        assert gap <= 1e-15, (graph, a, b, k, u, v, gap)


def _flow_off(solve):
    return lambda graph, xi: solve(graph, xi) + 1e-6


def _expansion_off(expand):
    def scaled(graph, alpha, beta):
        bases, coef = expand(graph, alpha, beta)
        return bases, coef * (1.0 + 1e-6)

    return scaled


@pytest.mark.parametrize(
    "module, name, fake, check",
    [
        (transport, "_flow_value", _flow_off, "flow_sample"),
        (analysis, "parity_expansion", _expansion_off, "expansion"),
    ],
    ids=["flow_sample", "expansion"],
)
def test_sweep_spot_check_is_live(module, name, fake, check, tmp_path, capsys, monkeypatch):
    # a flow solver or an expansion off by 1e-6 must be caught and named on stderr
    monkeypatch.setattr(module, name, fake(getattr(module, name)))
    out_path = tmp_path / "sweep.csv"
    code, out, err = run_cli(["sweep", "--nmax", "3", "--out", str(out_path)], capsys)
    assert code == 3
    count = int(out_path.read_text().splitlines()[-1].split("=")[1])
    assert count > 0
    assert f"{count} discrepancies" in out
    named = [line for line in err.splitlines() if " failed at " in line]
    assert named
    for line in named:
        checks, key = line.removeprefix("sweep: ").split(" failed at ")
        assert check in checks.split(", ")
        assert key.startswith("graph ") and ", alpha " in key


def test_sweep_oscillating_pair_is_not_constant():
    # frozen v-walk, alternating u-walk on P2: parity limits 1 and 0, no rate
    out = io.StringIO()
    discrepancies, _ = cli.run_sweep(2, [0.0, 1.0], out)
    assert discrepancies == 0
    rows = {tuple(line.split(",")[:6]): line.split(",") for line in out.getvalue().splitlines()}
    row = rows[("0-1", "2", "0", "1", "0", "1")]
    assert row[7:9] == ["1", "0"]
    assert row[11:16] == ["false", "true", "", "", "true"]


def test_sweep_runs_every_check_once(monkeypatch):
    # one flow spot check per row and one parity expansion per (graph, laziness pair)
    calls = {"_flow_value": 0, "_min_cost_flow": 0, "parity_expansion": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(transport, "_flow_value")
    counted(transport, "_min_cost_flow")
    counted(analysis, "parity_expansion")
    out = io.StringIO()
    assert cli.run_sweep(3, list(cli.SWEEP_GRID), out) == (0, 15)
    rows = [line for line in out.getvalue().splitlines()[1:] if not line.startswith("#")]
    assert calls["_flow_value"] == len(rows) == (1 + 4 + 4 * 9) * 21
    assert calls["_min_cost_flow"] == len(rows)
    assert calls["parity_expansion"] == (1 + 1 + 4) * 21


def test_sweep_builds_each_distance_row_once(monkeypatch):
    from walkdist import graphs

    counts = {}
    bfs = graphs._bfs

    def counted(adjacency, sources):
        key = (adjacency, tuple(sources))
        counts[key] = counts.get(key, 0) + 1
        return bfs(adjacency, sources)

    monkeypatch.setattr(graphs, "_bfs", counted)
    cli.run_sweep(3, list(cli.SWEEP_GRID), io.StringIO())
    # vertex 0 also roots the connectivity check, the bipartition and the corners
    rows = {key: c for key, c in counts.items() if key[1] != (0,)}
    assert rows and set(rows.values()) == {1}


def test_sweep_times_each_vertex_count(capsys):
    out = io.StringIO()
    cli.run_sweep(3, [0.0, 0.5], out)
    text = out.getvalue()
    err = capsys.readouterr().err.splitlines()
    assert err == [line for line in err if line.startswith("sweep: n ")]
    counts = [line.split(": ", 2)[2].split(", ")[:2] for line in err]
    assert counts == [["1 graphs", "3 rows"], ["1 graphs", "12 rows"], ["4 graphs", "108 rows"]]
    assert len(text.splitlines()) == 1 + 3 + 12 + 108 + 2
