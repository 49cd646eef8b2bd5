"""Command line behavior: exit codes, emitted files, determinism."""

from __future__ import annotations

import pytest

from conftest import AGENTS_FILE, DATA_DIR, NETWORK_FILE, UNSOLVABLE_GRIDS
from peermarket import bisection_clearing
from peermarket.cli import MAX_FEE_POINTS, main

FAST_SOLVER = ["--eps-primal", "0.05", "--max-iterations", "8000"]
# the bundled distance scenario polishes at iteration 30, so earlier stops show
DISTANCE_SCENARIO = str(DATA_DIR / "distance.ini")


def cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def write_free_scenario(tmp_path):
    path = tmp_path / "case.ini"
    path.write_text(
        f"[network]\npath = {NETWORK_FILE}\n\n"
        f"[agents]\npath = {AGENTS_FILE}\n\n"
        "[policy]\nkind = free\n"
    )
    return str(path)


@pytest.fixture
def free_scenario(tmp_path):
    return write_free_scenario(tmp_path)


def test_usage_error_exits_1():
    assert cli("frobnicate") == 1
    assert cli("run") == 1
    assert cli("sweep", "x.ini", "--fee-min", "0") == 1


def test_validation_error_exits_2(tmp_path, free_scenario):
    bad = tmp_path / "bad.ini"
    bad.write_text("[network]\npath = nowhere.net\n")
    assert cli("run", str(bad), "--output", str(tmp_path / "out")) == 2


def test_infeasible_market_exits_2(tmp_path, capsys):
    # the consumer must buy at least 200 MW from a producer capped at 50 MW
    agents = tmp_path / "agents.csv"
    agents.write_text("agent_id,bus,role,a,b,c,p_min,p_max\n"
                      "1,30,producer,0.1,20,0,0,50\n"
                      "2,1,consumer,0.1,80,0,-500,-200\n")
    scenario = tmp_path / "case.ini"
    scenario.write_text(f"[network]\npath = {NETWORK_FILE}\n\n"
                        f"[agents]\npath = {agents}\n\n[policy]\nkind = free\n")
    assert cli("run", str(scenario), "--output", str(tmp_path / "out")) == 2
    assert "infeasible market" in capsys.readouterr().err


def test_removed_solver_key_exits_2(tmp_path, free_scenario, capsys):
    with open(free_scenario, "a", encoding="utf-8") as handle:
        handle.write("\n[solver]\nbeta0 = 0.1\n")
    assert cli("run", free_scenario, "--output", str(tmp_path / "out")) == 2
    assert "unknown key 'beta0' in [solver]" in capsys.readouterr().err


def test_removed_solver_flag_is_usage_error(tmp_path, free_scenario):
    assert cli("run", free_scenario, "--beta0", "0.1",
               "--output", str(tmp_path / "out")) == 1


@pytest.mark.parametrize("key", ["alpha0", "alpha_decay", "rho"])
def test_derived_gain_key_exits_2(tmp_path, free_scenario, capsys, key):
    # the penalty rho = s h follows from the cost curves and the residuals;
    # no key sets it or the gains it replaced
    with open(free_scenario, "a", encoding="utf-8") as handle:
        handle.write(f"\n[solver]\n{key} = 0.01\n")
    assert cli("run", free_scenario, "--output", str(tmp_path / "out")) == 2
    assert f"unknown key '{key}' in [solver]" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["tau", "delta"])
def test_exploration_schedule_key_exits_2(tmp_path, free_scenario, capsys, key):
    # the local step is solved exactly and has no schedule; no key sets one
    with open(free_scenario, "a", encoding="utf-8") as handle:
        handle.write(f"\n[solver]\n{key} = 0.5\n")
    assert cli("run", free_scenario, "--output", str(tmp_path / "out")) == 2
    assert f"unknown key {key!r} in [solver]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("flag", ["--tau", "--delta"])
def test_exploration_schedule_flag_is_usage_error(tmp_path, free_scenario, command, flag):
    args = [free_scenario, "--max-iterations", "1"]
    if command == "sweep":
        args += ["--policy", "unique", "--fee-min", "0", "--fee-max", "0"]
    assert cli(command, *args, flag, "0.5", "--output", str(tmp_path / "out")) == 1


@pytest.mark.parametrize("flag", ["--alpha0", "--alpha-decay", "--rho"])
def test_derived_gain_flag_is_usage_error(tmp_path, free_scenario, flag):
    assert cli("run", free_scenario, flag, "0.01", "--output", str(tmp_path / "out")) == 1


def test_non_finite_solver_flag_exits_2(tmp_path, free_scenario, capsys):
    # otherwise eps_price = NaN stops the first iteration as converged
    assert cli("run", free_scenario, "--eps-price", "nan",
               "--output", str(tmp_path / "out")) == 2
    assert "eps_price must be positive and finite" in capsys.readouterr().err


def test_removed_slack_key_exits_2(tmp_path, free_scenario, capsys):
    with open(free_scenario, encoding="utf-8") as handle:
        body = handle.read()
    with open(free_scenario, "w", encoding="utf-8") as handle:
        handle.write(body.replace("[network]\n", "[network]\nslack = 39\n"))
    assert cli("run", free_scenario, "--output", str(tmp_path / "out")) == 2
    assert "unknown key 'slack' in [network]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep", "powerflow"])
def test_removed_slack_flag_is_usage_error(tmp_path, free_scenario, command):
    args = {
        "run": [free_scenario, "--max-iterations", "1"],
        "sweep": [free_scenario, "--policy", "unique", "--fee-min", "0", "--fee-max", "0",
                  "--max-iterations", "1"],
        "powerflow": [NETWORK_FILE, AGENTS_FILE, str(tmp_path / "trades.csv")],
    }[command]
    assert cli(command, *args, "--slack", "39", "--output", str(tmp_path / "out")) == 1


def test_missing_scenario_exits_3(tmp_path):
    assert cli("run", str(tmp_path / "absent.ini")) == 3


def test_run_writes_reports(tmp_path, free_scenario):
    out = tmp_path / "out"
    assert cli("run", free_scenario, "--output", str(out), *FAST_SOLVER) == 0
    for name in ("trades.csv", "residuals.csv", "trade_edges.csv",
                 "powerflow.csv", "congestion.csv", "metrics.txt"):
        assert (out / name).exists(), name
    first = (out / "trades.csv").read_text().splitlines()[0]
    assert first.startswith("# peermarket trades v")
    residuals = (out / "residuals.csv").read_text().splitlines()
    assert residuals[:2] == ["# peermarket residuals v2", "iteration,primal_residual"]
    metrics = (out / "metrics.txt").read_text()
    assert metrics.startswith("# peermarket metrics v6\n")
    assert "market.clearing_price" in metrics
    assert "run.converged = true" in metrics


def test_run_is_deterministic(tmp_path, free_scenario):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli("run", free_scenario, "--output", str(out_a), *FAST_SOLVER) == 0
    assert cli("run", free_scenario, "--output", str(out_b), *FAST_SOLVER) == 0
    for name in ("metrics.txt", "trades.csv", "powerflow.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_non_convergence_still_exits_0(tmp_path):
    out = tmp_path / "out"
    code = cli("run", DISTANCE_SCENARIO, "--output", str(out),
               "--eps-primal", "1e-9", "--max-iterations", "5")
    assert code == 0
    assert "run.converged = false" in (out / "metrics.txt").read_text()


@pytest.mark.parametrize("flags, stop", [
    ([], "polished"),
    (["--eps-price", "10", "--eps-primal", "100"], "converged"),
    (["--max-iterations", "5"], "cap"),
])
def test_metrics_report_why_the_run_stopped(tmp_path, flags, stop):
    out = tmp_path / "out"
    assert cli("run", DISTANCE_SCENARIO, "--output", str(out), *flags) == 0
    assert f"\nrun.stop = {stop}\n" in (out / "metrics.txt").read_text()


def test_run_verify_embeds_oracle_deltas(tmp_path, free_scenario):
    out = tmp_path / "out"
    assert cli("run", free_scenario, "--output", str(out), "--verify",
               *FAST_SOLVER) == 0
    metrics = (out / "metrics.txt").read_text()
    assert "oracle.kind = bisection" in metrics
    assert "oracle.price_delta" in metrics


def test_run_env_var_sets_output(tmp_path, free_scenario, monkeypatch):
    out = tmp_path / "from_env"
    monkeypatch.setenv("PEERMARKET_OUTPUT_DIR", str(out))
    assert cli("run", free_scenario, *FAST_SOLVER) == 0
    assert (out / "metrics.txt").exists()


def test_policy_override_with_fee_pct(tmp_path, free_scenario, community):
    out = tmp_path / "out"
    assert cli("run", free_scenario, "--output", str(out),
               "--policy", "unique", "--fee-pct", "50", *FAST_SOLVER) == 0
    metrics = (out / "metrics.txt").read_text()
    assert "scenario.policy = unique" in metrics
    fee = float(next(line.split("=")[1] for line in metrics.splitlines()
                     if line.startswith("scenario.fee")))
    free_price = bisection_clearing(community).clearing_price
    assert fee == pytest.approx(0.5 * free_price, rel=1e-6)


def test_run_verify_with_pair_fees(tmp_path, free_scenario):
    out = tmp_path / "out"
    assert cli("run", free_scenario, "--output", str(out), "--verify",
               "--policy", "zonal", "--fee", "10", *FAST_SOLVER) == 0
    metrics = (out / "metrics.txt").read_text()
    assert "oracle.kind = qp" in metrics
    rel = float(next(line.split("=")[1] for line in metrics.splitlines()
                     if line.startswith("oracle.objective_rel_dev")))
    assert rel < 0.05


def test_distances_power_transfer(capsys):
    assert cli("distances", NETWORK_FILE, "16", "39", "power_transfer") == 0
    out = capsys.readouterr().out
    assert "7.4" in out


def test_distances_thevenin_path(capsys):
    assert cli("distances", NETWORK_FILE, "16", "39", "thevenin") == 0
    out = capsys.readouterr().out
    assert "path: 16 17 18 3 2 1 39" in out
    assert "zones crossed: 2" in out


def test_distances_same_bus(capsys):
    assert cli("distances", NETWORK_FILE, "5", "5", "power_transfer") == 0
    assert "0.0000" in capsys.readouterr().out


def test_distances_unknown_bus():
    assert cli("distances", NETWORK_FILE, "16", "99", "power_transfer") == 2


def test_distances_matrix_export(tmp_path):
    target = tmp_path / "matrix.csv"
    assert cli("distances", NETWORK_FILE, "16", "39", "power_transfer",
               "--matrix", str(target), "--agents", AGENTS_FILE) == 0
    assert target.read_text().startswith("# peermarket distances-power_transfer v")


def _read_flow_rows(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("from_bus"):
            continue
        a, b, flow, rate = line.split(",")
        rows.append((a, b, float(flow), float(rate)))
    return rows


def test_powerflow_round_trip(tmp_path, free_scenario):
    run_out = tmp_path / "run"
    assert cli("run", free_scenario, "--output", str(run_out), *FAST_SOLVER) == 0
    flow_out = tmp_path / "flow"
    assert cli("powerflow", NETWORK_FILE, AGENTS_FILE,
               str(run_out / "trades.csv"), "--output", str(flow_out)) == 0
    # trades.csv carries six decimals, so flows agree numerically, not byte for byte
    direct = _read_flow_rows(run_out / "powerflow.csv")
    rerun = _read_flow_rows(flow_out / "powerflow.csv")
    assert len(direct) == len(rerun)
    for (a1, b1, f1, r1), (a2, b2, f2, r2) in zip(direct, rerun):
        assert (a1, b1) == (a2, b2)
        assert f1 == pytest.approx(f2, abs=1e-3)
        assert r1 == pytest.approx(r2, abs=1e-4)


def test_powerflow_rejects_foreign_file(tmp_path):
    bogus = tmp_path / "trades.csv"
    bogus.write_text("n,m,trade_mw\n1,2,10\n")
    assert cli("powerflow", NETWORK_FILE, AGENTS_FILE, str(bogus)) == 2


def test_powerflow_rejects_unknown_trades_version(tmp_path, capsys):
    future = tmp_path / "trades.csv"
    future.write_text("# peermarket trades v9\n"
                      "n,m,trade_mw,price,gamma,perceived_price\n"
                      "1,2,10,50,0,50\n")
    assert cli("powerflow", NETWORK_FILE, AGENTS_FILE, str(future),
               "--output", str(tmp_path / "out")) == 2
    assert "peermarket trades v1" in capsys.readouterr().err


@pytest.mark.parametrize("m, message", [("abc", "malformed trade row"),
                                        ("99", "unknown agent id 99")])
def test_powerflow_rejects_bad_counterpart(tmp_path, capsys, m, message):
    trades = tmp_path / "trades.csv"
    trades.write_text("# peermarket trades v1\n"
                      "n,m,trade_mw,price,gamma,perceived_price\n"
                      f"22,{m},10,50,0,50\n")
    assert cli("powerflow", NETWORK_FILE, AGENTS_FILE, str(trades),
               "--output", str(tmp_path / "out")) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    ("22,1,nan", "trade volume must be finite"),
    ("22,1,inf", "trade volume must be finite"),
    ("1,1,10", "agent 1 cannot trade with itself"),
    ("1,2,25", "agents 1 and 2 are both consumers"),
])
def test_powerflow_rejects_impossible_trade(tmp_path, capsys, row, message):
    trades = tmp_path / "trades.csv"
    trades.write_text("# peermarket trades v1\n"
                      "n,m,trade_mw,price,gamma,perceived_price\n"
                      f"{row},50,0,50\n")
    assert cli("powerflow", NETWORK_FILE, AGENTS_FILE, str(trades),
               "--output", str(tmp_path / "out")) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "powerflow.csv").exists()


def test_sweep_and_recommend(tmp_path):
    scenario = tmp_path / "unique.ini"
    scenario.write_text(
        f"[network]\npath = {NETWORK_FILE}\n\n"
        f"[agents]\npath = {AGENTS_FILE}\n\n"
        "[policy]\nkind = unique\n"
    )
    out = tmp_path / "sweep"
    assert cli("sweep", str(scenario), "--fee-min", "0", "--fee-max", "30",
               "--step", "10", "--output", str(out)) == 0
    for name in ("sweep.csv", "fee_curves.csv", "rate_distribution.csv"):
        assert (out / name).exists(), name

    table = str(out / "sweep.csv")
    assert cli("recommend-fee", table, "--max-rate", "1.0") == 0
    assert cli("recommend-fee", table, "--revenue") == 0
    assert cli("recommend-fee", table, "--max-rate", "0.01") == 2


def test_sweep_and_recommend_with_negative_bus_ids(tmp_path):
    # .net bus ids may be negative, so the table's max_line can read -1-2
    grid = tmp_path / "grid.net"
    grid.write_text("version 1\nbase_mva 100.0\n\n[buses]\n-1 1\n2 1\n\n"
                    "[lines]\n-1 2 0.1 100.0\n")
    agents = tmp_path / "agents.csv"
    agents.write_text("agent_id,bus,role,a,b,c,p_min,p_max\n"
                      "1,-1,producer,0.1,20,0,0,100\n"
                      "2,2,consumer,0.1,80,0,-100,0\n")
    scenario = tmp_path / "case.ini"
    scenario.write_text(f"[network]\npath = {grid}\n\n[agents]\npath = {agents}\n\n"
                        "[policy]\nkind = unique\n")
    out = tmp_path / "sweep"
    assert cli("sweep", str(scenario), "--fee-min", "0", "--fee-max", "10",
               "--step", "10", "--output", str(out)) == 0
    table = out / "sweep.csv"
    assert ",-1-2\n" in table.read_text()
    assert cli("recommend-fee", str(table), "--revenue") == 0


@pytest.mark.parametrize("command, policy", [("run", None), ("run", "zonal"),
                                             ("sweep", "zonal")])
def test_metric_without_distance_policy_is_usage_error(tmp_path, free_scenario, capsys,
                                                       command, policy):
    # the scenario file rejects [policy] metric for other kinds; the flag
    # used to be ignored silently
    args = [free_scenario, "--metric", "thevenin", "--output", str(tmp_path / "o")]
    if policy:
        args += ["--policy", policy]
    if command == "sweep":
        args += ["--fee-min", "0", "--fee-max", "0"]
    assert cli(command, *args) == 1
    assert "--metric only applies to the distance policy" in capsys.readouterr().err


def test_metric_with_distance_policy_override(tmp_path, free_scenario):
    out = tmp_path / "o"
    assert cli("run", free_scenario, "--policy", "distance", "--metric", "thevenin",
               *FAST_SOLVER, "--output", str(out)) == 0
    assert "scenario.metric = thevenin" in (out / "metrics.txt").read_text(encoding="utf-8")


def test_sweep_rejects_free_policy(tmp_path, free_scenario):
    assert cli("sweep", free_scenario, "--fee-min", "0", "--fee-max", "10",
               "--output", str(tmp_path / "o")) == 1


def test_sweep_rejects_bad_grid(tmp_path, free_scenario):
    assert cli("sweep", free_scenario, "--policy", "unique",
               "--fee-min", "10", "--fee-max", "0",
               "--output", str(tmp_path / "o")) == 1


@pytest.mark.parametrize("flag, value", [("--fee-min", "nan"), ("--fee-max", "inf"),
                                         ("--step", "nan")])
def test_sweep_rejects_non_finite_grid(tmp_path, free_scenario, capsys, flag, value):
    grid = {"--fee-min": "0", "--fee-max": "10", "--step": "5", flag: value}
    assert cli("sweep", free_scenario, "--policy", "unique", *sum(grid.items(), ()),
               "--output", str(tmp_path / "o")) == 1
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("low, high, step", [("0", "60", "1e-9"), ("-1e308", "1e308", "1")])
def test_sweep_rejects_oversized_grid(tmp_path, free_scenario, capsys, low, high, step):
    # the point count is checked before any grid point is built
    assert cli("sweep", free_scenario, "--policy", "unique", f"--fee-min={low}",
               f"--fee-max={high}", f"--step={step}", "--output", str(tmp_path / "o")) == 1
    assert f"exceed {MAX_FEE_POINTS} points" in capsys.readouterr().err


def test_sweep_rejects_negative_fee(tmp_path, free_scenario, capsys):
    assert cli("sweep", free_scenario, "--policy", "unique", "--fee-min", "-5",
               "--fee-max", "5", "--step", "5", "--output", str(tmp_path / "o")) == 2
    assert "network fee must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("fee", ["nan", "inf", "-1"])
def test_bad_fee_exits_2(tmp_path, free_scenario, capsys, fee):
    assert cli("run", free_scenario, "--fee", fee, "--output", str(tmp_path / "o")) == 2
    assert "network fee must be nonnegative and finite" in capsys.readouterr().err


def test_non_finite_agent_bound_exits_2(tmp_path, capsys):
    agents = tmp_path / "agents.csv"
    agents.write_text("agent_id,bus,role,a,b,c,p_min,p_max\n"
                      "1,30,producer,0.1,20,0,0,100\n"
                      "2,1,consumer,0.1,80,0,-inf,0\n")
    scenario = tmp_path / "case.ini"
    scenario.write_text(f"[network]\npath = {NETWORK_FILE}\n\n"
                        f"[agents]\npath = {agents}\n\n[policy]\nkind = free\n")
    assert cli("run", str(scenario), "--output", str(tmp_path / "out")) == 2
    assert "bound p_min must be finite" in capsys.readouterr().err


def _not_utf8(path, text):
    """``text`` followed by a line holding byte 0xff, which UTF-8 never uses."""
    path.write_bytes(text.encode("utf-8") + b"\xff\n")
    return str(path)


def test_agents_file_not_utf8_exits_2(tmp_path, capsys):
    agents = _not_utf8(tmp_path / "agents.csv", open(AGENTS_FILE, encoding="utf-8").read())
    assert cli("distances", NETWORK_FILE, "16", "39", "power_transfer",
               "--matrix", str(tmp_path / "matrix.csv"), "--agents", agents) == 2
    assert "not UTF-8 text" in capsys.readouterr().err


def test_trades_file_not_utf8_exits_2(tmp_path, capsys):
    trades = _not_utf8(tmp_path / "trades.csv", "# peermarket trades v1\n"
                       "n,m,trade_mw,price,gamma,perceived_price\n")
    assert cli("powerflow", NETWORK_FILE, AGENTS_FILE, trades,
               "--output", str(tmp_path / "out")) == 2
    assert "not UTF-8 text" in capsys.readouterr().err


def test_scenario_not_utf8_names_the_offset_in_the_file(tmp_path, capsys):
    # the bad byte lies past the first 16 KiB, where an incremental decoder
    # would count from the start of its chunk instead of the file
    padding = ("#" * 99 + "\n") * 200 + "#" * 27 + "\n"
    scenario = _not_utf8(tmp_path / "case.ini", padding)
    assert cli("run", scenario, "--output", str(tmp_path / "out")) == 2
    assert "not UTF-8 text (byte 20028)" in capsys.readouterr().err


def test_sweep_table_not_utf8_exits_2(tmp_path, capsys):
    table = _not_utf8(tmp_path / "sweep.csv", "# peermarket sweep v1\n"
                      "fee,converged,iterations,volume_mw,gamma_so,"
                      "interzone_mw,avg_rate,max_rate,max_line\n")
    assert cli("recommend-fee", table, "--revenue") == 2
    assert "not UTF-8 text" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, message", [("no_lines", "network has no lines"),
                                           ("tiny_reactance", "finite susceptance")])
def test_unsolvable_grid_exits_2(tmp_path, capsys, name, message):
    network = tmp_path / "grid.net"
    network.write_text(UNSOLVABLE_GRIDS[name])
    agents = tmp_path / "agents.csv"
    agents.write_text("agent_id,bus,role,a,b,c,p_min,p_max\n"
                      "1,1,producer,0.1,20,0,0,100\n"
                      "2,1,consumer,0.1,80,0,-100,0\n")
    scenario = tmp_path / "case.ini"
    scenario.write_text(f"[network]\npath = {network}\n\n[agents]\npath = {agents}\n\n"
                        "[policy]\nkind = free\n")
    assert cli("run", str(scenario), "--output", str(tmp_path / "out")) == 2
    assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def zonal_sweep_rows(tmp_path_factory):
    """Header and data rows of a valid 3-point zonal sweep (fees 0, 5, 10)."""
    out = tmp_path_factory.mktemp("sweep")
    assert cli("sweep", str(DATA_DIR / "zonal.ini"), "--fee-min", "0", "--fee-max", "10",
               "--step", "5", "--output", str(out)) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    return lines[:2], [line.split(",") for line in lines[2:]]


def _edited_sweep(tmp_path, zonal_sweep_rows, edit):
    header, rows = zonal_sweep_rows
    rows = edit([list(row) for row in rows])
    path = tmp_path / "sweep.csv"
    path.write_text("\n".join(header + [",".join(row) for row in rows]) + "\n")
    return str(path)


def _set(row, column, value):
    row[column] = value
    return row


@pytest.mark.parametrize("edit, target, message", [
    # read backwards, --max-rate 1.1 would answer fee 10 instead of 4.1233
    (lambda rows: rows[::-1], ("--max-rate", "1.1"), "fee grid must be strictly increasing"),
    # a nan revenue at fee 0 would be recommended over 32,107 EUR at fee 10
    (lambda rows: [_set(rows[0], 4, "nan")] + rows[1:], ("--revenue",), "must be finite"),
    # an infinite max_rate would be quoted as the top of the sweep's range
    (lambda rows: rows[:2] + [_set(rows[2], 7, "inf")], ("--max-rate", "0.5"), "must be finite"),
], ids=["reversed", "nan_gamma_so", "inf_max_rate"])
def test_recommend_fee_rejects_bad_sweep_table(tmp_path, capsys, zonal_sweep_rows, edit,
                                               target, message):
    table = _edited_sweep(tmp_path, zonal_sweep_rows, edit)
    assert cli("recommend-fee", table, *target) == 2
    assert message in capsys.readouterr().err

