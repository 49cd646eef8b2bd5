"""Command line behavior: exit codes, emitted files, determinism."""

from __future__ import annotations

import pytest

from conftest import AGENTS_FILE, NETWORK_FILE
from peermarket import bisection_clearing
from peermarket.cli import main

FAST_SOLVER = ["--eps-primal", "0.05", "--max-iterations", "8000"]


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
    assert metrics.startswith("# peermarket metrics v3\n")
    assert "market.clearing_price" in metrics
    assert "run.converged = true" in metrics


def test_run_is_deterministic(tmp_path, free_scenario):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli("run", free_scenario, "--output", str(out_a), *FAST_SOLVER) == 0
    assert cli("run", free_scenario, "--output", str(out_b), *FAST_SOLVER) == 0
    for name in ("metrics.txt", "trades.csv", "powerflow.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_non_convergence_still_exits_0(tmp_path, free_scenario):
    out = tmp_path / "out"
    code = cli("run", free_scenario, "--output", str(out),
               "--eps-primal", "1e-9", "--max-iterations", "50")
    assert code == 0
    assert "run.converged = false" in (out / "metrics.txt").read_text()


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


def test_sweep_rejects_free_policy(tmp_path, free_scenario):
    assert cli("sweep", free_scenario, "--fee-min", "0", "--fee-max", "10",
               "--output", str(tmp_path / "o")) == 1


def test_sweep_rejects_bad_grid(tmp_path, free_scenario):
    assert cli("sweep", free_scenario, "--policy", "unique",
               "--fee-min", "10", "--fee-max", "0",
               "--output", str(tmp_path / "o")) == 1
