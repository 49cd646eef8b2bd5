"""Command line front end.

Commands: run, sweep, distances, powerflow, recommend-fee. Exit codes:
0 success (a flagged non-converged solve still exits 0), 1 usage,
2 validation, 3 I/O. PEERMARKET_OUTPUT_DIR sets the default output
directory when neither the scenario nor --output names one.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import reports
from .community import load_agents
from .distances import (
    METRICS,
    POWER_TRANSFER,
    distance_matrix,
    power_transfer_distance,
    shortest_path,
    thevenin_line_weights,
)
from .engine import SolverConfig, clear_market
from .errors import InfeasibleError, ValidationError
from .network import load_network, net_injections
from .oracle import bisection_clearing, market_objective, qp_reference
from .policies import (
    DISTANCE,
    FREE,
    KINDS,
    PolicySpec,
    UNIQUE,
    build_gamma,
    total_collected,
)
from .powerflow import congestion_report, dc_power_flow, interzone_exchange, line_rates
from .scenario import load_scenario
from .sweep import MAX_RATE_TARGET, REVENUE_TARGET, recommend_fee, run_sweep

OUTPUT_ENV = "PEERMARKET_OUTPUT_DIR"
MAX_FEE_POINTS = 10**6  # sweep grid points at most

_SOLVER_FLAGS = [f.name for f in dataclasses.fields(SolverConfig)]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_solver_flags(parser):
    group = parser.add_argument_group("solver overrides")
    for name in _SOLVER_FLAGS:
        flag = "--" + name.replace("_", "-")
        kind = int if name == "max_iterations" else float
        group.add_argument(flag, type=kind, default=None, dest=name)


def _add_policy_flags(parser):
    parser.add_argument("--policy", choices=KINDS, default=None, help="override policy kind")
    parser.add_argument("--metric", choices=METRICS, default=None, help="distance metric override")
    fee = parser.add_mutually_exclusive_group()
    fee.add_argument("--fee", type=float, default=None, help="network fee in euro/MW")
    fee.add_argument(
        "--fee-pct",
        type=float,
        default=None,
        help="network fee as percent of the computed free-market price",
    )


def _solver_with_overrides(scenario, args):
    overrides = {
        name: getattr(args, name) for name in _SOLVER_FLAGS if getattr(args, name) is not None
    }
    return dataclasses.replace(scenario.solver, **overrides) if overrides else scenario.solver


def _kind_and_metric(scenario, args, parser):
    """The policy kind and distance metric, flags over the scenario. Like
    ``[policy] metric``, ``--metric`` applies to the distance policy only."""
    kind = args.policy or scenario.policy.kind
    if args.metric is not None and kind != DISTANCE:
        parser.error(f"--metric only applies to the distance policy, not {kind}")
    return kind, args.metric or scenario.policy.metric


def _policy_with_overrides(scenario, args, community, parser):
    kind, metric = _kind_and_metric(scenario, args, parser)
    # --policy free drops the scenario's fee; PolicySpec rejects a fee flag
    fee = 0.0 if kind == FREE else scenario.policy.fee
    if args.fee is not None:
        fee = args.fee
    elif args.fee_pct is not None:
        free_price = bisection_clearing(community).clearing_price
        fee = args.fee_pct / 100.0 * free_price
    return PolicySpec(kind, fee=fee, metric=metric)


def _output_dir(args, scenario=None):
    directory = args.output or (scenario.output_dir if scenario else None)
    directory = directory or os.environ.get(OUTPUT_ENV) or os.getcwd()
    os.makedirs(directory, exist_ok=True)
    return directory


def _metric_pairs(policy, config, result, community, gamma, summary, report, exchange):
    fmt = reports.fmt
    pairs = [
        ("scenario.policy", policy.kind),
        ("scenario.fee", fmt(policy.fee)),
    ]
    if policy.kind == DISTANCE:
        pairs.append(("scenario.metric", policy.metric))
    for name in _SOLVER_FLAGS:
        value = getattr(config, name)
        pairs.append((f"solver.{name}", str(value) if name == "max_iterations" else fmt(value)))
    volume = float(result.net_powers[result.net_powers > 0].sum())
    pairs += [
        ("run.converged", "true" if result.converged else "false"),
        ("run.stop", result.stop),
        ("run.iterations", str(result.iterations)),
        ("run.primal_residual", fmt(result.primal_residuals[-1])),
        ("run.kkt_residual", fmt(result.kkt_residual)),
        ("market.clearing_price", fmt(reports.clearing_price(result))),
        ("market.volume_mw", fmt(volume)),
        ("market.balance_mw", fmt(float(result.net_powers.sum()))),
        ("market.active_trades", str(reports.active_trade_count(result))),
        ("market.objective", fmt(market_objective(community, result.trades, gamma))),
        ("market.gamma_so", fmt(total_collected(result.trades, gamma))),
        ("powerflow.avg_rate", fmt(summary.average)),
        ("powerflow.max_rate", fmt(summary.maximum)),
        ("powerflow.max_line", f"{summary.line[0]}-{summary.line[1]}"),
        ("powerflow.congested_count", str(len(report))),
        ("interzone.total_mw", fmt(exchange.total)),
    ]
    for (za, zb), mw in exchange.pairs:
        pairs.append((f"interzone.pair.{za}-{zb}", fmt(mw)))
    return pairs


def _oracle_pairs(policy, community, gamma, result):
    fmt = reports.fmt
    if policy.kind in (FREE, UNIQUE):
        oracle = bisection_clearing(community, wedge=policy.fee)
        deltas = np.abs(result.net_powers - oracle.net_powers)
        return [
            ("oracle.kind", "bisection"),
            ("oracle.clearing_price", fmt(oracle.clearing_price)),
            ("oracle.price_delta", fmt(abs(reports.clearing_price(result) - oracle.clearing_price))),
            ("oracle.max_net_dev_mw", fmt(float(deltas.max()))),
        ]
    oracle = qp_reference(community, gamma)
    engine_obj = market_objective(community, result.trades, gamma)
    oracle_obj = market_objective(community, oracle.trades, gamma)
    rel = abs(engine_obj - oracle_obj) / max(abs(oracle_obj), 1.0)
    return [
        ("oracle.kind", "qp"),
        ("oracle.objective", fmt(oracle_obj)),
        ("oracle.objective_rel_dev", fmt(rel)),
        ("oracle.stationarity", fmt(oracle.stationarity)),
    ]


def cmd_run(args, parser):
    scenario = load_scenario(args.scenario)
    network = load_network(scenario.network_path)
    community = load_agents(scenario.agents_path, network=network)
    config = _solver_with_overrides(scenario, args)
    policy = _policy_with_overrides(scenario, args, community, parser)
    verify = args.verify or scenario.verify

    gamma = build_gamma(policy, community, network=network)
    result = clear_market(community, gamma, config)
    injections = net_injections(community, result.net_powers, network)
    flows = dc_power_flow(network, injections)
    summary = line_rates(flows)
    report = congestion_report(flows)
    exchange = interzone_exchange(community, result.trades, network)

    out = _output_dir(args, scenario)
    reports.write_trades(os.path.join(out, "trades.csv"), community, result, gamma)
    reports.write_residuals(os.path.join(out, "residuals.csv"), result)
    reports.write_trade_edges(os.path.join(out, "trade_edges.csv"), community, network, result)
    reports.write_powerflow(os.path.join(out, "powerflow.csv"), network, flows)
    reports.write_congestion(os.path.join(out, "congestion.csv"), report)
    pairs = _metric_pairs(policy, config, result, community, gamma, summary, report, exchange)
    if verify:
        pairs += _oracle_pairs(policy, community, gamma, result)
    reports.write_metrics(os.path.join(out, "metrics.txt"), pairs)

    status = result.stop if result.converged else "NOT converged (flagged in metrics)"
    print(f"{policy.kind} policy, fee {policy.fee:.4f}: {status} in {result.iterations} iterations")
    print(f"clearing price {reports.clearing_price(result):.4f}, volume "
          f"{float(result.net_powers[result.net_powers > 0].sum()):.1f} MW")
    print(f"max line rate {summary.maximum:.4f} on {summary.line[0]}-{summary.line[1]}, "
          f"interzone {exchange.total:.1f} MW")
    print(f"reports in {out}")
    return 0


def _fee_grid(args, parser):
    if not np.isfinite([args.fee_min, args.fee_max, args.step]).all():
        parser.error("--fee-min, --fee-max and --step must be finite")
    if args.step <= 0:
        parser.error("--step must be positive")
    if args.fee_min > args.fee_max:
        parser.error("--fee-min must not exceed --fee-max")
    span = (args.fee_max - args.fee_min) / args.step
    if not span + 1 <= MAX_FEE_POINTS:  # also catches a span that overflows to inf
        parser.error(f"the fee grid would exceed {MAX_FEE_POINTS} points; "
                     "raise --step or narrow the range")
    count = int(round(span))
    fees = [args.fee_min + i * args.step for i in range(count + 1)]
    if fees[-1] > args.fee_max + 1e-9:
        fees.pop()
    return fees


def cmd_sweep(args, parser):
    scenario = load_scenario(args.scenario)
    network = load_network(scenario.network_path)
    community = load_agents(scenario.agents_path, network=network)
    config = _solver_with_overrides(scenario, args)
    kind, metric = _kind_and_metric(scenario, args, parser)
    if kind == FREE:
        parser.error("sweep needs a fee policy (unique, distance or zonal)")
    policy = PolicySpec(kind, metric=metric)

    fees = _fee_grid(args, parser)
    rate_table = []
    records = run_sweep(community, network, policy, fees, config=config, rates_out=rate_table)

    out = _output_dir(args, scenario)
    reports.write_sweep(os.path.join(out, "sweep.csv"), records)
    reports.write_fee_curves(os.path.join(out, "fee_curves.csv"), records)
    reports.write_rate_distribution(
        os.path.join(out, "rate_distribution.csv"), network, rate_table
    )
    stalled = sum(1 for r in records if not r.converged)
    print(f"{kind} sweep over {len(records)} fees in [{fees[0]:g}, {fees[-1]:g}]"
          + (f", {stalled} non-converged (flagged)" if stalled else ""))
    print(f"reports in {out}")
    return 0


def cmd_distances(args, parser):
    if (args.matrix is None) != (args.agents is None):
        parser.error("--matrix and --agents go together: the matrix needs the agents file")
    network = load_network(args.network)
    if args.metric == POWER_TRANSFER:
        value = power_transfer_distance(network, args.from_bus, args.to_bus)
        print(f"power_transfer distance {args.from_bus}-{args.to_bus}: {value:.4f}")
    else:
        weights = thevenin_line_weights(network)
        path = shortest_path(network, weights, args.from_bus, args.to_bus)
        print(f"thevenin distance {args.from_bus}-{args.to_bus}: {path.total_weight:.6f}")
        print("path: " + " ".join(str(b) for b in path.nodes))
        print(f"zones crossed: {len(path.zones_visited)}")
    if args.matrix is not None:
        community = load_agents(args.agents, network=network)
        matrix = distance_matrix(community, network, args.metric)
        reports.write_distance_matrix(args.matrix, community, matrix, args.metric)
        print(f"matrix in {args.matrix}")
    return 0


def cmd_powerflow(args):
    network = load_network(args.network)
    community = load_agents(args.agents, network=network)
    nets = reports.read_trade_net_powers(args.trades, community)
    injections = net_injections(community, nets, network)
    flows = dc_power_flow(network, injections)
    summary = line_rates(flows)
    report = congestion_report(flows)

    out = _output_dir(args)
    reports.write_powerflow(os.path.join(out, "powerflow.csv"), network, flows)
    reports.write_congestion(os.path.join(out, "congestion.csv"), report)
    print(f"max line rate {summary.maximum:.4f} on {summary.line[0]}-{summary.line[1]}, "
          f"average {summary.average:.4f}")
    if report:
        listed = ", ".join(f"{a}-{b} at {rate:.3f}" for (a, b), rate in report)
        print(f"congested: {listed}")
    else:
        print("no congestion")
    print(f"reports in {out}")
    return 0


def cmd_recommend_fee(args):
    records = reports.read_sweep(args.sweep)
    if args.max_rate is not None:
        rec = recommend_fee(records, MAX_RATE_TARGET, value=args.max_rate)
        print(f"recommended fee: {rec.fee:.4f} (max line rate target {args.max_rate:g})")
    else:
        rec = recommend_fee(records, REVENUE_TARGET)
        print(f"recommended fee: {rec.fee:.4f} (revenue maximum)")
    print(f"max_rate = {rec.max_rate:.6f}")
    print(f"avg_rate = {rec.avg_rate:.6f}")
    print(f"gamma_so = {rec.gamma_so:.6f}")
    print(f"volume_mw = {rec.volume:.6f}")
    print(f"interzone_mw = {rec.interzone:.6f}")
    return 0


def build_parser():
    parser = _Parser(prog="peermarket", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = commands.add_parser("run", help="clear one scenario and write reports")
    run.add_argument("scenario")
    run.add_argument("--output", default=None, help="report directory")
    run.add_argument("--verify", action="store_true", help="cross-check against reference solvers")
    _add_policy_flags(run)
    _add_solver_flags(run)
    run.set_defaults(func=lambda args: cmd_run(args, run))

    sweep = commands.add_parser("sweep", help="rerun the market over a fee grid")
    sweep.add_argument("scenario")
    sweep.add_argument("--fee-min", type=float, required=True)
    sweep.add_argument("--fee-max", type=float, required=True)
    sweep.add_argument("--step", type=float, default=1.0, help="grid step, default 1 euro/MW")
    sweep.add_argument("--output", default=None)
    sweep.add_argument("--policy", choices=KINDS, default=None)
    sweep.add_argument("--metric", choices=METRICS, default=None)
    _add_solver_flags(sweep)
    sweep.set_defaults(func=lambda args: cmd_sweep(args, sweep))

    dist = commands.add_parser("distances", help="electrical distance between two buses")
    dist.add_argument("network")
    dist.add_argument("from_bus", type=int)
    dist.add_argument("to_bus", type=int)
    dist.add_argument("metric", choices=METRICS)
    dist.add_argument("--matrix", default=None, help="also export the full agent matrix here")
    dist.add_argument("--agents", default=None, help="agents file for --matrix")
    dist.set_defaults(func=lambda args: cmd_distances(args, dist))

    flow = commands.add_parser("powerflow", help="DC flow for a written trades file")
    flow.add_argument("network")
    flow.add_argument("agents")
    flow.add_argument("trades")
    flow.add_argument("--output", default=None)
    flow.set_defaults(func=cmd_powerflow)

    rec = commands.add_parser("recommend-fee", help="operator fee rule on a sweep table")
    rec.add_argument("sweep")
    target = rec.add_mutually_exclusive_group(required=True)
    target.add_argument("--max-rate", type=float, default=None, help="highest acceptable line rate")
    target.add_argument("--revenue", action="store_true", help="maximize operator revenue")
    rec.set_defaults(func=cmd_recommend_fee)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:  # a ValidationError too: caught first
        print(f"error: infeasible market: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
