"""Acceptance suite: end-to-end checks on the bundled New England case plus
solver guarantees on randomized communities.

Every test evaluates one numbered criterion as a list of named clauses,
records a single PASS/FAIL line through the conftest recorder (echoed in the
terminal summary), and asserts the verdict. Failures carry the measured
numbers so a red line is directly actionable.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import DATA_DIR, acceptance_7_markets, make_pair_community, record_acceptance
from peermarket import (
    DISTANCE,
    MAX_RATE_TARGET,
    PolicySpec,
    SolverConfig,
    UNIQUE,
    ZONAL,
    bisection_clearing,
    build_gamma,
    clear_market,
    dc_power_flow,
    interzone_exchange,
    line_rates,
    load_scenario,
    market_objective,
    net_injections,
    power_transfer_distance,
    qp_reference,
    recommend_fee,
    run_sweep,
    shortest_path,
    thevenin_line_weights,
)
from peermarket.engine import ROOT_TOL
from peermarket.reports import clearing_price


def _verdict(number, clauses, detail):
    passed = all(ok for _, ok in clauses)
    if not passed:
        detail += "; failing: " + ", ".join(name for name, ok in clauses if not ok)
    ok, line = record_acceptance(number, passed, detail)
    assert ok, line


def test_acceptance_1_free_market_clearing_price(community):
    scenario = load_scenario(str(DATA_DIR / "free.ini"))
    gamma = build_gamma(scenario.policy, community)
    start = time.perf_counter()
    result = clear_market(community, gamma, scenario.solver)
    elapsed = time.perf_counter() - start
    price = clearing_price(result)
    lam = bisection_clearing(community).clearing_price
    clauses = [
        ("converged", result.converged),
        ("price within 58.1 +- 0.5", abs(price - 58.1) <= 0.5),
        ("matches bisection within 1e-2", abs(price - lam) <= 1e-2),
        ("runtime under 60 s", elapsed < 60.0),
    ]
    _verdict(1, clauses,
             f"price {price:.4f} EUR/MW, bisection {lam:.4f}, "
             f"{result.iterations} iterations in {elapsed:.1f} s")


def test_acceptance_2_congestion_line(community, network, free_result):
    injections = net_injections(community, free_result.net_powers, network)
    flows = dc_power_flow(network, injections)
    summary = line_rates(flows)
    clauses = [
        ("worst line is 16-19", summary.line == (16, 19)),
        ("rate above 1.0", summary.maximum > 1.0),
        ("rate within [1.1, 1.5]", 1.1 <= summary.maximum <= 1.5),
    ]
    _verdict(2, clauses,
             f"line {summary.line[0]}-{summary.line[1]} at rate {summary.maximum:.4f}")


def test_acceptance_3_distance_fidelity(network):
    d = power_transfer_distance(network, 16, 39)
    path = shortest_path(network, thevenin_line_weights(network), 16, 39)
    expected = (16, 17, 18, 3, 2, 1, 39)
    clauses = [
        ("power transfer 16-39 within 7.3 +- 0.2", abs(d - 7.3) <= 0.2),
        ("impedance path 16-17-18-3-2-1-39", path.nodes == expected),
    ]
    _verdict(3, clauses,
             f"distance {d:.3f} MW/MW, path {'-'.join(str(n) for n in path.nodes)}")


def test_acceptance_4_oracle_equivalence(community, network):
    config = SolverConfig(eps_primal=1e-3, max_iterations=300000)
    start = time.perf_counter()
    all_converged = True
    worst_net = 0.0
    for u in (0.0, 5.0, 15.0, 29.0):
        gamma = build_gamma(PolicySpec(UNIQUE, fee=u), community)
        result = clear_market(community, gamma, config)
        oracle = bisection_clearing(community, wedge=u)
        all_converged &= result.converged
        worst_net = max(worst_net, float(np.max(np.abs(
            result.net_powers - oracle.net_powers))))
    worst_rel = 0.0
    for kind in (DISTANCE, ZONAL):
        for u in (5.0, 10.0):
            gamma = build_gamma(PolicySpec(kind, fee=u), community, network=network)
            result = clear_market(community, gamma, config)
            oracle = qp_reference(community, gamma)
            all_converged &= result.converged
            engine_obj = market_objective(community, result.trades, gamma)
            oracle_obj = market_objective(community, oracle.trades, gamma)
            worst_rel = max(worst_rel,
                            abs(engine_obj - oracle_obj) / max(abs(oracle_obj), 1.0))
    elapsed = time.perf_counter() - start
    clauses = [
        ("all runs converged", all_converged),
        ("net power within 0.5 MW of bisection", worst_net <= 0.5),
        ("objective within 0.1% of reference", worst_rel <= 1e-3),
        ("runtime under 5 min", elapsed < 300.0),
    ]
    _verdict(4, clauses,
             f"worst net deviation {worst_net:.3f} MW, worst objective "
             f"deviation {worst_rel:.2e}, {elapsed:.0f} s")


def test_acceptance_5_sweep_shapes(community, network):
    config = SolverConfig(eps_primal=3e-3, max_iterations=100000)
    unique = run_sweep(community, network, PolicySpec(UNIQUE),
                       [5.0 * i for i in range(13)], config=config)
    zonal = run_sweep(community, network, PolicySpec(ZONAL),
                      [5.0 * i for i in range(13)], config=config)
    distance = run_sweep(community, network, PolicySpec(DISTANCE),
                         [0.5 * i for i in range(14)], config=config)
    u_ok = [r for r in unique if r.converged]
    z_ok = [r for r in zonal if r.converged]
    d_ok = [r for r in distance if r.converged]

    # 1 pp slack absorbs solver noise between neighbouring grid points
    max_monotone = all(b.max_rate <= a.max_rate + 0.01 for a, b in zip(u_ok, u_ok[1:]))
    avg_monotone = all(b.avg_rate <= a.avg_rate + 0.01 for a, b in zip(u_ok, u_ok[1:]))
    crosses = u_ok[0].max_rate > 1.0 and min(r.max_rate for r in u_ok) <= 1.0

    revenue = [r.gamma_so for r in u_ok]
    peak = int(np.argmax(revenue))
    interior_peak = (0 < peak < len(revenue) - 1
                     and revenue[peak] > revenue[peak - 1]
                     and revenue[peak] > revenue[peak + 1])

    zonal_shutoff = z_ok[-1].interzone < 1.0
    unique_floor = min(r.interzone for r in u_ok) > 0.0

    unique_cross = recommend_fee(unique, MAX_RATE_TARGET, value=1.0).fee
    distance_cross = recommend_fee(distance, MAX_RATE_TARGET, value=1.0).fee
    cheaper = distance_cross / 58.1 < unique_cross / 58.1

    clauses = [
        ("unique max rate non-increasing", max_monotone),
        ("unique avg rate non-increasing", avg_monotone),
        ("unique max rate crosses 1.0", crosses),
        ("collected fees peak at interior fee", interior_peak),
        ("zonal kills inter-zone trade at top fee", zonal_shutoff),
        ("unique keeps an inter-zone floor", unique_floor),
        ("distance hits rate 1.0 at lower relative fee", cheaper),
    ]
    _verdict(5, clauses,
             f"converged {len(u_ok)}/{len(unique)} unique, {len(z_ok)}/{len(zonal)} "
             f"zonal, {len(d_ok)}/{len(distance)} distance; revenue peak at fee "
             f"{u_ok[peak].fee:.0f}, zonal inter-zone {z_ok[-1].interzone:.2f} MW at "
             f"fee {z_ok[-1].fee:.0f}, unique floor {min(r.interzone for r in u_ok):.1f} MW, "
             f"rate-1.0 fees {distance_cross:.2f} (distance) vs {unique_cross:.2f} (unique)")


def test_acceptance_6_interzone_magnitude(community, network, free_result):
    report = interzone_exchange(community, free_result.trades, network)
    clauses = [
        ("free-market inter-zone total within 1-4 GW",
         1000.0 <= report.total <= 4000.0),
    ]
    _verdict(6, clauses, f"inter-zone total {report.total:.1f} MW")


def test_acceptance_7_solver_invariants():
    config = SolverConfig()
    start = time.perf_counter()
    converged = 0
    fails = {"skew": 0, "sign": 0, "local": 0, "balance": 0, "kkt": 0, "objective": 0}
    worst_kkt = 0.0
    worst_obj = 0.0
    for com, gamma in acceptance_7_markets():
        result = clear_market(com, gamma, config)
        if not result.converged:
            continue
        converged += 1
        if np.max(np.abs(result.trades + result.trades.T)) > 1e-12:
            fails["skew"] += 1
        producers = com.sign > 0
        if not (np.all(result.trades[producers] >= 0.0)
                and np.all(result.trades[~producers] <= 0.0)):
            fails["sign"] += 1
        # each agent's last local step is exact: its proposals sum to its
        # total clip((lambda - b)/a, p_min, p_max) at its marginal lambda
        totals = np.clip((result.marginals - com.b) / com.a, com.p_min, com.p_max)
        if np.abs(result.proposals.sum(axis=1) - totals).max() > ROOT_TOL:
            fails["local"] += 1
        if abs(result.net_powers.sum()) > len(com) * config.eps_primal:
            fails["balance"] += 1
        if result.kkt_residual > 10 * config.eps_price:
            fails["kkt"] += 1
            worst_kkt = max(worst_kkt, result.kkt_residual)
        oracle = qp_reference(com, gamma)
        engine_obj = market_objective(com, result.trades, gamma)
        oracle_obj = market_objective(com, oracle.trades, gamma)
        deviation = abs(engine_obj - oracle_obj)
        if deviation > 1e-3 * max(abs(oracle_obj), 1.0):
            fails["objective"] += 1
            worst_obj = max(worst_obj, deviation)
    elapsed = time.perf_counter() - start
    clauses = [(f"no {name} violations", count == 0) for name, count in fails.items()]
    clauses.append(("runtime under 10 min", elapsed < 600.0))
    _verdict(7, clauses,
             f"{converged}/200 converged; violations: "
             + ", ".join(f"{name} {count}" for name, count in fails.items())
             + f"; worst kkt {worst_kkt:.2f} EUR/MW, worst objective gap "
               f"{worst_obj:.2f} EUR; {elapsed:.0f} s")


def test_acceptance_8_two_agent_micro_cases():
    com = make_pair_community()
    free = clear_market(com)
    fee = clear_market(com, build_gamma(PolicySpec(UNIQUE, fee=10.0), com))
    clauses = [
        ("free trade 300 +- 0.1 MW", abs(free.trades[0, 1] - 300.0) <= 0.1),
        ("free price 50 +- 0.01", abs(free.prices[0, 1] - 50.0) <= 0.01),
        ("fee-10 trade 250 +- 0.1 MW", abs(fee.trades[0, 1] - 250.0) <= 0.1),
        ("fee-10 price 50 +- 0.01", abs(fee.prices[0, 1] - 50.0) <= 0.01),
    ]
    _verdict(8, clauses,
             f"free {free.trades[0, 1]:.2f} MW at {free.prices[0, 1]:.3f}, "
             f"with fee {fee.trades[0, 1]:.2f} MW at {fee.prices[0, 1]:.3f}")
