from __future__ import annotations

import numpy as np
import pytest

from peermarket import (
    ValidationError,
    build_community,
    congestion_report,
    dc_power_flow,
    interzone_exchange,
    line_rates,
    net_injections,
)
from peermarket.network import Bus, Line, Network


def two_bus(capacity=100.0):
    return Network([Bus(1, 1), Bus(2, 1)], [Line(1, 1, 2, 0.1, capacity)])


def triangle():
    buses = [Bus(1, 1), Bus(2, 1), Bus(3, 1)]
    lines = [Line(1, 1, 2, 0.1, 100.0), Line(2, 2, 3, 0.1, 100.0),
             Line(3, 1, 3, 0.1, 100.0)]
    return Network(buses, lines)


def two_zone(zones=(1, 2)):
    za, zb = zones
    buses = [Bus(1, za), Bus(2, za), Bus(3, zb), Bus(4, zb)]
    lines = [Line(1, 1, 2, 0.1, 100.0), Line(2, 2, 3, 0.1, 100.0),
             Line(3, 3, 4, 0.1, 100.0)]
    return Network(buses, lines)


def two_zone_community():
    return build_community([
        (1, 1, "producer", 0.1, 20.0, 0.0, 0.0, 100.0),
        (2, 2, "consumer", 0.1, 80.0, 0.0, -100.0, 0.0),
        (3, 3, "producer", 0.1, 20.0, 0.0, 0.0, 100.0),
        (4, 4, "consumer", 0.1, 80.0, 0.0, -100.0, 0.0),
    ])


def test_zero_injections():
    flows = dc_power_flow(two_bus(), np.zeros(2))
    assert not flows.flows.any()
    assert congestion_report(flows) == []


def test_two_bus_transfer():
    flows = dc_power_flow(two_bus(), np.array([100.0, -100.0]))
    assert flows.flows[0] == pytest.approx(100.0)
    assert flows.rates[0] == pytest.approx(1.0)


def test_triangle_split():
    net = triangle()
    flows = dc_power_flow(net, np.array([90.0, -90.0, 0.0]))
    assert flows.flows[0] == pytest.approx(60.0)   # direct line 1-2
    assert flows.flows[1] == pytest.approx(-30.0)  # 2-3 leg of the detour
    assert flows.flows[2] == pytest.approx(30.0)   # 1-3 leg


def test_nodal_balance(community, network, free_result):
    injections = net_injections(community, free_result.net_powers, network)
    flows = dc_power_flow(network, injections)
    residual = injections.copy()
    for line, flow in zip(flows.lines, flows.flows):
        residual[network.bus_index(line.from_bus)] -= flow
        residual[network.bus_index(line.to_bus)] += flow
    assert np.max(np.abs(residual)) <= 1e-6


def test_superposition():
    net = triangle()
    inj_a = np.array([90.0, -90.0, 0.0])
    inj_b = np.array([0.0, 30.0, -30.0])
    combined = dc_power_flow(net, inj_a + inj_b).flows
    separate = dc_power_flow(net, inj_a).flows + dc_power_flow(net, inj_b).flows
    np.testing.assert_allclose(combined, separate, rtol=0, atol=1e-6)


def test_imbalance_rejected():
    with pytest.raises(ValidationError, match="balance"):
        dc_power_flow(two_bus(), np.array([50.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_injection_rejected(community, network, bad):
    # one bad bus would spread to every line; abs(nan) > tol is false, so
    # the balance test alone lets nan through
    injections = np.zeros(network.n_buses)
    injections[network.bus_index(16)] = bad
    with pytest.raises(ValidationError, match="finite"):
        dc_power_flow(network, injections)
    net_powers = np.zeros(len(community.agents))
    net_powers[0] = bad
    with pytest.raises(ValidationError, match="finite"):
        dc_power_flow(network, net_injections(community, net_powers, network))


def test_line_rates_at_capacity():
    flows = dc_power_flow(two_bus(capacity=100.0), np.array([100.0, -100.0]))
    summary = line_rates(flows)
    assert summary.maximum == pytest.approx(1.0)
    assert summary.average == pytest.approx(1.0)
    assert summary.line == (1, 2)


def test_line_rates_at_rest():
    summary = line_rates(dc_power_flow(two_bus(), np.zeros(2)))
    assert summary.maximum == 0.0
    assert summary.average == 0.0


def test_congestion_sorted_descending():
    net = two_bus(capacity=50.0)
    flows = dc_power_flow(net, np.array([100.0, -100.0]))
    report = congestion_report(flows)
    assert report == [((1, 2), pytest.approx(2.0))]


def test_interzone_all_intra():
    com = two_zone_community()
    trades = np.zeros((4, 4))
    trades[0, 1], trades[1, 0] = 50.0, -50.0
    trades[2, 3], trades[3, 2] = 20.0, -20.0
    assert interzone_exchange(com, trades, two_zone()).total == 0.0


def test_interzone_single_crossing():
    com = two_zone_community()
    trades = np.zeros((4, 4))
    trades[0, 3], trades[3, 0] = 50.0, -50.0
    report = interzone_exchange(com, trades, two_zone())
    assert report.total == pytest.approx(50.0)
    assert report.pairs == (((1, 2), pytest.approx(50.0)),)


def test_interzone_relabel_invariance():
    com = two_zone_community()
    trades = np.zeros((4, 4))
    trades[0, 3], trades[3, 0] = 50.0, -50.0
    trades[2, 1], trades[1, 2] = 30.0, -30.0
    total_a = interzone_exchange(com, trades, two_zone()).total
    total_b = interzone_exchange(com, trades, two_zone(zones=(2, 1))).total
    assert total_a == pytest.approx(total_b)


def test_interzone_counts_each_trade_once():
    com = two_zone_community()
    trades = np.zeros((4, 4))
    trades[0, 3], trades[3, 0] = 50.0, -50.0   # zone 1 sells 50 across
    trades[2, 1], trades[1, 2] = 30.0, -30.0   # zone 2 sells 30 back
    report = interzone_exchange(com, trades, two_zone())
    assert report.total == pytest.approx(20.0)

