"""Electrical distances: Thevenin path weights and PTDF-based trade spread."""

from __future__ import annotations

import numpy as np
import pytest

from peermarket import (
    METRICS,
    POWER_TRANSFER,
    THEVENIN,
    ValidationError,
    build_community,
    distance_matrix,
    power_transfer_distance,
    ptdf_matrix,
    shortest_path,
    thevenin_line_weights,
    zone_crossing_matrix,
    zones_crossed,
)
from peermarket.distances import bus_impedance_matrix, default_reference_bus
from peermarket.network import Bus, Line, Network


def two_bus():
    return Network([Bus(1, 1), Bus(2, 1)],
                   [Line(1, 1, 2, 0.1, 100.0)])


def triangle(x=0.1):
    buses = [Bus(1, 1), Bus(2, 1), Bus(3, 1)]
    lines = [Line(1, 1, 2, x, 100.0), Line(2, 2, 3, x, 100.0), Line(3, 1, 3, x, 100.0)]
    return Network(buses, lines)


def test_metric_names():
    assert METRICS == (THEVENIN, POWER_TRANSFER)


def test_two_bus_thevenin_pair():
    z = bus_impedance_matrix(two_bus())
    assert abs(z[0, 0] + z[1, 1] - 2 * z[0, 1]) == pytest.approx(0.1)


def test_two_bus_line_weight():
    assert thevenin_line_weights(two_bus()) == pytest.approx([0.1])


def test_impedance_symmetric(network):
    z = bus_impedance_matrix(network)
    assert np.allclose(z, z.T)


def test_thevenin_pairs_nonnegative(network):
    z = bus_impedance_matrix(network)
    diag = np.diag(z)
    pair = diag[:, None] + diag[None, :] - 2 * z
    assert pair.min() > -1e-12


def test_loop_weight_below_own_reactance():
    # parallel path in the triangle shunts part of the trade around each line
    weights = thevenin_line_weights(triangle(x=0.1))
    assert np.all(weights < 0.1)
    assert weights == pytest.approx(np.full(3, 0.2 / 3))


def test_shortest_path_two_bus():
    net = two_bus()
    path = shortest_path(net, thevenin_line_weights(net), 1, 2)
    assert path.nodes == (1, 2)
    assert path.total_weight == pytest.approx(0.1)


def test_shortest_path_same_bus():
    net = two_bus()
    path = shortest_path(net, thevenin_line_weights(net), 2, 2)
    assert path.nodes == (2,)
    assert path.total_weight == 0.0
    assert zones_crossed(path, net) == 1


def test_bundled_corridor_path(network):
    weights = thevenin_line_weights(network)
    path = shortest_path(network, weights, 16, 39)
    assert path.nodes == (16, 17, 18, 3, 2, 1, 39)
    assert zones_crossed(path, network) == 2


def test_path_inside_one_zone(network):
    weights = thevenin_line_weights(network)
    path = shortest_path(network, weights, 16, 17)
    assert zones_crossed(path, network) == 1


def test_ptdf_two_bus():
    net = two_bus()
    h = ptdf_matrix(net)
    assert h[0, net.bus_index(1)] == pytest.approx(1.0)
    assert h[0, net.bus_index(2)] == 0.0


def test_ptdf_triangle_split():
    net = triangle()
    h = ptdf_matrix(net)
    # injection at 1 leaves 2/3 on the direct line to the reference bus 3,
    # 1/3 the long way
    assert abs(h[0, net.bus_index(1)]) == pytest.approx(1.0 / 3.0)


def test_power_transfer_corridor(network):
    d = power_transfer_distance(network, 16, 39)
    assert d == pytest.approx(7.3, abs=0.2)
    assert power_transfer_distance(network, 39, 16) == pytest.approx(d)


def test_power_transfer_same_bus(network):
    assert power_transfer_distance(network, 5, 5) == 0.0


def test_power_transfer_two_bus():
    assert power_transfer_distance(two_bus(), 1, 2) == pytest.approx(1.0)


def test_distance_matrix_shape_properties(community, network):
    for metric in METRICS:
        dm = distance_matrix(community, network, metric)
        assert dm.metric == metric
        assert np.allclose(dm.values, dm.values.T)
        assert not dm.values.diagonal().any()
        assert dm.values.min() >= 0.0


def test_colocated_agents_have_zero_distance(community, network):
    # agents 21 and 31 both sit at bus 39
    i = community.index_of(21)
    j = community.index_of(31)
    for metric in METRICS:
        assert distance_matrix(community, network, metric).values[i, j] == 0.0


def test_distance_matrix_corridor_entry(community, network):
    ids_at = {ag.bus: ag.id for ag in community.agents}
    i = community.index_of(ids_at[16])
    j = community.index_of(ids_at[39])
    dm = distance_matrix(community, network, POWER_TRANSFER)
    assert dm.values[i, j] == pytest.approx(7.3, abs=0.2)


def test_unknown_metric_rejected(community, network):
    with pytest.raises(ValidationError):
        distance_matrix(community, network, "euclidean")


def test_thevenin_triangle_inequality(community, network):
    d = distance_matrix(community, network, THEVENIN).values
    n = d.shape[0]
    for k in range(n):
        detour = d[:, k:k + 1] + d[k:k + 1, :]
        assert np.all(d <= detour + 1e-9)


def test_zone_crossings(community, network):
    counts = zone_crossing_matrix(community, network)
    assert np.array_equal(counts, counts.T)
    mask = community.partner_mask()
    assert counts[mask].min() >= 1
    ids_at = {ag.bus: ag.id for ag in community.agents}
    i = community.index_of(ids_at[16])
    j = community.index_of(ids_at[39])
    assert counts[i, j] == 2


def test_default_reference_bus(network):
    assert default_reference_bus(network) == 39


def test_colocated_distance_on_toy():
    com = build_community([
        (1, 1, "producer", 0.1, 20.0, 0.0, 0.0, 100.0),
        (2, 1, "consumer", 0.1, 80.0, 0.0, -100.0, 0.0),
    ])
    dm = distance_matrix(com, two_bus(), POWER_TRANSFER)
    assert dm.values[0, 1] == 0.0
