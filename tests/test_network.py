from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from peermarket import (
    METRICS,
    ZONAL,
    PolicySpec,
    SolverConfig,
    ValidationError,
    dc_power_flow,
    distance_matrix,
    load_agents,
    load_network,
    net_injections,
    power_transfer_distance,
    run_sweep,
    susceptance_matrix,
    thevenin_line_weights,
    zone_crossing_matrix,
)
from peermarket.network import Bus, Line, Network

from conftest import AGENTS_FILE, NETWORK_FILE, UNSOLVABLE_GRIDS, mutate, row_edits, write_rows

TWO_BUS = """\
version 1
base_mva 100.0

[buses]
1 1
2 1

[lines]
1 2 0.1 100.0
"""


def write_net(tmp_path, text, name="toy.net"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_bundled_case_dimensions(network):
    assert network.n_buses == 39
    assert len(network.lines) == 46


def test_bundled_zones_cover_four_labels(network):
    assert {bus.zone for bus in network.buses} == {1, 2, 3, 4}


def test_two_bus_file(tmp_path):
    net = load_network(write_net(tmp_path, TWO_BUS))
    assert net.n_buses == 2
    assert len(net.lines) == 1
    assert net.lines[0].reactance == 0.1
    assert net.zone_of(2) == 1


def test_zero_reactance_rejected(tmp_path):
    bad = TWO_BUS.replace("1 2 0.1 100.0", "1 2 0.0 100.0")
    with pytest.raises(ValidationError):
        load_network(write_net(tmp_path, bad))


def test_disconnected_graph_rejected(tmp_path):
    bad = TWO_BUS.replace("1 1\n2 1", "1 1\n2 1\n3 1")
    with pytest.raises(ValidationError):
        load_network(write_net(tmp_path, bad))


def test_missing_version_rejected(tmp_path):
    bad = TWO_BUS.replace("version 1\n", "")
    with pytest.raises(ValidationError):
        load_network(write_net(tmp_path, bad))


def test_parse_error_carries_line_context(tmp_path):
    bad = TWO_BUS.replace("1 2 0.1 100.0", "1 2 oops 100.0")
    with pytest.raises(ValidationError, match="reactance"):
        load_network(write_net(tmp_path, bad))


def test_unknown_bus_lookup_rejected(network):
    with pytest.raises(ValidationError):
        network.bus_index(99)


def test_susceptance_two_bus(tmp_path):
    net = load_network(write_net(tmp_path, TWO_BUS))
    b = susceptance_matrix(net)
    assert b == pytest.approx(np.array([[10.0, -10.0], [-10.0, 10.0]]))


def test_susceptance_symmetric_zero_row_sums(network):
    b = susceptance_matrix(network)
    assert np.allclose(b, b.T)
    assert np.max(np.abs(b.sum(axis=1))) < 1e-9


def test_susceptance_matches_line_loop(network):
    # reference: each line's four entries added in line order
    ref = np.zeros((network.n_buses, network.n_buses))
    for line in network.lines:
        i, j = network.bus_index(line.from_bus), network.bus_index(line.to_bus)
        y = 1.0 / line.reactance
        ref[i, j] -= y
        ref[j, i] -= y
        ref[i, i] += y
        ref[j, j] += y
    assert np.array_equal(susceptance_matrix(network), ref)


def test_injections_match_agent_loop(community, network, free_result):
    ref = np.zeros(network.n_buses)
    for agent, power in zip(community.agents, free_result.net_powers):
        ref[network.bus_index(agent.bus)] += power
    assert np.array_equal(net_injections(community, free_result.net_powers, network), ref)


def test_injections_sum_by_bus(community, network):
    net_powers = np.zeros(len(community))
    net_powers[community.index_of(20)] = -0.9
    net_powers[community.index_of(23)] = 100.0
    inj = net_injections(community, net_powers, network)
    assert inj[network.bus_index(31)] == pytest.approx(99.1)
    assert inj.sum() == pytest.approx(net_powers.sum())


def test_injections_zero_powers(community, network):
    inj = net_injections(community, np.zeros(len(community)), network)
    assert not inj.any()


def test_injections_reject_wrong_length(community, network):
    with pytest.raises(ValidationError, match="one value per agent"):
        net_injections(community, np.zeros(5), network)


def test_injection_single_producer(network):
    from peermarket import build_community

    com = build_community([
        (1, 30, "producer", 0.1, 20.0, 0.0, 0.0, 500.0),
        (2, 3, "consumer", 0.1, 80.0, 0.0, -500.0, 0.0),
    ])
    inj = net_injections(com, np.array([50.0, 0.0]), network)
    assert inj[network.bus_index(30)] == 50.0
    assert np.count_nonzero(inj) == 1


def test_direct_construction_validates():
    buses = [Bus(id=1, zone=1), Bus(id=2, zone=1)]
    with pytest.raises(ValidationError):
        Network(buses, [Line(id=1, from_bus=1, to_bus=3, reactance=0.1, capacity=10.0)])
    with pytest.raises(ValidationError):
        Network(buses, [Line(id=1, from_bus=1, to_bus=2, reactance=-0.1, capacity=10.0)])


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_nonfinite_reactance_rejected(value):
    with pytest.raises(ValidationError, match="reactance"):
        Network([Bus(1, 1), Bus(2, 1)], [Line(1, 1, 2, value, 100.0)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, message", [("no_lines", "network has no lines"),
                                           ("tiny_reactance", "finite susceptance"),
                                           ("parallel_overflow", "summed susceptance")])
def test_unsolvable_grid_rejected(tmp_path, name, message):
    # each fails before the solve, and before numpy can warn
    assert "1e-320" in UNSOLVABLE_GRIDS["tiny_reactance"]
    with pytest.raises(ValidationError, match=message):
        load_network(write_net(tmp_path, UNSOLVABLE_GRIDS[name]))


def test_one_grounded_solve_per_network(monkeypatch):
    # the load solves the grid once; every grid computation after it reads
    # the network's impedance and PTDF
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(1) or solve(*args))
    network = load_network(NETWORK_FILE)
    assert len(calls) == 1
    community = load_agents(AGENTS_FILE, network=network)
    config = SolverConfig(eps_primal=3e-3, max_iterations=100000)
    run_sweep(community, network, PolicySpec(ZONAL), [5.0 * i for i in range(13)],
              config=config)
    for metric in METRICS:
        distance_matrix(community, network, metric)
    zone_crossing_matrix(community, network)
    thevenin_line_weights(network)
    power_transfer_distance(network, 16, 39)
    dc_power_flow(network, np.zeros(network.n_buses))
    assert len(calls) == 1


def test_grid_arrays_refuse_writes(network):
    for array in (network.impedance, network.ptdf):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_nonfinite_capacity_rejected(value):
    with pytest.raises(ValidationError, match="capacity"):
        Network([Bus(1, 1), Bus(2, 1)], [Line(1, 1, 2, 0.1, value)])


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_nonfinite_base_power_rejected(tmp_path, value):
    bad = TWO_BUS.replace("base_mva 100.0", f"base_mva {value}")
    with pytest.raises(ValidationError, match="base_mva must be finite"):
        load_network(write_net(tmp_path, bad))


@pytest.mark.parametrize("value", ["0", "-100.0"])
def test_nonpositive_base_mva_rejected(tmp_path, value):
    bad = TWO_BUS.replace("base_mva 100.0", f"base_mva {value}")
    with pytest.raises(ValidationError, match="base_mva must be positive"):
        load_network(write_net(tmp_path, bad))


def test_bus_id_beyond_64_bits_rejected():
    with pytest.raises(ValidationError, match="64 bits"):
        Network([Bus(1, 1), Bus(2**63, 1)], [Line(1, 1, 2**63, 0.1, 100.0)])


def test_index_arrays():
    # bus ids out of file order: positions follow the file, neighbours the ids
    buses = [Bus(7, 1), Bus(2, 2), Bus(5, 1)]
    lines = [Line(1, 5, 7, 0.1, 10.0), Line(2, 7, 2, 0.2, 20.0), Line(3, 7, 5, 0.3, 30.0)]
    net = Network(buses, lines)
    assert net.ids.tolist() == [7, 2, 5]
    assert net.zones.tolist() == [1, 2, 1]
    assert net.line_from.tolist() == [2, 0, 0]
    assert net.line_to.tolist() == [0, 1, 2]
    assert net.reactance.tolist() == [0.1, 0.2, 0.3]
    assert net.capacity.tolist() == [10.0, 20.0, 30.0]
    assert net.neighbours == ((1, 2), (0,), (0,))


def test_non_utf8_byte_reported_at_its_file_offset(tmp_path):
    # past the first decoded chunk, so the offset is the file's, not the chunk's
    path = tmp_path / "long.net"
    path.write_bytes(b"# padding\n" * 2000 + b"\xff\n")
    with pytest.raises(ValidationError, match="not UTF-8 text \\(byte 20000\\)"):
        load_network(str(path))


def test_reader_translates_newlines_like_text_mode(tmp_path):
    path = tmp_path / "crlf.net"
    path.write_bytes(Path(NETWORK_FILE).read_bytes().replace(b"\n", b"\r\n"))
    crlf, bundled = load_network(str(path)), load_network(NETWORK_FILE)
    assert (crlf.buses, crlf.lines) == (bundled.buses, bundled.lines)


# Tokens for the fuzz: garbage, non-finite and negative numbers, a
# duplicate id (1), an unknown bus (99), an id beyond 64 bits, a section
# header, a comment and a byte that is not UTF-8.
BUNDLED_ROWS = Path(NETWORK_FILE).read_text(encoding="utf-8").splitlines()
TOKENS = ["x", "1.5.2", "nan", "inf", "-inf", "-0.1", "0", "1e400", "1", "99",
          "99999999999999999999", "[lines]", "#", "\udcff"]


@settings(max_examples=200, deadline=None)
@given(row_edits(BUNDLED_ROWS, TOKENS))
def test_parser_fuzz_fails_only_with_validation_error(tmp_path_factory, edits):
    path = write_rows(tmp_path_factory.getbasetemp() / "mutated.net",
                      mutate(BUNDLED_ROWS, edits))
    try:
        net = load_network(path)
    except ValidationError:
        return
    assert isinstance(net, Network)
