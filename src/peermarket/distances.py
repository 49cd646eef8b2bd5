"""Electrical distances between buses and agents.

Two metrics are provided. The Thevenin metric weighs every line by the
Thevenin impedance seen between its endpoints and measures shortest-path
length under those weights. The power-transfer metric sums, over all lines,
the absolute PTDF response to a 1 MW trade between the two buses; it is the
better behaved choice on meshed grids. Both are dimensionless and symmetric.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .network import susceptance_matrix

THEVENIN = "thevenin"
POWER_TRANSFER = "power_transfer"
METRICS = (THEVENIN, POWER_TRANSFER)


@dataclass(frozen=True)
class PathResult:
    nodes: tuple
    total_weight: float
    zones_visited: tuple


@dataclass(frozen=True)
class DistanceMatrix:
    metric: str
    values: np.ndarray


def default_reference_bus(network):
    """Highest-numbered bus, where the susceptance matrix is grounded.

    Every quantity the package reports is the same for any reference bus;
    a fixed one keeps the rounding reproducible."""
    return max(bus.id for bus in network.buses)


def bus_impedance_matrix(network):
    """Pseudo-inverse of the susceptance matrix, grounded at the reference bus.

    The reference row/column is zero. Only reference-invariant combinations
    (Thevenin pair impedances Z_ii + Z_jj - 2 Z_ij, PTDF differences) should
    be consumed.
    """
    ref = network.bus_index(default_reference_bus(network))
    n = network.n_buses
    keep = [i for i in range(n) if i != ref]
    B = susceptance_matrix(network)
    try:
        reduced = np.linalg.solve(B[np.ix_(keep, keep)], np.eye(n - 1))
    except np.linalg.LinAlgError:
        raise ValidationError("susceptance matrix is singular: network disconnected?") from None
    Z = np.zeros((n, n))
    Z[np.ix_(keep, keep)] = reduced
    return Z


def thevenin_line_weights(network):
    """Per-line |Z_ii + Z_jj - 2 Z_ij|, ordered like network.lines."""
    Z = bus_impedance_matrix(network)
    weights = np.empty(len(network.lines))
    for pos, line in enumerate(network.lines):
        i = network.bus_index(line.from_bus)
        j = network.bus_index(line.to_bus)
        weights[pos] = abs(Z[i, i] + Z[j, j] - 2.0 * Z[i, j])
    return weights


def _edge_weights(network, weights):
    edges = {}
    for line, w in zip(network.lines, weights):
        if w < 0:
            raise ValidationError("shortest path requires nonnegative weights")
        key = (line.from_bus, line.to_bus)
        rkey = (line.to_bus, line.from_bus)
        best = min(w, edges.get(key, np.inf))
        edges[key] = edges[rkey] = best
    return edges


def _dijkstra(adjacency, edges, source):
    dist = {node: np.inf for node in adjacency}
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v in adjacency[u]:
            nd = d + edges[(u, v)]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _thevenin_trees(network, buses):
    """Adjacency, Thevenin edge weights, and the shortest-path distances
    from each of ``buses`` to every bus."""
    adjacency = network.adjacency()
    edges = _edge_weights(network, thevenin_line_weights(network))
    return adjacency, edges, {bus: _dijkstra(adjacency, edges, bus) for bus in buses}


def shortest_path(network, weights, from_bus, to_bus):
    """Minimal-weight bus path; ties resolved to the lexicographically
    smallest node sequence so results are reproducible."""
    network.bus_index(from_bus)
    network.bus_index(to_bus)
    if from_bus == to_bus:
        return PathResult((from_bus,), 0.0, (network.zone_of(from_bus),))
    adjacency = network.adjacency()
    edges = _edge_weights(network, weights)
    return _walk(network, adjacency, edges, _dijkstra(adjacency, edges, from_bus),
                 _dijkstra(adjacency, edges, to_bus), from_bus, to_bus)


def _walk(network, adjacency, edges, from_source, to_target, from_bus, to_bus):
    """Path from_bus -> to_bus read off the distance maps of both ends."""
    total = from_source[to_bus]
    if not np.isfinite(total):
        raise ValidationError(f"bus {to_bus} unreachable from {from_bus}")
    tol = 1e-9 * max(1.0, total)
    nodes = [from_bus]
    seen = {from_bus}
    # Greedy walk: smallest admissible neighbour keeps the sequence minimal.
    while nodes[-1] != to_bus:
        u = nodes[-1]
        candidates = sorted(
            v for v in adjacency[u]
            if v not in seen
            and abs(from_source[u] + edges[(u, v)] + to_target[v] - total) <= tol)
        if not candidates:
            raise ValidationError("shortest-path reconstruction failed (zero-weight cycle?)")
        nodes.append(candidates[0])
        seen.add(candidates[0])
    zones = []
    for node in nodes:
        zone = network.zone_of(node)
        if zone not in zones:
            zones.append(zone)
    return PathResult(tuple(nodes), float(total), tuple(zones))


def ptdf_matrix(network):
    """Power transfer distribution factors, lines by buses.

    Entry (l, i) is the MW flow induced on line l (from->to positive) by
    injecting 1 MW at bus i and withdrawing it at the reference bus, whose
    column is zero. Applied to balanced injections the result is the same
    for every reference bus.
    """
    Z = bus_impedance_matrix(network)
    H = np.empty((len(network.lines), network.n_buses))
    for pos, line in enumerate(network.lines):
        i = network.bus_index(line.from_bus)
        j = network.bus_index(line.to_bus)
        H[pos, :] = (Z[i, :] - Z[j, :]) / line.reactance
    return H


def power_transfer_distance(network, bus_n, bus_m):
    """Sum over lines of the absolute flow caused by a 1 MW trade n->m."""
    H = ptdf_matrix(network)
    i = network.bus_index(bus_n)
    j = network.bus_index(bus_m)
    return float(np.abs(H[:, i] - H[:, j]).sum())


def zones_crossed(path, network):
    """Distinct zones among the path's nodes; 1 for an intra-zone trade."""
    return len({network.zone_of(node) for node in path.nodes})


def distance_matrix(community, network, metric):
    """Pairwise agent distances; agents sharing a bus are at distance 0."""
    if metric not in METRICS:
        raise ValidationError(f"unknown distance metric {metric!r}")
    agent_buses = [agent.bus for agent in community.agents]
    distinct = sorted(set(agent_buses))
    n = len(community.agents)
    values = np.zeros((n, n))
    if metric == POWER_TRANSFER:
        H = ptdf_matrix(network)
        cols = {bus: H[:, network.bus_index(bus)] for bus in distinct}
        pair = {}
        for i, bus_i in enumerate(distinct):
            for bus_j in distinct[i + 1:]:
                pair[(bus_i, bus_j)] = float(np.abs(cols[bus_i] - cols[bus_j]).sum())
    else:
        _, _, dist_from = _thevenin_trees(network, distinct)
        pair = {}
        for i, bus_i in enumerate(distinct):
            for bus_j in distinct[i + 1:]:
                pair[(bus_i, bus_j)] = float(dist_from[bus_i][bus_j])
    for i in range(n):
        for j in range(i + 1, n):
            key = tuple(sorted((agent_buses[i], agent_buses[j])))
            if key[0] != key[1]:
                values[i, j] = values[j, i] = pair[key]
    return DistanceMatrix(metric=metric, values=values)


def zone_crossing_matrix(community, network):
    """Per agent pair: zones crossed by the Thevenin shortest path between
    their buses. Paths are resolved once per unordered bus pair so the count
    is symmetric even when tie-breaking is direction-dependent. Each path is
    read off the shortest-path trees of its two ends, one tree per bus."""
    agent_buses = [agent.bus for agent in community.agents]
    adjacency, edges, trees = _thevenin_trees(network, set(agent_buses))
    n = len(community.agents)
    counts = np.ones((n, n), dtype=int)
    cache = {}
    for i, j in zip(community.src, community.dst):
        key = tuple(sorted((agent_buses[i], agent_buses[j])))
        if key not in cache:
            if key[0] == key[1]:
                cache[key] = 1
            else:
                path = _walk(network, adjacency, edges, trees[key[0]], trees[key[1]], *key)
                cache[key] = zones_crossed(path, network)
        counts[i, j] = cache[key]
    return counts
