"""Electrical distances between buses and agents.

Two metrics are provided. The Thevenin metric weighs every line by the
Thevenin impedance seen between its endpoints and measures shortest-path
length under those weights. The power-transfer metric sums, over all lines,
the absolute PTDF response to a 1 MW trade between the two buses; it is the
better behaved choice on meshed grids. Both are dimensionless and symmetric.
The agent matrices, ``distance_matrix`` and ``zone_crossing_matrix``, are
plain N x N arrays in community order.

Every grid quantity here is computed from the network's index arrays (see
``Network``). Shortest paths come from one all-pairs length matrix per call
(Floyd-Warshall over the buses), which ``distance_matrix``,
``zone_crossing_matrix`` and ``shortest_path`` share; a path's nodes are
read off it by one greedy walk over the sorted neighbour lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .network import agent_buses, susceptance_matrix

THEVENIN = "thevenin"
POWER_TRANSFER = "power_transfer"
METRICS = (THEVENIN, POWER_TRANSFER)


@dataclass(frozen=True)
class PathResult:
    nodes: tuple
    total_weight: float
    zones_visited: tuple


def default_reference_bus(network):
    """Highest-numbered bus, where the susceptance matrix is grounded.

    Every quantity the package reports is the same for any reference bus;
    a fixed one keeps the rounding reproducible."""
    return int(network.ids.max())


def bus_impedance_matrix(network):
    """Pseudo-inverse of the susceptance matrix, grounded at the reference bus.

    The reference row/column is zero. Only reference-invariant combinations
    (Thevenin pair impedances Z_ii + Z_jj - 2 Z_ij, PTDF differences) should
    be consumed.
    """
    return _grounded_solve(network, np.eye(network.n_buses))


def _grounded_solve(network, injections):
    """Bus angles for ``injections`` (one row per bus, one column per case
    when 2-D) from the susceptance system grounded at the reference bus: its
    row of the injections is dropped and its angle is zero."""
    keep = network.ids != default_reference_bus(network)
    B = susceptance_matrix(network)
    angles = np.zeros(injections.shape)
    try:
        angles[keep] = np.linalg.solve(B[np.ix_(keep, keep)], injections[keep])
    except np.linalg.LinAlgError:
        raise ValidationError("susceptance matrix is singular: network disconnected?") from None
    return angles


def thevenin_line_weights(network):
    """Per-line |Z_ii + Z_jj - 2 Z_ij|, ordered like network.lines."""
    Z = bus_impedance_matrix(network)
    i, j = network.line_from, network.line_to
    return np.abs(Z[i, i] + Z[j, j] - 2.0 * Z[i, j])


def _shortest_lengths(network, weights):
    """Lightest direct line and shortest-path length between every two
    buses (by position; inf where no line joins a pair), for one finite,
    nonnegative weight per line. Floyd-Warshall: every sum is formed in
    both directions, so the lengths are exactly symmetric."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(network.lines),) or not np.isfinite(weights).all():
        raise ValidationError(
            f"shortest path requires one finite weight for each of the {len(network.lines)} lines")
    if (weights < 0).any():
        raise ValidationError("shortest path requires nonnegative weights")
    n = network.n_buses
    edges = np.full((n, n), np.inf)
    np.minimum.at(edges, (network.line_from, network.line_to), weights)
    np.minimum.at(edges, (network.line_to, network.line_from), weights)
    lengths = edges.copy()
    np.fill_diagonal(lengths, 0.0)
    for k in range(n):
        np.minimum(lengths, lengths[:, k, None] + lengths[k], out=lengths)
    return edges, lengths


def shortest_path(network, weights, from_bus, to_bus):
    """Minimal-weight bus path; ties resolved to the lexicographically
    smallest node sequence so results are reproducible."""
    source, target = network.bus_index(from_bus), network.bus_index(to_bus)
    edges, lengths = _shortest_lengths(network, weights)
    return _walk(network, edges.tolist(), lengths.tolist(), source, target)


def _walk(network, edges, lengths, source, target):
    """Path between two bus positions read off the all-pairs lengths (nested
    lists, for speed) by a greedy walk: taking the first admissible
    neighbour, by ascending bus id, keeps the node sequence minimal."""
    total = lengths[source][target]
    tol = 1e-9 * max(1.0, total)
    path = [source]
    while path[-1] != target:
        u = path[-1]
        step = next((v for v in network.neighbours[u] if v not in path and abs(
            lengths[source][u] + edges[u][v] + lengths[v][target] - total) <= tol), None)
        if step is None:
            raise ValidationError("shortest-path reconstruction failed (zero-weight cycle?)")
        path.append(step)
    return PathResult(tuple(network.ids[path].tolist()), float(total),
                      tuple(dict.fromkeys(network.zones[path].tolist())))


def ptdf_matrix(network):
    """Power transfer distribution factors, lines by buses.

    Entry (l, i) is the MW flow induced on line l (from->to positive) by
    injecting 1 MW at bus i and withdrawing it at the reference bus, whose
    column is zero. Applied to balanced injections the result is the same
    for every reference bus.
    """
    Z = bus_impedance_matrix(network)
    return (Z[network.line_from] - Z[network.line_to]) / network.reactance[:, None]


def power_transfer_distance(network, bus_n, bus_m):
    """Sum over lines of the absolute flow caused by a 1 MW trade n->m,
    from one grounded solve for that injection."""
    injection = np.zeros(network.n_buses)
    injection[network.bus_index(bus_n)] += 1.0
    injection[network.bus_index(bus_m)] -= 1.0
    angles = _grounded_solve(network, injection)
    flows = (angles[network.line_from] - angles[network.line_to]) / network.reactance
    return float(np.abs(flows).sum())


def distance_matrix(community, network, metric):
    """Pairwise agent distances as an N x N array in community order; agents
    sharing a bus are at distance 0."""
    if metric not in METRICS:
        raise ValidationError(f"unknown distance metric {metric!r}")
    buses, agent_pos = np.unique(agent_buses(community, network), return_inverse=True)
    if metric == POWER_TRANSFER:
        # one row of PTDF responses per agent bus, summed over the contiguous
        # line axis as power_transfer_distance sums it
        cols = np.ascontiguousarray(ptdf_matrix(network)[:, buses].T)
        lengths = np.abs(cols[:, None, :] - cols[None, :, :]).sum(axis=2)
    else:
        _, lengths = _shortest_lengths(network, thevenin_line_weights(network))
        lengths = lengths[np.ix_(buses, buses)]
    return lengths[np.ix_(agent_pos, agent_pos)]


def zone_crossing_matrix(community, network):
    """Per agent pair: zones crossed by the Thevenin shortest path between
    their buses, and 1 where the agents are not partners. Each path is
    walked once per unordered bus pair, from the lower bus id, so the count
    is symmetric even when tie-breaking is direction-dependent. All paths
    share one all-pairs length matrix."""
    buses = agent_buses(community, network)
    a, b = buses[community.src], buses[community.dst]
    swap = network.ids[a] > network.ids[b]
    n = network.n_buses
    keys, inverse = np.unique(np.where(swap, b, a) * n + np.where(swap, a, b),
                              return_inverse=True)
    edges, lengths = _shortest_lengths(network, thevenin_line_weights(network))
    edges, lengths = edges.tolist(), lengths.tolist()
    crossed = [len(_walk(network, edges, lengths, *divmod(key, n)).zones_visited)
               for key in keys.tolist()]
    counts = np.ones((len(community.agents),) * 2, dtype=int)
    counts[community.src, community.dst] = np.array(crossed, dtype=int)[inverse]
    return counts
