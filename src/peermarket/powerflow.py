"""DC power flow and grid-side views of a market outcome.

Lossless linearized flow: line flows are the network's PTDF matrix
(``Network.ptdf``, built once with the network) applied to the per-bus
injections, so a flow is one matrix-vector product and solves nothing.
Balanced injections give flows that do not depend on the reference bus, so
none is chosen here. Loading is reported as rate = |flow| / capacity,
congestion as rates above 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .network import agent_buses

IMBALANCE_TOL = 1e-3  # MW per bus of allowed injection mismatch


@dataclass(frozen=True)
class FlowResult:
    """Signed per-line flows (MW, from->to positive) with loading rates."""

    flows: np.ndarray
    rates: np.ndarray
    lines: tuple


@dataclass(frozen=True)
class RateSummary:
    average: float
    maximum: float
    line: tuple  # (from_bus, to_bus) of the worst-loaded line


@dataclass(frozen=True)
class ZoneExchangeReport:
    """Net exchanged MW per unordered zone pair, each trade counted once."""

    pairs: tuple  # ((zone_a, zone_b), MW) sorted by zone pair
    total: float


def dc_power_flow(network, injections):
    """Solve the lossless flow for balanced, finite per-bus injections (MW).

    An imbalance within the tolerance is withdrawn at the reference bus.
    """
    injections = np.asarray(injections, dtype=float)
    if injections.shape != (network.n_buses,):
        raise ValidationError(
            f"injections must have one entry per bus ({network.n_buses}), got {injections.shape}")
    if not np.isfinite(injections).all():
        raise ValidationError("injections must be finite")
    residual = float(injections.sum())
    if abs(residual) > IMBALANCE_TOL * network.n_buses:
        raise ValidationError(
            f"injections do not balance: residual {residual:+.6f} MW exceeds "
            f"{IMBALANCE_TOL * network.n_buses:.3f} MW")
    flows = network.ptdf @ injections
    return FlowResult(flows=flows, rates=np.abs(flows) / network.capacity, lines=network.lines)


def line_rates(flows):
    """Loading summary; the worst line is identified by its bus pair."""
    worst = int(np.argmax(flows.rates))
    line = flows.lines[worst]
    return RateSummary(average=float(np.mean(flows.rates)),
                       maximum=float(flows.rates[worst]),
                       line=(line.from_bus, line.to_bus))


def congestion_report(flows):
    """Lines loaded beyond capacity, worst first."""
    over = [((line.from_bus, line.to_bus), float(rate))
            for line, rate in zip(flows.lines, flows.rates) if rate > 1.0]
    return sorted(over, key=lambda item: -item[1])


def interzone_exchange(community, trades, network):
    """Net MW moved between each pair of zones, from the trade matrix.

    Counting Sum P_nm over n in one zone, m in the other uses the positive
    side of every trade exactly once, so reciprocal entries never double.
    """
    trades = np.asarray(trades, dtype=float)
    zones = network.zones[agent_buses(community, network)]
    distinct = np.unique(zones).tolist()
    pairs = []
    total = 0.0
    for ai, za in enumerate(distinct):
        for zb in distinct[ai + 1:]:
            mw = abs(float(trades[np.ix_(zones == za, zones == zb)].sum()))
            pairs.append(((za, zb), mw))
            total += mw
    return ZoneExchangeReport(pairs=tuple(pairs), total=total)
