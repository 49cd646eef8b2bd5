"""Network fee sweeps and the operator's fee recommendation rule.

A sweep reruns the market from scratch at every fee on a strictly
increasing grid, so records are mutually independent and the table is
deterministic for a fixed scenario. Non-convergence at a grid point is
recorded, not raised; the sweep continues.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .engine import SolverConfig, clear_market
from .errors import ValidationError
from .network import net_injections
from .policies import FREE, build_gamma, check_fee, total_collected
from .powerflow import dc_power_flow, interzone_exchange, line_rates

MAX_RATE_TARGET = "max_line_rate"
REVENUE_TARGET = "revenue"


@dataclass(frozen=True)
class SweepRecord:
    fee: float
    converged: bool
    iterations: int
    volume: float
    gamma_so: float
    interzone: float
    avg_rate: float
    max_rate: float
    max_line: tuple[int, int]


@dataclass(frozen=True)
class FeeRecommendation:
    target: str
    fee: float
    max_rate: float
    avg_rate: float
    gamma_so: float
    volume: float
    interzone: float


def run_sweep(community, network, policy, fees, config=None, rates_out=None):
    """One independent clear_market per fee; records in grid order.

    policy fixes the kind and metric, its fee field is ignored in favor of
    the grid. The fee matrix is built once at fee 1 and scaled at each
    fee, which is bit for bit build_gamma's matrix at that fee (see policies).
    rates_out, when given a list, collects (fee, per-line rates) pairs for
    the rate-distribution export.
    """
    fees = [float(u) for u in fees]
    if not fees:
        raise ValidationError("empty fee grid")
    if any(b <= a for a, b in zip(fees, fees[1:])):
        raise ValidationError("fee grid must be strictly increasing")
    for fee in fees:
        check_fee(fee)
    if policy.kind == FREE:
        raise ValidationError("sweeping the free policy is a single point; pick a fee policy")
    config = config or SolverConfig()

    unit = build_gamma(replace(policy, fee=1.0), community, network=network)
    records = []
    for fee in fees:
        gamma = fee * unit
        result = clear_market(community, gamma, config)
        injections = net_injections(community, result.net_powers, network)
        flows = dc_power_flow(network, injections)
        summary = line_rates(flows)
        if rates_out is not None:
            rates_out.append((fee, flows.rates))
        records.append(
            SweepRecord(
                fee=fee,
                converged=result.converged,
                iterations=result.iterations,
                volume=float(result.net_powers[result.net_powers > 0].sum()),
                gamma_so=total_collected(result.trades, gamma),
                interzone=interzone_exchange(community, result.trades, network).total,
                avg_rate=summary.average,
                max_rate=summary.maximum,
                max_line=summary.line,
            )
        )
    return records


def _recommendation(target, lo, hi=None, weight=0.0, max_rate=None):
    """Recommendation read off the sweep at ``weight`` of the way from record
    lo to record hi (lo itself by default); max_rate, when given, replaces
    the interpolated rate by the exact target."""

    def pick(name):
        a = getattr(lo, name)
        return a if hi is None else a + weight * (getattr(hi, name) - a)

    return FeeRecommendation(
        target=target,
        fee=pick("fee"),
        max_rate=pick("max_rate") if max_rate is None else max_rate,
        avg_rate=pick("avg_rate"),
        gamma_so=pick("gamma_so"),
        volume=pick("volume"),
        interzone=pick("interzone"),
    )


def recommend_fee(records, target, value=None):
    """Operator rule on a sweep table.

    target = "max_line_rate": smallest fee whose maximum line rate is at
    most `value`, linearly interpolated between bracketing grid points.
    target = "revenue": grid fee maximizing the operator's collection.
    Only converged records are considered.
    """
    usable = [r for r in records if r.converged]
    if not usable:
        raise ValidationError("no converged sweep records to recommend from")

    if target == REVENUE_TARGET:
        best = max(usable, key=lambda r: (r.gamma_so, -r.fee))
        return _recommendation(REVENUE_TARGET, best)
    if target != MAX_RATE_TARGET:
        raise ValidationError(f"unknown recommendation target {target!r}")
    if value is None:
        raise ValidationError("max_line_rate target needs a rate value")

    rates = [r.max_rate for r in usable]
    lowest = min(rates)
    if value < lowest:
        raise ValidationError(
            f"target rate {value:g} unachievable; sweep covers [{lowest:g}, {max(rates):g}]"
        )
    if rates[0] <= value:
        return _recommendation(MAX_RATE_TARGET, usable[0])
    for lo, hi in zip(usable, usable[1:]):
        if lo.max_rate > value >= hi.max_rate:
            weight = (lo.max_rate - value) / (lo.max_rate - hi.max_rate)
            return _recommendation(MAX_RATE_TARGET, lo, hi, weight, max_rate=value)
    raise ValidationError(
        f"target rate {value:g} not bracketed; sweep covers [{lowest:g}, {max(rates):g}]"
    )
