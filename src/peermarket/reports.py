"""Delimited-text report writers and readers.

Every emitted file starts with a ``# peermarket <kind> v<n>`` marker line:
v6 for ``metrics``, v2 for ``residuals``, v1 for every other kind. Output is
deterministic: fixed agent and line ordering, fixed float formats (a value
that rounds to zero never prints a minus sign), and no timestamps or
machine-specific content, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .engine import ACTIVE_TRADE_TOL
from .errors import ValidationError, read_lines
from .network import agent_buses
from .policies import perceived_price
from .sweep import SweepRecord, check_fee_grid

PLOT_THRESHOLD = 1e-2  # MW; below this a trade is noise on a market map

_VERSIONS = {"metrics": 6, "residuals": 2}  # every other kind is at v1

TRADE_COLUMNS = ["n", "m", "trade_mw", "price", "gamma", "perceived_price"]
SWEEP_COLUMNS = ["fee", "converged", "iterations", "volume_mw", "gamma_so",
                 "interzone_mw", "avg_rate", "max_rate", "max_line"]


def fmt(value):
    """Six decimals, with anything that rounds to zero printed as 0.000000."""
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def _bool(flag):
    return "true" if flag else "false"


def _marker(kind):
    return f"# peermarket {kind} v{_VERSIONS.get(kind, 1)}"


def _write(path, kind, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(_marker(kind) + "\n")
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")


def _read(path, kind, header):
    """Yield ``(line number, fields)`` for each data row of a file that
    ``_write`` emitted with this kind and header. The marker must match
    exactly, version included, and every row must have one field per
    column; blank and ``#`` lines are skipped."""
    lines = iter(read_lines(path))
    if next(lines, "").rstrip("\r\n") != _marker(kind):
        raise ValidationError(f"{path}: not a peermarket {kind} file "
                              f"(expected {_marker(kind)!r})")
    columns = next(lines, "").strip().split(",")
    if columns != header:
        raise ValidationError(f"{path}: unexpected {kind} columns {columns}")
    for lineno, raw in enumerate(lines, start=3):
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        fields = raw.split(",")
        if len(fields) != len(header):
            raise ValidationError(f"{path}:{lineno}: expected {len(header)} fields")
        yield lineno, fields


def clearing_price(result):
    """Volume-weighted mean bilateral price over active trades.

    Each trade clears at one price shared by both sides. At a free-market
    equilibrium every active pair has the same price, so this reduces to the
    uniform clearing price.
    """
    weights = np.where(result.trades > ACTIVE_TRADE_TOL, result.trades, 0.0)
    total = weights.sum()
    if total == 0.0:
        return float("nan")
    return float((weights * result.prices).sum() / total)


def active_trade_count(result):
    """Unordered pairs trading more than PLOT_THRESHOLD MW."""
    return int((result.trades > PLOT_THRESHOLD).sum())


def write_trades(path, community, result, gamma):
    """Per ordered partner pair, row-major: MW, price, fee price, perceived price."""
    src, dst = community.partner_mask().nonzero()
    price, fee = result.prices[src, dst], gamma[src, dst]
    ids = [str(agent.id) for agent in community.agents]
    rows = [(ids[i], ids[j], fmt(mw), fmt(y), fmt(g), fmt(p))
            for i, j, mw, y, g, p in zip(src.tolist(), dst.tolist(),
                                         result.trades[src, dst].tolist(), price.tolist(),
                                         fee.tolist(), perceived_price(price, fee).tolist())]
    _write(path, "trades", TRADE_COLUMNS, rows)


def read_trade_net_powers(path, community):
    """Per-agent net power, in community order, from a trades file. Each
    row must trade a finite volume between a producer and a consumer."""
    by_id = {agent.id: i for i, agent in enumerate(community.agents)}
    nets = np.zeros(len(community.agents))
    for lineno, parts in _read(path, "trades", TRADE_COLUMNS):
        try:
            n, m = int(parts[0]), int(parts[1])
            mw = float(parts[2])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: malformed trade row") from None
        for agent in (n, m):
            if agent not in by_id:
                raise ValidationError(f"{path}:{lineno}: unknown agent id {agent}")
        if not np.isfinite(mw):
            raise ValidationError(f"{path}:{lineno}: trade volume must be finite")
        if n == m:
            raise ValidationError(f"{path}:{lineno}: agent {n} cannot trade with itself")
        if community.sign[by_id[n]] == community.sign[by_id[m]]:
            raise ValidationError(f"{path}:{lineno}: agents {n} and {m} are both "
                                  f"{community.agents[by_id[n]].role}s")
        nets[by_id[n]] += mw
    return nets


def write_residuals(path, result):
    rows = [
        (str(k + 1), "{:.9f}".format(primal))
        for k, primal in enumerate(result.primal_residuals)
    ]
    _write(path, "residuals", ["iteration", "primal_residual"], rows)


def write_powerflow(path, network, flows):
    rows = [(str(line.from_bus), str(line.to_bus), fmt(flow), fmt(rate))
            for line, flow, rate in zip(network.lines, flows.flows, flows.rates)]
    _write(path, "powerflow", ["from_bus", "to_bus", "flow_mw", "rate"], rows)


def write_congestion(path, report):
    rows = [(str(a), str(b), fmt(rate)) for (a, b), rate in report]
    _write(path, "congestion", ["from_bus", "to_bus", "rate"], rows)


def write_trade_edges(path, community, network, result):
    """Positive-side trade list for market maps, one row per unordered pair."""
    zones = network.zones[agent_buses(community, network)]
    mw = result.trades[community.src, community.dst]
    sold = mw > 0.0
    src, dst, mw = community.src[sold], community.dst[sold], mw[sold]
    ids = [str(agent.id) for agent in community.agents]
    rows = [(ids[i], ids[j], fmt(w), "intra" if same else "inter", _bool(w > PLOT_THRESHOLD))
            for i, j, w, same in zip(src, dst, mw, zones[src] == zones[dst])]
    _write(path, "trade-edges", ["n", "m", "trade_mw", "zone_crossing", "relevant"], rows)


def write_metrics(path, pairs):
    """key = value lines; pairs is an iterable of (key, formatted value)."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(_marker("metrics") + "\n")
        for key, value in pairs:
            handle.write(f"{key} = {value}\n")


def write_sweep(path, records):
    rows = []
    for r in records:
        rows.append(
            (
                fmt(r.fee),
                _bool(r.converged),
                str(r.iterations),
                fmt(r.volume),
                fmt(r.gamma_so),
                fmt(r.interzone),
                fmt(r.avg_rate),
                fmt(r.max_rate),
                f"{r.max_line[0]}-{r.max_line[1]}",
            )
        )
    _write(path, "sweep", SWEEP_COLUMNS, rows)


def read_sweep(path):
    """Parse a sweep table back into SweepRecords: finite, on a fee grid."""
    records = []
    for lineno, parts in _read(path, "sweep", SWEEP_COLUMNS):
        try:
            # bus ids may be negative: the ends split at the first '-' after
            # the first character
            head, dash, b = parts[8][1:].partition("-")
            if not dash:
                raise ValueError
            a = parts[8][:1] + head
            records.append(
                SweepRecord(
                    fee=float(parts[0]),
                    converged=parts[1] == "true",
                    iterations=int(parts[2]),
                    volume=float(parts[3]),
                    gamma_so=float(parts[4]),
                    interzone=float(parts[5]),
                    avg_rate=float(parts[6]),
                    max_rate=float(parts[7]),
                    max_line=(int(a), int(b)),
                )
            )
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: malformed sweep row") from None
        if not np.isfinite([float(parts[k]) for k in (0, 3, 4, 5, 6, 7)]).all():
            raise ValidationError(f"{path}:{lineno}: sweep values must be finite")
    if not records:
        raise ValidationError(f"{path}: empty sweep table")
    try:
        check_fee_grid([record.fee for record in records])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return records


def write_fee_curves(path, records):
    """Fee against average rate, maximum rate and operator revenue."""
    rows = [
        (fmt(r.fee), fmt(r.avg_rate), fmt(r.max_rate), fmt(r.gamma_so)) for r in records
    ]
    _write(path, "fee-curves", ["fee", "avg_rate", "max_rate", "gamma_so"], rows)


def write_rate_distribution(path, network, rate_table):
    """Per-line rates at every swept fee; rate_table is (fee, rates) pairs."""
    rows = [(fmt(fee), str(line.from_bus), str(line.to_bus), fmt(rate))
            for fee, rates in rate_table for line, rate in zip(network.lines, rates)]
    _write(path, "rate-distribution", ["fee", "from_bus", "to_bus", "rate"], rows)


def write_distance_matrix(path, community, matrix, metric):
    ids = [str(agent.id) for agent in community.agents]
    rows = [(aid, *[fmt(v) for v in row]) for aid, row in zip(ids, matrix)]
    _write(path, f"distances-{metric}", ["agent", *ids], rows)
