"""Delimited-text report writers and readers.

Every emitted file starts with a ``# peermarket <kind> v<n>`` marker line:
v3 for ``metrics``, v2 for ``residuals``, v1 for every other kind. Output is
deterministic: fixed agent and line ordering, fixed float formats (a value
that rounds to zero never prints a minus sign), and no timestamps or
machine-specific content, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .community import CONSUMER
from .engine import ACTIVE_TRADE_TOL
from .errors import ValidationError
from .policies import perceived_price
from .sweep import SweepRecord

PLOT_THRESHOLD = 1e-2  # MW; below this a trade is noise on a market map

SWEEP_COLUMNS = ["fee", "converged", "iterations", "volume_mw", "gamma_so",
                 "interzone_mw", "avg_rate", "max_rate", "max_line"]


def fmt(value):
    """Six decimals, with anything that rounds to zero printed as 0.000000."""
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def _bool(flag):
    return "true" if flag else "false"


def _write(path, kind, header, rows, version=1):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# peermarket {kind} v{version}\n")
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")


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
    """Per ordered partner pair: MW, price, fee price, perceived price."""
    agents = community.agents
    rows = []
    for i, j in zip(community.src, community.dst):
        y, g = result.prices[i, j], gamma[i, j]
        rows.append((str(agents[i].id), str(agents[j].id), fmt(result.trades[i, j]),
                     fmt(y), fmt(g), fmt(perceived_price(y, g))))
    _write(path, "trades", ["n", "m", "trade_mw", "price", "gamma", "perceived_price"], rows)


def write_residuals(path, result):
    rows = [
        (str(k + 1), "{:.9f}".format(primal))
        for k, primal in enumerate(result.primal_residuals)
    ]
    _write(path, "residuals", ["iteration", "primal_residual"], rows, version=2)


def write_powerflow(path, network, flows):
    rows = []
    for line, flow, rate in zip(network.lines, flows.flows, flows.rates):
        rows.append((str(line.from_bus), str(line.to_bus), fmt(flow), fmt(rate)))
    _write(path, "powerflow", ["from_bus", "to_bus", "flow_mw", "rate"], rows)


def write_congestion(path, report):
    rows = [(str(a), str(b), fmt(rate)) for (a, b), rate in report]
    _write(path, "congestion", ["from_bus", "to_bus", "rate"], rows)


def write_trade_edges(path, community, network, result):
    """Positive-side trade list for market maps, one row per unordered pair."""
    agents = community.agents
    rows = []
    for i, j in zip(community.src, community.dst):
        mw = result.trades[i, j]
        if mw <= 0.0:
            continue
        same = network.zone_of(agents[i].bus) == network.zone_of(agents[j].bus)
        rows.append((str(agents[i].id), str(agents[j].id), fmt(mw),
                     "intra" if same else "inter", _bool(mw > PLOT_THRESHOLD)))
    _write(path, "trade-edges", ["n", "m", "trade_mw", "zone_crossing", "relevant"], rows)


def write_metrics(path, pairs):
    """key = value lines; pairs is an iterable of (key, formatted value)."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("# peermarket metrics v3\n")
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
    """Parse a sweep table back into SweepRecords."""
    records = []
    with open(path, encoding="utf-8") as handle:
        first = handle.readline()
        if not first.startswith("# peermarket sweep v"):
            raise ValidationError(f"{path}: not a peermarket sweep file")
        header = handle.readline().strip().split(",")
        if header != SWEEP_COLUMNS:
            raise ValidationError(f"{path}: unexpected sweep columns {header}")
        for lineno, raw in enumerate(handle, start=3):
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            parts = raw.split(",")
            if len(parts) != len(SWEEP_COLUMNS):
                raise ValidationError(
                    f"{path}:{lineno}: expected {len(SWEEP_COLUMNS)} fields")
            try:
                a, b = parts[8].split("-")
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
    if not records:
        raise ValidationError(f"{path}: empty sweep table")
    return records


def write_fee_curves(path, records):
    """Fee against average rate, maximum rate and operator revenue."""
    rows = [
        (fmt(r.fee), fmt(r.avg_rate), fmt(r.max_rate), fmt(r.gamma_so)) for r in records
    ]
    _write(path, "fee-curves", ["fee", "avg_rate", "max_rate", "gamma_so"], rows)


def write_rate_distribution(path, network, rate_table):
    """Per-line rates at every swept fee; rate_table is (fee, rates) pairs."""
    rows = []
    for fee, rates in rate_table:
        for line, rate in zip(network.lines, rates):
            rows.append((fmt(fee), str(line.from_bus), str(line.to_bus), fmt(rate)))
    _write(path, "rate-distribution", ["fee", "from_bus", "to_bus", "rate"], rows)


def write_distance_matrix(path, community, matrix, metric):
    ids = [str(agent.id) for agent in community.agents]
    rows = []
    for aid, row in zip(ids, matrix):
        rows.append((aid, *[fmt(v) for v in row]))
    _write(path, f"distances-{metric}", ["agent", *ids], rows)
