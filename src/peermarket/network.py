"""Electrical network model and the ``.net`` grid file format.

Grid file grammar (version 1)::

    # comment lines start with '#', blank lines are ignored
    version 1
    base_mva 100.0

    [buses]
    <id> <zone>          # one bus per line, integer ids, zones label 1..Z

    [lines]
    <from> <to> <reactance_pu> <capacity_mw>

``version`` and ``base_mva`` are key/value lines outside any section.
Reactances are per-unit series reactances on the system base; capacities are
MW thermal limits. No result depends on the base, so the optional
``base_mva`` line is only checked to be positive and finite. Parallel lines
between the same bus pair are allowed. A grid needs a line, each with a
finite susceptance 1/x, and the susceptances summed at each bus must stay
finite; the graph must be connected and zone labels must cover
1..max(zone) without gaps. ``Network`` solves the grid once, for the
impedance and PTDF that every distance and DC flow reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, read_lines

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Bus:
    id: int
    zone: int


@dataclass(frozen=True)
class Line:
    id: int
    from_bus: int
    to_bus: int
    reactance: float
    capacity: float


class Network:
    """Validated bus/line model used by distances, power flow and the CLI.

    It holds the index arrays every grid computation reads: ``ids`` and
    ``zones`` per bus, ``line_from``/``line_to`` (the bus positions of each
    line's ends), ``reactance`` and ``capacity`` per line, and each bus's
    ``neighbours`` (bus positions sorted by ascending bus id). Buses and
    lines are in file order.

    It also holds the grid's one grounded solve: ``impedance``, the bus
    impedance matrix grounded at ``default_reference_bus`` (its row and
    column are zero, so read only reference-invariant combinations such as
    Z_ii + Z_jj - 2 Z_ij), and ``ptdf``, lines by buses: the MW flow on each
    line (from->to positive) per MW injected at a bus and withdrawn at the
    reference bus, the same for every reference bus on balanced injections.

    Immutable after construction; safe to share between threads.
    """

    def __init__(self, buses, lines):
        self.buses = tuple(buses)
        self.lines = tuple(lines)
        self._pos = {bus.id: i for i, bus in enumerate(self.buses)}
        self._validate()
        self.ids = np.array([bus.id for bus in self.buses], dtype=np.int64)
        self.zones = np.array([bus.zone for bus in self.buses])
        self.line_from = np.array([self._pos[line.from_bus] for line in self.lines], dtype=np.intp)
        self.line_to = np.array([self._pos[line.to_bus] for line in self.lines], dtype=np.intp)
        self.reactance = np.array([line.reactance for line in self.lines], dtype=float)
        self.capacity = np.array([line.capacity for line in self.lines], dtype=float)
        adjacent = np.zeros((self.n_buses, self.n_buses), dtype=bool)
        adjacent[self.line_from, self.line_to] = adjacent[self.line_to, self.line_from] = True
        by_id = np.argsort(self.ids)
        self.neighbours = tuple(tuple(by_id[row[by_id]].tolist()) for row in adjacent)
        self._check_connected()
        B = susceptance_matrix(self)
        finite = np.isfinite(B).all(axis=1)
        if not finite.all():
            bus = self.ids[finite.argmin()]
            raise ValidationError(f"lines at bus {bus}: summed susceptance 1/x is not finite")
        # connected, with a finite susceptance matrix: the grounded system is nonsingular
        keep = self.ids != default_reference_bus(self)
        self.impedance = Z = np.zeros((self.n_buses, self.n_buses))
        Z[keep] = np.linalg.solve(B[np.ix_(keep, keep)], np.eye(self.n_buses)[keep])
        self.ptdf = (Z[self.line_from] - Z[self.line_to]) / self.reactance[:, None]
        for array in (self.ids, self.zones, self.line_from, self.line_to, self.reactance,
                      self.capacity, self.impedance, self.ptdf):
            array.flags.writeable = False

    def _validate(self):
        if not self.buses:
            raise ValidationError("network has no buses")
        if not self.lines:
            raise ValidationError("network has no lines")
        if len(self._pos) != len(self.buses):
            raise ValidationError("duplicate bus ids in network")
        if not all(-2**63 <= bus.id < 2**63 for bus in self.buses):
            raise ValidationError("bus ids must fit in 64 bits")
        for line in self.lines:
            if not (0.0 < line.reactance < math.inf and math.isfinite(1.0 / float(line.reactance))):
                raise ValidationError(
                    f"line {line.from_bus}-{line.to_bus}: reactance must be positive and "
                    f"finite with a finite susceptance 1/x, got {line.reactance}")
            if not 0.0 < line.capacity < math.inf:
                raise ValidationError(
                    f"line {line.from_bus}-{line.to_bus}: capacity must be positive and finite")
            if line.from_bus == line.to_bus:
                raise ValidationError(f"line {line.id} connects bus {line.from_bus} to itself")
            if line.from_bus not in self._pos or line.to_bus not in self._pos:
                raise ValidationError(
                    f"line {line.from_bus}-{line.to_bus} references an unknown bus")
        zones = sorted({bus.zone for bus in self.buses})
        if zones != list(range(1, len(zones) + 1)):
            raise ValidationError(f"zone labels must cover 1..{zones[-1]}, got {zones}")

    def _check_connected(self):
        seen, stack = {0}, [0]
        while stack:
            for v in self.neighbours[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        missing = sorted(bus.id for i, bus in enumerate(self.buses) if i not in seen)
        if missing:
            raise ValidationError(f"network is disconnected: unreachable buses {missing}")

    @property
    def n_buses(self):
        return len(self.buses)

    def bus_index(self, bus_id):
        """Position of a bus id in the canonical ordering (file order)."""
        try:
            return self._pos[bus_id]
        except KeyError:
            raise ValidationError(f"unknown bus {bus_id}") from None

    def zone_of(self, bus_id):
        return self.buses[self.bus_index(bus_id)].zone


def agent_buses(community, network):
    """Position in ``network.buses`` of each agent's bus, in community order."""
    return np.array([network.bus_index(agent.bus) for agent in community.agents], dtype=np.intp)


def default_reference_bus(network):
    """Highest-numbered bus, where the susceptance matrix is grounded.

    Every quantity the package reports is the same for any reference bus;
    a fixed one keeps the rounding reproducible."""
    return int(network.ids.max())


def susceptance_matrix(network):
    """DC susceptance (weighted Laplacian) matrix, ordered like network.buses.

    B[i, j] = -1/x summed over parallel lines between i and j, B[i, i] closes
    the row to zero sum. Symmetric and singular by construction. Every entry
    adds its lines' terms in line order.
    """
    i, j = network.line_from, network.line_to
    y = 1.0 / network.reactance
    rows = np.stack([i, j, i, j], axis=1).ravel()
    cols = np.stack([j, i, i, j], axis=1).ravel()
    B = np.zeros((network.n_buses, network.n_buses))
    with np.errstate(over="ignore"):  # parallel lines may sum past the float range
        np.add.at(B, (rows, cols), np.stack([-y, -y, y, y], axis=1).ravel())
    return B


def net_injections(community, net_powers, network):
    """Per-bus MW injections implied by agent net powers.

    net_powers is indexed like community.agents; the result is indexed like
    network.buses, zero at buses without agents.
    """
    net_powers = np.asarray(net_powers, dtype=float)
    if net_powers.shape != (len(community.agents),):
        raise ValidationError(f"net_powers must hold one value per agent "
                              f"({len(community.agents)}), got shape {net_powers.shape}")
    return np.bincount(agent_buses(community, network), weights=net_powers,
                       minlength=network.n_buses)


def _tokenize(path):
    for lineno, raw in enumerate(read_lines(path), start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            yield lineno, text


def load_network(path):
    """Parse and validate a ``.net`` grid file."""
    version = None
    buses = []
    lines = []
    section = None
    for lineno, text in _tokenize(path):
        if text.startswith("["):
            if text not in ("[buses]", "[lines]"):
                raise ValidationError(f"{path}:{lineno}: unknown section {text}")
            section = text
            continue
        fields = text.split()
        if section is None:
            if len(fields) != 2:
                raise ValidationError(f"{path}:{lineno}: expected 'key value', got {text!r}")
            key, value = fields
            if key == "version":
                version = value
            elif key == "base_mva":
                # every grid quantity is in per unit or MW: the base is checked, not kept
                if not _parse_float(value, path, lineno, "base_mva") > 0.0:
                    raise ValidationError(f"{path}:{lineno}: base_mva must be positive")
            else:
                raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        elif section == "[buses]":
            if len(fields) != 2:
                raise ValidationError(f"{path}:{lineno}: bus rows need 'id zone'")
            buses.append(Bus(id=_parse_int(fields[0], path, lineno, "bus id"),
                             zone=_parse_int(fields[1], path, lineno, "zone")))
        else:
            if len(fields) != 4:
                raise ValidationError(
                    f"{path}:{lineno}: line rows need 'from to reactance_pu capacity_mw'")
            lines.append(Line(
                id=len(lines) + 1,
                from_bus=_parse_int(fields[0], path, lineno, "from bus"),
                to_bus=_parse_int(fields[1], path, lineno, "to bus"),
                reactance=_parse_float(fields[2], path, lineno, "reactance"),
                capacity=_parse_float(fields[3], path, lineno, "capacity")))
    if version is None:
        raise ValidationError(f"{path}: missing 'version' line")
    if version != str(FORMAT_VERSION):
        raise ValidationError(f"{path}: unsupported network format version {version}")
    return Network(buses, lines)


def _parse_int(token, path, lineno, what):
    try:
        return int(token)
    except ValueError:
        raise ValidationError(f"{path}:{lineno}: {what} must be an integer, got {token!r}") from None


def _parse_float(token, path, lineno, what):
    try:
        value = float(token)
    except ValueError:
        raise ValidationError(f"{path}:{lineno}: {what} must be a number, got {token!r}") from None
    if not np.isfinite(value):
        raise ValidationError(f"{path}:{lineno}: {what} must be finite")
    return value
