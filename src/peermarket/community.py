"""Market participants: agents with quadratic costs, bounds and partnerships.

Agents file grammar (version 1): delimited text with header
``agent_id,bus,role,a,b,c,p_min,p_max``; '#' lines are comments; role is
``producer`` or ``consumer``; decimal point, no thousands separators.

Costs are f_n(P) = a/2 P^2 + b P + c with P in MW (negative for consumers).
Producers satisfy 0 <= p_min <= p_max, consumers p_min <= p_max <= 0, so a
consumer with p_max < 0 is obliged to buy at least |p_max|.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ValidationError

PRODUCER = "producer"
CONSUMER = "consumer"

AGENTS_HEADER = ["agent_id", "bus", "role", "a", "b", "c", "p_min", "p_max"]
FORMAT_MARKER = "# peermarket agents v"
FORMAT_VERSION = 1
FEASIBILITY_TOL = 1e-6  # MW of aggregate bound violation tolerated


@dataclass(frozen=True)
class Agent:
    id: int
    bus: int
    role: str
    a: float
    b: float
    c: float
    p_min: float
    p_max: float
    partners: frozenset


class Community:
    """Validated agent collection with a fixed canonical ordering (file order).

    Pair e of the row-major partnered-pair list is agent ``src[e]`` trading
    with agent ``dst[e]``, and ``rev[e]`` is the pair of the opposite side;
    every per-pair array of the package uses this order."""

    def __init__(self, agents):
        self.agents = tuple(agents)
        self._pos = {agent.id: i for i, agent in enumerate(self.agents)}
        self._validate()
        self.a = np.array([ag.a for ag in self.agents])
        self.b = np.array([ag.b for ag in self.agents])
        self.c = np.array([ag.c for ag in self.agents])
        self.p_min = np.array([ag.p_min for ag in self.agents])
        self.p_max = np.array([ag.p_max for ag in self.agents])
        self.sign = np.array([1.0 if ag.role == PRODUCER else -1.0 for ag in self.agents])
        pairs = [(i, j) for i, agent in enumerate(self.agents)
                 for j in sorted(self._pos[partner] for partner in agent.partners)]
        self.src, self.dst = np.array(pairs, dtype=np.intp).reshape(-1, 2).T.copy()
        # partnerships are symmetric, so sorted by (dst, src) the pairs list
        # each pair's opposite side
        self.rev = np.lexsort((self.src, self.dst))

    def _validate(self):
        if len(self._pos) != len(self.agents):
            raise ValidationError("duplicate agent ids")
        roles = {agent.role for agent in self.agents}
        if not {PRODUCER, CONSUMER} <= roles:
            raise ValidationError("community needs at least one producer and one consumer")
        for agent in self.agents:
            if agent.role not in (PRODUCER, CONSUMER):
                raise ValidationError(f"agent {agent.id}: unknown role {agent.role!r}")
            if not agent.a > 0:
                raise ValidationError(f"agent {agent.id}: quadratic coefficient must be positive")
            for name in ("a", "b", "c"):
                if not math.isfinite(getattr(agent, name)):
                    raise ValidationError(
                        f"agent {agent.id}: cost coefficient {name} must be finite")
            if agent.role == PRODUCER and not 0 <= agent.p_min <= agent.p_max:
                raise ValidationError(
                    f"agent {agent.id}: producer bounds need 0 <= p_min <= p_max, "
                    f"got [{agent.p_min}, {agent.p_max}]")
            if agent.role == CONSUMER and not agent.p_min <= agent.p_max <= 0:
                raise ValidationError(
                    f"agent {agent.id}: consumer bounds need p_min <= p_max <= 0, "
                    f"got [{agent.p_min}, {agent.p_max}]")
            if agent.id in agent.partners:
                raise ValidationError(f"agent {agent.id} lists itself as a partner")
            for partner in agent.partners:
                if partner not in self._pos:
                    raise ValidationError(
                        f"agent {agent.id} references unknown partner {partner}")
        for agent in self.agents:
            for partner in agent.partners:
                other = self.agents[self._pos[partner]]
                if agent.id not in other.partners:
                    raise ValidationError(
                        f"partnership not symmetric: {agent.id} -> {partner}")

    def __len__(self):
        return len(self.agents)

    def index_of(self, agent_id):
        try:
            return self._pos[agent_id]
        except KeyError:
            raise ValidationError(f"unknown agent {agent_id}") from None

    @property
    def producers(self):
        return [agent for agent in self.agents if agent.role == PRODUCER]

    @property
    def consumers(self):
        return [agent for agent in self.agents if agent.role == CONSUMER]

    def partner_mask(self):
        """Boolean (N, N) matrix, True where column agent is a partner of row agent."""
        n = len(self.agents)
        mask = np.zeros((n, n), dtype=bool)
        mask[self.src, self.dst] = True
        return mask


def check_feasible(community):
    """Raise InfeasibleError unless the aggregate bounds admit a balanced
    dispatch; partnership lists are not considered."""
    if community.p_min.sum() > FEASIBILITY_TOL:
        raise InfeasibleError("minimum supply exceeds what consumers can absorb")
    if community.p_max.sum() < -FEASIBILITY_TOL:
        raise InfeasibleError("forced consumption exceeds available capacity")


def validate_gamma(community, gamma):
    """Fee matrix as an N x N float array; None means no fees. Raise
    ValidationError on a wrong shape or a non-finite entry."""
    n = len(community.agents)
    if gamma is None:
        return np.zeros((n, n))
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (n, n):
        raise ValidationError(f"gamma must be {n}x{n}, got {gamma.shape}")
    if not np.isfinite(gamma).all():
        raise ValidationError("gamma must be finite")
    return gamma


def build_community(rows, partners=None):
    """Assemble a Community from (id, bus, role, a, b, c, p_min, p_max) tuples.

    partners is an optional iterable of undirected (id, id) pairs; by default
    every agent partners with all agents of the opposite role.
    """
    ids = [row[0] for row in rows]
    roles = {row[0]: row[2] for row in rows}
    if partners is None:
        partner_sets = {
            i: frozenset(j for j in ids if roles.get(j) != roles.get(i)) for i in ids}
    else:
        sets = {i: set() for i in ids}
        for pair in partners:
            n, m = pair
            if n == m:
                raise ValidationError(f"agent {n} cannot partner with itself")
            if n not in sets or m not in sets:
                raise ValidationError(f"partnership ({n}, {m}) references an unknown agent")
            sets[n].add(m)
            sets[m].add(n)
        partner_sets = {i: frozenset(s) for i, s in sets.items()}
    agents = [Agent(*row, partners=partner_sets[row[0]]) for row in rows]
    return Community(agents)


def _data_rows(path):
    version_seen = None
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            text = raw.strip()
            if not text:
                continue
            if text.startswith("#"):
                if text.startswith(FORMAT_MARKER):
                    version_seen = text[len(FORMAT_MARKER):].strip()
                continue
            yield lineno, text, version_seen


def load_agents(path, network=None, partners=None):
    """Parse and validate an agents file.

    When a network is given, every referenced bus must exist in it. partners
    overrides the default all-opposite-role partnership (see build_community).
    """
    rows = []
    header_seen = False
    for lineno, text, version in _data_rows(path):
        if version is not None and version != str(FORMAT_VERSION):
            raise ValidationError(f"{path}: unsupported agents format version {version}")
        fields = next(csv.reader([text]))
        fields = [f.strip() for f in fields]
        if not header_seen:
            if fields != AGENTS_HEADER:
                raise ValidationError(
                    f"{path}:{lineno}: expected header {','.join(AGENTS_HEADER)!r}")
            header_seen = True
            continue
        if len(fields) != len(AGENTS_HEADER):
            raise ValidationError(f"{path}:{lineno}: expected {len(AGENTS_HEADER)} fields")
        try:
            rows.append((int(fields[0]), int(fields[1]), fields[2], float(fields[3]),
                         float(fields[4]), float(fields[5]), float(fields[6]),
                         float(fields[7])))
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    if not header_seen:
        raise ValidationError(f"{path}: empty agents file")
    if network is not None:
        known = {bus.id for bus in network.buses}
        for row in rows:
            if row[1] not in known:
                raise ValidationError(f"agent {row[0]} sits at unknown bus {row[1]}")
    return build_community(rows, partners=partners)


def save_agents(community, path):
    """Serialize agents (round-trips with load_agents for default partnerships)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(f"{FORMAT_MARKER}{FORMAT_VERSION}\n")
        writer = csv.writer(handle)
        writer.writerow(AGENTS_HEADER)
        for ag in community.agents:
            writer.writerow([ag.id, ag.bus, ag.role, repr(ag.a), repr(ag.b), repr(ag.c),
                             repr(ag.p_min), repr(ag.p_max)])


def load_partners(path):
    """Read an explicit partnership list: rows of ``agent_id,partner_id``."""
    pairs = []
    for lineno, text, _ in _data_rows(path):
        fields = [f.strip() for f in next(csv.reader([text]))]
        if fields == ["agent_id", "partner_id"]:
            continue
        if len(fields) != 2:
            raise ValidationError(f"{path}:{lineno}: expected 'agent_id,partner_id'")
        try:
            pairs.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: partner ids must be integers") from None
    return pairs
