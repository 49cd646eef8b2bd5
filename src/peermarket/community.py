"""Market participants: agents with quadratic costs, bounds and partnerships.

Agents file grammar (version 1): delimited text with header
``agent_id,bus,role,a,b,c,p_min,p_max``; '#' lines are comments; role is
``producer`` or ``consumer``; decimal point, no thousands separators.

Costs are f_n(P) = a/2 P^2 + b P + c with P in MW (negative for consumers).
Producers satisfy 0 <= p_min <= p_max, consumers p_min <= p_max <= 0, so a
consumer with p_max < 0 is obliged to buy at least |p_max|. Costs and
bounds must be finite.

Partnerships are undirected producer-consumer pairs of agent ids. A
Community holds them only as its ordered pair list (``src``, ``dst``,
``rev``), the form the engine and every per-pair array read.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ValidationError, read_lines

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


class Community:
    """Validated agent collection with a fixed canonical ordering (file order).

    partners is an optional iterable of undirected (id, id) pairs, each
    joining a producer and a consumer; by default every agent partners with
    all agents of the opposite role. Pair e of the row-major partnered-pair
    list is agent ``src[e]`` trading with agent ``dst[e]``, and ``rev[e]``
    is the pair of the opposite side; every per-pair array of the package
    uses this order. A pair listed twice, in either orientation, is one
    partnership. ``partner_count`` holds each agent's number of partners,
    ``unpartnered`` the positions of the agents that have none."""

    def __init__(self, agents, partners=None):
        self.agents = tuple(agents)
        self._pos = {agent.id: i for i, agent in enumerate(self.agents)}
        self._validate()
        self.a = np.array([ag.a for ag in self.agents])
        self.b = np.array([ag.b for ag in self.agents])
        self.c = np.array([ag.c for ag in self.agents])
        self.p_min = np.array([ag.p_min for ag in self.agents])
        self.p_max = np.array([ag.p_max for ag in self.agents])
        self.sign = np.array([1.0 if ag.role == PRODUCER else -1.0 for ag in self.agents])
        if partners is None:
            self.src, self.dst = np.nonzero(self.sign[:, None] != self.sign[None, :])
        else:
            n = len(self.agents)
            keys = []
            for pair in partners:
                i, j = self._partner_positions(*pair)
                keys += (i * n + j, j * n + i)
            # unique keys drop repeated pairs and sort the list row-major
            self.src, self.dst = np.divmod(np.unique(np.array(keys, dtype=np.intp)), n)
        # both orientations of every pair are listed, so sorted by (dst, src)
        # the pairs list each pair's opposite side
        self.rev = np.lexsort((self.src, self.dst))
        self.partner_count = np.bincount(self.src, minlength=len(self.agents))
        self.unpartnered = tuple(np.flatnonzero(self.partner_count == 0).tolist())

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
            for name in ("p_min", "p_max"):
                if not math.isfinite(getattr(agent, name)):
                    raise ValidationError(f"agent {agent.id}: bound {name} must be finite")
            if agent.role == PRODUCER and not 0 <= agent.p_min <= agent.p_max:
                raise ValidationError(
                    f"agent {agent.id}: producer bounds need 0 <= p_min <= p_max, "
                    f"got [{agent.p_min}, {agent.p_max}]")
            if agent.role == CONSUMER and not agent.p_min <= agent.p_max <= 0:
                raise ValidationError(
                    f"agent {agent.id}: consumer bounds need p_min <= p_max <= 0, "
                    f"got [{agent.p_min}, {agent.p_max}]")

    def _partner_positions(self, first, second):
        """Positions of the two agents of one listed partnership."""
        if first == second:
            raise ValidationError(f"agent {first} cannot partner with itself")
        if first not in self._pos or second not in self._pos:
            raise ValidationError(f"partnership ({first}, {second}) references an unknown agent")
        i, j = self._pos[first], self._pos[second]
        # two sellers or two buyers: their sign boxes never face
        if self.sign[i] == self.sign[j]:
            raise ValidationError(
                f"partnership ({first}, {second}) joins two {self.agents[i].role}s, "
                "which can never trade")
        return i, j

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
    dispatch and every agent without partners may stay at zero. Whether the
    partnered pairs can carry every forced trade is not checked."""
    if community.p_min.sum() > FEASIBILITY_TOL:
        raise InfeasibleError("minimum supply exceeds what consumers can absorb")
    if community.p_max.sum() < -FEASIBILITY_TOL:
        raise InfeasibleError("forced consumption exceeds available capacity")
    for i in community.unpartnered:
        if community.p_min[i] > 0.0 or community.p_max[i] < 0.0:
            raise InfeasibleError(f"feasible set is empty: agent {community.agents[i].id} "
                                  "must trade but has no partner")


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
    """Assemble a Community from (id, bus, role, a, b, c, p_min, p_max)
    tuples; partners as for ``Community``."""
    return Community([Agent(*row) for row in rows], partners)


def load_agents(path, network=None):
    """Parse and validate an agents file into a Community in which every
    agent partners with all agents of the opposite role; ``build_community``
    takes an explicit partnership list.

    When a network is given, every referenced bus must exist in it.
    """
    rows = []
    header_seen = False
    version = None
    for lineno, raw in enumerate(read_lines(path), start=1):
        text = raw.strip()
        if not text:
            continue
        if text.startswith("#"):
            if text.startswith(FORMAT_MARKER):
                version = text[len(FORMAT_MARKER):].strip()
            continue
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
    return build_community(rows)
