"""Market participants: agents with quadratic costs, bounds and partnerships.

Agents file grammar (version 1): delimited text with header
``agent_id,bus,role,a,b,c,p_min,p_max``; '#' lines are comments; role is
``producer`` or ``consumer``; decimal point, no thousands separators.

Costs are f_n(P) = a/2 P^2 + b P + c with P in MW (negative for consumers).
Producers satisfy 0 <= p_min <= p_max, consumers p_min <= p_max <= 0, so a
consumer with p_max < 0 is obliged to buy at least |p_max|. Costs and
bounds must be finite.

Partnerships are undirected producer-consumer pairs of agent ids. A
Community holds them only as its pair list (``src``, ``dst``), the form the
engine and every per-pair array read: each trade's seller side, then its
buyer side K pairs later.
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
FEASIBILITY_TOL = 1e-6  # MW by which the feasibility tests may miss a bound


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
    all agents of the opposite role. A pair listed twice, in either
    orientation, is one partnership. The K partnerships run in row-major
    (``seller``, ``buyer``) order. Pair e is agent ``src[e]`` trading with
    agent ``dst[e]``: ``src`` is ``seller`` then ``buyer`` and ``dst`` the
    reverse, so pair e + K is the buyer side of partnership e; every
    per-pair array of the package uses this order. ``partner_count`` holds
    each agent's number of partners, ``unpartnered`` the positions of the
    agents that have none."""

    def __init__(self, agents, partners=None):
        self.agents = tuple(agents)
        self._pos = {agent.id: i for i, agent in enumerate(self.agents)}
        self._validate()
        # float also where a row holds whole numbers
        self.a = np.array([ag.a for ag in self.agents], dtype=float)
        self.b = np.array([ag.b for ag in self.agents], dtype=float)
        self.c = np.array([ag.c for ag in self.agents], dtype=float)
        self.p_min = np.array([ag.p_min for ag in self.agents], dtype=float)
        self.p_max = np.array([ag.p_max for ag in self.agents], dtype=float)
        self.sign = np.array([1.0 if ag.role == PRODUCER else -1.0 for ag in self.agents])
        if partners is None:
            seller, buyer = np.nonzero((self.sign[:, None] > 0) & (self.sign[None, :] < 0))
        else:
            n = len(self.agents)
            keys = [i * n + j for i, j in (self._partner_positions(*pair) for pair in partners)]
            # unique keys drop repeated pairs and sort the list row-major
            seller, buyer = np.divmod(np.unique(np.array(keys, dtype=np.intp)), n)
        self.src = np.concatenate((seller, buyer))
        self.dst = np.concatenate((buyer, seller))
        self.seller, self.buyer = self.src[:len(seller)], self.dst[:len(seller)]
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
        """Positions of the seller and the buyer of one listed partnership."""
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
        return (i, j) if self.sign[i] > 0 else (j, i)

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
    dispatch, every agent without partners may stay at zero, and the
    partnered pairs can carry a dispatch within every bound. On pairs
    without capacity that last test, Hoffman's circulation condition,
    splits into two Hall conditions (Ahuja, Magnanti and Orlin, Network
    Flows, 1993, ch. 6), each a maximum flow (``_transport``) judged per
    agent. It is skipped where it cannot fail once the others pass: when
    no agent is forced to trade, and when every producer partners every
    consumer, so that the aggregate test is exact."""
    if community.p_min.sum() > FEASIBILITY_TOL:
        raise InfeasibleError("minimum supply exceeds what consumers can absorb")
    if community.p_max.sum() < -FEASIBILITY_TOL:
        raise InfeasibleError("forced consumption exceeds available capacity")
    for i in community.unpartnered:
        if community.p_min[i] > 0.0 or community.p_max[i] < 0.0:
            raise InfeasibleError(f"feasible set is empty: agent {community.agents[i].id} "
                                  "must trade but has no partner")
    if not np.count_nonzero((community.p_min > 0.0) | (community.p_max < 0.0)):
        return
    seller = community.sign > 0
    producers = np.count_nonzero(seller)
    partnerships = np.arange(len(community.seller))
    if len(partnerships) == producers * (len(community.agents) - producers):
        return
    # the sellers' forced supply against the buyers' room, then the
    # buyers' forced purchase against the sellers' capacity
    for bound, forced in ((community.p_min, seller), (community.p_max, ~seller)):
        flow = _transport(community, partnerships, np.abs(bound), FEASIBILITY_TOL)
        moved = np.bincount(community.src, flow, len(community.agents))
        if np.count_nonzero(np.abs(bound - moved)[forced] > FEASIBILITY_TOL):
            raise InfeasibleError("feasible set is empty: the partnered pairs cannot carry "
                                  "every forced trade")


def _transport(community, pairs, cap, tol):
    """A maximum flow f >= 0 from seller to buyer on the listed
    partnerships in which every agent moves at most its ``cap`` (MW), per
    pair of the community's list: f on the seller side, -f on the buyer
    side, zero on the others; the caller judges each agent's total. A greedy
    pass in pair-list order comes first, then shortest augmenting paths
    from one source to one sink (Edmonds-Karp) until every seller or every
    buyer is within ``tol`` of its cap or no path is left, and the support's
    cycles are cancelled (``_acyclic``): a vertex of the transport
    polytope, deterministic in pair-list order."""
    seller = community.sign > 0
    ends = list(zip(community.seller[pairs].tolist(), community.buyer[pairs].tolist()))
    # greedy: each pair in turn carries what both its ends still may move;
    # each step fills one end, so its support is a forest
    left = cap.tolist()
    sent = []
    for s, c in ends:
        amount = min(left[s], left[c])
        left[s] -= amount
        left[c] -= amount
        sent.append(amount)
    rest = np.array(left)
    if min(rest[seller].max(), rest[~seller].max()) > tol:
        sent = _augmented(community, pairs, cap, left, sent, tol)
    flow = np.zeros(len(community.src))
    flow[pairs] = sent
    flow[pairs + len(community.seller)] = np.negative(sent)
    return flow


def _augmented(community, pairs, cap, left, sent, tol):
    """The greedy flow of ``_transport`` completed by shortest augmenting
    paths and made acyclic. Arc a runs tail[a] -> head[a], with residual
    res[2a] and that of its reverse res[2a + 1]: arc i < n joins the source
    to seller i or buyer i to the sink, and arc n + k is pair k."""
    seller = community.sign > 0
    n = len(seller)
    source, sink = n, n + 1
    agents = np.arange(n)
    tail = np.concatenate((np.where(seller, source, agents), community.src[pairs])).tolist()
    head = np.concatenate((np.where(seller, agents, sink), community.dst[pairs])).tolist()
    res = np.column_stack((np.concatenate((left, np.full(len(pairs), np.inf))),
                           np.concatenate((cap - left, sent)))).ravel().tolist()
    out = [[] for _ in range(n + 2)]  # residual arcs leaving each node
    for a, (t, h) in enumerate(zip(tail, head)):
        out[t].append(2 * a)
        out[h].append(2 * a + 1)
    to = [node for arc in zip(head, tail) for node in arc]
    # sellers, then buyers, with more than tol left on their source or sink
    # arc; a path lowers only its first and last of those arcs
    unfilled = [sum(res[2 * i] > tol for i in range(n) if seller[i] == side) for side in (1, 0)]
    while min(unfilled) > 0:
        via = [-1] * (n + 2)
        queue = [source]
        for node in queue:
            for r in out[node]:
                if res[r] > 0.0 and via[to[r]] < 0 and to[r] != source:
                    via[to[r]] = r
                    queue.append(to[r])
            if via[sink] >= 0:
                break
        if via[sink] < 0:
            break
        path, node = [], sink
        while node != source:
            path.append(via[node])
            node = to[via[node] ^ 1]
        amount = min(res[r] for r in path)
        above = [(r, res[r] > tol) for r in (path[-1], path[0])]
        for r in path:
            res[r] -= amount
            res[r ^ 1] += amount
        for side, (r, was) in enumerate(above):
            unfilled[side] -= was and res[r] <= tol
    return _acyclic(list(zip(tail[n:], head[n:])), res[2 * n + 1::2])


def _acyclic(ends, volume):
    """The flow ``volume`` on the pairs ``ends`` with every cycle of its
    support cancelled, so that the support is a forest: a vertex of the
    transport polytope. Pairs join a forest in list order; one that closes
    a cycle shifts flow around it, in turn up and down so that every total
    holds, until a pair on the cycle empties and leaves the forest."""
    links = {}  # node -> {neighbour: pair} of the forest so far
    for k, (s, c) in enumerate(ends):
        if volume[k] <= 0.0:
            continue
        via = {c: None}  # the forest path back to c
        queue = [c]
        for node in queue:
            for nxt, pair in links.get(node, {}).items():
                if nxt not in via:
                    via[nxt] = (node, pair)
                    queue.append(nxt)
        if s in via:
            # from s back to c, the path's pairs lose and gain in turn
            path, node = [], s
            while via[node] is not None:
                node, pair = via[node]
                path.append(pair)
            shift = min(volume[pair] for pair in path[::2])
            volume[k] += shift
            for i, pair in enumerate(path):
                volume[pair] += shift if i % 2 else -shift
                if volume[pair] <= 0.0:
                    a, b = ends[pair]
                    del links[a][b], links[b][a]
        links.setdefault(s, {})[c] = k
        links.setdefault(c, {})[s] = k
    return volume


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
