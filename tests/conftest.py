"""Shared fixtures: the bundled New England case, loaded once per session."""

from __future__ import annotations

from importlib.resources import files

import numpy as np
import pytest
from hypothesis import strategies as st

from peermarket import (
    CONSUMER,
    PRODUCER,
    UNIQUE,
    InfeasibleError,
    PolicySpec,
    SolverConfig,
    build_community,
    build_gamma,
    clear_market,
    load_agents,
    load_network,
)
from peermarket.community import check_feasible

DATA_DIR = files("peermarket") / "data"
NETWORK_FILE = str(DATA_DIR / "new_england.net")
AGENTS_FILE = str(DATA_DIR / "new_england_agents.csv")

# grids that load as text but cannot be solved: no line at all, and the
# bundled grid with line 1-2 at a reactance whose 1/x overflows
UNSOLVABLE_GRIDS = {
    "no_lines": "version 1\n\n[buses]\n1 1\n\n[lines]\n",
    "tiny_reactance": (DATA_DIR / "new_england.net").read_text(encoding="utf-8").replace(
        "\n1   2   0.0411  600\n", "\n1   2   1e-320  600\n"),
}

# Tighter than the solver defaults so the clearing price is resolved well
# below the oracle-comparison tolerances; converges in a few hundred iterations.
REFERENCE_CONFIG = SolverConfig(eps_primal=1e-3, max_iterations=60000)


@pytest.fixture(scope="session")
def network():
    return load_network(NETWORK_FILE)


@pytest.fixture(scope="session")
def community(network):
    return load_agents(AGENTS_FILE, network=network)


@pytest.fixture(scope="session")
def free_result(community):
    result = clear_market(community, config=REFERENCE_CONFIG)
    assert result.converged
    return result


def make_pair_community():
    """Producer (a=0.1, b=20) facing one consumer (a=0.1, b=80).

    Marginal cost 20 + 0.1 P meets marginal utility 80 - 0.1 |P| at
    P = 300 MW, price 50; with a 10 unit fee split across the pair the
    crossing moves to 250 MW at the same price.
    """
    return build_community([
        (1, 1, PRODUCER, 0.1, 20.0, 0.0, 0.0, 500.0),
        (2, 2, CONSUMER, 0.1, 80.0, 0.0, -500.0, 0.0),
    ])


@pytest.fixture
def pair_community():
    return make_pair_community()


def acceptance_7_markets():
    """Acceptance 7's 200 random communities of 2-6 agents, each with its
    gamma: no fee on even cases, a uniform wedge on odd ones."""
    rng = np.random.default_rng(20260816)
    for case in range(200):
        n = int(rng.integers(2, 7))
        n_producers = int(rng.integers(1, n))
        roles = [PRODUCER] * n_producers + [CONSUMER] * (n - n_producers)
        rows = []
        for i, role in enumerate(roles):
            a = float(rng.uniform(0.05, 0.1))
            b = float(rng.uniform(15, 85))
            if role == PRODUCER:
                p_min, p_max = 0.0, float(rng.uniform(50, 500))
            else:
                p_min, p_max = -float(rng.uniform(50, 500)), 0.0
            rows.append((i + 1, i + 1, role, a, b, 0.0, p_min, p_max))
        com = build_community(rows)
        # the wedge is drawn either way so the agent parameters do not
        # depend on the parity
        u = float(rng.uniform(0, 30)) if case % 2 == 1 else 0.0
        mask = com.partner_mask()
        yield com, np.where(mask, np.where(com.sign[:, None] > 0, u / 2, -u / 2), 0.0)


def harsh_communities():
    """Random 2-12 agent communities with curvature a log-uniform over
    0.01-1, and consumers that must buy a minimum half the time, each with
    one unique fee drawn from 0-30 and skipped when infeasible: a harder
    population than acceptance 7 for the engine and the QP oracle alike.
    The generator never ends; take what a test needs."""
    rng = np.random.default_rng(7)
    while True:
        n = int(rng.integers(2, 13))
        n_producers = int(rng.integers(1, n))
        rows = []
        for i in range(n):
            a = float(np.exp(rng.uniform(np.log(0.01), 0.0)))
            b = float(rng.uniform(15, 85))
            if i < n_producers:
                role, p_min, p_max = PRODUCER, 0.0, float(rng.uniform(50, 500))
            else:
                role, p_min = CONSUMER, -float(rng.uniform(50, 500))
                p_max = -float(rng.uniform(0, -p_min)) if rng.random() < 0.5 else 0.0
            rows.append((i + 1, i + 1, role, a, b, 0.0, p_min, p_max))
        fee = float(rng.uniform(0, 30))
        com = build_community(rows)
        try:
            check_feasible(com)
        except InfeasibleError:
            continue
        yield com, build_gamma(PolicySpec(UNIQUE, fee), com)


# Fuzzing the text parsers: each edit of a bundled file's data rows drops a
# field, adds the token as a field, puts the token in a field, duplicates or
# deletes the row, or inserts the token as a row of its own. Tokens may hold
# a lone surrogate, written out as a byte that is not UTF-8.
EDIT_ACTIONS = ("drop", "add", "replace", "duplicate", "delete", "insert")


def row_edits(lines, tokens):
    """Hypothesis strategy: one to three edits of the data rows of lines."""
    rows = [k for k, row in enumerate(lines) if row.strip() and not row.startswith("#")]
    return st.lists(st.tuples(st.sampled_from(rows), st.sampled_from(EDIT_ACTIONS),
                              st.integers(0, 7), st.sampled_from(tokens)),
                    min_size=1, max_size=3)


def mutate(rows, edits, sep=None):
    """rows after the edits; fields are split on sep (whitespace by default)."""
    for row, action, field, token in edits:
        row %= len(rows)
        fields = rows[row].split(sep)
        if action == "drop" and fields:
            del fields[field % len(fields)]
        elif action == "add":
            fields.append(token)
        elif action == "replace" and fields:
            fields[field % len(fields)] = token
        elif action == "duplicate":
            rows = rows[:row + 1] + rows[row:]
            continue
        elif action == "delete":
            rows = rows[:row] + rows[row + 1:]
            continue
        elif action == "insert":
            rows = rows[:row + 1] + [token] + rows[row + 1:]
            continue
        rows = rows[:row] + [(sep or " ").join(fields)] + rows[row + 1:]
    return rows


def write_rows(path, rows):
    path.write_bytes(("\n".join(rows) + "\n").encode("utf-8", "surrogateescape"))
    return str(path)


# Acceptance results are echoed in one block at the end of the run so the
# pass/fail line for every criterion is visible even under output capture.

_ACCEPTANCE_LINES = []


def record_acceptance(number, passed, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} ({detail})"
    _ACCEPTANCE_LINES.append((number, line))
    return passed, line


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
