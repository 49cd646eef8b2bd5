"""The three workloads and the correctness gate every market goes through.

A market is one clear plus its checks. A market fails when it raises, does
not converge, or breaks a check; failures are counted, never raised, so a
known shortfall of the method shows up in the pass ratio instead of
stopping the run. The tolerances are the acceptance suite's and are not
widened here.

Each workload is a fixed population of markets cleared in passes. The seed
sets the order within a pass; see README.md for why it does not choose the
population.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import shutil
import sys
import time
import traceback

import numpy as np

from bundle import SCENARIOS, data_dir
from spans import patch_everywhere

SKEW_TOL = 1e-12           # acceptance 7: trades + trades^T, MW
NET_TOL_MW = 0.5           # acceptance 4: engine vs bisection net power
OBJECTIVE_REL_TOL = 1e-3   # acceptance 4 and 7: engine vs QP objective
KKT_TOL = 10 * 1e-3        # acceptance 7: 10 x the default eps_price, EUR/MW
BALANCE_TOL_PER_AGENT = 1e-2  # acceptance 7: n x the default eps_primal, MW

SWEEP_FEES = [5.0 * i for i in range(13)]  # 0-60 EUR/MW, acceptance 5's grid
MONTECARLO_SEED = 20260816  # acceptance 7's population, 83 of 200 fail today
MONTECARLO_SIZE = 200


@dataclasses.dataclass(frozen=True)
class Market:
    label: str
    start: float    # perf_counter() when the market began
    seconds: float
    iterations: int
    failures: tuple

    @property
    def passed(self):
        return not self.failures


@dataclasses.dataclass(frozen=True)
class Pass:
    markets: list
    start: float
    seconds: float
    hashes: dict  # report name -> sha256 of its bytes


def engine_failures(community, result):
    """The checks every market gets: converged, skew-symmetric trades,
    producers only sell and consumers only buy."""
    failures = []
    if not result.converged:
        failures.append("not_converged")
    trades = np.asarray(result.trades)
    if float(np.max(np.abs(trades + trades.T))) > SKEW_TOL:
        failures.append("skew")
    sells = community.sign > 0
    if np.any(trades[sells] < 0.0) or np.any(trades[~sells] > 0.0):
        failures.append("sign")
    return tuple(failures)


class EngineGate:
    """Checks every ``clear_market`` result as it returns, whoever calls it.

    Installed around every pass, traced or not, so both see the same code.
    """

    def __init__(self, package):
        self.package = package
        self._clears = []

    @contextlib.contextmanager
    def installed(self):
        original = self.package.engine.clear_market

        def gated(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            community = args[0] if args else kwargs["community"]
            failures = engine_failures(community, result)
            self._clears.append(
                Market("", start, time.perf_counter() - start, result.iterations, failures))
            return result

        with patch_everywhere(original, gated):
            yield self

    def take(self):
        clears, self._clears = self._clears, []
        return clears


def _run_cli(cli, argv):
    """Call the documented entry point in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the arguments
            code = exc.code
    return code, out.getvalue()


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _hash_reports(directory, prefix):
    hashes = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            hashes[f"{prefix}/{name}"] = _sha256(handle.read())
    return hashes


def _read_metrics(path):
    pairs = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            key, sep, value = line.partition(" = ")
            if sep:
                pairs[key.strip()] = value.strip()
    return pairs


def _report_failure():
    traceback.print_exc(file=sys.stderr)
    return ("raised",)


class _Workload:
    def __init__(self, package, gate, work_dir, seed):
        self.package = package
        self.gate = gate
        self.work_dir = work_dir
        self.rng = np.random.default_rng(seed)

    def _fresh_dir(self, name):
        path = os.path.join(self.work_dir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


class Scenarios(_Workload):
    """``peermarket run <ini> --verify`` on the four bundled scenarios."""

    name = "scenarios"

    def run_pass(self):
        markets, hashes = [], {}
        start = time.perf_counter()
        for index in self.rng.permutation(len(SCENARIOS)):
            name = SCENARIOS[index]
            out = self._fresh_dir(name)
            ini = os.path.join(data_dir(self.package), f"{name}.ini")
            began = time.perf_counter()
            try:
                code, _ = _run_cli(self.package.cli, ["run", ini, "--verify", "--output", out])
                iterations, failures = self._check(code, out, self.gate.take())
            except Exception:
                self.gate.take()
                iterations, failures = 0, _report_failure()
            seconds = time.perf_counter() - began
            markets.append(Market(name, began, seconds, iterations, failures))
            hashes.update(_hash_reports(out, name))
        return Pass(markets, start, time.perf_counter() - start, hashes)

    def _check(self, code, out, clears):
        """Engine checks plus acceptance 4's oracle tolerances, read from
        the ``oracle.*`` lines the run wrote to metrics.txt."""
        failures = [] if code == 0 else [f"exit_{code}"]
        if len(clears) != 1:
            failures.append("engine_calls")
        for clear in clears:
            failures.extend(clear.failures)
        iterations = sum(clear.iterations for clear in clears)
        path = os.path.join(out, "metrics.txt")
        metrics = _read_metrics(path) if os.path.isfile(path) else {}
        kind = metrics.get("oracle.kind")
        if kind == "bisection":
            if float(metrics["oracle.max_net_dev_mw"]) > NET_TOL_MW:
                failures.append("net")
        elif kind == "qp":
            if float(metrics["oracle.objective_rel_dev"]) > OBJECTIVE_REL_TOL:
                failures.append("objective")
        else:
            failures.append("unverified")
        return iterations, tuple(failures)


class Sweep(_Workload):
    """``peermarket sweep`` of zonal.ini over 0-60 EUR/MW at acceptance 5's
    solver settings, then ``recommend-fee --revenue``."""

    name = "sweep"

    def run_pass(self):
        out = self._fresh_dir("sweep")
        ini = os.path.join(data_dir(self.package), "zonal.ini")
        argv = ["sweep", ini, "--fee-min", "0", "--fee-max", "60", "--step", "5",
                "--eps-primal", "3e-3", "--max-iterations", "100000", "--output", out]
        start = time.perf_counter()
        extra = []
        try:
            code, _ = _run_cli(self.package.cli, argv)
            if code != 0:
                extra.append(f"exit_{code}")
            code, text = _run_cli(self.package.cli, ["recommend-fee",
                                                     os.path.join(out, "sweep.csv"), "--revenue"])
            if code != 0:
                extra.append(f"recommend_exit_{code}")
        except Exception:
            extra.extend(_report_failure())
            text = ""
        seconds = time.perf_counter() - start
        clears = self.gate.take()
        markets = []
        for index, fee in enumerate(SWEEP_FEES):
            label = f"fee={fee:g}"
            if index < len(clears):
                clear = clears[index]
                markets.append(dataclasses.replace(clear, label=label,
                                                   failures=clear.failures + tuple(extra)))
            else:
                markets.append(Market(label, start, 0.0, 0, tuple(extra) or ("missing",)))
        hashes = _hash_reports(out, "sweep")
        hashes["sweep/recommend-fee.stdout"] = _sha256(text.encode())
        return Pass(markets, start, seconds, hashes)


def draw_community(package, rng, case):
    """Acceptance 7's generator, draw for draw: 2-6 agents, at least one of
    each role, a uniform fee wedge on every odd case."""
    n = int(rng.integers(2, 7))
    n_producers = int(rng.integers(1, n))
    roles = [package.PRODUCER] * n_producers + [package.CONSUMER] * (n - n_producers)
    rows = []
    for i, role in enumerate(roles):
        a = float(rng.uniform(0.05, 0.1))
        b = float(rng.uniform(15, 85))
        if role == package.PRODUCER:
            p_min, p_max = 0.0, float(rng.uniform(50, 500))
        else:
            p_min, p_max = -float(rng.uniform(50, 500)), 0.0
        rows.append((i + 1, i + 1, role, a, b, 0.0, p_min, p_max))
    community = package.build_community(rows)
    u = float(rng.uniform(0, 30)) if case % 2 == 1 else 0.0
    mask = community.partner_mask()
    gamma = np.where(mask, np.where(community.sign[:, None] > 0, u / 2, -u / 2), 0.0)
    return community, gamma


class MonteCarlo(_Workload):
    """Acceptance 7's 200 random communities, each cleared and checked
    against ``qp_reference``."""

    name = "montecarlo"

    def run_pass(self):
        package = self.package
        start = time.perf_counter()
        # Fresh objects every pass, so no cache keyed on them can carry over.
        population = np.random.default_rng(MONTECARLO_SEED)
        cases = [draw_community(package, population, case) for case in range(MONTECARLO_SIZE)]
        config = package.SolverConfig()
        markets = []
        for case in self.rng.permutation(MONTECARLO_SIZE):
            community, gamma = cases[case]
            iterations = 0
            began = time.perf_counter()
            try:
                result = package.clear_market(community, gamma, config)
                (clear,) = self.gate.take()
                iterations = clear.iterations
                failures = self._check(community, gamma, result, clear.failures)
            except Exception:
                self.gate.take()
                failures = _report_failure()
            seconds = time.perf_counter() - began
            markets.append(Market(f"case={case}", began, seconds, iterations, failures))
        return Pass(markets, start, time.perf_counter() - start, {})

    def _check(self, community, gamma, result, engine_checks):
        """Engine checks plus acceptance 7's balance, KKT and objective clauses."""
        failures = list(engine_checks)
        if abs(float(result.net_powers.sum())) > len(community) * BALANCE_TOL_PER_AGENT:
            failures.append("balance")
        if result.kkt_residual > KKT_TOL:
            failures.append("kkt")
        oracle = self.package.qp_reference(community, gamma)
        engine_obj = self.package.market_objective(community, result.trades, gamma)
        oracle_obj = self.package.market_objective(community, oracle.trades, gamma)
        if abs(engine_obj - oracle_obj) > OBJECTIVE_REL_TOL * max(abs(oracle_obj), 1.0):
            failures.append("objective")
        return tuple(failures)


WORKLOADS = {w.name: w for w in (Scenarios, Sweep, MonteCarlo)}
