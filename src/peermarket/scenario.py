"""Scenario files: one INI file describing a complete market experiment.

Grammar (version 1)::

    [scenario]            ; optional section
    version = 1

    [network]
    path = new_england.net

    [agents]
    path = new_england_agents.csv

    [policy]
    kind = free           ; free | unique | distance | zonal
    fee = 0.0             ; optional, euro/MW (/distance unit for distance)
    metric = power_transfer  ; optional, distance policy only

    [solver]              ; optional, any SolverConfig field
    eps_primal = 1e-3

    [output]              ; optional
    dir = out
    verify = false

Relative paths are resolved against the scenario file's directory. Unknown
sections or keys are rejected so a typo cannot silently fall back to a
default.
"""

from __future__ import annotations

import configparser
import dataclasses
import os
from dataclasses import dataclass

from .engine import SolverConfig
from .errors import ValidationError, read_lines
from .policies import DISTANCE, PolicySpec

FORMAT_VERSION = 1

_SECTIONS = {
    "scenario": {"version"},
    "network": {"path"},
    "agents": {"path"},
    "policy": {"kind", "fee", "metric"},
    "solver": {f.name for f in dataclasses.fields(SolverConfig)},
    "output": {"dir", "verify"},
}


@dataclass(frozen=True)
class Scenario:
    network_path: str
    agents_path: str
    policy: PolicySpec
    solver: SolverConfig
    output_dir: str | None = None
    verify: bool = False


def _float(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(f"[{section}] {key} = {raw!r} is not a number") from None


def load_scenario(path):
    """Parse and validate a scenario file into a Scenario."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_file(read_lines(path), source=path)
    except configparser.Error as exc:
        raise ValidationError(f"{path}: malformed scenario file: {exc}") from None

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValidationError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ValidationError(f"{path}: unknown key {key!r} in [{section}]")

    if parser.has_option("scenario", "version"):
        version = parser.get("scenario", "version")
        if version.strip() != str(FORMAT_VERSION):
            raise ValidationError(f"{path}: unsupported scenario version {version!r}")

    for section in ("network", "agents"):
        if not parser.has_option(section, "path"):
            raise ValidationError(f"{path}: missing [{section}] path")
    base = os.path.dirname(os.path.abspath(path))
    network_path = os.path.join(base, parser.get("network", "path"))
    agents_path = os.path.join(base, parser.get("agents", "path"))
    for resolved in (network_path, agents_path):
        if not os.path.isfile(resolved):
            raise ValidationError(f"{path}: referenced file not found: {resolved}")

    if not parser.has_option("policy", "kind"):
        raise ValidationError(f"{path}: missing [policy] kind")
    kind = parser.get("policy", "kind").strip()
    fee = 0.0
    if parser.has_option("policy", "fee"):
        fee = _float("policy", "fee", parser.get("policy", "fee"))
    spec_kwargs = {"kind": kind, "fee": fee}
    if parser.has_option("policy", "metric"):
        if kind != DISTANCE:
            raise ValidationError("[policy] metric only applies to the distance policy")
        spec_kwargs["metric"] = parser.get("policy", "metric").strip()
    policy = PolicySpec(**spec_kwargs)

    solver_kwargs = {}
    if parser.has_section("solver"):
        for key, raw in parser["solver"].items():
            value = _float("solver", key, raw)
            if key == "max_iterations":
                if not value.is_integer():  # also rejects inf and NaN
                    raise ValidationError(f"[solver] max_iterations = {raw!r} is not a whole number")
                value = int(value)
            solver_kwargs[key] = value
    solver = SolverConfig(**solver_kwargs)

    output_dir = None
    verify = False
    if parser.has_section("output"):
        if parser.has_option("output", "dir"):
            output_dir = os.path.join(base, parser.get("output", "dir"))
        if parser.has_option("output", "verify"):
            try:
                verify = parser.getboolean("output", "verify")
            except ValueError:
                raise ValidationError("[output] verify must be a boolean") from None

    return Scenario(
        network_path=network_path,
        agents_path=agents_path,
        policy=policy,
        solver=solver,
        output_dir=output_dir,
        verify=verify,
    )
