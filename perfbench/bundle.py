"""The set-up every workload starts from.

Loading the bundled New England grid, its 31 agents and the four scenario
files, with both electrical-distance matrices and the zone-crossing counts.
``probe.py`` times this in a fresh process for ``setup_s``; a traced run
repeats it in-process so the load and distance layers get their spans.
"""

from __future__ import annotations

import os

SCENARIOS = ("free", "unique", "distance", "zonal")


def data_dir(package):
    return os.path.join(os.path.dirname(package.__file__), "data")


def load_bundle(package):
    """Return the bundled network and community; ``package`` is the
    imported ``peermarket``, called through its top-level names."""
    directory = data_dir(package)
    scenarios = [package.load_scenario(os.path.join(directory, f"{name}.ini"))
                 for name in SCENARIOS]
    network = package.load_network(scenarios[0].network_path)
    community = package.load_agents(scenarios[0].agents_path, network=network)
    for metric in package.METRICS:
        package.distance_matrix(community, network, metric)
    package.zone_crossing_matrix(community, network)
    return network, community
