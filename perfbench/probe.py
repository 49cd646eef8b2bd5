"""Time one cold set-up: import peermarket and load the bundle.

    python3 perfbench/probe.py <checkout root>

Prints the seconds from before ``import peermarket`` to the end of
``bundle.load_bundle``. Interpreter start-up is not included.
"""

import os
import sys
import time

start = time.perf_counter()
root = sys.argv[1]
source = os.path.join(root, "src")
sys.path.insert(0, source)
import peermarket  # noqa: E402

from bundle import load_bundle  # noqa: E402

load_bundle(peermarket)
elapsed = time.perf_counter() - start
if not os.path.abspath(peermarket.__file__).startswith(source + os.sep):
    sys.exit(f"peermarket was imported from {peermarket.__file__}, not from {source}")
print(repr(elapsed))
