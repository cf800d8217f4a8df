"""Fresh-process launcher for one untraced flowlab run.

    python3 bench/child.py STAMP_FILE [flowlab arguments...]

Imports ``flowlab.cli`` from the checkout's ``src``, writes the
CLOCK_MONOTONIC time at which set-up ended to STAMP_FILE, then runs the CLI
exactly as the ``flowlab`` entry point does. With no flowlab arguments it
exits after the stamp: a set-up-only probe.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import flowlab.cli  # noqa: E402

ready = time.clock_gettime(time.CLOCK_MONOTONIC)
Path(sys.argv[1]).write_text(repr(ready))
if len(sys.argv) > 2:
    sys.exit(flowlab.cli.run(sys.argv[2:]))
