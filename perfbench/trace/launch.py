"""Run the ``repro`` CLI with the bench's spans installed.

Usage: ``PERFBENCH_TRACE_OUT=<dir> PYTHONPATH=src:perfbench/trace
python perfbench/trace/launch.py <repro arguments>``.  Processes the
server spawns inherit ``PYTHONPATH`` and install the same spans through
``sitecustomize`` in this directory.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402

spans.install()

from repro.cli import main  # noqa: E402

sys.exit(main(sys.argv[1:]))
