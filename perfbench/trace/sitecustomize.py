"""Install the bench's spans in every interpreter started with this
directory on ``PYTHONPATH`` while ``PERFBENCH_TRACE_OUT`` is set (the
shard workers a traced cluster supervisor spawns)."""

import os

if os.environ.get("PERFBENCH_TRACE_OUT"):
    import spans

    spans.install()
