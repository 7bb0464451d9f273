"""Placeholder for the deleted thread shard backend.

Nothing in ``repro`` calls this module.  It exists only because the e2e
benchmark's trace patch list (``benchmarks/e2e/tracing.py::PATCHES``)
wraps ``run_plan_sharded`` by name when a traced run starts, so a traced
run reads ``shard.calls`` and ``shard.run_s`` as 0.  It goes when that
patch list moves into ``src/`` (ROADMAP item 4).
"""


def run_plan_sharded(plan, block, counter=None, step_alive=None):
    """``plan.execute_batch_ndarray`` under its old sharded name."""
    return plan.execute_batch_ndarray(block, counter, step_alive)
