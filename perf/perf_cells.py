"""Cell bodies the dispatch workload sends through the executor backends.

Workers resolve a cell body by its ``"module:function"`` path, so this
file has to be importable as a top-level module wherever a cell runs:
the measured process has ``perf/`` first on ``sys.path`` (it is the
script directory), forked pool workers inherit that, and spawned queue
workers get ``perf/`` through ``PYTHONPATH`` (see ``workloads.py``).
"""

NOOP = "perf_cells:noop_cell"


def noop_cell(x: int, payload: bytes) -> dict:
    """Return the inputs unchanged: all cost is dispatch, pickling and I/O."""
    return {"x": x, "payload": payload}
