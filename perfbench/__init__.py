"""Repository benchmark: seeded workloads over the runtime, serving stack
and explicit memory, with a traced per-layer breakdown.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads, metrics and predictions.
"""
