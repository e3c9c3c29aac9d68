"""The repository's benchmark: three workloads, end-to-end and per-layer metrics.

See ``perfbench/README.md`` and ``BENCHMARK.json`` at the repository root.
"""
