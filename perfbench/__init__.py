"""The repository's benchmark: compile, simulate and large-program workloads.

See ``perfbench/README.md`` for the metrics, the workloads and how to run it.
"""
