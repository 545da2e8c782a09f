"""The repository benchmark: workloads, runner and outside-in span tracing.

See ``bench/README.md``; the entry point is ``python3 bench/run.py``.
"""
