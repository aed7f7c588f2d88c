"""perfbench — the end-to-end and per-layer benchmark of the tuning stack.

See ``perfbench/README.md`` for the workloads, metrics, bounds and noise
rules.  Entry points: ``python3 perfbench/run.py`` (the benchmark) and
``python3 perfbench/compare.py A.json B.json`` (bounds check between two
records).
"""
