"""The repository benchmark: three paper workloads, end-to-end and
per-layer metrics (run ``python3 perfbench/run.py --help``)."""
