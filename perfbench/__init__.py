"""Benchmark for lattimin; run with `python3 perfbench/run.py --help`."""
