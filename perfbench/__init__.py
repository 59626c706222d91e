"""Seeded end-to-end and per-layer benchmark of the spinkey toolkit.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root. See README.md.
"""
