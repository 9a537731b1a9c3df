"""Seeded end-to-end benchmark of the simulator and the serving tier.

Run it from the repository root::

    python3 perfbench/run.py --workload transfer-bound --seed 1 --seconds 20 --trace 0

``BENCHMARK.json`` at the root lists the workloads and metrics;
``perfbench/NOTES.md`` says why each workload exists.
"""
