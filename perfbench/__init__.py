"""Benchmark of the openmap pipeline: four closed-loop workloads and a traced run.

Run it from the root of a checkout with ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; see ``run.py``.
"""
