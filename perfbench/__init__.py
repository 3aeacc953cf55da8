"""Layered benchmark: serving, key churn and the paper-figure sweep.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; README.md in this directory describes
the workloads, the metrics and what each layer metric should move.
"""
