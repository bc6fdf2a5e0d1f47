"""The repo's benchmark: workloads, outside-in tracer, micro-benches.

Run it as ``python3 perf/run.py`` from the repository root; see
``perf/README.md`` for what each workload and metric is for.
"""
