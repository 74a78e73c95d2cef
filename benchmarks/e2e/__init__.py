"""End-to-end benchmark of the compile -> schedule -> simulate pipeline.

Run ``PYTHONPATH=src python -m benchmarks.e2e --help`` from the
repository root; ``benchmarks/e2e/README.md`` explains the workloads,
the metrics and the layer ledger.
"""
