"""The repo's end-to-end benchmark (see README.md in this directory).

``run.py`` is the entry point named by the root ``BENCHMARK.json``; the
other modules are the harness (inputs, measuring, tracing, verifying)
and one module per workload. Nothing here is imported by ``src/``.
"""
