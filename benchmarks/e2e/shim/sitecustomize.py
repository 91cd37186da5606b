"""Loaded by the served process (and inherited by its forked workers)
when the benchmark puts this directory on the child's PYTHONPATH: installs
the span recorders of ``benchmarks/e2e/trace.py`` if a trace directory is
named in the environment, and does nothing otherwise."""

import os

if os.environ.get("REPRO_E2E_TRACE_DIR"):
    import trace as e2e_trace  # benchmarks/e2e/trace.py, via PYTHONPATH

    e2e_trace.install_for_server(os.environ["REPRO_E2E_TRACE_DIR"])
