"""Campaign benchmark for the ``repro`` stack.

Each workload is one cold campaign driven through
``repro.service.execute_spec`` (the entry point shared by the CLI and the
service), run in a fresh interpreter so that build caches, decoder LRUs
and peak RSS never carry over between measurements.  The load is
closed-loop: one client runs one campaign at a time.

Modules
-------
``manifest``   workloads, metrics, bounds and the layer -> metric map;
               writes ``BENCHMARK.json``
``campaign``   child entry point: one cold campaign, optionally traced
``tracing``    span recording wrapped around ``repro`` from outside
               ``src/``, and the per-layer metrics derived from it
``checks``     correctness checks against the pinned counts
``run``        the benchmark command (``python3 perfbench/run.py``)
``selftest``   the benchmark's own smoke tests (run explicitly with
               ``python3 -m pytest perfbench/selftest.py``)
"""
