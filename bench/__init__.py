"""End-to-end benchmark of the extraction system (see ``bench/README.md``).

``bench/run.py`` is the entry point; this package holds the workloads,
the span tracer and the statistics they share.
"""
