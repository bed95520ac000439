"""The repository's benchmark: five workloads, one result schema.

See ``bench/README.md``; the entry point is ``bench/run.py``.
"""
