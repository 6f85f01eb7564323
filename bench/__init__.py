"""The repo benchmark: four workloads, each taken through every layer.

See ``bench/README.md``. Run with ``python3 bench/run.py``.
"""
