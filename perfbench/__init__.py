"""End-to-end and per-layer benchmark of the ETCS L3 design tasks.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
