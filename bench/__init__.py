"""The pinned benchmark: six workloads, end-to-end metrics, per-layer replay.

Run ``python -m bench --seed 0`` from the repository root; see
``bench/README.md`` for what is measured and why.
"""
