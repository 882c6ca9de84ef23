"""The four workloads; each module exposes ``setup(seed, smoke, tr)``."""
