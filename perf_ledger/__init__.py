"""The repo's benchmark: see README.md and ``run.py``."""
