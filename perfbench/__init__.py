"""Benchmark of funcevt; see README.md."""
