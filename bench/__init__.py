"""End-to-end and per-layer benchmark of the uplane CLI; entry point is bench/run.py."""
