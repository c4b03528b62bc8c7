"""End-to-end and per-layer benchmark of the MISCELA-V API (see README.md)."""
