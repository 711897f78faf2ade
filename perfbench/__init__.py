"""Standalone, seeded benchmark of the mee_ray engine (see README.md)."""
