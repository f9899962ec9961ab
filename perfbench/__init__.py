"""Seeded closed-loop benchmark of stairdist; see README.md."""
