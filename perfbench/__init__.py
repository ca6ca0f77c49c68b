"""Seeded, answer-checked benchmark of the segreml command (see README.md)."""
