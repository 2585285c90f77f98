"""Desk-scale certification toolkit for uncertain multiobjective programs."""

__version__ = "0.1.0"
