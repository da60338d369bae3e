"""Tail bounds for supermartingales with increments bounded from above:
closed-form bound family, exact first-passage oracles, and reproducible
Monte Carlo verification."""

__version__ = "0.1.0"
