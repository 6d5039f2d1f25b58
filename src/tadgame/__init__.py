"""Analytical solver for a linear-quadratic pursuit-evasion game between
an attacker, a defender, and a passive target on an elliptic reference
orbit, with an independent numerical baseline for verification."""

__version__ = "0.1.0"
