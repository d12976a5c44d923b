"""Continuous-time stochastic filtering for classical and quantum systems.

Subpackages cover the dense operator kernel, a generic Ito SDE engine,
Kalman-Bucy filters, diffusive quantum trajectories, quantum particle
filters, double-pass magnetometry, continuous-time quantum error correction
with feedback, and O(N^2) collective-spin dynamics.  The ``qfilt`` CLI runs
the bundled experiments; see ``qfilt list``.
"""

__version__ = "0.9.0"
