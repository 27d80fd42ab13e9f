"""clocklab: a clock-synchronization laboratory.

Stochastic ground-truth clocks, four-timestamp link measurements,
pairwise and network-wide Kalman-style skew filters, distributed
spatial smoothing, offset/delay estimation, and a discrete-event
network simulator with trace replay.
"""

__version__ = "0.1.0"
