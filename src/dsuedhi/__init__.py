"""Multi-class within-day dynamic traffic equilibrium with endogenous
travel-time information provision."""

__version__ = "0.1.0"
