"""Trans-dimensional MCMC with exact birth-or-death acceptance ratios."""

__version__ = "0.1.0"
