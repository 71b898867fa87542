"""tracefill: recover fully missing channels of a multivariate time series.

Train an LSTM autoencoder on complete recordings, then freeze it and run
gradient descent on the unknown channel itself until the network's view of
the signals becomes self-consistent. Built on a small tape-based reverse-
mode autodiff core; ships with a nonlinear filter circuit simulator that
generates the bundled synthetic benchmark suite.

The package itself holds only ``__version__``: import each name from the
module that defines it, e.g. ``from tracefill.reconstruct import reconstruct``.
"""

__version__ = "0.1.0"
