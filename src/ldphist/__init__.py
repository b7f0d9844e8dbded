"""Locally differentially private frequency estimation and succinct histograms.

A numpy-based library implementing a one-coordinate sign randomizer, a
random-sign-projection frequency oracle, an error-correcting-code protocol
for recovering a unique heavy hitter, a hash-and-repeat protocol for full
succinct histograms, a rejection-sampling transform that shrinks every
user's report to one bit, exact privacy auditing utilities, and a small
wire protocol plus aggregation service for running the pieces as separate
processes.
"""

from .core import (
    FoParams,
    HhParams,
    PublicRandomness,
    c_eps,
    derive_fo_params,
    derive_hh_params,
    report_magnitude,
)

__version__ = "0.1.0"
