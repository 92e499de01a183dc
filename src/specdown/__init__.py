"""specdown: multivariate spectral downscaling of gridded fields to stations.

Fuses gridded numerical-model multipollutant fields with sparse point
measurements: frequency-band covariates built by a double DFT, a
coregionalized multivariate spatial error model, batch-parallel MCMC merged
by consensus averaging, and a cross-validation harness for the eight model
variants.
"""

__version__ = "0.1.0"
