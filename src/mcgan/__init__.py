"""Latent-space MCMC over a GAN surrogate prior for Bayesian inverse problems.

The package is organized around the two stages of the method:

* offline: simulate training pairs of PDE state and parameters, then fit a
  Wasserstein GAN (gradient-penalty variant) whose generator maps a
  low-dimensional Gaussian latent space onto the joint state-parameter prior
  (:mod:`mcgan.forward`, :mod:`mcgan.gan`);
* online: condition on observations by running gradient-based MCMC in the
  latent space, with the generator standing in for the forward model
  (:mod:`mcgan.bayes`, :mod:`mcgan.samplers`).

Supporting pieces: Matern random-field priors (:mod:`mcgan.priors`), scoring
and theory-validation utilities (:mod:`mcgan.metrics`), and a small reverse-mode
autodiff engine with a second-order sweep (:mod:`mcgan.autodiff`): the oracle
of the hand-written training and posterior gradients, and the benchmark's probe.
"""

__version__ = "0.1.0"
