"""Interpretable anomaly detection for multivariate KPI series.

Pipeline: normalize daily KPI records, cluster element profiles into
behavioral concepts, train a concept-conditioned VAE whose first latent
dimensions carry per-KPI priors at the cluster centroid, then rank timesteps
by evaluation loss and attribute anomalies to KPIs via latent Z-scores.

The API lives in the submodules: data, concepts, nn, vae, anomaly and cli.
"""
__version__ = "0.1.0"
