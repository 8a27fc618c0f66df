import types

import numpy as np
import pytest

from kpivae import cli, concepts, data, vae


@pytest.fixture(scope="session")
def tiny_pipeline():
    """Small 2-cluster synthetic dataset with a briefly trained model.

    Shared by tests that need a model whose concept dims actually track the
    priors; kept small so the whole suite stays fast.
    """
    cfg = data.SynthConfig(
        elements=8,
        days=80,
        clusters=2,
        anomaly_rate=0.0,
        seed=11,
    )
    records, _ = data.synth_generate(cfg)
    stats = data.fit_normalization(records)
    eprofiles = concepts.element_profiles(records, stats)
    model = concepts.kmeans_fit(eprofiles, 2, seed=0)
    windows = data.window_sequences(records, 20, stride=20, stats=stats)
    train_ids, val_ids = cli.split_elements([w.element_id for w in windows], 0.2)
    is_train = np.array([w.element_id in train_ids for w in windows])
    train_w, val_w = windows[is_train], windows[~is_train]
    arch = vae.ArchConfig(hidden=12)
    latent = vae.LatentConfig()
    tcfg = vae.TrainConfig(batch_size=8, max_epochs=120, patience=120, seed=3)
    params, history = vae.train(train_w, val_w, model, tcfg, arch=arch, latent=latent)
    return types.SimpleNamespace(
        cfg=cfg,
        records=records,
        stats=stats,
        model=model,
        windows=windows,
        train_w=train_w,
        val_w=val_w,
        params=params,
        history=history,
    )
