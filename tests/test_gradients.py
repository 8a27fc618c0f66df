from dataclasses import replace

import numpy as np
import pytest

import oracles
from kpivae import vae
from kpivae.vae import ArchConfig, LatentConfig


def fd_check(params, x, prior_means, recon_weight, eps, step=1e-5, tol=1e-4, keys=None):
    """Compare reverse-mode gradients with central finite differences."""
    std = 1.0

    def objective():
        return vae.objective_and_grads(params, x, prior_means, std, recon_weight, eps)[0]

    # the workspace and its gradient vector start as NaN, so a buffer read
    # before it is written, or a gradient element the backward pass does not
    # write, shows up as non-finite
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "empty_like", lambda a, **kw: np.full_like(a, np.nan, **kw))
        _, _, grad = vae.objective_and_grads(params, x, prior_means, std, recon_weight, eps)
    assert np.isfinite(grad).all()
    grads = oracles.tensors_of(params, grad)
    worst = 0.0
    for k in keys or sorted(params.tensors):
        tensor = params.tensors[k]
        analytic = grads[k]
        it = np.nditer(tensor, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            old = tensor[idx]
            tensor[idx] = old + step
            fp = objective()
            tensor[idx] = old - step
            fm = objective()
            tensor[idx] = old
            num = (fp - fm) / (2 * step)
            # central differences carry ~eps*|f|/step rounding noise, so
            # entries with vanishing gradients need an absolute floor
            denom = max(abs(num) + abs(analytic[idx]), 1e-4)
            rel = abs(num - analytic[idx]) / denom
            worst = max(worst, rel)
            assert rel < tol, f"{k}{idx}: analytic {analytic[idx]} vs fd {num}"
            it.iternext()
    return worst


def micro_model(seed=0):
    # the input is the fixed N_KPIS wide
    arch = ArchConfig(hidden=3)
    latent = LatentConfig(free_dims=2)
    return vae.init_params(arch, latent, seed=seed), latent


class TestObjectiveGradients:
    def test_all_tensors_match_finite_differences(self):
        params, latent = micro_model(seed=1)
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(1, 2, 5))
        prior_means = rng.uniform(-1, 1, (1, latent.total))
        eps = rng.standard_normal((1, 2, latent.total))
        fd_check(params, x, prior_means, recon_weight=10.0, eps=eps)

    def test_zero_recon_weight_still_matches(self):
        params, latent = micro_model(seed=2)
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(2, 2, 5))
        prior_means = rng.uniform(-1, 1, (2, latent.total))
        eps = rng.standard_normal((2, 2, latent.total))
        fd_check(
            params, x, prior_means, recon_weight=0.0, eps=eps,
            keys=["enc0.Wx", "enc_head.W", "enc_head.b"],
        )

    def test_clamped_logvar_has_zero_gradient(self):
        params, latent = micro_model(seed=3)
        total = latent.total
        # push encoder logvar deep into the clamp; its bias must get no signal
        params.tensors["enc_head.b"][total:] = -12.0
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(1, 2, 5))
        prior_means = rng.uniform(-1, 1, (1, total))
        eps = rng.standard_normal((1, 2, total))
        _, _, grad = vae.objective_and_grads(params, x, prior_means, 1.0, 10.0, eps)
        assert (oracles.tensors_of(params, grad)["enc_head.b"][total:] == 0.0).all()
        fd_check(params, x, prior_means, 10.0, eps, keys=["enc_head.b"])

    def test_objective_composes_components(self):
        params, latent = micro_model(seed=4)
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(2, 3, 5))
        prior_means = rng.uniform(-1, 1, (2, latent.total))
        eps = rng.standard_normal((2, 3, latent.total))
        obj, comps, _ = vae.objective_and_grads(params, x, prior_means, 1.0, 10.0, eps)
        assert obj == pytest.approx(comps["kl"] - 10.0 * comps["loglik"], abs=1e-12)
        assert comps["objective"] == obj

    def test_gradients_deterministic(self):
        params, latent = micro_model(seed=5)
        rng = np.random.default_rng(4)
        x = rng.uniform(size=(1, 2, 5))
        prior_means = rng.uniform(-1, 1, (1, latent.total))
        eps = rng.standard_normal((1, 2, latent.total))
        _, _, a = vae.objective_and_grads(params, x, prior_means, 1.0, 10.0, eps)
        _, _, b = vae.objective_and_grads(params, x, prior_means, 1.0, 10.0, eps)
        assert not np.shares_memory(a, b)  # without a workspace, each call's own vector
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_follow_the_parameter_dtype(self, dtype):
        params, latent = micro_model(seed=3)
        params = replace(params, flat=params.flat.astype(dtype))
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(2, 2, 5)).astype(dtype)
        prior_means = rng.uniform(-1, 1, (2, latent.total)).astype(dtype)
        eps = rng.standard_normal((2, 2, latent.total)).astype(dtype)
        _, components, grad = vae.objective_and_grads(params, x, prior_means, 1.0, 10.0, eps)
        assert grad.dtype == dtype
        assert all(type(v) is float for v in components.values())

    def test_float32_pass_meets_no_float64(self):
        # only the reported sums leave float32, by an explicit cast
        params, latent = micro_model(seed=3)
        f32 = lambda a: a.astype(np.float32).view(oracles.NoFloat64)  # noqa: E731
        params = replace(params, flat=f32(params.flat))
        rng = np.random.default_rng(3)
        x = f32(rng.uniform(size=(2, 2, 5)))
        prior_means = f32(rng.uniform(-1, 1, (2, latent.total)))
        eps = f32(rng.standard_normal((2, 2, latent.total)))
        vae.objective_and_grads(params, x, prior_means, 0.5, 10.0, eps)
