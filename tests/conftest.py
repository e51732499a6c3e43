import hashlib

import numpy as np
import pytest

from contrnp.autodiff import Tensor


def finite_diff_grads(fn, tensors, h=1e-5):
    """Central finite differences of a scalar fn w.r.t. each tensor in
    `tensors`. fn takes no args and reads the tensors' .data in place."""
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = fn()
            flat[i] = orig - h
            lm = fn()
            flat[i] = orig
            gflat[i] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b, floor=1e-8):
    return np.abs(a - b) / np.maximum(np.abs(b), floor)


def check_grads(build_loss, params, tol=1e-4, h=1e-5):
    """Autodiff gradients of build_loss() vs central finite differences."""
    loss = build_loss()
    for p in params:
        p.zero_grad()
    loss.backward()
    fd = finite_diff_grads(lambda: build_loss().item(), params, h=h)
    for p, g in zip(params, fd):
        assert np.all(rel_err(p.grad, g) < tol), \
            f"gradient mismatch: max rel err {rel_err(p.grad, g).max():.3g}"


def translate_check(model, context_x, context_y, target_x, delta_steps: int):
    """Predictions of `model` from the original inputs and from inputs
    shifted by an integer number of grid steps; the translation-equivariance
    oracle."""
    delta = delta_steps * model.grid_spacing
    cx = np.asarray(context_x, dtype=np.float64)
    tx = np.asarray(target_x, dtype=np.float64)
    lo, hi = model.grid_x[0], model.grid_x[-1]
    for arr in (cx + delta, tx + delta):
        if arr.min() < lo or arr.max() > hi:
            raise ValueError(
                f"shift of {delta_steps} grid steps pushes points off-grid")
    pred = model.predict(cx, context_y, tx)
    pred_shifted = model.predict(cx + delta, context_y, tx + delta)
    return pred, pred_shifted


def param_hash(model) -> str:
    """SHA-256 over the model's parameter names and values."""
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(model.params[name].data.tobytes())
    return h.hexdigest()


def flip_byte_in(path, array):
    """Invert one byte of `array`'s values where the file at `path` stores
    them."""
    data = bytearray(path.read_bytes())
    at = data.find(np.ascontiguousarray(array, dtype="<f8").tobytes())
    assert at >= 0, "array not found in file"
    data[at + 3] ^= 0xFF
    path.write_bytes(bytes(data))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)
