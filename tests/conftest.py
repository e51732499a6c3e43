import csv
import hashlib

import numpy as np
import pytest

from contrnp import autodiff as ad
from contrnp.autodiff import Tensor
from contrnp.data import DataError, TimeSeries
from contrnp.losses import ContrastiveConfig, combined_loss
from contrnp.train import NumericError, clip_gradients


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


def conv1d(x, kernel):
    """Same-padded cross-correlation of x[B,C,L] with kernel[C_out,C,W] as
    one node, from the im2col lowering `autodiff.conv_block` uses: the
    reference that the fused block and the nested-loop oracle check."""
    out, backward = ad._conv(x, kernel)
    return ad._make(out, (x, kernel), backward)


def reference_im2col(xp, W, L):
    """Fresh columns [B, C*W, L] of padded xp[B, C, L_pad], one stack per
    batch entry: row c*W + w holds xp[:, c, w:w + L]."""
    B, C, _ = xp.shape
    return np.stack([xp[:, :, w:w + L] for w in range(W)],
                    axis=2).reshape(B, C * W, L)


def reference_conv(x, kernel):
    """`autodiff._conv` as it was before the batched forward and the
    two-GEMM backward: per batch entry its own [C_out, C*W] @ [C*W, L]
    product; the kernel's adjoint from `np.tensordot`, and col2im as one
    strided slice-add per kernel tap into a padded buffer. The oracle for
    today's forward and backward, which must match it bitwise at batch
    size 1."""
    B, C, L = x.shape
    C_out, _, W = kernel.shape
    pad = (W - 1) // 2
    xp = np.zeros((B, C, L + 2 * pad))
    xp[:, :, pad:pad + L] = x.data
    k2 = kernel.data.reshape(C_out, C * W)
    out = k2 @ reference_im2col(xp, W, L)

    def backward(g):
        cols = reference_im2col(xp, W, L)
        gk = np.tensordot(g, cols, axes=([0, 2], [0, 2])).reshape(C_out, C, W)
        gcols = (k2.T @ g).reshape(B, C, W, L)
        gxp = np.zeros_like(xp)
        for w in range(W):
            gxp[:, :, w:w + L] += gcols[:, :, w]
        return (gxp[:, :, pad:pad + L], gk)

    return out, backward


def per_view_train_step(model, batch, cfg, opt):
    """`train.train_step` as it was before a step's views were encoded as
    one stack: each view embedded, encoded and decoded on its own, with
    one Representation per view. The oracle the batched step must match
    byte for byte."""
    preds, targets, reps = [], [], []
    for seg_views in batch.views:
        seg_reps = []
        for view in seg_views:
            grid_features, rep = model.encode(
                model.embed_context(view.context_x, view.context_y))
            preds.append(model.decode(grid_features, view.target_x))
            targets.append(view.target_y)
            seg_reps.append(rep)
        reps.append(seg_reps)
    breakdown = combined_loss(preds, targets, reps, cfg.lam,
                              ContrastiveConfig(tau=cfg.tau, mode=cfg.loss_mode))
    opt.zero_grad()
    breakdown.total.backward()
    grad_norm = breakdown.grad_norm = float(
        clip_gradients(model.params, cfg.clip_norm))
    if not np.isfinite(grad_norm):
        raise NumericError(
            f"non-finite gradient norm {grad_norm} before the update")
    opt.step()
    return breakdown


def reference_write_csv(series, path):
    """`data.write_csv` as it was before it wrote column-wise: one
    `writerow` per row, each float through `repr(float(...))`. The oracle
    for the column-wise writer's bytes."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        header = ["time"] + [f"ch{c}" for c in range(series.n_channels)]
        if series.labels is not None:
            header.append("label")
        w.writerow(header)
        for i in range(len(series.x)):
            row = [repr(float(series.x[i]))]
            row += [repr(float(v)) for v in series.y[i]]
            if series.labels is not None:
                row.append(int(series.labels[i]))
            w.writerow(row)


def reference_load_csv(path) -> TimeSeries:
    """`data.load_csv` as it was before `np.loadtxt` parsed the body: a
    Python loop over the csv records, `float` per field, labels as
    `int(float(v))`. The differential oracle: on a file both grammars
    read alike, `load_csv` returns bitwise its TimeSeries or a DataError
    naming its line. A label of magnitude 2**63 or more ends here in an
    OverflowError, as it did."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = csv.reader(f)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file")
            header = [h.strip() for h in header]
            if not header or header[0] != "time":
                raise DataError(f"{path}:1: first column must be 'time'")
            has_label = header[-1] == "label"
            n_ch = len(header) - 1 - (1 if has_label else 0)
            if n_ch < 1:
                raise DataError(f"{path}:1: no channel columns found")
            xs, ys, labels, linenos = [], [], [], []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path}:{lineno}: expected "
                                    f"{len(header)} fields, got {len(row)}")
                try:
                    xs.append(float(row[0]))
                    ys.append([float(v) for v in row[1:1 + n_ch]])
                    if has_label:
                        labels.append(int(float(row[1 + n_ch])))
                except (ValueError, OverflowError) as e:
                    raise DataError(f"{path}:{lineno}: {e}")
                linenos.append(lineno)
    except UnicodeDecodeError as e:  # its position counts from a chunk
        raise DataError(f"{path}: not UTF-8 text ({e.reason})")
    except csv.Error as e:
        raise DataError(f"{path}: {e}")
    if not xs:
        raise DataError(f"{path}: no data rows")
    x, y = np.asarray(xs), np.asarray(ys)
    finite = np.isfinite(x) & np.isfinite(y).all(axis=1)
    if not finite.all():
        bad = linenos[np.argmin(finite)]
        raise DataError(f"{path}:{bad}: non-finite value")
    if np.any(np.diff(x) <= 0):
        bad = linenos[int(np.flatnonzero(np.diff(x) <= 0)[0]) + 1]
        raise DataError(f"{path}:{bad}: time not strictly increasing")
    y = (y - y.mean(axis=0)) / np.maximum(y.std(axis=0), 1e-8)
    return TimeSeries(x, y,
                      np.asarray(labels, dtype=np.int64) if has_label else None)


def relu(a):
    """max(a, 0) as one node whose adjoint is masked where a > 0: the
    reference the fused conv blocks and decoder check."""
    mask = a.data > 0
    return ad._make(np.maximum(a.data, 0.0), (a,), lambda g: (g * mask,))


def getitem(a, key):
    """a.data[key] for a basic (slice or integer) index, as one node."""
    def backward(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        return (ga,)

    return ad._make(a.data[key], (a,), backward)


def composed_rbf(d2, ell, normalize=False):
    """RBF weights from elementary ops: exp of the scaled squared distances,
    then, with `normalize` (as `autodiff.rbf`), a row sum and a divide."""
    q = ad.exp(Tensor(d2) * -0.5 / (ell * ell))
    return q / ad.sum_axis(q, axis=1, keepdims=True) if normalize else q


def composed_set_conv(d2, y, ell, eps):
    """`autodiff.set_conv` from elementary ops: unnormalised RBF weights,
    their row sums as density, and the signal divided by density + eps."""
    w = composed_rbf(d2, ell)
    density = ad.sum_axis(w, axis=1, keepdims=True)
    signal = (w @ Tensor(y)) / (density + eps)
    return ad.concat([density, signal], axis=1)


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
