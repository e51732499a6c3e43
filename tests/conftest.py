import csv
import hashlib

import numpy as np
import pytest

from contrnp import autodiff as ad
from contrnp.autodiff import DomainError, Tensor
from contrnp.data import DataError, TimeSeries
from contrnp.evaluate import (PROBE_LR, PROBE_STEPS, EvalError, ProbeModel,
                              stratified_indices)
from contrnp.losses import ContrastiveConfig, combined_loss
from contrnp.train import Adam, NumericError, clip_gradients


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


def reference_set_conv(d2, y, ell, eps):
    """`autodiff.set_conv` as it was before one node embedded a stack of
    views: the set convolution of one view's values y[N, C] at squared
    distances d2[G, N], [G, 1 + C], with the lengthscale ell a Tensor (a
    softplus node of its own in the model). The oracle that the stacked
    node must match bitwise, values and raw lengthscale gradient, when each
    view has one of these nodes."""
    w = ad._gauss(d2, ell.data)
    den = w.sum(axis=1, keepdims=True)
    den_eps = den + eps
    out = np.empty((w.shape[0], 1 + y.shape[1]))
    out[:, :1] = den
    sig = out[:, 1:]
    np.divide(w @ y, den_eps, out=sig)

    def backward(g):
        gs = g[:, 1:] / den_eps
        gw = gs @ y.T
        gw += g[:, :1] - np.einsum("ij,ij->i", gs, sig)[:, None]
        gw *= w
        return (np.vdot(gw, d2) / ell.data ** 3,)

    return ad._make(out, (ell,), backward)


def reference_rbf(d2, ell):
    """The decoder's smoother node as it was before `autodiff.decode_nll`
    built its own: the row-normalised RBF weights [T, G] of constant squared
    distances d2[T, G] and a scalar lengthscale Tensor ell (a softplus node
    of its own in the model), entries below the smallest normal float set
    to 0. Its only gradient is ell's, G.(q (d2 - rowsum(q d2))) / ell^3."""
    q = ad._gauss(d2, ell.data)
    rowsum = q.sum(axis=1, keepdims=True)
    short = rowsum[:, 0] < 1.0
    if short.any():
        q[short] = ad._gauss(d2[short], ell.data, -np.inf)
        rowsum[short] = q[short].sum(axis=1, keepdims=True)
    q /= rowsum
    q[q < ad._TINY] = 0.0

    def backward(g):
        dq = d2 - np.einsum("ij,ij->i", q, d2)[:, None]
        dq *= q
        return (np.vdot(g, dq) / ell.data ** 3,)

    return ad._make(q, (ell,), backward)


def reference_decode_nll(qn, grids, ys, weights, sigma_min):
    """`autodiff.decode_nll` as it was before it built its own smoother: it
    took the smoother qn[T, G] as a Tensor (`reference_rbf` behind a
    softplus node) and the six decoder weights after raw_len_out, and gave
    qn the adjoint dZ @ A^T. With `reference_rbf`, the oracle that today's
    node must match byte for byte: NLLs and every gradient."""
    w1, b1, w_mu, b_mu, w_sig, b_sig = (w.data for w in weights)
    (T, G), V = qn.shape, len(grids.data)
    H, hidden = w1.shape
    C = w_mu.shape[1]
    F = grids.data.transpose(1, 0, 2).reshape(G * V, H)
    A = (F @ w1).reshape(G, V * hidden)
    Z = qn.data @ A
    z = Z.reshape(T * V, hidden)
    z += b1
    np.maximum(Z, 0.0, out=Z)
    w_head = np.concatenate([w_mu, w_sig], axis=1)
    head = z @ w_head
    head += np.concatenate([b_mu, b_sig])
    head = head.reshape(T, V, 2 * C).transpose(1, 0, 2)
    mu = np.ascontiguousarray(head[:, :, :C])
    sigma, dsigma_dpre = ad._softplus(np.ascontiguousarray(head[:, :, C:]))
    sigma += sigma_min
    diff = mu - np.stack(ys)
    var = sigma * sigma
    point = np.log(sigma) + ad.HALF_LOG_2PI + diff * diff / (var * 2.0)
    n = point[0].size
    out = point.reshape(V, n).sum(axis=1) * (1.0 / n)

    def backward(g):
        scale = (g * (1.0 / n))[:, None, None]
        dsigma = (1.0 / sigma - diff * diff / (var * sigma)) * scale
        dhead = np.empty((T * V, 2 * C))
        by_view = dhead.reshape(T, V, 2 * C).transpose(1, 0, 2)
        by_view[:, :, :C] = diff / var * scale
        np.multiply(dsigma, dsigma_dpre, out=by_view[:, :, C:])
        dw_head = z.T @ dhead
        db_head = dhead.sum(axis=0)
        live = z > 0
        dz = np.matmul(dhead, w_head.T, out=z)
        dz *= live
        dZ = dz.reshape(T, V * hidden)
        dqn = dZ @ A.T if qn.requires_grad else None
        dA = (qn.data.T @ dZ).reshape(G * V, hidden)
        dF = (dA @ w1.T).reshape(G, V, H)
        return (dqn, dF.transpose(1, 0, 2), F.T @ dA, dz.sum(axis=0),
                dw_head[:, :C], db_head[:C], dw_head[:, C:], db_head[C:])

    return ad._make(out, (qn, grids, *weights), backward)


def reference_train_probe(encoded, label_fraction, rng):
    """`evaluate.train_probe` as it was before the probe's weights and bias
    became the rows of one Adam parameter: two parameters, two Adam
    updates per step. The oracle for the probe's bytes."""
    classes = np.unique(encoded.labels)
    lab_idx, _ = stratified_indices(encoded.labels, label_fraction, rng)
    missing = [int(c) for c in classes
               if not np.any(encoded.labels[lab_idx] == c)]
    if missing:
        raise EvalError(f"classes {missing} absent from the labeled split")

    x = encoded.reps[lab_idx]
    y = np.searchsorted(classes, encoded.labels[lab_idx])
    tr_idx, va_idx = stratified_indices(y, 0.8, rng)
    if len(va_idx) == 0:
        tr_idx = np.arange(len(y))
        va_idx = tr_idx
    feat_mu = x[tr_idx].mean(axis=0)
    feat_sd = x[tr_idx].std(axis=0) + 1e-8
    xt, yt = (x[tr_idx] - feat_mu) / feat_sd, y[tr_idx]
    xv, yv = (x[va_idx] - feat_mu) / feat_sd, y[va_idx]

    d, nc = x.shape[1], len(classes)
    w, b = Tensor(np.zeros((d, nc))), Tensor(np.zeros(nc))
    opt = Adam({"w": w, "b": b}, lr=PROBE_LR)
    onehot = np.eye(nc)[yt]
    best = (-1.0, w.data.copy(), b.data.copy())
    for t in range(1, PROBE_STEPS + 1):
        z = xt @ w.data + b.data
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / len(yt)
        w.grad = xt.T @ g
        b.grad = g.sum(axis=0)
        opt.step()
        if t % 25 == 0 or t == PROBE_STEPS:
            acc = float(np.mean(np.argmax(xv @ w.data + b.data, axis=1) == yv))
            if acc > best[0]:
                best = (acc, w.data.copy(), b.data.copy())
    w, b = best[1], best[2]
    w_raw = w / feat_sd[:, None]
    b_raw = b - feat_mu @ w_raw
    return ProbeModel(w_raw, b_raw, classes)


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


def softplus(a):
    """softplus(a) as one node whose adjoint is scaled by sigmoid(a): the
    lengthscale chain of the reference nodes and of the op-by-op oracles."""
    out, sig = ad._softplus(a.data)
    return ad._make(out, (a,), lambda g: (g * sig,))


def getitem(a, key):
    """a.data[key] for a basic (slice or integer) index, as one node."""
    def backward(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        return (ga,)

    return ad._make(a.data[key], (a,), backward)


# the elementwise ops of the op-by-op oracles and the gradient checks

def exp(a):
    out = np.exp(a.data)
    return ad._make(out, (a,), lambda g: (g * out,))


def log(a):
    if np.any(a.data <= 0):
        raise DomainError(
            f"log of non-positive input (min={a.data.min():.6g})")
    return ad._make(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a):
    if np.any(a.data < 0):
        raise DomainError("sqrt of negative input")
    out = np.sqrt(a.data)
    return ad._make(out, (a,), lambda g: (g * 0.5 / out,))


def sub(a, b):
    """a - b, broadcasting, for Tensors or constants."""
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    ad._check_same_or_broadcast(a, b, "sub")
    return ad._make(a.data - b.data, (a, b), lambda g: (
        ad._unbroadcast(g, a.shape) if a.requires_grad else None,
        ad._unbroadcast(-g, b.shape) if b.requires_grad else None))


def div(a, b):
    """a / b, broadcasting, for Tensors or constants."""
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    ad._check_same_or_broadcast(a, b, "div")
    return ad._make(a.data / b.data, (a, b), lambda g: (
        ad._unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
        ad._unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        if b.requires_grad else None))


def reference_contrastive_loss(reps, cfg):
    """`losses.contrastive_loss` as it was before it was one node: the
    op-by-op chain over r [K, M, d_r], with a reshape node on r and sim's
    right operand made by a transpose node. The oracle that the node must
    match byte for byte, loss and r's gradient, in both modes."""
    k_n, m_n, d = reps.r.shape
    r = reps.r.reshape(k_n * m_n, d)                               # [n, d]
    n = k_n * m_n
    norms = sqrt(ad.sum_axis(r * r, axis=1, keepdims=True))
    rn = div(r, norms)
    sim = rn @ ad.transpose(rn)                                    # [n, n]

    seg = np.repeat(np.arange(k_n), m_n)
    neg_mask = (seg[:, None] != seg[None, :]).astype(np.float64)
    pos_mask = ((seg[:, None] == seg[None, :])
                & ~np.eye(n, dtype=bool)).astype(np.float64)

    scaled = sim * (1.0 / cfg.tau)
    if cfg.mode == "exp_sim":
        denom = ad.sum_axis(exp(scaled) * Tensor(neg_mask), axis=1)    # [n]
        pos_sum = ad.sum_axis(scaled * Tensor(pos_mask), axis=1)       # [n]
        per_anchor = sub(log(denom) * float(m_n - 1), pos_sum)
        return ad.sum_axis(per_anchor) * (1.0 / (k_n * m_n * (m_n - 1)))
    masked = scaled * Tensor(pos_mask) + Tensor(1.0 - pos_mask)
    pos_logs = ad.sum_axis(log(masked))
    denom = ad.sum_axis(scaled * Tensor(neg_mask), axis=1)
    return sub(pos_logs, ad.sum_axis(log(denom)) * float(m_n - 1))


def gaussian_nll(mu, sigma, y):
    """The mean Gaussian negative log likelihood of targets y under
    per-channel mu and sigma, from elementary ops: the oracle that the
    decode-and-score node `autodiff.decode_nll` is checked against."""
    diff = sub(mu, y)
    point_nll = (log(sigma) + ad.HALF_LOG_2PI
                 + div(diff * diff, sigma * sigma * 2.0))
    return ad.mean_axis(point_nll)


def represent(model, context_x, context_y):
    """The Representation of one view's context."""
    return model.encode(model.embed_context(context_x, context_y))[1]


def composed_rbf(d2, ell, normalize=False):
    """RBF weights from elementary ops: exp of the scaled squared distances,
    then, with `normalize` (as the decoder's `autodiff._smoother`), a row
    sum and a divide."""
    q = exp(div(Tensor(d2) * -0.5, ell * ell))
    return div(q, ad.sum_axis(q, axis=1, keepdims=True)) if normalize else q


def composed_set_conv(d2, y, ell, eps):
    """`autodiff.set_conv` from elementary ops: unnormalised RBF weights,
    their row sums as density, and the signal divided by density + eps."""
    w = composed_rbf(d2, ell)
    density = ad.sum_axis(w, axis=1, keepdims=True)
    signal = div(w @ Tensor(y), density + eps)
    return ad.concat([density, signal], axis=1)


def reachable_nodes(*roots) -> int:
    """Tensors reachable from `roots` through the recorded parents."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


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
