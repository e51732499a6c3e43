"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps a numpy array plus an implicit tape. `requires_grad` marks
the graph: a leaf sets it by hand, and an op's output has it exactly when an
operand has it, in which case the output records its parents and a closure
that maps the output adjoint to parent adjoints. An op on constants only
records nothing. backward() on a scalar visits the graph nodes it reaches in
reverse creation order (every node is created after its operands) and
accumulates gradients additively into the leaves' .grad buffers.
"""

from __future__ import annotations

import functools
import heapq
import itertools

import numpy as np


class ShapeMismatchError(ValueError):
    pass


class DomainError(ValueError):
    pass


def _sum_last_first(n: int, term) -> np.ndarray:
    """term(0) + ... + term(n - 1), added from the last term to the first.
    That is the order in which the tape adds adjoints into a leaf when each
    batch entry has a node of its own (the latest-created first), so the
    adjoint a batched node sums over its entries is bitwise the sum their
    own nodes would make."""
    total = np.array(term(n - 1))
    for i in range(n - 2, -1, -1):
        total += term(i)
    return total


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape` (inverse of numpy broadcasting); leading
    axes are summed from the last entry to the first."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        flat = grad.reshape(-1, *grad.shape[extra:])
        grad = _sum_last_first(len(flat), flat.__getitem__)
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_backward_done", "_order")
    _created = itertools.count()

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = tuple(parents)
        self._backward_fn = backward_fn
        self._backward_done = False
        self._order = next(Tensor._created)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    # -- graph plumbing -----------------------------------------------------

    def backward(self):
        if self.size != 1:
            raise ShapeMismatchError(
                f"backward requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise RuntimeError("backward called with no active gradient tape")
        if self._backward_done:
            raise RuntimeError(
                "backward already called on this tape; re-run the forward pass")

        # A leaf takes each adjoint into its own .grad as it arrives; other
        # nodes wait in `pending`. A node is created after its operands, so
        # popping the latest-created one finds all of its consumers done.
        # A first arrival stays untouched, since ops pass one array on to
        # several parents; the sum of two is a fresh array, kept in `owned`,
        # that takes later arrivals in place.
        adjoint, owned, pending = {}, set(), []
        arrivals = [(self, np.ones_like(self.data))]
        while True:
            for p, pg in arrivals:
                if pg is None or not p.requires_grad:
                    continue
                key = id(p)
                if p._backward_fn is None:
                    if p.grad is None:
                        p.grad = np.zeros_like(p.data)
                    p.grad += pg
                elif key in owned:
                    adjoint[key] += pg
                elif key in adjoint:
                    adjoint[key] = adjoint[key] + pg
                    owned.add(key)
                else:
                    adjoint[key] = pg
                    heapq.heappush(pending, (-p._order, p))
            if not pending:
                break
            _, node = heapq.heappop(pending)
            arrivals = zip(node._parents,
                           node._backward_fn(adjoint.pop(id(node))))
        self._backward_done = True

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def reshape(self, *shape):
        return reshape(self, shape)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward_fn):
    """An op's output: in the graph, with its parents and backward, exactly
    when an operand is."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, True, parents, backward_fn)
    return Tensor(data)


def _check_same_or_broadcast(a, b, opname):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeMismatchError(
            f"{opname}: shapes {a.shape} and {b.shape} do not broadcast")


# -- elementwise ops ---------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_or_broadcast(a, b, "add")
    out = a.data + b.data
    return _make(out, (a, b), lambda g: (
        _unbroadcast(g, a.shape) if a.requires_grad else None,
        _unbroadcast(g, b.shape) if b.requires_grad else None))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_or_broadcast(a, b, "sub")
    out = a.data - b.data
    return _make(out, (a, b), lambda g: (
        _unbroadcast(g, a.shape) if a.requires_grad else None,
        _unbroadcast(-g, b.shape) if b.requires_grad else None))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_or_broadcast(a, b, "mul")
    out = a.data * b.data
    return _make(out, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
        _unbroadcast(g * a.data, b.shape) if b.requires_grad else None))


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_same_or_broadcast(a, b, "div")
    out = a.data / b.data
    return _make(out, (a, b), lambda g: (
        _unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
        _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        if b.requires_grad else None))


def _softplus(x: np.ndarray):
    """softplus(x) in the stable form max(x, 0) + log1p(exp(-|x|)), and its
    derivative, the logistic sigmoid of x."""
    e = np.exp(-np.abs(x))
    out = np.maximum(x, 0.0) + np.log1p(e)
    sig = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out, sig


def softplus(a: Tensor) -> Tensor:
    out, sig = _softplus(a.data)
    return _make(out, (a,), lambda g: (g * sig,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise DomainError(
            f"log of non-positive input (min={a.data.min():.6g})")
    out = np.log(a.data)
    return _make(out, (a,), lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0):
        raise DomainError("sqrt of negative input")
    out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: (g * 0.5 / out,))


# -- reductions & structure ---------------------------------------------------

def sum_axis(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _make(out, (a,), backward)


def mean_axis(a: Tensor, axis=None, keepdims=False) -> Tensor:
    n = a.size if axis is None else a.shape[axis]
    return sum_axis(a, axis=axis, keepdims=keepdims) * (1.0 / n)


def concat(tensors, axis=0) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(tensors), backward)


def stack(tensors) -> Tensor:
    """Tensors of one shape stacked along a new leading axis."""
    out = np.stack([t.data for t in tensors])
    return _make(out, tuple(tensors), tuple)


def take_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """a[start:stop] along the leading axis. The backward fills the other
    rows of a's adjoint with -0.0, the identity of float addition (x + -0.0
    is x for every x, where x + 0.0 turns -0.0 into 0.0), so the adjoints
    of row ranges taken apart add up bitwise to the rows' own."""
    def backward(g):
        ga = np.full(a.shape, -0.0)
        ga[start:stop] = g
        return (ga,)

    return _make(a.data[start:stop], (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)
    return _make(out, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor) -> Tensor:
    """The matrix transpose of a[M, N], or of each matrix of a stack
    a[B, M, N]."""
    if a.ndim not in (2, 3):
        raise ShapeMismatchError(
            f"transpose expects a matrix or a stack of them, got {a.shape}")
    return _make(np.swapaxes(a.data, -1, -2).copy(), (a,),
                 lambda g: (np.swapaxes(g, -1, -2),))


# -- linear algebra -----------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a[M, K] @ b[K, N], or a stack a[B, M, K] @ b[K, N]: numpy computes a
    stack one matrix at a time, so each of its products is bitwise the one
    of that matrix alone. For a stack, b's adjoint is likewise one product
    per matrix, summed from the last to the first."""
    if a.ndim not in (2, 3) or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeMismatchError(
            f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = a.data @ b.data

    def backward(g):
        gb = None
        if b.requires_grad and a.ndim == 2:
            gb = a.data.T @ g
        elif b.requires_grad:
            gb = _sum_last_first(len(g), lambda i: a.data[i].T @ g[i])
        return (g @ b.data.T if a.requires_grad else None), gb

    return _make(out, (a, b), backward)


_TINY = np.finfo(np.float64).tiny
_LOG_TINY = np.log(_TINY)


def _gauss(d2: np.ndarray, ell: np.ndarray, floor=_LOG_TINY) -> np.ndarray:
    """exp(-d2 / 2 ell^2) with every exponent below `floor` set to -inf
    first, so that, at the default log(tiny), entries exp would put below
    the smallest normal float come out as exact 0 and no subnormal is made.

    On x86 every instruction that reads or writes a subnormal takes a
    microcode assist, which made exp and the GEMMs over these weights 3-4x
    slower; numpy cannot set flush-to-zero, so the fix is in the data."""
    # in place: fresh temporaries cost more than the arithmetic
    e = d2 * -0.5
    e /= ell * ell
    e[e < floor] = -np.inf
    return np.exp(e, out=e)


def rbf(d2: np.ndarray, ell: Tensor) -> Tensor:
    """Row-normalised RBF weights of constant squared distances d2[N, M]
    and a scalar lengthscale: exp(-d2 / 2 ell^2), each row divided by its
    sum, with every entry below the smallest normal float set to 0.

    One node in place of the exp/sum/div chain: its only gradient is the
    scalar ell's, G.(q (d2 - rowsum(q d2))) / ell^3."""
    q = _gauss(d2, ell.data)
    rowsum = q.sum(axis=1, keepdims=True)
    short = rowsum[:, 0] < 1.0
    if short.any():
        # dividing by a sum below 1 can lift an entry exp put below tiny to
        # tiny or above: those rows keep every exp entry until the flush
        q[short] = _gauss(d2[short], ell.data, -np.inf)
        rowsum[short] = q[short].sum(axis=1, keepdims=True)
    q /= rowsum
    q[q < _TINY] = 0.0

    def backward(g):
        dq = d2 - np.einsum("ij,ij->i", q, d2)[:, None]
        dq *= q
        return (np.vdot(g, dq) / ell.data ** 3,)

    return _make(q, (ell,), backward)


def set_conv(d2: np.ndarray, ys, raw_ell: Tensor, eps: float) -> Tensor:
    """RBF set convolution of V views onto one grid, as one node. View v
    has constant values ys[v][N_v, C] at the squared distances of its
    columns of d2[G, N_0 + ... + N_(V-1)], the views' columns in turn. With
    the lengthscale ell = softplus(raw_ell) and w = exp(-d2 / 2 ell^2)
    (entries below the smallest normal float are 0), view v gets [G, 1 + C]
    channels of the [V, G, 1 + C] output: the density rowsum(w_v) first,
    then the signal (w_v @ y_v) / (density + eps), on its own columns w_v.

    Its only gradient is raw_ell's: per view (Gw_v . (w_v d2_v)) / ell^3
    times sigmoid(raw_ell), where Gw_v = G_den + (G_sig / (den + eps)) @
    y_v^T - rowsum(G_sig sig / (den + eps)), added from the last view to
    the first. That is the order in which the tape adds the adjoints of V
    one-view nodes, each behind a softplus node of its own, into raw_ell,
    so the gradient is bitwise theirs."""
    ell, dell = _softplus(raw_ell.data)
    ell = np.asarray(ell)  # as a softplus node holds it: ** 3 is numpy's loop
    w = _gauss(d2, ell)
    cols = [slice(stop - len(y), stop)
            for y, stop in zip(ys, np.cumsum([len(y) for y in ys]))]
    out = np.empty((len(ys), len(d2), 1 + ys[0].shape[1]))
    den_eps = np.empty((len(ys), len(d2), 1))
    for v, (y, c) in enumerate(zip(ys, cols)):
        den = w[:, c].sum(axis=1, keepdims=True)
        out[v, :, :1] = den
        np.add(den, eps, out=den_eps[v])
        np.divide(w[:, c] @ y, den_eps[v], out=out[v, :, 1:])

    def backward(g):
        def term(v):
            gs = g[v, :, 1:] / den_eps[v]
            gw = gs @ ys[v].T
            gw += g[v, :, :1] - np.einsum("ij,ij->i", gs,
                                          out[v, :, 1:])[:, None]
            gw *= w[:, cols[v]]
            return np.vdot(gw, d2[:, cols[v]]) / ell ** 3 * dell
        return (_sum_last_first(len(ys), term),)

    return _make(out, (raw_ell,), backward)


_LINE = 64   # bytes in a cache line


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialised float64 array whose data starts on a cache line."""
    n = int(np.prod(shape))
    buf = np.empty(n + _LINE // 8)
    start = -buf.ctypes.data % _LINE // 8
    return buf[start:start + n].reshape(shape)


@functools.lru_cache(maxsize=8)
def _im2col_arrays(B: int, C: int, L: int, W: int):
    """The arrays `_conv` writes for inputs [B, C, L] and kernel width W:
    a zero-padded input xp[B, C, L + W - 1], a window view [C, W, B, L] of
    xp, the columns [C, W, B, L] with their [C*W, B*L] view, and the
    backward's col2im buffer [B, C*W, L + W], which shares the columns'
    memory: the backward is done with the columns before it writes the
    buffer. One set per layer shape, which every call on that shape
    reuses: fresh columns, up to 0.9 MB per call for eight WAVE views, were
    trimmed by glibc between calls and faulted in again.

    Each array starts on a cache line. At the per-view GEMM sizes OpenBLAS
    runs its small-matrix kernel on the unpacked columns, whose speed
    depends on where they start: the forward GEMM of an 8-view WAVE layer,
    [32, 224] @ [8, 224, 64], took 162-166 us with the columns 16, 32 or
    48 bytes past a line, against 104-105 us on one (2-core x86 host)."""
    pad = (W - 1) // 2
    xp = _aligned_empty((B, C, L + 2 * pad))
    xp.fill(0.0)
    s0, s1, s2 = xp.strides
    # a direct view: much cheaper per call than as_strided
    windows = np.ndarray((C, W, B, L), xp.dtype, xp, 0, (s1, s2, s0, s2))
    skew = _aligned_empty((B, C * W, L + W))
    cols = skew.reshape(-1)[:C * W * B * L].reshape(C, W, B, L)
    return xp, windows, cols, cols.reshape(C * W, B * L), skew


def _im2col(x: np.ndarray, W: int) -> np.ndarray:
    """Columns [C*W, B*L] of x[B,C,L] zero-padded by (W - 1) / 2 on each
    side to xp: row c*W + w holds xp[b, c, w:w + L] for b = 0..B-1 in turn,
    matching kernel.reshape(C_out, C*W). They are overwritten by the next
    call on the same shape, so they must not outlive the caller's use."""
    xp, windows, cols, columns, _ = _im2col_arrays(*x.shape, W)
    pad = (W - 1) // 2
    xp[:, :, pad:pad + x.shape[2]] = x
    np.copyto(cols, windows)
    return columns


def _conv(x: Tensor, kernel: Tensor):
    """Cross-correlation of x[B,C,L] with kernel[C_out,C,W] for an odd W,
    zero-padded by (W - 1) / 2 on each side so the output keeps length L.

    Lowered to matrix products (im2col): the output is the stacked
    product kernel[C_out, C*W] @ columns[B, C*W, L], the columns being a
    [B, C*W, L] view of `_im2col`'s [C*W, B*L]. numpy computes a stack one
    GEMM per matrix, on the shapes and operands of that batch entry alone,
    so a batched forward is bitwise equal to B forwards of one: only the
    columns' row stride differs, which leaves the sums as they are. It
    does not leave the speed: at these sizes OpenBLAS reads the columns
    unpacked, so `_im2col_arrays` starts them on a cache line.
    Returns the output array and the backward that maps its adjoint to
    (gx, gkernel); the backward rebuilds the columns from x rather than
    keeping them alive.

    The backward is bitwise B backwards of one, with the B kernel adjoints
    summed from the last entry to the first (`_sum_last_first`). Each
    entry's kernel adjoint is one GEMM, g[b][C_out, L] @ columns[b].T: a
    single GEMM over all B*L columns would sum the entries in BLAS's order.
    The columns' adjoint k2.T @ g is written into a buffer whose rows have
    stride P + 1 (P = L + 2*pad), with the W entries after each row zeroed,
    so row c*W + w lands shifted right by w; read back with row stride P
    from offset pad, each input position sees its W terms stacked, and one
    sum over them (in order w = 0..W-1) undoes the im2col."""
    if x.ndim != 3 or kernel.ndim != 3:
        raise ShapeMismatchError(
            f"convolution expects x[B,C,L], kernel[C_out,C,W]; "
            f"got {x.shape} and {kernel.shape}")
    B, C, L = x.shape
    C_out, C_k, W = kernel.shape
    if C_k != C or W % 2 == 0:
        raise ShapeMismatchError(
            f"convolution needs a kernel of odd width over the input's "
            f"channels: input {x.shape} vs kernel {kernel.shape}")
    pad = (W - 1) // 2

    k2 = kernel.data.reshape(C_out, C * W)
    out = k2 @ _im2col(x.data, W).reshape(C * W, B, L).transpose(1, 0, 2)

    def backward(g):
        columns = _im2col(x.data, W).reshape(C * W, B, L).transpose(1, 0, 2)
        gk = _sum_last_first(B, lambda b: g[b] @ columns[b].T)
        skew = _im2col_arrays(B, C, L, W)[4]
        skew[:, :, L:] = 0.0
        np.matmul(k2.T, g, out=skew[:, :, :L])
        s0, s1, s2 = skew.strides
        stacked = np.ndarray((B, C, W, L), skew.dtype, skew, pad * s2,
                             (s0, W * s1, (L + W - 1) * s2, s2))
        return stacked.sum(axis=2), gk.reshape(C_out, C, W)

    return out, backward


def conv_block(h: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """One residual CNN layer as one node: relu(conv(h, kernel) + bias),
    plus h when the shapes match, where conv is `_conv`'s same-padded
    cross-correlation; bias[C_out] is added per channel.

    The bias, relu and residual are applied in place on the GEMM output;
    backward masks the adjoint once, sums it for the bias and adds it to
    the input's adjoint for the residual."""
    out, conv_backward = _conv(h, kernel)
    out += bias.data[:, None]
    # a frozen forward (extract) has no backward to mask
    live = h.requires_grad or kernel.requires_grad or bias.requires_grad
    mask = out > 0 if live else None
    np.maximum(out, 0.0, out=out)
    residual = out.shape == h.shape
    if residual:
        out += h.data

    def backward(g):
        gz = g * mask
        gh, gk = conv_backward(gz)
        if residual:
            gh += g
        return gh, gk, _sum_last_first(len(gz), gz.sum(axis=2).__getitem__)

    return _make(out, (h, kernel, bias), backward)


HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def _decoder(qn: Tensor, F3: np.ndarray, weights, sigma_min: float):
    """The ConvCNP decoder of V views that share one smoother qn[T, G]: each
    view's grid features F_v[G, H] (F3[v] of an array [V, G, H]) smoothed
    onto the T targets, one hidden layer, then a mu head and a sigma head
    over C channels,

        Z_v = relu(qn @ (F_v @ W1) + b1)                        [T, hidden]
        mu_v = Z_v @ W_mu + b_mu
        sigma_v = softplus(Z_v @ W_sig + b_sig) + sigma_min     [T, C]

    with weights = (W1, b1, W_mu, b_mu, W_sig, b_sig). All views go through
    one [T, G] x [G, V * hidden] product and one [T * V, hidden] x
    [hidden, 2C] product for both heads. Returns mu and sigma [V, T, C] and
    the backward that maps their adjoints (arrays of that shape) to the
    gradients of (qn, the grid features [V, G, H], *weights). That backward
    writes the hidden layer's adjoint over the hidden layer, the largest
    array here, so it runs once per forward pass: a fresh array of that size
    every step would be freed to the OS and faulted in again."""
    w1, b1, w_mu, b_mu, w_sig, b_sig = (w.data for w in weights)
    (T, G), V = qn.shape, len(F3)
    H, hidden = w1.shape
    C = w_mu.shape[1]
    # row g * V + v of F is row g of F_v, so columns v * hidden onwards of
    # A hold F_v @ W1
    F = F3.transpose(1, 0, 2).reshape(G * V, H)
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
    sigma, dsigma_dpre = _softplus(np.ascontiguousarray(head[:, :, C:]))
    sigma += sigma_min

    spent = False

    def backward(dmu, dsigma):
        nonlocal spent
        if spent:
            raise RuntimeError("the decoder's backward runs once per forward "
                               "pass; re-run the forward pass")
        spent = True
        dhead = np.empty((T * V, 2 * C))
        by_view = dhead.reshape(T, V, 2 * C).transpose(1, 0, 2)
        by_view[:, :, :C] = dmu
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
        return (dqn, dF.transpose(1, 0, 2), F.T @ dA,
                dz.sum(axis=0), dw_head[:, :C], db_head[:C], dw_head[:, C:],
                db_head[C:])

    return mu, sigma, backward


def decode_nll(qn: Tensor, grids: Tensor, ys, weights,
               sigma_min: float) -> Tensor:
    """The mean Gaussian negative log likelihood [V] of each view's targets
    ys[v][T, C] under its prediction by `_decoder` from its grid features
    grids[v] (grids is [V, G, H]), as one node: per view, the mean over
    targets and channels of log sigma + log(2 pi) / 2 + (mu - y)^2 /
    (2 sigma^2).

    Its backward maps the V adjoints to mu's and sigma's and runs the
    decoder's backward once for all views."""
    mu, sigma, decoder_backward = _decoder(qn, grids.data, weights, sigma_min)
    diff = mu - np.stack(ys)
    var = sigma * sigma
    point = np.log(sigma) + HALF_LOG_2PI + diff * diff / (var * 2.0)
    n = point[0].size
    out = point.reshape(len(ys), n).sum(axis=1) * (1.0 / n)

    def backward(g):
        scale = (g * (1.0 / n))[:, None, None]
        dmu = diff / var * scale
        dsigma = (1.0 / sigma - diff * diff / (var * sigma)) * scale
        return decoder_backward(dmu, dsigma)

    return _make(out, (qn, grids, *weights), backward)
