import functools
import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contrnp import autodiff as ad
from contrnp.autodiff import DomainError, ShapeMismatchError, Tensor

from conftest import (check_grads, composed_rbf, composed_set_conv, conv1d,
                      finite_diff_grads, getitem, leaf, reference_conv,
                      rel_err, relu)

TINY = np.finfo(np.float64).tiny

BAD_KERNELS = pytest.mark.parametrize("x_shape, k_shape", [
    ((1, 1, 9), (1, 1, 4)), ((1, 2, 9), (1, 3, 3))],
    ids=["even_width", "channel_mismatch"])


def conv1d_reference(x, k, padding, g):
    """Nested-loop zero-padded cross-correlation of x[B,C,L] with
    k[C_out,C,W], and the gradients of sum(out * g) w.r.t. x and k."""
    B, C, L = x.shape
    C_out, _, W = k.shape
    L_out = L + 2 * padding - W + 1
    out = np.zeros((B, C_out, L_out))
    gx = np.zeros_like(x)
    gk = np.zeros_like(k)
    for b in range(B):
        for o in range(C_out):
            for l in range(L_out):
                for c in range(C):
                    for w in range(W):
                        i = l + w - padding
                        if 0 <= i < L:
                            out[b, o, l] += x[b, c, i] * k[o, c, w]
                            gx[b, c, i] += g[b, o, l] * k[o, c, w]
                            gk[o, c, w] += g[b, o, l] * x[b, c, i]
    return out, gx, gk


class TestForwardValues:
    def test_softplus_at_zero(self):
        assert ad.softplus(Tensor(0.0)).item() == pytest.approx(np.log(2.0))

    def test_softplus_stable_for_large_inputs(self):
        out = ad.softplus(Tensor([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[1] == pytest.approx(1000.0)

    def test_relu_negative(self):
        assert relu(Tensor(-3.0)).item() == 0.0

    def test_conv1d_hand_example(self):
        # same padding: a width-W box kernel over ones counts the in-range
        # taps, W at the centre and fewer towards either end
        x = Tensor(np.ones((1, 1, 5)))
        for width, want in [(3, [2, 3, 3, 3, 2]), (5, [3, 4, 5, 4, 3])]:
            out = conv1d(x, Tensor(np.ones((1, 1, width))))
            np.testing.assert_array_equal(out.data.ravel(), want)

    def test_matmul_matches_numpy(self, rng):
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 5))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_concat_and_mean(self, rng):
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((4, 3))
        out = ad.concat([Tensor(a), Tensor(b)], axis=0)
        np.testing.assert_array_equal(out.data, np.concatenate([a, b]))
        assert ad.mean_axis(out).item() == pytest.approx(
            np.concatenate([a, b]).mean())

    def test_forward_determinism(self, rng):
        x = rng.standard_normal((4, 6))
        r1 = ad.softplus(ad.exp(Tensor(x)) @ Tensor(x.T)).data
        r2 = ad.softplus(ad.exp(Tensor(x)) @ Tensor(x.T)).data
        np.testing.assert_array_equal(r1, r2)


class TestErrors:
    def test_matmul_shape_mismatch_names_both(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            Tensor(np.ones((2, 3))) + Tensor(np.ones((4, 5)))

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            ad.log(Tensor([1.0, -1.0]))

    @BAD_KERNELS
    def test_conv1d_refuses_kernel(self, x_shape, k_shape):
        with pytest.raises(ShapeMismatchError, match="odd width"):
            conv1d(Tensor(np.ones(x_shape)), Tensor(np.ones(k_shape)))

    @BAD_KERNELS
    def test_conv_block_refuses_kernel(self, x_shape, k_shape):
        with pytest.raises(ShapeMismatchError, match="odd width"):
            ad.conv_block(Tensor(np.ones(x_shape)), Tensor(np.ones(k_shape)),
                          Tensor(np.ones(k_shape[0])))

    def test_backward_non_scalar(self):
        x = leaf(np.random.default_rng(0), 3)
        with pytest.raises(ShapeMismatchError):
            (x * x).backward()

    def test_backward_without_tape(self):
        with pytest.raises(RuntimeError, match="tape"):
            Tensor(1.0).backward()

    def test_backward_twice_is_error(self, rng):
        x = leaf(rng, 3)
        loss = ad.sum_axis(x * x)
        loss.backward()
        with pytest.raises(RuntimeError, match="already"):
            loss.backward()


class TestBackwardValues:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = ad.sum_axis(x * x)
        x.zero_grad()
        loss.backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_constant_loss_leaves_grads_zero(self, rng):
        x = leaf(rng, 4)
        x.zero_grad()
        loss = ad.sum_axis(x * x) * 0.0
        loss.backward()
        np.testing.assert_array_equal(x.grad, np.zeros(4))

    def test_unreachable_leaf_keeps_zero_grad(self, rng):
        x, y = leaf(rng, 3), leaf(rng, 3)
        x.zero_grad()
        y.zero_grad()
        ad.sum_axis(x * x).backward()
        np.testing.assert_array_equal(y.grad, np.zeros(3))

    def test_grad_accumulates_across_uses(self, rng):
        x = leaf(rng, 2)
        x.zero_grad()
        loss = ad.sum_axis(x * x + x * x)
        loss.backward()
        np.testing.assert_allclose(x.grad, 4 * x.data)

    def test_take_rows_adjoints_add_up_bitwise(self, rng):
        # the -0.0 fill keeps a -0.0 adjoint entry -0.0 in the sum, where
        # a 0.0 fill would turn it into 0.0
        a = leaf(rng, 5, 3)
        g = rng.standard_normal((5, 3))
        g[[0, 2, 4], 1] = -0.0
        whole = ad.take_rows(a, 0, 5)._backward_fn(g)[0]
        parts = [ad.take_rows(a, i, j)._backward_fn(g[i:j])[0]
                 for i, j in [(0, 2), (2, 3), (3, 5)]]
        total = parts[0] + parts[1] + parts[2]
        assert total.tobytes() == whole.tobytes() == g.tobytes()


def graph_nodes(root):
    """The op outputs reachable from `root`, latest created first."""
    found, stack = {}, [root]
    while stack:
        node = stack.pop()
        if node._backward_fn is not None and id(node) not in found:
            found[id(node)] = node
            stack.extend(node._parents)
    return sorted(found.values(), key=lambda n: -n._order)


def out_of_place_grad(loss, leaf_tensor):
    """The gradient of `loss` w.r.t. one leaf by `Tensor.backward`'s walk,
    with every adjoint summed into a fresh array."""
    adjoint = {id(loss): np.ones_like(loss.data)}
    grad = np.zeros_like(leaf_tensor.data)
    for node in graph_nodes(loss):
        for p, pg in zip(node._parents,
                         node._backward_fn(adjoint.pop(id(node)))):
            if p is leaf_tensor:
                grad = grad + pg
            elif pg is not None and p._backward_fn is not None:
                prior = adjoint.get(id(p))
                adjoint[id(p)] = pg if prior is None else prior + pg
    return grad


def decode_nll_op(qn, grid, w1):
    """`autodiff.decode_nll` of a smoother [5, 4], grid features [4, 3] and
    W1 [3, 2], with constant biases and heads over 2 channels."""
    weights = (w1, *(Tensor(np.full(shape, 0.5)) for shape in
                     [(2,), (2, 2), (2,), (2, 2), (2,)]))
    return ad.decode_nll(qn, ad.stack([grid]), [np.ones((5, 2))], weights,
                         1e-4)


class TestTapeRule:
    """`requires_grad` is the one graph flag: an op's output has it exactly
    when an operand has it, and only then records parents and a backward."""

    OPS = {
        "add": (ad.add, [(3, 4), (3, 4)]),
        "sub": (ad.sub, [(3, 4), (4,)]),
        "mul": (ad.mul, [(3, 4), (3, 1)]),
        "div": (lambda a, b: ad.div(a, ad.exp(b)), [(3, 4), (3, 4)]),
        "matmul": (ad.matmul, [(3, 4), (4, 2)]),
        "matmul_stack": (ad.matmul, [(2, 1, 4), (4, 3)]),
        "concat": (lambda a, b: ad.concat([a, b], axis=1), [(3, 4), (3, 2)]),
        "stack": (lambda a, b: ad.stack([a, b]), [(3, 4), (3, 4)]),
        "take_rows": (lambda a: ad.take_rows(a, 1, 3), [(4, 3)]),
        "conv1d": (conv1d, [(2, 3, 8), (4, 3, 3)]),
        "conv_block": (ad.conv_block, [(2, 3, 8), (4, 3, 3), (4,)]),
        "conv_block_residual": (ad.conv_block, [(2, 4, 8), (4, 4, 3), (4,)]),
        "relu": (relu, [(3, 4)]),
        "softplus": (ad.softplus, [(3, 4)]),
        "exp": (ad.exp, [(3, 4)]),
        "log": (lambda a: ad.log(ad.exp(a)), [(3, 4)]),
        "sqrt": (lambda a: ad.sqrt(ad.exp(a)), [(3, 4)]),
        "sum_axis": (lambda a: ad.sum_axis(a, axis=0), [(3, 4)]),
        "mean_axis": (ad.mean_axis, [(3, 4)]),
        "getitem": (lambda a: getitem(a, np.s_[1:, :2]), [(3, 4)]),
        "reshape": (lambda a: a.reshape(4, 3), [(3, 4)]),
        "transpose": (ad.transpose, [(3, 4)]),
        "transpose_stack": (ad.transpose, [(2, 3, 4)]),
        "rbf": (lambda a: ad.rbf(np.ones((3, 4)), a), [()]),
        "set_conv": (lambda a: ad.set_conv(np.ones((3, 4)), [np.ones((4, 2))],
                                           a, 1e-6), [()]),
        "decode_nll": (decode_nll_op, [(5, 4), (4, 3), (3, 2)]),
    }
    CASES = [(name, flags) for name, (_, shapes) in OPS.items()
             for flags in itertools.product([False, True], repeat=len(shapes))]

    @pytest.mark.parametrize("name, flags", CASES,
                             ids=[f"{n}-{f}" for n, f in CASES])
    def test_output_in_graph_exactly_when_an_operand_is(self, rng, name,
                                                        flags):
        fn, shapes = self.OPS[name]
        operands = [Tensor(rng.standard_normal(s), requires_grad=f)
                    for s, f in zip(shapes, flags)]
        out = fn(*operands)
        assert out.requires_grad == any(flags)
        if any(flags):
            assert out._parents and out._backward_fn is not None
        else:
            assert out._parents == () and out._backward_fn is None

    def test_every_public_op_is_in_the_table(self):
        ops = {name for name, fn in vars(ad).items()
               if inspect.isfunction(fn) and fn.__module__ == ad.__name__
               and not name.startswith("_")}
        assert ops - set(self.OPS) == set()

    def test_diamond_graph_matches_finite_differences(self, rng):
        # h is consumed at depths 1, 2 and 3; `add` hands p and q one
        # adjoint array while p still waits for m's; y is a leaf created
        # after the intermediate nodes it is combined with
        x = leaf(rng, 3)
        y_values = Tensor(rng.standard_normal(3))  # perturbed by the fd loop
        made = {}

        def build():
            h = ad.exp(x * 0.5)
            u = h * h
            s = u + h
            p, q = ad.exp(x * 0.2), ad.exp(x * 0.3)
            m = p * p
            t = p + q
            made["y"] = y = Tensor(y_values.data, requires_grad=True)
            return (ad.sum_axis(s * s * y) + ad.sum_axis(h * u)
                    + ad.sum_axis(h) + ad.sum_axis(m) + ad.sum_axis(t))

        loss = build()
        y = made["y"]
        x.zero_grad()
        y.zero_grad()
        loss.backward()
        fd = finite_diff_grads(lambda: build().item(), [x, y_values])
        for got, want in zip([x.grad, y.grad], fd):
            assert rel_err(got, want).max() < 1e-6

    def test_in_place_adjoint_sum_matches_out_of_place(self, rng):
        # h has three consumers and five arrivals; `add` hands both of its
        # parents, here h twice, one array
        x = leaf(rng, 3)
        h = ad.exp(x * 0.5)
        loss = (ad.sum_axis(h + h) + ad.sum_axis(h * h)
                + ad.sum_axis(ad.exp(h * 0.1)))
        nodes = graph_nodes(loss)
        want = out_of_place_grad(loss, x)
        seen = []   # every adjoint a backward took or gave, and its copy

        def recording(g, fn):
            out = fn(g)
            seen.extend((a, np.copy(a)) for a in (g, *out) if a is not None)
            return out
        for node in nodes:
            node._backward_fn = functools.partial(recording,
                                                  fn=node._backward_fn)
        data = [(n.data, n.data.copy()) for n in nodes]
        x.zero_grad()
        loss.backward()
        np.testing.assert_array_equal(x.grad, want)
        assert len(seen) > 10
        for array, copy in seen + data:
            np.testing.assert_array_equal(array, copy)

    def test_backward_runs_each_node_once(self, rng):
        # reverse creation order reaches a node only after all of its
        # consumers, so no node's backward runs on a partial adjoint
        x = leaf(rng, 3)
        h = ad.exp(x * 0.5)
        loss = ad.sum_axis((h * h + h) * h) + ad.sum_axis(h + x)
        calls, nodes = {}, graph_nodes(loss)
        for node in nodes:
            def counted(g, fn=node._backward_fn, key=id(node)):
                calls[key] = calls.get(key, 0) + 1
                return fn(g)
            node._backward_fn = counted
        loss.backward()
        assert calls == {id(node): 1 for node in nodes}


class TestGradientChecks:
    """Finite-difference oracle over every differentiable op."""

    def test_elementwise_ops(self, rng):
        x = leaf(rng, 3, 4)
        y = leaf(rng, 3, 4)
        for build in [
            lambda: ad.sum_axis(x + y),
            lambda: ad.sum_axis(x - y),
            lambda: ad.sum_axis(x * y),
            lambda: ad.sum_axis(x / (y * y + 1.0)),
            lambda: ad.sum_axis(relu(x) * y),
            lambda: ad.sum_axis(ad.softplus(x)),
            lambda: ad.sum_axis(ad.exp(x * 0.3)),
            lambda: ad.sum_axis(ad.log(ad.softplus(x) + 0.1)),
            lambda: ad.sum_axis(ad.sqrt(x * x + 1.0)),
        ]:
            check_grads(build, [x, y])

    def test_broadcasting_ops(self, rng):
        x = leaf(rng, 3, 4)
        row = leaf(rng, 4)
        col = leaf(rng, 3, 1)
        scalar = leaf(rng)
        check_grads(lambda: ad.sum_axis((x + row) * col / (scalar * scalar + 1.0)),
                    [x, row, col, scalar])

    def test_reductions_and_structure(self, rng):
        x = leaf(rng, 3, 4)
        y = leaf(rng, 2, 4)
        z = leaf(rng, 2, 3, 4)
        for build in [
            lambda: ad.sum_axis(ad.mean_axis(x, axis=0) * 2.0),
            lambda: ad.sum_axis(ad.sum_axis(x, axis=1, keepdims=True)),
            lambda: ad.mean_axis(ad.concat([x, y], axis=0)),
            lambda: ad.sum_axis(ad.exp(ad.stack([x, x * 0.5, x]) * 0.2)),
            lambda: ad.sum_axis(ad.exp(ad.take_rows(z, 1, 2) * 0.2)),
            lambda: ad.sum_axis(ad.transpose(x) @ x),
            lambda: ad.sum_axis(ad.exp((ad.transpose(z) @ x) * 0.2)),
            lambda: ad.sum_axis(x.reshape(12) * 0.5),
        ]:
            check_grads(build, [x, y, z])

    def test_matmul(self, rng):
        b = leaf(rng, 4, 2)
        for a in [leaf(rng, 3, 4), leaf(rng, 2, 1, 4)]:  # a matrix, a stack
            check_grads(lambda: ad.sum_axis(ad.exp((a @ b) * 0.2)), [a, b])

    @pytest.mark.parametrize("padding", [0, 1, 2, 3])
    def test_conv1d(self, rng, padding):
        # conv1d pads by (W - 1) / 2: width 2 * padding + 1
        x = leaf(rng, 2, 3, 10)
        k = leaf(rng, 4, 3, 2 * padding + 1)
        check_grads(lambda: ad.sum_axis(relu(conv1d(x, k))), [x, k])

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("width,padding",
                             [(w, (w - 1) // 2) for w in (1, 3, 5, 7)])
    def test_conv1d_matches_nested_loop_oracle(self, batch, width, padding):
        r = np.random.default_rng(100 * batch + 10 * width + padding)
        c_in, c_out = 3, 4
        for length in (9, 2):  # at 2, wider kernels reach past both ends
            x = leaf(r, batch, c_in, length)
            k = leaf(r, c_out, c_in, width)
            g = r.standard_normal((batch, c_out, length))
            out = conv1d(x, k)
            x.zero_grad()
            k.zero_grad()
            ad.sum_axis(out * Tensor(g)).backward()
            want_out, want_gx, want_gk = conv1d_reference(x.data, k.data,
                                                          padding, g)
            for got, want in [(out.data, want_out), (x.grad, want_gx),
                              (k.grad, want_gk)]:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_randomized_composite_graphs(self):
        # >= 100 random shape/seed combinations across composed ops
        for seed in range(100):
            r = np.random.default_rng(seed)
            n, m = int(r.integers(1, 5)), int(r.integers(1, 5))
            x = Tensor(r.standard_normal((n, m)), requires_grad=True)
            w = Tensor(r.standard_normal((m, 2)), requires_grad=True)

            def build():
                h = ad.softplus(x @ w)
                return ad.mean_axis(h * h + ad.exp(h * -0.5))

            check_grads(build, [x, w])


def raw_of(ell):
    """The raw parameter whose softplus is the lengthscale ell."""
    return float(np.log(np.expm1(ell)))


def subnormal(a):
    """Entries of `a` that are not 0 but below the smallest normal float."""
    return (a != 0) & (np.abs(a) < TINY)


class TestRbf:
    """The two fused RBF nodes against `composed_rbf`'s two forms: `rbf`,
    the row-normalised weights (normalize=True), and `set_conv`, whose
    unnormalised weights are summed to a density and a signal channel
    (normalize=False), at 1 and 3 signal channels. `set_conv` takes the
    raw lengthscale, and its composed chain a softplus node on it; a
    function of the lengthscale here takes whichever the node does
    (`arg`). Both nodes set every
    weight the composed chain puts below the smallest normal float to 0
    and leave every other weight as it is."""

    GRID = np.linspace(-0.1, 1.1, 16)
    SPACING = GRID[1] - GRID[0]
    EPS = 1e-6

    def builds(self, rng, normalize):
        """(fused, composed) pairs of functions of the lengthscale, each
        over its own constant inputs."""
        x = rng.uniform(0.0, 1.0, 30)
        if normalize:
            d2 = (x[:, None] - self.GRID[None, :]) ** 2             # [T, G]
            return [(lambda ell: ad.rbf(d2, ell),
                     lambda ell: composed_rbf(d2, ell, normalize=True))]
        d2 = (self.GRID[:, None] - x[None, :]) ** 2                 # [G, N]
        return [self.set_conv_pair(d2, y)
                for y in (rng.standard_normal((30, c)) for c in (1, 3))]

    def set_conv_pair(self, d2, y):
        return (lambda raw: ad.set_conv(d2, [y], raw, self.EPS).reshape(
                    len(d2), -1),
                lambda raw: composed_set_conv(d2, y, ad.softplus(raw),
                                              self.EPS))

    @staticmethod
    def arg(normalize, ell):
        """The value a build of `builds(rng, normalize)` takes for the
        lengthscale ell: ell itself (rbf) or its raw parameter (set_conv)."""
        return ell if normalize else raw_of(ell)

    @staticmethod
    def run_pair(rng, pair, ell_value):
        """Each build's output and its lengthscale gradient under one random
        output adjoint."""
        values, grads, g = [], [], None
        for build in pair:
            ell = Tensor(ell_value, requires_grad=True)
            q = build(ell)
            if g is None:
                g = Tensor(rng.standard_normal(q.shape))
            ell.zero_grad()
            ad.sum_axis(q * g).backward()
            values.append(q.data)
            grads.append(float(ell.grad))
        return values, grads

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("spacings", [0.3, 1.0, 2.5])
    def test_lengthscale_gradient_matches_finite_differences(
            self, rng, normalize, spacings):
        for fused, _ in self.builds(rng, normalize):
            ell = Tensor(self.arg(normalize, spacings * self.SPACING),
                         requires_grad=True)
            g = Tensor(rng.standard_normal(fused(ell).shape))
            check_grads(lambda: ad.sum_axis(fused(ell) * g),
                        [ell], tol=1e-6, h=1e-7 * spacings)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("spacings", [0.3, 1.0, 2.5])
    def test_fused_equals_composed_chain(self, rng, normalize, spacings):
        for pair in self.builds(rng, normalize):
            (fused, composed), grads = self.run_pair(
                rng, pair, self.arg(normalize, spacings * self.SPACING))
            if normalize:
                normal = composed >= TINY
                if spacings == 0.3:  # the flush has entries to act on
                    assert np.any(subnormal(composed))
                np.testing.assert_allclose(fused[normal], composed[normal],
                                           rtol=1e-12, atol=0)
                np.testing.assert_array_equal(fused[~normal], 0.0)
            else:
                # set_conv keeps the chain's operation order
                np.testing.assert_array_equal(fused, composed)
            assert grads[0] == pytest.approx(grads[1], rel=1e-12, abs=0)

    @pytest.mark.parametrize("spacings", [0.3, 0.55, 1.0, 2.5])
    def test_no_subnormal_output(self, rng, spacings):
        # 256 grid points: every lengthscale here reaches exp's subnormal
        # range, as the composed weights show
        grid = np.linspace(-0.1, 1.1, 256)
        x = rng.uniform(0.0, 1.0, 50)
        d2 = (x[:, None] - grid[None, :]) ** 2                      # [T, G]
        ell = Tensor(spacings * (grid[1] - grid[0]))
        assert np.any(subnormal(composed_rbf(d2, ell).data))
        y = rng.standard_normal((50, 2))
        # set_conv's weights are the shared helper's, unnormalised
        raw = Tensor(raw_of(ell.data))
        for out in (ad.rbf(d2, ell).data, ad._gauss(d2, ell.data),
                    ad.set_conv(d2.T, [y], raw, self.EPS).data):
            assert not np.any(subnormal(out))

    def test_exp_at_clamp_threshold_is_normal(self):
        # exponents from log(tiny) up give normal weights, so set_conv's
        # clamp leaves no subnormal; below it, exp gives less than tiny
        at = np.full(16, ad._LOG_TINY)
        assert np.all(np.exp(at) >= TINY)
        assert np.all(np.exp(np.nextafter(at, -np.inf)) < TINY)

    def test_rbf_row_sum_below_one_keeps_lifted_entries(self, rng):
        # exponents -2, log(tiny) - 0.5 and -3: exp puts the second below
        # tiny, the divide by the row sum e^-2 + e^-3 lifts it to 3.3 tiny
        d2 = np.array([[4.0, -2.0 * (ad._LOG_TINY - 0.5), 6.0]])
        (fused, composed), grads = self.run_pair(
            rng, (lambda ell: ad.rbf(d2, ell),
                  lambda ell: composed_rbf(d2, ell, normalize=True)), 1.0)
        assert TINY <= composed[0, 1] < 4 * TINY
        np.testing.assert_array_equal(fused, composed)
        assert grads[0] == pytest.approx(grads[1], rel=1e-12, abs=0)
        # exponents -725 and -730: exp puts both below tiny, and the row
        # normalises them to normal weights (the chain's gradient through
        # a subnormal row sum overflows, so only values are compared)
        d2, ell = np.array([[1450.0, 1460.0]]), Tensor(1.0)
        composed = composed_rbf(d2, ell, normalize=True).data
        assert np.all(composed >= TINY)
        np.testing.assert_array_equal(ad.rbf(d2, ell).data, composed)

    def test_set_conv_at_trained_input_lengthscale(self, rng):
        # the [64, N] weights at the ell_in a trained repr_run reaches,
        # 0.96 grid spacings: some fall below tiny
        grid = np.linspace(-0.1, 1.1, 64)
        x = rng.uniform(0.0, 1.0, 60)
        d2 = (grid[:, None] - x[None, :]) ** 2                      # [G, N]
        ell = 0.96 * (grid[1] - grid[0])
        assert np.any(subnormal(composed_rbf(d2, Tensor(ell)).data))
        for c in (1, 3):
            pair = self.set_conv_pair(d2, rng.standard_normal((60, c)))
            (fused, composed), grads = self.run_pair(rng, pair, raw_of(ell))
            np.testing.assert_array_equal(fused, composed)
            assert grads[0] == pytest.approx(grads[1], rel=1e-12, abs=0)

    def test_getitem_gradient(self, rng):
        x = leaf(rng, 3, 4)
        check_grads(lambda: ad.sum_axis(getitem(x, np.s_[:, 1:3])
                                        * getitem(x, np.s_[:, :2]))
                    + ad.sum_axis(ad.exp(getitem(x, 1) * 0.5)), [x])


class TestConvBlock:
    """`conv_block` against the conv1d, bias add, relu (and residual add)
    chain it replaces."""

    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_equals_op_by_op_chain(self, batch, residual):
        r = np.random.default_rng(10 * batch + residual)
        c_in, c_out = (4, 4) if residual else (3, 4)
        h, k = leaf(r, batch, c_in, 9), leaf(r, c_out, c_in, 5)
        b = leaf(r, c_out)
        g = Tensor(r.standard_normal((batch, c_out, 9)))

        def chain():
            z = relu(conv1d(h, k) + b.reshape(1, c_out, 1))
            return z + h if residual else z

        results = []
        for build in (lambda: ad.conv_block(h, k, b), chain):
            out = build()
            for t in (h, k, b):
                t.zero_grad()
            ad.sum_axis(out * g).backward()
            results.append([out.data, h.grad, k.grad, b.grad])
        pre = conv1d(h, k).data + b.data[:, None]
        assert np.any(pre < 0) and np.any(pre > 0)  # relu masks some
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestConvBackward:
    """`_conv`'s two-GEMM backward against `conftest.reference_conv`, the
    tensordot-and-slice-add backward it replaced: bitwise at batch size 1,
    and at a larger batch bitwise the backwards of its entries one by one,
    as training relies on."""

    SHAPES = pytest.mark.parametrize("c_in, c_out, width, length", [
        (2, 32, 7, 64), (32, 32, 7, 64),   # the WAVE layers
        (2, 64, 5, 64), (64, 64, 5, 64),   # the TrainConfig layers
        (3, 4, 7, 2), (3, 4, 1, 9)],       # kernel past both ends; one tap
        ids=["wave_in", "wave_mid", "paper_in", "paper_mid", "L2_W7", "W1"])

    @staticmethod
    def both(batch, c_in, c_out, width, length):
        r = np.random.default_rng([batch, c_in, c_out, width, length])
        x = Tensor(r.standard_normal((batch, c_in, length)))
        k = Tensor(r.standard_normal((c_out, c_in, width)))
        g = r.standard_normal((batch, c_out, length))
        (out, backward), (want_out, want_backward) = (
            ad._conv(x, k), reference_conv(x, k))
        np.testing.assert_array_equal(out, want_out)
        return backward(g), want_backward(g)

    @SHAPES
    def test_bitwise_at_batch_one(self, c_in, c_out, width, length):
        got, want = self.both(1, c_in, c_out, width, length)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @SHAPES
    def test_batch_three_is_three_single_backwards(self, c_in, c_out, width,
                                                   length):
        # the input adjoints stacked, the kernel adjoints summed from the
        # last entry to the first, the order in which the tape adds the
        # adjoints of per-entry nodes into the kernel
        r = np.random.default_rng([3, c_in, c_out, width, length])
        x = r.standard_normal((3, c_in, length))
        k = Tensor(r.standard_normal((c_out, c_in, width)))
        g = r.standard_normal((3, c_out, length))
        out, backward = ad._conv(Tensor(x), k)
        gx, gk = backward(g)
        singles = [reference_conv(Tensor(x[i:i + 1]), k) for i in range(3)]
        grads = [bw(g[i:i + 1]) for i, (_, bw) in enumerate(singles)]
        want_out = np.concatenate([o for o, _ in singles])
        want_gx = np.concatenate([gxi for gxi, _ in grads])
        want_gk = grads[2][1] + grads[1][1] + grads[0][1]
        for got, want in [(out, want_out), (gx, want_gx), (gk, want_gk)]:
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestBatchedForward:
    """`conv_block` over a batch of B inputs against B forwards of one,
    stacked: bitwise, as evaluation relies on. At L = 9 and 2, one GEMM
    over the whole batch's columns summed some outputs in another order
    than the per-entry products do."""

    @pytest.mark.parametrize("batch", [2, 8])
    @pytest.mark.parametrize("c_in, c_out, width, length", [
        (2, 32, 7, 64), (32, 32, 7, 64),   # the WAVE layers
        (2, 64, 5, 64), (64, 64, 5, 64),   # the TrainConfig layers
        (32, 32, 7, 9), (3, 4, 7, 2)],     # lengths one GEMM got wrong
        ids=["wave_in", "wave_mid", "paper_in", "paper_mid", "L9", "L2"])
    def test_bitwise_equal_to_stacked_single_forwards(
            self, batch, c_in, c_out, width, length):
        r = np.random.default_rng([batch, c_in, c_out, width, length])
        h = r.standard_normal((batch, c_in, length))
        k = Tensor(r.standard_normal((c_out, c_in, width)))
        b = Tensor(r.standard_normal(c_out))
        got = ad.conv_block(Tensor(h), k, b).data
        want = np.stack([ad.conv_block(Tensor(h[i:i + 1]), k, b).data[0]
                         for i in range(batch)])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestIm2colAlignment:
    """Every array `_im2col_arrays` hands `_conv` starts on a cache line
    (64 bytes), where OpenBLAS's small-matrix kernel reads the columns
    fastest."""

    @pytest.mark.parametrize("batch, c_in, length, width", [
        (8, 2, 64, 7), (8, 32, 64, 7),       # 8-view WAVE layers (extract)
        (16, 2, 64, 7), (16, 32, 64, 7),     # 16-view WAVE layers (a step)
        (16, 2, 64, 5), (16, 64, 64, 5),     # the TrainConfig layers
        (1, 3, 2, 7)],                       # kernel past both ends
        ids=["wave8_in", "wave8_mid", "wave16_in", "wave16_mid", "paper_in",
             "paper_mid", "L2_W7"])
    def test_arrays_start_on_a_cache_line(self, batch, c_in, length, width):
        ad._im2col_arrays.cache_clear()
        arrays = ad._im2col_arrays(batch, c_in, length, width)
        for a in arrays:
            assert a.ctypes.data % 64 == 0


class TestConstantOperands:
    """An op whose other operand is a constant hands that constant no
    gradient and the graph operand the gradient it always had."""

    @pytest.mark.parametrize("op, const_first, expected", [
        ("mul", True, lambda g, c, x: g * c),
        ("mul", False, lambda g, c, x: g * c),
        ("div", True, lambda g, c, x: -g * c / (x * x)),
        ("div", False, lambda g, c, x: g / c),
        ("add", True, lambda g, c, x: g),
        ("add", False, lambda g, c, x: g),
        ("sub", True, lambda g, c, x: -g),
        ("sub", False, lambda g, c, x: g),
    ])
    def test_elementwise(self, rng, op, const_first, expected):
        c = Tensor(rng.standard_normal((3, 4)))
        x = leaf(rng, 3, 4)
        g = rng.standard_normal((3, 4))
        fn = getattr(ad, op)
        out = fn(c, x) if const_first else fn(x, c)
        assert out._backward_fn(g)[0 if const_first else 1] is None
        x.zero_grad()
        ad.sum_axis(out * Tensor(g)).backward()
        np.testing.assert_array_equal(x.grad, expected(g, c.data, x.data))
        assert c.grad is None

    @pytest.mark.parametrize("const_first", [True, False])
    def test_matmul(self, rng, const_first):
        c = Tensor(rng.standard_normal((5, 3) if const_first else (3, 2)))
        w = leaf(rng, *((3, 2) if const_first else (5, 3)))
        g = rng.standard_normal((5, 2))
        out = c @ w if const_first else w @ c
        assert out._backward_fn(g)[0 if const_first else 1] is None
        w.zero_grad()
        ad.sum_axis(out * Tensor(g)).backward()
        np.testing.assert_array_equal(
            w.grad, c.data.T @ g if const_first else g @ c.data.T)
        assert c.grad is None


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10_000))
def test_hypothesis_gradcheck_chain(n, m, seed):
    r = np.random.default_rng(seed)
    x = Tensor(r.standard_normal((n, m)), requires_grad=True)

    def build():
        return ad.mean_axis(ad.softplus(x) * ad.exp(x * 0.1))

    check_grads(build, [x])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_hypothesis_forward_finite(seed):
    r = np.random.default_rng(seed)
    x = Tensor(r.standard_normal((3, 5)) * 5.0)
    out = ad.softplus(relu(x) - ad.exp(x * -1.0))
    assert np.all(np.isfinite(out.data))
