"""Tests for the reverse-mode engine, against finite-difference and symbolic oracles."""

import numpy as np
import pytest

from mcgan.autodiff import (
    DualTensor,
    NonFiniteError,
    Tape,
    backward,
    concat,
    grad_wrt_input,
    second_order_grad,
)


def central_diff(f, x, h=1e-5):
    """Gradient of a scalar function of a flat array by central differences."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        g.flat[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def random_mlp(rng, widths):
    return [
        (
            rng.uniform(-0.8, 0.8, size=(widths[i], widths[i + 1])),
            rng.uniform(-0.3, 0.3, size=widths[i + 1]),
        )
        for i in range(len(widths) - 1)
    ]


def mlp_scalar_on_tape(tape, layers, x_node, act="tanh"):
    """Sum of a tanh MLP's outputs, recorded on the tape."""
    h = x_node
    for k, (w, b) in enumerate(layers):
        h = h @ tape.const(w) + tape.const(b)
        if k < len(layers) - 1:
            h = h.tanh() if act == "tanh" else h.leaky_relu()
    return h.sum()


class TestFirstOrder:
    def test_square_at_three(self):
        tape = Tape()
        x = tape.leaf(np.array(3.0))
        y = (x * x).sum()
        g = backward(y)
        assert g[x.idx] == pytest.approx(6.0)

    def test_product_two_vars(self):
        tape = Tape()
        x = tape.leaf(np.array(2.0))
        y = tape.leaf(np.array(5.0))
        out = (x * y).sum()
        g = backward(out)
        assert g[x.idx] == pytest.approx(5.0)
        assert g[y.idx] == pytest.approx(2.0)

    def test_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        widths = [4, 6, 5, 1]
        layers = random_mlp(rng, widths)
        x0 = rng.uniform(-0.5, 0.5, size=4)

        tape = Tape()
        x = tape.leaf(x0)
        out = mlp_scalar_on_tape(tape, layers, x)
        g = backward(out)[x.idx]

        def f(v):
            t = Tape()
            return mlp_scalar_on_tape(t, layers, t.leaf(v)).value

        fd = central_diff(f, x0)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-9)

    def test_gradient_wrt_weights_matches_fd(self):
        rng = np.random.default_rng(11)
        layers = random_mlp(rng, [3, 4, 1])
        x0 = rng.uniform(-0.5, 0.5, size=3)

        tape = Tape()
        w0 = tape.leaf(layers[0][0])
        h = (tape.const(x0) @ w0 + tape.const(layers[0][1])).tanh()
        out = (h @ tape.const(layers[1][0]) + tape.const(layers[1][1])).sum()
        g = backward(out)[w0.idx]

        def f(wflat):
            w = wflat.reshape(layers[0][0].shape)
            t = Tape()
            hh = (t.const(x0) @ t.const(w) + t.const(layers[0][1])).tanh()
            return (hh @ t.const(layers[1][0]) + t.const(layers[1][1])).sum().value

        fd = central_diff(f, layers[0][0].ravel()).reshape(g.shape)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-9)

    def test_unmarked_leaves_skipped(self):
        tape = Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        c = tape.const(np.array([3.0, 4.0]))
        out = (x * c).sum()
        g = backward(out)
        assert set(g) == {x.idx}

    def test_non_scalar_output_rejected(self):
        tape = Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            backward(x * x)

    def test_nan_in_op_rejected(self):
        tape = Tape()
        x = tape.leaf(np.array([1e200]))
        with pytest.raises(NonFiniteError):
            x.square()

    def test_batched_ops_and_slicing(self):
        rng = np.random.default_rng(3)
        a0 = rng.normal(size=(5, 4))
        tape = Tape()
        a = tape.leaf(a0)
        left = a.slice(0, 2)
        right = a.slice(2, 4)
        out = (concat([left.square(), right]).l2norm(axis=1)).sum()
        g = backward(out)[a.idx]

        def f(flat):
            m = flat.reshape(5, 4)
            t = Tape()
            n = t.leaf(m)
            return (
                concat([n.slice(0, 2).square(), n.slice(2, 4)]).l2norm(axis=1).sum()
            ).value

        fd = central_diff(f, a0.ravel()).reshape(5, 4)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-9)


class TestTapeInvariants:
    def test_replay_is_bit_exact(self):
        rng = np.random.default_rng(21)
        layers = random_mlp(rng, [3, 5, 2])
        tape = Tape()
        x = tape.leaf(rng.normal(size=3))
        out = mlp_scalar_on_tape(tape, layers, x)
        d = grad_wrt_input(out, x)
        (d.square().sum()).scale(0.5)
        replayed = tape.replay()
        for rec, val in zip(tape.records, replayed):
            assert np.array_equal(rec.value, val)

    def test_parents_precede_children(self):
        tape = Tape()
        x = tape.leaf(np.arange(3.0))
        y = (x.tanh() * x).sum()
        for i, rec in enumerate(tape.records):
            assert all(p < i for p in rec.parents)
        assert y.value.shape == ()

    def test_adjoint_linearity(self):
        rng = np.random.default_rng(13)
        x0 = rng.normal(size=4)
        a, b = 2.5, -1.25

        def parts(v):
            t = Tape()
            n = t.leaf(v)
            f = (n.tanh()).sum()
            g = (n.square()).sum()
            return t, n, f, g

        t, n, f, g = parts(x0)
        combo = f.scale(a) + g.scale(b)
        g_combo = backward(combo)[n.idx]
        t1, n1, f1, _ = parts(x0)
        t2, n2, _, g2 = parts(x0)
        expected = a * backward(f1)[n1.idx] + b * backward(g2)[n2.idx]
        np.testing.assert_allclose(g_combo, expected, rtol=1e-12, atol=1e-15)


class TestGradAsNode:
    def test_linear_map_gradient_is_coefficients(self):
        a = np.array([0.5, -2.0, 3.0])
        tape = Tape()
        x = tape.leaf(np.array([1.0, 1.0, 1.0]))
        out = (x * tape.const(a)).sum()
        g = grad_wrt_input(out, x)
        np.testing.assert_allclose(g.value, a, rtol=0, atol=0)

    def test_half_square_norm_gradient_is_identity(self):
        x0 = np.array([1.5, -0.5, 2.0])
        tape = Tape()
        x = tape.leaf(x0)
        out = x.square().sum().scale(0.5)
        g = grad_wrt_input(out, x)
        np.testing.assert_allclose(g.value, x0, rtol=0, atol=0)

    def test_agrees_with_backward(self):
        rng = np.random.default_rng(31)
        layers = random_mlp(rng, [4, 5, 1])
        x0 = rng.normal(size=4) * 0.5
        tape = Tape()
        x = tape.leaf(x0)
        out = mlp_scalar_on_tape(tape, layers, x)
        g_node = grad_wrt_input(out, x)
        g_back = backward(out)[x.idx]
        np.testing.assert_allclose(g_node.value, g_back, rtol=1e-14, atol=1e-16)

    def test_gradient_through_gradient_node(self):
        # out = c . grad(sum x^3) = sum 3 c x^2, whose gradient is 6 c x
        x0 = np.array([0.5, -1.5, 2.0])
        c = np.array([1.0, 2.0, -0.5])
        tape = Tape()
        x = tape.leaf(x0)
        g = grad_wrt_input((x * x * x).sum(), x)
        out = (g * tape.const(c)).sum()
        np.testing.assert_allclose(grad_wrt_input(out, x).value, 6.0 * c * x0, rtol=1e-14)
        np.testing.assert_allclose(backward(out)[x.idx], 6.0 * c * x0, rtol=1e-14)

    def test_input_not_on_tape_rejected(self):
        tape = Tape()
        x = tape.leaf(np.array([1.0]))
        out = x.square().sum()
        other = Tape().leaf(np.array([1.0]))
        with pytest.raises(ValueError):
            grad_wrt_input(out, other)


class TestSecondOrder:
    def test_linear_discriminator_penalty(self):
        # D(x) = w.x, penalty = (|w| - 1)^2 -> d/dw = 2(|w|-1) sign(w), per coord
        w0 = np.array([1.5])
        x0 = np.array([0.7])
        tape = Tape()
        w = tape.leaf(w0)
        x = tape.leaf(x0)
        out = (w * x).sum()
        g = grad_wrt_input(out, x)
        penalty = (g.l2norm() + tape.const(-1.0)).square().sum()
        dw = second_order_grad(penalty, [w])[w.idx]
        expected = 2 * (abs(w0[0]) - 1) * np.sign(w0[0])
        np.testing.assert_allclose(dw, [expected], rtol=1e-12)

    def test_quadratic_discriminator_symbolic(self):
        # D(x) = 0.5 w x^2, grad_x D = w x; at x=2: penalty = (2|w| - 1)^2
        # d penalty / dw = 2(2|w| - 1) * 2 sign(w)   [symbolic oracle]
        w0, x0 = 0.8, 2.0
        tape = Tape()
        w = tape.leaf(np.array(w0))
        x = tape.leaf(np.array(x0))
        out = (w * x * x).sum().scale(0.5)
        g = grad_wrt_input(out, x)
        penalty = (g.l2norm() + tape.const(-1.0)).square().sum()
        dw = second_order_grad(penalty, [w])[w.idx]
        expected = 2 * (2 * abs(w0) - 1) * 2 * np.sign(w0)
        np.testing.assert_allclose(dw, expected, rtol=1e-12)

    def test_quadratic_penalty_exact(self):
        # penalty quadratic in w: p = |grad_x (w.x)|^2 = |w|^2, dp/dw = 2w, exact
        rng = np.random.default_rng(2)
        w0 = rng.normal(size=5)
        tape = Tape()
        w = tape.leaf(w0)
        x = tape.leaf(np.zeros(5))
        out = (w * x).sum()
        g = grad_wrt_input(out, x)
        penalty = g.square().sum()
        dw = second_order_grad(penalty, [w])[w.idx]
        np.testing.assert_allclose(dw, 2 * w0, rtol=1e-12, atol=1e-12)

    def test_mlp_penalty_matches_fd(self):
        rng = np.random.default_rng(17)
        widths = [3, 4, 1]
        layers = random_mlp(rng, widths)
        x0 = rng.normal(size=3) * 0.5

        def penalty_of(layers_):
            tape = Tape()
            ws = [tape.leaf(w) for w, _ in layers_]
            bs = [tape.leaf(b) for _, b in layers_]
            x = tape.leaf(x0)
            h = x
            for k in range(len(ws)):
                h = h @ ws[k] + bs[k]
                if k < len(ws) - 1:
                    h = h.tanh()
            out = h.sum()
            g = grad_wrt_input(out, x)
            pen = (g.l2norm() + tape.const(-1.0)).square().sum()
            return tape, ws, bs, pen

        tape, ws, bs, pen = penalty_of(layers)
        grads = second_order_grad(pen, ws + bs)

        # finite differences of the penalty value over every parameter
        def value(layers_):
            _, _, _, p = penalty_of(layers_)
            return p.value

        for li, (w0_, b0_) in enumerate(layers):
            def f_w(flat, li=li):
                pert = [
                    (w.copy(), b.copy()) for w, b in layers
                ]
                pert[li] = (flat.reshape(pert[li][0].shape), pert[li][1])
                return value(pert)

            fd = central_diff(f_w, w0_.ravel()).reshape(w0_.shape)
            np.testing.assert_allclose(
                grads[ws[li].idx], fd, rtol=1e-4, atol=1e-7
            )

    def test_requires_grad_node(self):
        tape = Tape()
        w = tape.leaf(np.array([1.0]))
        loss = w.square().sum()
        with pytest.raises(ValueError):
            second_order_grad(loss, [w])


class TestDualTensor:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DualTensor(np.zeros(3), np.zeros(4))

    def test_dual_arithmetic_derivative(self):
        # d/dt [ (x + t)^2 ] at t=0 is 2x: seed tangent 1
        x = np.array([1.0, -2.0])
        d = DualTensor(x, np.ones(2))
        y = d * d
        np.testing.assert_allclose(y.tangent, 2 * x)
