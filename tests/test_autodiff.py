"""Tests for the reverse-mode tape: values, gradients, and tape lifecycle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listalign import autodiff as ad
from listalign.errors import DegenerateInput, StaleTape


def fd_grad(f, x, h=1e-6):
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * h)
    return g


def check_grad(build, x0, rtol=1e-6):
    """build(Var) -> scalar Var; compares tape gradient to finite differences."""
    p = ad.param(x0.copy())
    with ad.Tape() as tape:
        loss = build(p)
    grads = ad.backward(tape, loss)
    analytic = grads[id(p)]

    def eval_loss(x):
        return float(build(ad.constant(x)).value)

    numeric = fd_grad(eval_loss, x0.copy())
    scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    assert np.linalg.norm(analytic - numeric) / scale < rtol


def node_grads(out, g=None):
    """The (parent, gradient) pairs out's recorded node gives for the output
    gradient g (ones by default), or None when out is not a recorded node."""
    if out._grad_fns is None:
        return None
    g = np.ones_like(out.value) if g is None else g
    return [(parent, grad_fn(g)) for parent, grad_fn in out._grad_fns]


# (left, right) shapes for each matmul path: activations @ weight, 2-D @ 2-D,
# attention's stacked products, and a 2-D left operand broadcast over a stack.
MATMUL_CASES = [((3, 5, 4), (4, 6)), ((6, 4), (4, 3)), ((2, 3, 5, 4), (2, 3, 4, 5)), ((5, 4), (3, 4, 2))]
MATMUL_IDS = ["3d-at-2d", "2d-at-2d", "4d-stacked", "2d-at-3d"]


class TestValues:
    def test_ops_match_numpy(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        va, vb = ad.constant(a), ad.constant(b)
        np.testing.assert_array_equal((va + vb).value, a + b)
        np.testing.assert_array_equal((va * vb).value, a * b)
        np.testing.assert_array_equal((va - vb).value, a - b)
        np.testing.assert_array_equal((va / (vb + 10.0)).value, a / (b + 10.0))
        np.testing.assert_array_equal(ad.exp(va).value, np.exp(a))
        np.testing.assert_array_equal(va.sum(axis=1).value, a.sum(axis=1))

    def test_matmul_batched(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(2, 5, 3, 4)), rng.normal(size=(2, 5, 4, 6))
        out = ad.matmul(ad.constant(a), ad.constant(b))
        np.testing.assert_allclose(out.value, a @ b)

    def test_matmul_rows_independent_of_batch(self):
        '''A row's product has the same bits alone, in any sub-batch or tile slot.'''
        rng = np.random.default_rng(12)
        a, w = rng.normal(size=(70, 33)), rng.normal(size=(33, 17))
        full = ad.matmul(ad.constant(a), ad.constant(w)).value
        np.testing.assert_allclose(full, a @ w, rtol=1e-12)
        for i in range(70):
            np.testing.assert_array_equal(ad.matmul(ad.constant(a[i : i + 1]), w).value, full[i : i + 1])
        stacked = ad.matmul(ad.constant(a[5:50].reshape(3, 15, 33)), w).value
        np.testing.assert_array_equal(stacked, full[5:50].reshape(3, 15, 17))

    def test_log_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 7)) * 50  # large values: needs the stable path
        ls = ad.log_softmax(ad.constant(x), axis=1)
        np.testing.assert_allclose(np.exp(ls.value).sum(axis=1), np.ones(4), rtol=1e-12)

    def test_log_sigmoid_extreme_inputs_finite(self):
        x = np.array([-1000.0, -10.0, 0.0, 10.0, 1000.0])
        out = ad.log_sigmoid(ad.constant(x)).value
        assert np.isfinite(out).all()
        assert out[2] == pytest.approx(np.log(0.5))

    def test_logsumexp_with_minus_inf_entries(self):
        x = np.array([[0.0, -np.inf], [1.0, 1.0]])
        out = ad.logsumexp(ad.constant(x), axis=1)
        np.testing.assert_allclose(out.value, [0.0, 1.0 + np.log(2.0)])


class TestGradients:
    def test_elementwise_chain(self):
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=(5, 3))
        check_grad(lambda p: (ad.exp(p) * 0.3 + ad.tanh(p)).sum(), x0)

    def test_matmul_both_sides(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(4, 3))
        x0 = rng.normal(size=(6, 4))
        check_grad(lambda p: (p @ ad.constant(w)).sum(), x0)
        x_const = rng.normal(size=(6, 4))
        check_grad(lambda p: (ad.constant(x_const) @ p).sum(), rng.normal(size=(4, 2)))

    @pytest.mark.parametrize("a_shape, b_shape", MATMUL_CASES, ids=MATMUL_IDS)
    def test_matmul_paths(self, a_shape, b_shape):
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
        mix = ad.constant(rng.normal(size=np.matmul(a, b).shape))  # every output matters
        check_grad(lambda p: ((p @ ad.constant(b)) * mix).sum(), a)
        check_grad(lambda p: ((ad.constant(a) @ p) * mix).sum(), b)

    @pytest.mark.parametrize("a_shape, b_shape", MATMUL_CASES, ids=MATMUL_IDS)
    def test_matmul_constant_operand_gets_no_gradient(self, a_shape, b_shape):
        rng = np.random.default_rng(13)
        a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
        for left, right in ((ad.constant(a), ad.param(b)), (ad.param(a), ad.constant(b))):
            live = left if left.requires_grad else right
            frozen = right if left.requires_grad else left
            with ad.Tape() as tape:
                out = left @ right
                loss = out.sum()
            pairs = node_grads(out)
            assert [p is live for p, _ in pairs] == [True]
            assert pairs[0][1].shape == live.shape
            grads = ad.backward(tape, loss)
            assert id(live) in grads
            assert id(frozen) not in grads

    def test_broadcast_add_and_mul(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5, 4))
        check_grad(lambda p: (ad.constant(x) + p).sum(), rng.normal(size=(4,)).reshape(1, 4))
        check_grad(lambda p: (ad.constant(x) * p).sum(), rng.normal(size=(1, 4)))

    def test_gelu(self):
        rng = np.random.default_rng(6)
        check_grad(lambda p: ad.gelu(p).sum(), rng.normal(size=(8, 3)) * 2)

    def test_log_sigmoid(self):
        rng = np.random.default_rng(7)
        check_grad(lambda p: ad.log_sigmoid(p).sum(), rng.normal(size=(9,)).reshape(1, 9) * 3)

    def test_log_softmax(self):
        rng = np.random.default_rng(8)
        x0 = rng.normal(size=(4, 5))
        w = np.eye(4, 5)
        check_grad(lambda p: (ad.log_softmax(p, axis=1) * ad.constant(w)).sum(), x0)

    def test_getitem_advanced_indexing(self):
        rng = np.random.default_rng(9)
        x0 = rng.normal(size=(6, 3))
        idx = (np.array([0, 2, 2]), np.array([1, 0, 2]))  # repeated element
        check_grad(lambda p: (p[idx] * np.array([1.0, 2.0, 3.0])).sum(), x0)

    # (source shape, distinct flat row indices): every row, one row per listing
    # of a (4, 3) slot grid, and the real slots of a 3-D padded source; getitem
    # gathers rows of the two 2-D sources
    ROW_CASES = [
        ((6, 3), np.arange(6)),
        ((12, 2), np.array([2, 3, 7, 9])),
        ((4, 3, 2), np.array([0, 3, 4, 5, 6, 9, 10])),
    ]
    ROW_IDS = ["all-rows", "one-per-listing", "3d-source"]

    @pytest.mark.parametrize("shape, rows", ROW_CASES[:2], ids=ROW_IDS[:2])
    def test_getitem_rows(self, shape, rows):
        rng = np.random.default_rng(11)
        c = rng.normal(size=(len(rows), shape[-1]))
        check_grad(lambda p: (p[rows] * c).sum(), rng.normal(size=shape))

    @pytest.mark.parametrize("shape, rows", ROW_CASES, ids=ROW_IDS)
    def test_put_rows(self, shape, rows):
        rng = np.random.default_rng(12)
        c = rng.normal(size=shape)
        x0 = rng.normal(size=(len(rows), shape[-1]))
        check_grad(lambda p: (ad.put_rows(p, rows, shape) * c).sum(), x0)

    def test_put_rows_fills_the_rest_with_zeros(self):
        x = np.arange(6.0).reshape(3, 2)
        out = ad.put_rows(ad.constant(x), np.array([1, 2, 4]), (2, 3, 2)).value
        expected = np.zeros((6, 2))
        expected[[1, 2, 4]] = x
        np.testing.assert_array_equal(out, expected.reshape(2, 3, 2))
        np.testing.assert_array_equal(ad.constant(out).reshape(6, 2)[np.array([1, 2, 4])].value, x)

    def test_reshape_transpose_mean(self):
        rng = np.random.default_rng(10)
        x0 = rng.normal(size=(4, 6))
        check_grad(
            lambda p: ad.transpose(p.reshape(4, 3, 2), (1, 0, 2)).mean(axis=(0, 1)).sum(), x0
        )

    def test_fan_out_accumulates(self):
        '''A value consumed twice gets the sum of both branch gradients.'''
        x0 = np.array([[2.0, -1.0]])
        p = ad.param(x0.copy())
        with ad.Tape() as tape:
            y = p * p + p * 3.0
            loss = y.sum()
        g = ad.backward(tape, loss)[id(p)]
        np.testing.assert_allclose(g, 2 * x0 + 3.0)

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=5),
        cols=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_property_random_expression_grads(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=(rows, cols))
        c = rng.normal(size=(rows, cols))

        def build(p):
            y = ad.tanh(p * ad.constant(c)) + ad.exp(p * 0.1)
            return (y * y).mean()

        check_grad(build, x0, rtol=1e-5)


def composite_logsumexp(a, axis):
    """logsumexp from primitive tape nodes, keepdims, the row max held constant."""
    m = np.max(a.value, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return ad.log(ad.exp(a - m).sum(axis=axis, keepdims=True)) + m


def composite_layer_norm(x, g, b, eps):
    """The layer norm as nine primitive tape nodes."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc / ad.sqrt(var + eps) * g + b


# (listings, slots, heads, head width) and the flat real slots: one listing
# holds a single real slot, one is full, one is half full
HEAD_SHAPE = (3, 4, 2, 3)
HEAD_ROWS = np.array([0, 4, 5, 6, 7, 8, 9])
HEAD_AXES = [(0, 2, 1, 3), (0, 2, 3, 1)]


def masked_scores(rng):
    """(4, 5) scores with -inf entries, one row holding a single finite entry."""
    mask = np.zeros((4, 5))
    mask[1, [0, 3]] = -np.inf
    mask[2, 1:] = -np.inf
    return rng.normal(size=(4, 5)) * 3, mask


class TestFusedOps:
    """Each fused op: its forward has the composite's bits, its backward matches
    finite differences."""

    def test_linear_value_is_matmul_plus_bias(self):
        rng = np.random.default_rng(20)
        for x in (rng.normal(size=(13, 5)), rng.normal(size=(2, 7, 5))):
            w, b = ad.constant(rng.normal(size=(5, 4))), ad.constant(rng.normal(size=(4,)))
            np.testing.assert_array_equal(ad.linear(x, w, b).value, (ad.constant(x) @ w + b).value)

    @pytest.mark.parametrize("live", [0, 1, 2], ids=["x", "w", "b"])
    def test_linear_grads_with_the_other_operands_frozen(self, live):
        rng = np.random.default_rng(21)
        operands = [rng.normal(size=(11, 5)), rng.normal(size=(5, 4)), rng.normal(size=(4,))]
        mix = rng.normal(size=(11, 4))

        def build(p):
            args = [p if i == live else ad.constant(v) for i, v in enumerate(operands)]
            return (ad.linear(*args) * mix).sum()

        check_grad(build, operands[live])
        p = ad.param(operands[live])
        with ad.Tape() as tape:
            loss = build(p)
        assert list(ad.backward(tape, loss)) == [id(p)]

    def test_layer_norm_value_is_the_composite(self):
        rng = np.random.default_rng(22)
        x, g, b = rng.normal(size=(3, 4, 6)) * 5, rng.normal(size=(6,)), rng.normal(size=(6,))
        np.testing.assert_array_equal(
            ad.layer_norm(x, g, b, 1e-5).value,
            composite_layer_norm(ad.constant(x), g, b, 1e-5).value,
        )

    @pytest.mark.parametrize("live", [0, 1, 2], ids=["x", "gain", "bias"])
    def test_layer_norm_grads_with_broadcast_gain_and_bias(self, live):
        rng = np.random.default_rng(23)
        operands = [rng.normal(size=(3, 4, 6)) * 2, rng.normal(size=(6,)), rng.normal(size=(6,))]
        mix = rng.normal(size=(3, 4, 6))

        def build(p):
            args = [p if i == live else ad.constant(v) for i, v in enumerate(operands)]
            return (ad.layer_norm(*args, 1e-5) * mix).sum()

        check_grad(build, operands[live])

    def test_softmax_family_values_are_the_composites(self):
        x, mask = masked_scores(np.random.default_rng(24))
        a = ad.constant(x + mask)
        for axis in (0, 1):
            ref = a - composite_logsumexp(a, axis)
            np.testing.assert_array_equal(ad.log_softmax(a, axis).value, ref.value)
            np.testing.assert_array_equal(ad.softmax(a, axis).value, ad.exp(ref).value)
            np.testing.assert_array_equal(ad.logsumexp(a, axis, keepdims=True).value,
                                          composite_logsumexp(a, axis).value)
        np.testing.assert_array_equal(ad.softmax(a, 1).value[2], [1.0, 0.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("op", ["softmax", "log_softmax", "logsumexp"])
    def test_softmax_family_grads_with_masked_entries(self, op):
        rng = np.random.default_rng(25)
        x0, mask = masked_scores(rng)
        fn = getattr(ad, op)
        # log_softmax is -inf at masked entries: weigh the finite outputs only
        finite = np.nonzero(np.isfinite(mask)) if op != "logsumexp" else slice(None)
        for axis in (0, 1):
            mix = rng.normal(size=fn(x0 + mask, axis).value[finite].shape)
            check_grad(lambda p: (fn(p + ad.constant(mask), axis)[finite] * mix).sum(), x0)

    @pytest.mark.parametrize("axes", HEAD_AXES, ids=["heads", "heads-transposed"])
    def test_split_heads_is_put_rows_reshape_transpose(self, axes):
        rng = np.random.default_rng(26)
        B, P, H, dh = HEAD_SHAPE
        x0 = rng.normal(size=(len(HEAD_ROWS), H * dh))
        composite = ad.transpose(ad.put_rows(x0, HEAD_ROWS, (B, P, H * dh)).reshape(B, P, H, dh), axes)
        fused = ad.split_heads(x0, HEAD_ROWS, HEAD_SHAPE, axes)
        np.testing.assert_array_equal(fused.value, composite.value)
        assert fused.value.strides == composite.value.strides
        mix = rng.normal(size=fused.shape)
        check_grad(lambda p: (ad.split_heads(p, HEAD_ROWS, HEAD_SHAPE, axes) * mix).sum(), x0)

    def test_merge_heads_is_transpose_reshape_take_rows(self):
        rng = np.random.default_rng(27)
        B, P, H, dh = HEAD_SHAPE
        x0 = rng.normal(size=(B, H, P, dh))
        composite = ad.transpose(ad.constant(x0), (0, 2, 1, 3)).reshape(B * P, H * dh)[HEAD_ROWS]
        np.testing.assert_array_equal(ad.merge_heads(x0, HEAD_ROWS).value, composite.value)
        mix = rng.normal(size=(len(HEAD_ROWS), H * dh))
        check_grad(lambda p: (ad.merge_heads(p, HEAD_ROWS) * mix).sum(), x0)

    def test_gelu_value_is_the_tanh_form(self):
        x = np.random.default_rng(28).normal(size=(7, 5)) * 3
        c = np.sqrt(2.0 / np.pi)
        np.testing.assert_array_equal(
            ad.gelu(x).value, 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x * x * x))))

    def test_gelu_backward_is_the_derivative_expression(self):
        rng = np.random.default_rng(29)
        extremes = [-1e5, -40.0, -8.0, -0.0, 0.0, 8.0, 40.0, 1e5]
        x = np.concatenate([rng.normal(size=30) * 3, extremes])
        g = rng.normal(size=x.shape)
        with ad.Tape():
            out = ad.gelu(ad.param(x))
        ((_, got),) = node_grads(out, g)
        c = np.sqrt(2.0 / np.pi)
        t = np.tanh(c * (x + 0.044715 * x * x * x))
        d_inner = c * (1.0 + 3.0 * 0.044715 * x * x)
        want = g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner)
        assert got.tobytes() == want.tobytes()

    def test_softmax_backward_is_the_composite_expression(self):
        rng = np.random.default_rng(30)
        x0, mask = masked_scores(rng)
        for axis in (0, 1):
            with ad.Tape():
                out = ad.softmax(ad.param(x0 + mask), axis)
            g = rng.normal(size=x0.shape)
            ((_, got),) = node_grads(out, g)
            s = out.value
            assert got.tobytes() == (s * (g - (g * s).sum(axis=axis, keepdims=True))).tobytes()

    def test_row_max_with_partly_and_fully_masked_rows(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(5, 4, 8, 8)) * 3
        x[..., 6:] = -np.inf
        x[1, 2] = -np.inf  # eight rows with no finite entry
        x[3, :, 4, :] = -np.inf
        with np.errstate(divide="ignore"):
            for axis in (-1, 0, 2):
                got = ad.logsumexp(x, axis, keepdims=True).value
                want = composite_logsumexp(ad.constant(x), axis).value
                assert np.isneginf(got).any()
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(6, 3, 4), (6, 6), (6,), (0, 2)])
    def test_row_gather_backward_is_add_at(self, shape):
        rng = np.random.default_rng(33)
        n = shape[0]
        rows = rng.integers(-n, n, size=40) if n else np.zeros(0, int)
        keys = [rows, slice(1, None, 2)]
        if len(shape) > 1:  # compute_loss's diagonal, and a pair that repeats entries
            keys += [(np.arange(n), np.arange(n) % shape[1]), (rows, rows % shape[1])]
        for key in keys:
            x = rng.normal(size=shape)
            g_shape = x[key].shape
            g = rng.normal(size=g_shape) * 10.0 ** rng.integers(-8, 8, size=g_shape)
            with ad.Tape():
                out = ad.getitem(ad.param(x), key)
            ((_, got),) = node_grads(out, g)
            want = np.zeros(shape)
            np.add.at(want, key, g)
            assert got.tobytes() == want.tobytes(), key

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "matmul-stacked", "linear", "layer_norm"])
    def test_binary_op_constant_operand_gets_no_gradient(self, op):
        rng = np.random.default_rng(32)
        x, c = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 1, 4)) + 3.0
        g = rng.normal(size=(3, 2, 4))
        y, w, b, gain, shift = (rng.normal(size=s) for s in ((3, 4, 5), (4, 5), (5,), (4,), (4,)))
        g5 = rng.normal(size=(3, 2, 5))
        binary = [((x, c), (0,)), ((c, x), (1,))]
        # (operand values, live operand indices) trials, the output gradient,
        # and each operand's gradient written out as the op's expression
        trials, g, expected, build = {
            "add": (binary, g, lambda a, b: (g, g), ad.add),
            "sub": (binary, g, lambda a, b: (g, -g), ad.sub),
            "mul": (binary, g, lambda a, b: (g * b, g * a), ad.mul),
            "div": (binary, g, lambda a, b: (g / b, -g * a / (b * b)), ad.div),
            "matmul-stacked": (
                [((x, y), (0,)), ((x, y), (1,))], g5,
                lambda a, b: (g5 @ np.swapaxes(b, -1, -2), np.swapaxes(a, -1, -2) @ g5), ad.matmul),
            "linear": (  # a constant input, then a constant bias
                [((x, w, b), (1, 2)), ((x, w, b), (0, 1))], g5,
                lambda x, w, b: (g5 @ w.T, x.reshape(-1, 4).T @ g5.reshape(-1, 5),
                                 g5.reshape(-1, 5).sum(axis=0)), ad.linear),
            "layer_norm": (  # a constant gain and bias
                [((x, gain, shift), (0,))], g, lambda x, gn, bn: (layer_norm_x_grad(x, gn, g, 1e-5),),
                lambda x, gn, bn: ad.layer_norm(x, gn, bn, 1e-5)),
        }[op]
        for values, live in trials:
            operands = [ad.param(v) if i in live else ad.constant(v) for i, v in enumerate(values)]
            with ad.Tape():
                out = build(*operands)
            pairs = node_grads(out, g)
            assert [id(p) for p, _ in pairs] == [id(operands[i]) for i in live]
            want = expected(*values)
            for (_, got), i in zip(pairs, live):
                assert got.tobytes() == want[i].tobytes()


def layer_norm_x_grad(x, gain, gy, eps):
    """layer_norm's input gradient in the operation order of its backward."""
    xc = x - x.mean(axis=-1, keepdims=True)
    std = np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc / std
    d = gy * gain
    proj = (d * xhat).mean(axis=-1, keepdims=True)
    d = d - d.mean(axis=-1, keepdims=True)
    d = d - xhat * proj
    return d / std


class TestTapeLifecycle:
    def test_second_backward_raises_stale_tape(self):
        p = ad.param(np.ones(3).reshape(1, 3))
        with ad.Tape() as tape:
            loss = (p * p).sum()
        ad.backward(tape, loss)
        with pytest.raises(StaleTape):
            ad.backward(tape, loss)

    def test_reentering_consumed_tape_raises(self):
        p = ad.param(np.ones(2).reshape(1, 2))
        with ad.Tape() as tape:
            loss = p.sum()
        ad.backward(tape, loss)
        with pytest.raises(StaleTape):
            with tape:
                pass

    def test_tape_reentry_before_backward_allowed(self):
        p = ad.param(np.ones(2).reshape(1, 2))
        tape = ad.Tape()
        with tape:
            y = p * 2.0
        with tape:
            loss = y.sum()
        g = ad.backward(tape, loss)[id(p)]
        np.testing.assert_allclose(g, np.full((1, 2), 2.0))

    def test_frozen_leaf_gets_no_entry(self):
        frozen = ad.constant(np.ones(3).reshape(1, 3))
        live = ad.param(np.ones(3).reshape(1, 3))
        with ad.Tape() as tape:
            loss = (frozen * live).sum()
        grads = ad.backward(tape, loss)
        assert id(live) in grads
        assert id(frozen) not in grads

    def test_requires_grad_is_read_when_a_node_is_recorded(self):
        frozen_before, frozen_after = ad.param(np.ones((1, 3))), ad.param(np.full((1, 3), 2.0))
        frozen_before.requires_grad = False
        with ad.Tape() as tape:
            loss = (frozen_before * frozen_after).sum()
        frozen_after.requires_grad = False
        grads = ad.backward(tape, loss)
        assert set(grads) == {id(frozen_after)}
        np.testing.assert_array_equal(grads[id(frozen_after)], np.ones((1, 3)))

    def test_no_recording_without_active_tape(self):
        p = ad.param(np.ones(4).reshape(2, 2))
        tape = ad.Tape()
        with tape:
            pass
        y = (p * p).sum()  # outside: computes the value, records nothing
        assert float(y.value) == 4.0
        assert len(tape) == 0

    def test_no_graph_outside_a_tape(self):
        '''Without a tape an op keeps no closure (so no graph); inside one it does.'''
        p = ad.param(np.ones((2, 2)))
        for y in (p * p, p[np.array([1])], ad.gelu(p) @ p):
            assert not y.requires_grad
            assert node_grads(y) is None
        with ad.Tape() as tape:
            y = p * p
            loss = (y[np.array([0, 1])] @ p).sum()
        assert node_grads(y) is not None
        assert set(ad.backward(tape, loss)) == {id(p)}

    def test_non_scalar_root_rejected(self):
        p = ad.param(np.ones((2, 2)))
        with ad.Tape() as tape:
            y = p * 2.0
        with pytest.raises(DegenerateInput):
            ad.backward(tape, y)
