import sys
import threading
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vsrkit import autodiff as ad
from vsrkit.autodiff import (
    AutodiffError,
    Tensor,
    backward,
    central_difference,
    finite_difference_check,
    grad_of,
    trace,
)
from vsrkit.verify import gradient_suite

from scalarize import weighted_sum


def check_primitive(make_scalar, shape, rng, cases=100, tol=1e-6):
    worst = 0.0
    for _ in range(cases):
        x = rng.normal(size=shape)
        leaf = Tensor(x.copy())
        backward(make_scalar(leaf))
        analytic = grad_of(leaf)
        numeric = central_difference(lambda: make_scalar(Tensor(x)),
                                     x).reshape(x.shape)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
        worst = max(worst, float((np.abs(analytic - numeric) / denom).max()))
    assert worst < tol, worst


RNG = np.random.default_rng(20240607)

OTHER = RNG.normal(size=(3, 4))

PRIMITIVES = {
    "add": lambda x: weighted_sum(ad.add(x, OTHER), OTHER),
    "mul": lambda x: weighted_sum(ad.mul(x, OTHER), OTHER),
    "slice": lambda x: weighted_sum(x[1:, :2], OTHER[1:, :2]),
    "silu": lambda x: weighted_sum(ad.silu(x), OTHER),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_gradients_match_finite_differences(name):
    # crc32, unlike hash(), does not change with PYTHONHASHSEED
    check_primitive(PRIMITIVES[name], (3, 4),
                    np.random.default_rng(zlib.crc32(name.encode())))


def _probe(op, args, i, shape):
    """Scalar test function of argument ``i`` of ``op``: the other
    arguments stay fixed, and a fixed non-uniform weighting of the output
    keeps every output element in play."""
    weights = np.cos(np.arange(np.prod(shape)) + 0.5).reshape(shape)

    def f(x):
        full = list(args)
        full[i] = x
        return weighted_sum(op(*full), weights)
    return f, args[i].shape


X3 = RNG.normal(size=(2, 3, 4))
W45 = RNG.normal(size=(4, 5))
B5 = RNG.normal(size=5)
LN_SCALE = RNG.normal(size=4)
LN_BIAS = RNG.normal(size=4)
KV = RNG.normal(size=(2, 5, 4))
# every query keeps a key; the second utterance keeps only its first, so
# its rows pass no score gradient
KEY_MASK = np.arange(5)[None, None, :] >= np.array([2, 1])[:, None, None]
CAUSAL = np.triu(np.ones((3, 3), dtype=bool), k=1)
CONV_W = RNG.normal(size=(3, 4))
# ragged rows: the first utterance has 2 of 3 frames, the second all 3
ROWS = np.arange(3)[None, :] < np.array([2, 3])[:, None]


def _attention_with(mask):
    return lambda q, k, v: ad.attention(q, k, v, 2, mask)


FUSED = {}
for _name, _op, _args, _out in (
        ("linear", ad.linear, (X3, W45, B5), (2, 3, 5)),
        ("linear_nobias", ad.linear, (X3, W45), (2, 3, 5)),
        ("layer_norm", lambda x, s, b: ad.layer_norm(x, s, b, 1e-5),
         (X3, LN_SCALE, LN_BIAS), (2, 3, 4)),
        ("attention_key_mask", _attention_with(KEY_MASK), (X3, KV, KV),
         (2, 3, 4)),
        ("attention_causal", _attention_with(CAUSAL), (X3, X3, X3),
         (2, 3, 4)),
        ("depthwise_conv", ad.depthwise_conv, (X3, CONV_W), (2, 3, 4)),
        ("pack", lambda x: ad.pack(x, ROWS), (X3,), (5, 4)),
        ("unpack", lambda x: ad.unpack(x, ROWS), (X3[ROWS],), (2, 3, 4))):
    for _i in range(len(_args)):
        FUSED[f"{_name}[{_i}]"] = _probe(_op, _args, _i, _out)


@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_op_gradients_match_finite_differences(name):
    f, shape = FUSED[name]
    check_primitive(f, shape, np.random.default_rng(zlib.crc32(name.encode())),
                    cases=10)


def _padded_conv(x, w, g):
    """The zero-padded depthwise conv and its gradients, tap by tap in the
    same order as ``ad.depthwise_conv``: the reference its slicing keeps."""
    k, T, r = w.shape[0], x.shape[1], w.shape[0] // 2
    xp = np.pad(x, ((0, 0), (r, r), (0, 0)))
    out = xp[:, :T] * w[0]
    for i in range(1, k):
        out = out + xp[:, i:i + T] * w[i]
    gx = np.zeros_like(xp)
    for i in range(k):
        gx[:, i:i + T] += g * w[i]
    gw = np.stack([(g * xp[:, i:i + T]).sum(axis=(0, 1)) for i in range(k)])
    return out, gx[:, r:r + T], gw


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 9), st.sampled_from([1, 3, 5, 9]),
       st.integers(1, 5), st.integers(0, 2**32 - 1))
@example(B=1, T=2, k=9, C=3, seed=0)  # T < |tap offset| < 2T
def test_depthwise_conv_equals_the_zero_padded_reference(B, T, k, C, seed):
    # kernels wider than 2T + 1 included: some taps then read no frame. The
    # output and the input gradient add the same products in the same order;
    # the kernel gradient skips the zero products past the edges, which a
    # pairwise sum (C = 1) may round differently
    rng = np.random.default_rng(seed)
    x, w = Tensor(rng.normal(size=(B, T, C))), Tensor(rng.normal(size=(k, C)))
    g = rng.normal(size=(B, T, C))
    out = ad.depthwise_conv(x, w)
    backward(weighted_sum(out, g))
    ref_out, ref_gx, ref_gw = _padded_conv(x.data, w.data, g)
    assert np.array_equal(out.data, ref_out)
    assert np.array_equal(grad_of(x), ref_gx)
    assert np.allclose(grad_of(w), ref_gw, rtol=1e-13, atol=1e-13)


def test_inference_records_no_graph_and_backward_raises():
    x = Tensor(RNG.normal(size=3))
    with ad.inference():
        y = ad.mul(x, x)
        with np.errstate(invalid="ignore"):  # no per-node NaN check
            assert np.isnan(ad.mul(Tensor(np.array([np.inf])), 0.0).data)
        with pytest.raises(AutodiffError, match=r"weighted_sum #\d+ ran in inference"):
            backward(weighted_sum(y))
    assert y.parents == () and y._grad_fn is None
    with pytest.raises(AutodiffError, match=r"mul #\d+ ran in inference"):
        backward(weighted_sum(y))  # a recorded op on an unrecorded result


def test_inference_restores_recording_after_an_exception_and_nesting():
    x = Tensor(np.ones(2))
    with pytest.raises(KeyError):
        with ad.inference():
            raise KeyError("inside")
    assert ad.add(x, x).parents == (x, x)
    with ad.inference():
        with ad.inference():
            pass
        assert ad.add(x, x).parents == ()
    assert ad.add(x, x).parents == (x, x)


def test_inference_leaves_other_threads_recording():
    x, seen = Tensor(np.ones(2)), []
    with ad.inference():
        worker = threading.Thread(
            target=lambda: seen.append(ad.add(x, x).parents))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive() and seen == [(x, x)]


def test_shared_gradient_arrays_are_never_written_in_place():
    x, y = Tensor(RNG.normal(size=3)), Tensor(RNG.normal(size=3))
    w = RNG.normal(size=3)
    s = ad.add(x, y)  # hands one gradient array to both x and y
    backward(weighted_sum(ad.add(s, x), w))
    assert np.array_equal(grad_of(y), w)
    assert np.array_equal(grad_of(x), w + w)


def test_slice_gradient_accumulates_repeated_indices():
    x = Tensor(np.ones(3))
    backward(weighted_sum(x[np.array([0, 0, 2])]))
    assert np.array_equal(grad_of(x), [2.0, 0.0, 1.0])


def _sigmoid_reference(a):
    out = np.empty_like(a.data)
    pos = a.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    ez = np.exp(a.data[~pos])
    out[~pos] = ez / (1.0 + ez)
    return Tensor(out, (a,), lambda g: (g * out * (1.0 - out),), op="sigmoid")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3),
                  elements=st.floats(-100.0, 100.0)))
def test_silu_matches_the_sigmoid_composite(x):
    weights = np.cos(np.arange(x.size)).reshape(x.shape)
    fused, composite = Tensor(x.copy()), Tensor(x.copy())
    out = ad.silu(fused)
    ref = ad.mul(composite, _sigmoid_reference(composite))
    backward(weighted_sum(out, weights))
    backward(weighted_sum(ref, weights))
    for got, want in ((out.data, ref.data),
                      (grad_of(fused), grad_of(composite))):
        assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))


def test_silu_saturates_exactly_and_silently():
    x = np.array([-1e3, -745.5, -709.5, -40.0, 0.0, 40.0, 745.5, 1e3])
    leaf = Tensor(x.copy())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.silu(leaf)
        backward(weighted_sum(out))
    assert np.array_equal(out.data[:2], [0.0, 0.0])
    assert np.array_equal(out.data[-2:], x[-2:])
    assert np.array_equal(grad_of(leaf)[:2], [0.0, 0.0])
    assert np.array_equal(grad_of(leaf)[-2:], [1.0, 1.0])
    scalar = Tensor(np.float64(-2.0))  # a 0-d array is one element
    backward(ad.silu(scalar))
    assert grad_of(scalar).shape == ()


def _linear_reference(x, w, b=None):
    """``ad.linear`` before it skipped 2-D reshapes and took the bias
    gradient as a product with ones."""
    parents = tuple(ad.as_tensor(t) for t in (x, w, b) if t is not None)
    x, w = parents[:2]
    x2 = x.data.reshape(-1, x.data.shape[-1])
    out = x2 @ w.data
    if b is not None:
        out += parents[2].data

    def grad_fn(g):
        g2 = g.reshape(-1, g.shape[-1])
        return ((g2 @ w.data.T).reshape(x.data.shape), x2.T @ g2,
                g2.sum(axis=0))[:len(parents)]

    return Tensor(out.reshape(*x.data.shape[:-1], -1), parents, grad_fn,
                  op="linear")


def _attention_reference(q, k, v, heads, disallow=None):
    """``ad.attention`` before its softmax ran in place with row sums as
    products with ones."""
    q, k, v = ad.as_tensor(q), ad.as_tensor(k), ad.as_tensor(v)

    def split(a):
        return a.reshape(*a.shape[:-1], heads, -1).swapaxes(-2, -3)

    def merge(g, a):
        return g.swapaxes(-2, -3).reshape(a.data.shape)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / np.sqrt(qh.shape[-1])
    scores = (qh @ kh.swapaxes(-1, -2)) * scale
    if disallow is not None:
        disallow = np.asarray(disallow, dtype=bool)[..., None, :, :]
        scores = np.where(disallow, -1e30, scores)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = p @ vh

    def grad_fn(g):
        go = split(g)
        gp = go @ vh.swapaxes(-1, -2)
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
        if disallow is not None:
            gs = np.where(disallow, 0.0, gs)
        gs *= scale
        return (merge(gs @ kh, q),
                merge(gs.swapaxes(-1, -2) @ qh, k),
                merge(p.swapaxes(-1, -2) @ go, v))

    merged = out.swapaxes(-2, -3)
    return Tensor(merged.reshape(*merged.shape[:-2], -1), (q, k, v), grad_fn,
                  op="attention")


def _assert_same_op(op, reference, arrays, seed):
    """``op`` and ``reference`` agree to 1e-12 relative (absolute below
    1) in the output and in the gradient of every argument; returns
    ``op``'s output and gradients."""
    g = None
    results = []
    for fn in (op, reference):
        leaves = [Tensor(a.copy()) for a in arrays]
        out = fn(*leaves)
        if g is None:
            g = np.random.default_rng(seed).normal(size=out.data.shape)
        backward(weighted_sum(out, g))
        results.append([out.data] + [grad_of(t) for t in leaves])
    for got, want in zip(*results):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <=
                      1e-12 * np.maximum(1.0, np.abs(want)))
    return results[0]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([(7,), (2, 7), (3, 1, 7)]), st.integers(1, 9),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_linear_matches_its_reference(lead, n_out, bias, seed):
    rng = np.random.default_rng(seed)
    shape = (*lead[:-1], rng.integers(1, 6), lead[-1])
    arrays = [rng.normal(size=shape), rng.normal(size=(shape[-1], n_out))]
    if bias:
        arrays.append(rng.normal(size=n_out))
    _assert_same_op(ad.linear, _linear_reference, arrays, seed)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(1, 6),
       st.sampled_from([1, 2, 4]), st.sampled_from([None, "keys", "causal"]),
       st.integers(0, 2**32 - 1))
def test_attention_matches_its_reference(B, Tq, Tk, heads, mask, seed):
    # the reference also zeroes the score gradient of disallowed keys
    rng = np.random.default_rng(seed)
    q, k, v = (rng.normal(size=(B, T, 2 * heads)) for T in (Tq, Tk, Tk))
    disallow = None
    if mask == "keys":  # every query keeps at least its first key
        disallow = rng.random((B, 1, Tk)) < 0.4
        disallow[..., 0] = False
    elif mask == "causal":
        disallow = np.triu(np.ones((Tq, Tk), dtype=bool), k=Tk - Tq + 1)
        disallow[:, 0] = False
    _, _, gk, gv = _assert_same_op(
        lambda *t: ad.attention(*t, heads, disallow),
        lambda *t: _attention_reference(*t, heads, disallow), [q, k, v], seed)
    if mask == "keys":  # padded keys, which no query sees
        padded = disallow[:, 0]
        assert np.all(gk[padded] == 0.0) and np.all(gv[padded] == 0.0)


def test_backward_sum_gives_ones():
    x = Tensor(RNG.normal(size=(3, 2)))
    backward(weighted_sum(x))
    assert np.array_equal(grad_of(x), np.ones((3, 2)))


def test_backward_square_closed_form():
    x = Tensor(np.array([1.0, 2.0]))
    backward(weighted_sum(ad.mul(x, x)))
    assert np.allclose(grad_of(x), [2.0, 4.0])


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(AutodiffError):
        backward(ad.mul(x, 2.0))


def test_unreachable_leaf_gets_zero_gradient():
    x = Tensor(np.ones(3))
    y = Tensor(np.ones(3))
    backward(weighted_sum(x))
    assert np.array_equal(grad_of(y), np.zeros(3))


def test_tape_is_topologically_ordered_and_visited_once():
    x = Tensor(RNG.normal(size=(3,)))
    y = ad.mul(x, x)
    z = weighted_sum(ad.add(y, ad.silu(y)))
    tape = trace(z)
    pos = {id(n): i for i, n in enumerate(tape.nodes)}
    assert len(pos) == len(tape.nodes)  # each node exactly once
    for node in tape.nodes:
        for parent in node.parents:
            assert pos[id(parent)] < pos[id(node)]


def _reachable(output):
    """Every node reachable from ``output``, by recursive DFS."""
    seen = {}

    def visit(node):
        if id(node) not in seen:
            seen[id(node)] = node
            for p in node.parents:
                visit(p)
    visit(output)
    return seen


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 3),
       st.lists(st.tuples(st.sampled_from(["add", "mul"]),
                          st.integers(0, 99), st.integers(0, 99)),
                min_size=1, max_size=12),
       st.integers(0, 99), st.integers(0, 2**32 - 1))
def test_tape_holds_the_reachable_nodes_in_creation_order(n_leaves, ops,
                                                          hub, seed):
    rng = np.random.default_rng(seed)
    nodes = [Tensor(rng.uniform(-1.5, 1.5, size=3)) for _ in range(n_leaves)]
    for name, i, j in ops:
        nodes.append(getattr(ad, name)(nodes[i % len(nodes)],
                                       nodes[j % len(nodes)]))
    # one node feeds three more, and the last of them feeds the output
    h = nodes[hub % len(nodes)]
    for name in ("mul", "add", "mul"):
        nodes.append(getattr(ad, name)(nodes[-1], h))
    weights = rng.normal(size=3)
    out = weighted_sum(nodes[-1], weights)

    tape = backward(out)
    reached = _reachable(out)
    assert {id(n) for n in tape.nodes} == set(reached)
    assert len(tape.nodes) == len(reached)
    ids = [n.node_id for n in tape.nodes]
    assert all(a < b for a, b in zip(ids, ids[1:]))

    # reference: each node's adjoint, summed over its consumers in order of
    # decreasing depth, which is a reverse topological order too
    depth = {}

    def depth_of(node):
        if id(node) not in depth:
            depth[id(node)] = 1 + max(map(depth_of, node.parents), default=0)
        return depth[id(node)]
    adjoint = {id(nodes[-1]): weights}
    for node in sorted(reached.values(), key=depth_of, reverse=True):
        if node is out or node.op == "leaf" or id(node) not in adjoint:
            continue
        g = adjoint[id(node)]
        a, b = node.parents
        for parent, pg in ((a, g if node.op == "add" else g * b.data),
                           (b, g if node.op == "add" else g * a.data)):
            adjoint[id(parent)] = adjoint.get(id(parent), 0.0) + pg
    for leaf in nodes[:n_leaves]:
        want = adjoint.get(id(leaf), np.zeros(3))
        got = grad_of(leaf) if id(leaf) in reached else np.zeros(3)
        assert np.all(np.abs(got - want) <=
                      1e-12 * np.maximum(1.0, np.abs(want)))


def test_threads_building_graphs_never_share_a_node_id():
    # more threads than cores, switching as often as the interpreter allows
    ids = [[] for _ in range(4)]
    x = Tensor(np.ones(2))

    def build(out):
        for _ in range(10000):
            out.append(ad.add(x, x).node_id)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build, args=(out,))
                   for out in ids]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(set().union(*ids)) == 40000


def test_forward_replay_is_bit_identical():
    x = RNG.normal(size=(4, 4))

    def run():
        t = Tensor(x[None])
        return float(weighted_sum(ad.attention(t, t, t, 2)).data)

    assert run() == run()


def test_nan_fail_fast_names_the_op():
    with np.errstate(invalid="ignore"), \
            pytest.raises(AutodiffError, match=r"\(mul\)"):
        ad.mul(Tensor(np.array([np.inf])), 0.0)


def test_broadcasting_gradients_reduce_correctly():
    b = Tensor(RNG.normal(size=(4,)))
    x = Tensor(RNG.normal(size=(2, 3, 4)))
    backward(weighted_sum(ad.mul(ad.add(x, b), 2.0)))
    assert grad_of(b).shape == (4,)
    assert np.allclose(grad_of(b), 12.0)


def test_finite_difference_check_on_sum():
    x = Tensor(RNG.normal(size=(3, 3)))
    assert finite_difference_check(weighted_sum, x, step=1e-5) < 1e-9


def test_finite_difference_check_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_difference_check(weighted_sum, Tensor(np.ones(2)), step=0.0)


def test_finite_difference_check_flags_non_finite_probe():
    def reciprocal(t):  # finite at 1e-5, infinite at the probe point 0
        with np.errstate(divide="ignore"):
            out = 1.0 / t.data
        return Tensor(np.float64(out.sum()), (t,), lambda g: (-g * out * out,),
                      op="reciprocal")

    with pytest.raises(AutodiffError, match="non-finite"):
        finite_difference_check(reciprocal, Tensor(np.array([1e-5])),
                                step=1e-5)


def test_central_difference_probes_in_place_and_restores():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    before = x.copy()
    cubes = central_difference(lambda: weighted_sum(ad.mul(ad.mul(
        Tensor(x), Tensor(x)), Tensor(x))), x, indices=[1, 3])
    assert np.allclose(cubes, 3 * before.ravel()[[1, 3]] ** 2, rtol=1e-10)
    assert np.array_equal(x, before)


def test_gradient_suite_passes_at_full_loss_instance_count():
    # seed 777's align instance 32 has a 1.3e-7 gradient component that a
    # plain step-1e-5 central difference misses by 2e-4 relative
    result = gradient_suite(instances=50, model_instances=0)
    assert result["passed"], result
