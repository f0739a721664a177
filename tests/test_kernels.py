import numpy as np
import pytest

from narytd import kernels
from narytd.blocks import CoreAssignment, zero_assignment


# Brute-force loop kernels: the reference the chunked matmul kernels are checked against.


def loop_score(codes, X):
    B, P, m, ds = X.shape
    out = np.zeros(B)
    for k, c in enumerate(codes):
        if c == 0.0:
            continue
        idx = np.unravel_index(k, (m,) * P)
        for b in range(B):
            acc = 0.0
            for t in range(ds):
                p = 1.0
                for q in range(P):
                    p *= X[b, q, idx[q], t]
                acc += p
            out[b] += c * acc
    return out


def loop_context(codes, X, hole):
    B, P, m, ds = X.shape
    out = np.zeros((B, m, ds))
    for k, c in enumerate(codes):
        if c == 0.0:
            continue
        idx = np.unravel_index(k, (m,) * P)
        for b in range(B):
            for t in range(ds):
                p = c
                for q in range(P):
                    if q != hole:
                        p *= X[b, q, idx[q], t]
                out[b, idx[hole], t] += p
    return out


def random_case(rng, P=3, m=2, ds=4, B=5):
    codes = rng.choice([-1.0, 0.0, 1.0], size=m**P)
    X = rng.normal(size=(B, P, m, ds))
    return codes, X


def test_core_roundtrips_flat_block_ids():
    # a code written at flat block k is read back at its multi-index, and the
    # multi-index is k's in the C order context_batch reshapes the codes with
    for P, m in [(3, 2), (4, 3), (5, 4)]:
        assignment = zero_assignment(P - 1, m)
        assert assignment.core.shape == (m,) * P
        assert np.shares_memory(assignment.core, assignment.codes)
        for k in range(m**P):
            assignment.codes[:] = 0
            assignment.codes[k] = -1
            [(idx, code)] = assignment.nonzero_blocks()
            assert len(idx) == P and all(0 <= j < m for j in idx) and code == -1
            assert assignment.core[idx] == -1
            assert np.ravel_multi_index(idx, (m,) * P) == k


def test_core_row_major_relation_slowest():
    # k = 0 is all-zeros, k = m**P - 1 is all-(m-1), participant 0 moves slowest
    codes = np.zeros(8, np.int8)
    codes[[0, 1, 4, 7]] = [1, -1, 1, -1]
    assignment = CoreAssignment(2, 2, codes)
    assert assignment.nonzero_blocks() == [
        ((0, 0, 0), 1), ((0, 0, 1), -1), ((1, 0, 0), 1), ((1, 1, 1), -1)
    ]
    assert assignment.core[1, 0, 0] == 1 and assignment.core[0, 0, 1] == -1
    assignment.core[0, 1, 0] = -1  # a write through the view lands on flat block 2
    assert assignment.codes[2] == -1


def test_score_single_block_manual():
    # one +1 block at (0, 1, 0) with segment length 1
    codes = np.zeros(8)
    codes.reshape(2, 2, 2)[0, 1, 0] = 1.0
    X = np.array([[[[1.0], [2.0]], [[3.0], [4.0]], [[5.0], [6.0]]]])
    # r seg0 = 1, e1 seg1 = 4, e2 seg0 = 5
    assert kernels.score_batch(codes, X)[0] == pytest.approx(20.0)


def assert_match_loop_oracle(codes, X):
    np.testing.assert_allclose(
        kernels.score_batch(codes, X), loop_score(codes, X), rtol=1e-12, atol=1e-12
    )
    for hole in range(X.shape[1]):
        np.testing.assert_allclose(
            kernels.context_batch(codes, X, [hole])[0],
            loop_context(codes, X, hole),
            rtol=1e-12,
            atol=1e-12,
        )


def test_kernels_match_loop_oracle():
    rng = np.random.default_rng(0)
    for P, m, ds in [(3, 1, 5), (3, 2, 4), (4, 3, 2), (5, 4, 3), (7, 2, 3)]:
        assert_match_loop_oracle(*random_case(rng, P=P, m=m, ds=ds, B=6))
    # the cli-4ary shape: 4-ary facts, m = 4, every block non-zero
    codes = rng.choice([-1.0, 1.0], size=4**5)
    assert_match_loop_oracle(codes, rng.normal(size=(6, 5, 4, 8)))


@pytest.mark.parametrize("chunk_bytes", [1, 192, 640])
def test_chunked_kernels_match_loop_oracle(monkeypatch, chunk_bytes):
    # W takes 8 * 2**3 = 64 bytes per (row, offset) pair here: 1 byte gives
    # one pair per chunk, 192 three offsets of one row, 640 two whole rows
    monkeypatch.setattr(kernels, "_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(7)
    assert_match_loop_oracle(*random_case(rng, P=4, m=2, ds=5, B=6))


@pytest.mark.parametrize("chunk_bytes, steps", [(1, (1, 1)), (192, (3, 1)), (640, (5, 2))])
def test_chunk_steps(monkeypatch, chunk_bytes, steps):
    # the chunks of test_chunked_kernels_match_loop_oracle, whatever the batch size
    monkeypatch.setattr(kernels, "_CHUNK_BYTES", chunk_bytes)
    assert kernels.chunk_steps(8, 4, 2, 5) == steps


def test_context_reconstructs_score():
    # pairing the context against the held-out participant gives the score
    rng = np.random.default_rng(1)
    codes, X = random_case(rng, P=4, m=3, ds=2, B=7)
    scores = kernels.score_batch(codes, X)
    for hole in range(4):
        ctx = kernels.context_batch(codes, X, [hole])[0]
        recombined = np.einsum("bjt,bjt->b", ctx, X[:, hole])
        np.testing.assert_allclose(recombined, scores, rtol=1e-10, atol=1e-12)


def test_score_linear_in_codes():
    # positive rescaling of all codes rescales every score, preserving order
    rng = np.random.default_rng(2)
    codes, X = random_case(rng, P=3, m=2, ds=4, B=10)
    base = kernels.score_batch(codes, X)
    for c in (0.5, 2.0, 7.25):
        scaled = kernels.score_batch(c * codes, X)
        np.testing.assert_allclose(scaled, c * base, rtol=1e-12)
        assert np.array_equal(np.argsort(scaled), np.argsort(base))


def test_score_additive_over_blocks():
    rng = np.random.default_rng(3)
    codes, X = random_case(rng, P=3, m=2, ds=4, B=4)
    total = np.zeros(4)
    for k in range(len(codes)):
        single = np.zeros_like(codes)
        single[k] = codes[k]
        total += kernels.score_batch(single, X)
    np.testing.assert_allclose(total, kernels.score_batch(codes, X), rtol=1e-10, atol=1e-12)


def test_bruteforce_scalar_segments():
    # with segment length 1 the score is an explicit sum over multi-indices
    rng = np.random.default_rng(4)
    for P, m in [(3, 2), (4, 3)]:
        codes = rng.choice([-1.0, 0.0, 1.0], size=m**P)
        X = rng.normal(size=(3, P, m, 1))
        expected = np.zeros(3)
        for k, c in enumerate(codes):
            idx = np.unravel_index(k, (m,) * P)
            for b in range(3):
                prod = c
                for q, j in enumerate(idx):
                    prod *= X[b, q, j, 0]
                expected[b] += prod
        np.testing.assert_allclose(kernels.score_batch(codes, X), expected, rtol=1e-10)


def test_zero_codes_zero_everything():
    rng = np.random.default_rng(5)
    _, X = random_case(rng)
    codes = np.zeros(8)
    assert np.all(kernels.score_batch(codes, X) == 0.0)
    assert np.all(kernels.context_batch(codes, X, [1])[0] == 0.0)


def test_context_hole_out_of_range():
    rng = np.random.default_rng(6)
    codes, X = random_case(rng)
    with pytest.raises(ValueError):
        kernels.context_batch(codes, X, [3])[0]


@pytest.mark.parametrize("chunk_bytes", [1, 192, 640])
def test_multi_hole_call_matches_one_hole_calls(monkeypatch, chunk_bytes):
    # the chunk sizes of test_chunked_kernels_match_loop_oracle; holes
    # unsorted and repeated, each context bit-identical to its own call
    monkeypatch.setattr(kernels, "_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(8)
    codes, X = random_case(rng, P=4, m=2, ds=5, B=6)
    holes = [3, 0, 3, 1, 2]
    ctx = kernels.context_batch(codes, X, holes)
    assert ctx.shape == (len(holes), 6, 2, 5)
    for i, hole in enumerate(holes):
        assert np.array_equal(ctx[i], kernels.context_batch(codes, X, [hole])[0])


@pytest.mark.parametrize("holes", [[0, 4], [-1, 1], [2, 3, 1, 7]])
def test_context_any_hole_out_of_range(holes):
    rng = np.random.default_rng(9)
    codes, X = random_case(rng, P=4)
    with pytest.raises(ValueError, match="out of range"):
        kernels.context_batch(codes, X, holes)
