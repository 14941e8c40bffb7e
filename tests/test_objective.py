"""InfoNCE objective: closed-form values, gradient exactness, invariances."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from xmodal import (
    InvalidConfigError,
    ShapeMismatchError,
    TooFewItemsError,
    ZeroVectorError,
    distill_loss,
    distill_loss_symbolic_check,
)
from xmodal.embeddings import _unit_rows
from xmodal.objective import infonce_loss
from xmodal.rng import rng_for

# -ln softmax for the 2x2 identity-logits case at tau=1:
# loss = ln(1 + e^-1), to full double precision.
LN_ONE_PLUS_E_MINUS_1 = 0.3132616875182228


def reference_loss(student: np.ndarray, teacher: np.ndarray, tau: float) -> float:
    """Independent oracle: per-row -log softmax via plain Python loops."""
    s = student / np.linalg.norm(student, axis=1, keepdims=True)
    t = teacher / np.linalg.norm(teacher, axis=1, keepdims=True)
    n = s.shape[0]
    total = 0.0
    for i in range(n):
        logits = [float(np.dot(s[i], t[j])) / tau for j in range(n)]
        m = max(logits)
        log_z = m + math.log(sum(math.exp(x - m) for x in logits))
        total += -(logits[i] - log_z)
    return total / n


class TestValidation:
    def test_tau_must_be_positive_finite(self):
        batch = np.eye(3)
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidConfigError, match="tau"):
                distill_loss(batch, batch, bad)

    def test_batches_must_be_2d(self):
        with pytest.raises(ShapeMismatchError):
            distill_loss(np.ones(3), np.ones((3, 3)), 1.0)

    def test_batches_must_match_shape(self):
        with pytest.raises(ShapeMismatchError, match="equal shapes"):
            distill_loss(np.ones((2, 3)), np.ones((3, 3)), 1.0)

    def test_empty_batch(self):
        with pytest.raises(TooFewItemsError):
            distill_loss(np.zeros((0, 3)), np.zeros((0, 3)), 1.0)

    def test_zero_rows_rejected(self):
        good = np.eye(2)
        bad = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ZeroVectorError, match="student"):
            distill_loss(bad, good, 1.0)
        with pytest.raises(ZeroVectorError, match="teacher"):
            distill_loss(good, bad, 1.0)


class TestLossValues:
    def test_single_pair_is_exactly_zero(self):
        out = distill_loss(np.array([[0.3, -2.0, 1.0]]), np.array([[5.0, 0.1, 0.0]]), 0.07)
        assert out.loss == 0.0
        assert math.copysign(1.0, out.loss) == 1.0  # +0.0, not -0.0
        assert np.array_equal(out.grad_student, np.zeros((1, 3)))
        assert out.batch_size == 1

    def test_two_orthonormal_pairs_tau_1(self):
        batch = np.eye(2)
        out = distill_loss(batch, batch, 1.0)
        assert out.loss == pytest.approx(LN_ONE_PLUS_E_MINUS_1, abs=1e-15)

    def test_high_tau_approaches_uniform(self):
        # As tau -> inf the softmax flattens and the loss tends to ln N.
        rng = rng_for(0, "uniform_case")
        student = rng.standard_normal((4, 6))
        teacher = rng.standard_normal((4, 6))
        out = distill_loss(student, teacher, 1e6)
        assert abs(out.loss - math.log(4.0)) < 1e-4

    def test_loss_nonnegative(self):
        rng = rng_for(1, "nonneg")
        for trial in range(20):
            student = rng.standard_normal((5, 4))
            teacher = rng.standard_normal((5, 4))
            assert distill_loss(student, teacher, 0.07).loss >= 0.0

    def test_matches_reference_oracle(self):
        rng = rng_for(2, "oracle")
        for tau in (0.05, 0.07, 1.0, 10.0):
            student = rng.standard_normal((6, 5))
            teacher = rng.standard_normal((6, 5))
            got = distill_loss(student, teacher, tau).loss
            assert got == pytest.approx(reference_loss(student, teacher, tau), abs=1e-12)

    def test_perfect_alignment_beats_ln_n(self):
        # Identical normalized pairs: diagonal logits dominate, so the
        # loss sits below ln N and shrinks as tau decreases.
        rng = rng_for(3, "aligned")
        batch = rng.standard_normal((6, 8))
        losses = [distill_loss(batch, batch, tau).loss for tau in (1.0, 0.5, 0.1)]
        assert all(l < math.log(6.0) for l in losses)
        assert losses[0] > losses[1] > losses[2]

    def test_scale_invariance_of_loss(self):
        rng = rng_for(4, "scale")
        student = rng.standard_normal((4, 5))
        teacher = rng.standard_normal((4, 5))
        base = distill_loss(student, teacher, 0.07)
        scaled = distill_loss(3.0 * student, teacher, 0.07)
        assert scaled.loss == pytest.approx(base.loss, abs=1e-12)

    def test_grad_scales_inversely_with_row_scale(self):
        rng = rng_for(5, "gradscale")
        student = rng.standard_normal((4, 5))
        teacher = rng.standard_normal((4, 5))
        base = distill_loss(student, teacher, 0.07)
        scaled = distill_loss(2.0 * student, teacher, 0.07)
        assert np.allclose(scaled.grad_student, base.grad_student / 2.0, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = rng_for(6, "perm")
        student = rng.standard_normal((5, 4))
        teacher = rng.standard_normal((5, 4))
        perm = np.array([3, 0, 4, 1, 2])
        base = distill_loss(student, teacher, 0.07)
        permuted = distill_loss(student[perm], teacher[perm], 0.07)
        assert abs(permuted.loss - base.loss) <= 1e-12
        assert np.allclose(permuted.grad_student, base.grad_student[perm], atol=1e-12)

    def test_teacher_gets_no_gradient_field(self):
        out = distill_loss(np.eye(3), np.eye(3), 1.0)
        assert out.grad_student.shape == (3, 3)
        assert not hasattr(out, "grad_teacher")


class TestGradient:
    def test_gradient_is_tangent_to_rows(self):
        # Cosine ignores row scale, so the gradient must be orthogonal
        # to each (unnormalized) student row.
        rng = rng_for(7, "tangent")
        student = rng.standard_normal((5, 6))
        teacher = rng.standard_normal((5, 6))
        grad = distill_loss(student, teacher, 0.07).grad_student
        radial = np.sum(grad * student, axis=1)
        assert np.max(np.abs(radial)) < 1e-12

    def test_finite_difference_agreement(self):
        rng = rng_for(8, "fd")
        student = rng.standard_normal((5, 7))
        teacher = rng.standard_normal((5, 7))
        analytic = distill_loss(student, teacher, 0.1).grad_student
        step = 1e-6
        for i in range(5):
            for j in range(7):
                bumped = student.copy()
                bumped[i, j] += step
                plus = distill_loss(bumped, teacher, 0.1).loss
                bumped[i, j] -= 2 * step
                minus = distill_loss(bumped, teacher, 0.1).loss
                numeric = (plus - minus) / (2 * step)
                assert analytic[i, j] == pytest.approx(numeric, abs=5e-7)

    @pytest.mark.parametrize(
        "n,d,tau,seed",
        [(4, 6, 0.1, 7), (2, 2, 1.0, 1), (8, 16, 10.0, 3)],
    )
    def test_symbolic_check_small_error(self, n, d, tau, seed):
        assert distill_loss_symbolic_check(n, d, tau, seed) < 1e-4

    def test_symbolic_check_rejects_tiny_problems(self):
        with pytest.raises(InvalidConfigError):
            distill_loss_symbolic_check(1, 5, 0.07, 0)
        with pytest.raises(InvalidConfigError):
            distill_loss_symbolic_check(5, 1, 0.07, 0)

    def test_symbolic_check_deterministic(self):
        a = distill_loss_symbolic_check(4, 5, 0.07, 11)
        b = distill_loss_symbolic_check(4, 5, 0.07, 11)
        assert a == b

    def test_gradient_descends(self):
        # One small step against the gradient must reduce the loss.
        rng = rng_for(9, "descend")
        student = rng.standard_normal((6, 5))
        teacher = rng.standard_normal((6, 5))
        out = distill_loss(student, teacher, 0.07)
        stepped = student - 0.01 * out.grad_student
        assert distill_loss(stepped, teacher, 0.07).loss < out.loss


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=2, max_value=8),
    st.sampled_from([0.05, 0.07, 0.5, 1.0, 10.0]),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_loss_properties_random_batches(n, d, tau, seed):
    rng = rng_for(seed, "prop")
    student = rng.standard_normal((n, d))
    teacher = rng.standard_normal((n, d))
    out = distill_loss(student, teacher, tau)
    assert out.loss >= 0.0
    assert np.isfinite(out.loss)
    assert out.grad_student.shape == (n, d)
    assert np.all(np.isfinite(out.grad_student))
    assert out.loss == pytest.approx(reference_loss(student, teacher, tau), abs=1e-10)


def out_of_place_loss(student: np.ndarray, teacher: np.ndarray, tau: float):
    """The loss and gradient written one fresh array per operation, the
    order of operations the in-place core has to reproduce bit for bit."""
    n = student.shape[0]
    student_norms = np.linalg.norm(student, axis=1, keepdims=True)
    student_unit = _unit_rows(student, "student")
    teacher_unit = _unit_rows(teacher, "teacher")
    logits = (student_unit @ teacher_unit.T) / tau
    row_max = logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(logits - row_max).sum(axis=1, keepdims=True)) + row_max
    log_probs = logits - log_z
    loss = float(-np.mean(np.diagonal(log_probs)) + 0.0)
    d_logits = np.exp(log_probs)
    np.fill_diagonal(d_logits, np.diagonal(d_logits) - 1.0)
    d_logits /= n * tau
    grad_unit = d_logits @ teacher_unit
    radial = np.sum(grad_unit * student_unit, axis=1, keepdims=True)
    return loss, (grad_unit - radial * student_unit) / student_norms


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# Entries of a magnitude whose squares are subnormal or underflow to 0.
TINY = 2.17e-159
loss_entries = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([TINY, -TINY, 1e-170, 0.0]),
)


@st.composite
def loss_batches(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    d = draw(st.integers(min_value=1, max_value=5))
    rows = npst.arrays(np.float64, (n, d), elements=loss_entries)
    return draw(rows), draw(rows)


@given(loss_batches(), st.sampled_from([0.07, 1.0]))
@example((np.array([[TINY, 1e-160]]), np.array([[1.0, 2.0]])), 0.07)
@example((np.array([[1.0, -2.0], [TINY, 3e-160]]), np.array([[TINY, 0.0], [0.5, 0.5]])), 0.07)
@example((np.array([[np.nan, 1.0], [1.0, 0.0]]), np.array([[1.0, 1.0], [0.0, 1.0]])), 0.07)
@example((np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [np.nan, 2.0]])), 1.0)
@settings(max_examples=80, deadline=None)
def test_core_equals_out_of_place_formula_bit_for_bit(batches, tau):
    student, teacher = batches
    if np.any(np.all(student == 0.0, axis=1)) or np.any(np.all(teacher == 0.0, axis=1)):
        return
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        core = infonce_loss(student, _unit_rows(teacher, "teacher"), tau)
        loss, grad = out_of_place_loss(student, teacher, tau)
    assert core.batch_size == student.shape[0]
    assert same_bits(core.loss, loss) and same_bits(core.grad_student, grad)


@given(
    npst.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 40)), elements=loss_entries),
    st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=8),
)
@example(np.array([[TINY, 0.0], [3.0, 4.0], [np.nan, 1.0]]), [2, 0, 2, 1])
@settings(max_examples=60, deadline=None)
def test_unit_rows_commute_with_row_gather(matrix, picks):
    # Training normalizes its teacher rows once and gathers unit rows per
    # batch; that must equal normalizing each gathered batch.
    if np.any(np.all(matrix == 0.0, axis=1)):
        return
    rows = np.array(picks) % matrix.shape[0]
    with np.errstate(invalid="ignore"):
        assert same_bits(_unit_rows(matrix, "teacher")[rows], _unit_rows(matrix[rows], "teacher"))
