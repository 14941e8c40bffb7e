"""Contrastive distillation objective.

One-directional InfoNCE over a batch of (student, teacher) row pairs:
row i of the student batch is attracted to row i of the teacher batch
and repelled from every other teacher row, with cosine similarity scaled
by a temperature tau. Only the student side receives a gradient; teacher
rows are constants.

The gradient is exact and analytic, including the Jacobian of the
cosine normalization of the student rows, so callers pass raw
(unnormalized) student outputs. Log-sum-exp uses max subtraction, which
keeps every per-row loss term non-negative in floating point and makes
a single-pair batch score exactly zero without special-casing.

:func:`distill_loss` validates its arguments, scales the teacher rows to
unit norm and calls the loss core :func:`infonce_loss`. The training loop
calls the core directly with teacher rows it normalized once. The core
computes every intermediate in place, in the order of operations of the
plain out-of-place formula, so both routes give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import _divide_by_norms, _unit_rows
from .errors import InvalidConfigError, ShapeMismatchError, TooFewItemsError
from .rng import rng_for


@dataclass(frozen=True)
class LossOutput:
    """Loss value plus the exact gradient for the student batch."""

    loss: float
    grad_student: np.ndarray
    batch_size: int


def distill_loss(student_batch: np.ndarray, teacher_batch: np.ndarray, tau: float) -> LossOutput:
    """Batch InfoNCE loss and its gradient w.r.t. the raw student rows.

    The loss is the mean over rows of
    ``-log softmax_j(cos(z_i, t_j) / tau)[i]``. It is non-negative, and
    exactly 0.0 for a single-row batch. ``grad_student`` has the shape
    of ``student_batch``; the teacher side gets no gradient.
    """
    if tau <= 0 or not np.isfinite(tau):
        raise InvalidConfigError(f"tau must be a positive finite real, got {tau}")
    student = np.asarray(student_batch, dtype=np.float64)
    teacher = np.asarray(teacher_batch, dtype=np.float64)
    if student.ndim != 2 or teacher.ndim != 2:
        raise ShapeMismatchError(
            f"expected 2-d batches, got student ndim {student.ndim}, teacher ndim {teacher.ndim}"
        )
    if student.shape != teacher.shape:
        raise ShapeMismatchError(
            f"paired batches must have equal shapes, got {student.shape} and {teacher.shape}"
        )
    n = student.shape[0]
    if n < 1:
        raise TooFewItemsError("distill_loss needs at least one pair")
    return infonce_loss(student, _unit_rows(teacher, "teacher"), tau)


def infonce_loss(student: np.ndarray, teacher_unit: np.ndarray, tau: float) -> LossOutput:
    """The loss core of :func:`distill_loss`, on unit teacher rows.

    Takes a float64 student batch, teacher rows already of unit norm and
    of the same shape, and a valid ``tau``, and checks none of them; the
    training loop normalizes its teacher rows once and calls this per
    batch. The result is bit for bit that of :func:`distill_loss` on the
    raw teacher rows.
    """
    n = student.shape[0]
    student_norms = np.linalg.norm(student, axis=1)
    student_unit = _divide_by_norms(student, student_norms, "student")

    # The reductions are those of ndarray.max, ndarray.sum and np.mean,
    # called without their Python wrappers.
    logits = student_unit @ teacher_unit.T
    logits /= tau
    row_max = np.maximum.reduce(logits, axis=1, keepdims=True)
    shifted = np.subtract(logits, row_max)
    log_z = np.log(np.add.reduce(np.exp(shifted, out=shifted), axis=1, keepdims=True))
    log_z += row_max
    log_probs = np.subtract(logits, log_z, out=logits)
    # The + 0.0 turns IEEE -0.0 into +0.0 for the perfectly-aligned case.
    loss = float(-(np.add.reduce(np.diagonal(log_probs)) / n) + 0.0)

    d_logits = np.exp(log_probs, out=logits)
    d_logits.reshape(-1)[:: n + 1] -= 1.0
    d_logits /= n * tau
    grad = d_logits @ teacher_unit

    # Project out the radial component: cosine is invariant to row scale.
    scratch = np.multiply(grad, student_unit)
    radial = np.add.reduce(scratch, axis=1, keepdims=True)
    grad -= np.multiply(radial, student_unit, out=scratch)
    grad /= student_norms[:, None]
    return LossOutput(loss=loss, grad_student=grad, batch_size=n)


def distill_loss_symbolic_check(n: int, d: int, tau: float, seed: int) -> float:
    """Max relative error of the analytic gradient vs central differences.

    Draws one random (student, teacher) batch and compares every entry
    of the analytic gradient against a finite difference with step 1e-5,
    reporting max |analytic - numeric| / (|numeric| + 1e-12).
    """
    if n < 2 or d < 2:
        raise InvalidConfigError(f"gradient check needs n >= 2 and d >= 2, got n={n}, d={d}")
    rng = rng_for(seed, "gradcheck")
    student = rng.standard_normal((n, d))
    teacher = rng.standard_normal((n, d))
    analytic = distill_loss(student, teacher, tau).grad_student

    step = 1e-5
    worst = 0.0
    for i in range(n):
        for j in range(d):
            bumped = student.copy()
            bumped[i, j] += step
            plus = distill_loss(bumped, teacher, tau).loss
            bumped[i, j] -= 2 * step
            minus = distill_loss(bumped, teacher, tau).loss
            numeric = (plus - minus) / (2 * step)
            err = abs(analytic[i, j] - numeric) / (abs(numeric) + 1e-12)
            worst = max(worst, err)
    return worst
