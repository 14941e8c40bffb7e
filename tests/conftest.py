"""Shared fixtures: a small world that keeps module tests fast.

The default 48-species world appears only where a contract is pinned to
it; everything else runs on this 8-species miniature.
"""

import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from xmodal import EmbeddingSet, Modality, RunConfig, WorldConfig, generate_world, world_split
from xmodal.runconfig import EvalConfig
from xmodal.trainer import AdapterConfig, TrainConfig


SMALL_WORLD = WorldConfig(
    seed=11,
    n_families=2,
    genera_per_family=2,
    species_per_genus=2,
    d_teacher=12,
    d_student_in=8,
    d_student=10,
    variant_count=2,
    audio_per_species=6,
    images_per_species=4,
)

SMALL_ADAPTER = AdapterConfig(mode="mlp_encoder_plus_head", d_in=8, d_student=10, d_teacher=12, d_hidden=16)

SMALL_TRAIN = TrainConfig(batch_size=4, epochs=3, seed=5)


@pytest.fixture(scope="session")
def small_world():
    return generate_world(SMALL_WORLD)


@pytest.fixture(scope="session")
def small_views(small_world):
    return world_split(small_world, holdout_fraction=0.25, seed=SMALL_WORLD.seed)


@pytest.fixture(scope="session")
def small_run_config():
    return RunConfig(
        world=SMALL_WORLD,
        train=SMALL_TRAIN,
        eval=EvalConfig(holdout_fraction=0.25, knn_k=3, map_k=50, chance_trials=50),
        adapter_mode="mlp_encoder_plus_head",
        adapter_d_hidden=16,
        output_dir="unused",
    )


@pytest.fixture(scope="session")
def default_world():
    return generate_world(WorldConfig())


@pytest.fixture(scope="session")
def default_experiment():
    """Full default-config run, shared so the suite pays for it once.

    Returns (ExperimentResult, elapsed_seconds).
    """
    import time

    from xmodal.pipeline import run_experiment

    started = time.perf_counter()
    result = run_experiment(RunConfig(), write=False)
    return result, time.perf_counter() - started


def brute_force_scores(queries: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """Entrywise cosine similarity, one dot product at a time."""
    q = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    g = gallery / np.linalg.norm(gallery, axis=1, keepdims=True)
    out = np.empty((q.shape[0], g.shape[0]), dtype=np.float64)
    for i in range(q.shape[0]):
        for j in range(g.shape[0]):
            out[i, j] = float(np.dot(q[i], g[j]))
    return out


def _exact_palette() -> np.ndarray:
    """Unit rows of R^4 whose pairwise dot products are exact in any order.

    Signed axis vectors (also with -0.0 in place of 0.0) and the sixteen
    (+-1/2, +-1/2, +-1/2, +-1/2): every product and partial sum is a
    multiple of 1/4, so BLAS and per-pair dot products agree bit for bit
    and equal scores are true ties.
    """
    rows = []
    for axis, sign in itertools.product(range(4), (1.0, -1.0)):
        row = np.zeros(4)
        row[axis] = sign
        rows += [row, np.where(row == 0.0, -0.0, row)]
    rows += [np.array(signs) for signs in itertools.product((0.5, -0.5), repeat=4)]
    return np.array(rows)


EXACT_PALETTE = _exact_palette()


@st.composite
def exact_sets(draw, labels, min_size=1, max_size=10, modality=Modality.AUDIO):
    """Embedding sets of palette rows, scaled by powers of two (exact norms).

    A drawn prefix of the rows is appended again, so duplicate rows, and
    with them score ties, are common.
    """
    n = draw(st.integers(min_size, max_size))
    picks = draw(st.lists(st.integers(0, len(EXACT_PALETTE) - 1), min_size=n, max_size=n))
    scales = draw(st.lists(st.sampled_from((0.25, 1.0, 4.0)), min_size=n, max_size=n))
    row_labels = draw(st.lists(labels, min_size=n, max_size=n))
    rows = np.concatenate([np.arange(n), np.arange(draw(st.integers(0, n)))])
    matrix = EXACT_PALETTE[picks] * np.array(scales)[:, None]
    return EmbeddingSet(matrix[rows], np.array(row_labels, dtype=np.int64)[rows], modality)
