"""Metamorphic relations of the two decisions (ROADMAP item 11).

A nonnegative B is strongly infinitely divisible exactly when its transpose,
a symmetric permutation P B P^T, a positive diagonal similarity D^-1 B D
and a positive multiple c B are: each maps a Z-matrix Q with exp(-Q) = B to
one for the image, and back (c B = exp(-(Q - log(c) I))).  So two related
inputs must never get opposite certified verdicts; an Undetermined verdict
on either side is no disagreement, but on these draws none is Undetermined.
The inputs are seeded draws of n = 2 to 5 states, alternately exp(-Q) of a
shifted Z-matrix (divisible) and a matrix of uniform(0.01, 1) entries
(mostly not); the inputs come from one generator and the relations' maps
from another, so every relation sees the same inputs.

For embeddability, exp(tR) is embeddable for every intensity matrix R and
t > 0, so no such input may be certified negative.
"""

import numpy as np
import pytest

from embedlab import embed, numkit
from helpers import SCALED_TRIANGLE, random_intensity, random_shifted_z, random_sparse_intensity

DRAWS = 300
POSITIVE, NEGATIVE = embed.STRONGLY_INF_DIVISIBLE, embed.NOT_STRONGLY_INF_DIVISIBLE


def draws(rng):
    for k in range(DRAWS):
        n = int(rng.integers(2, 6))
        yield numkit.expm(-random_shifted_z(rng, n)) if k % 2 == 0 else rng.uniform(0.01, 1.0, (n, n))


def transpose(rng, B):
    return B.T.copy()


def symmetric_permutation(rng, B):
    order = rng.permutation(len(B))
    return B[np.ix_(order, order)]


def diagonal_similarity(rng, B):
    d = 10.0 ** rng.uniform(-2.0, 2.0, len(B))
    return diagonal_image(B, d)


def scale(c):
    def scaled(rng, B):
        return c * B

    return scaled


def diagonal_image(B, d):
    """D^-1 B D for D = diag(d), entry by entry."""
    return B * d[None, :] / d[:, None]


def opposite(a, b):
    return {a, b} == {POSITIVE, NEGATIVE}


# c B keeps every exact fact but the determinant, which the absolute gate of
# ROADMAP item 1 reads: det(c B) = c^n det(B)
SCALE_GATE = "ROADMAP item 1: the absolute determinant gate certifies "


@pytest.mark.parametrize(
    "relation",
    [
        transpose,
        symmetric_permutation,
        diagonal_similarity,
        pytest.param(
            scale(10.0),
            id="scale_10",
            marks=pytest.mark.xfail(strict=True, reason=SCALE_GATE + "draws 20 and 158 negative, not their images"),
        ),
        pytest.param(
            scale(1e-2),
            id="scale_0.01",
            marks=pytest.mark.xfail(strict=True, reason=SCALE_GATE + "the images of 84 positives negative"),
        ),
    ],
)
def test_divisibility_verdict_is_invariant(relation):
    inputs, maps = np.random.default_rng(41), np.random.default_rng(42)
    verdicts, wrong, unanswered = [], [], []
    for k, B in enumerate(draws(inputs)):
        base = embed.check_strong_inf_divisible(B).verdict
        image = embed.check_strong_inf_divisible(relation(maps, B)).verdict
        verdicts.append(base)
        if opposite(base, image):
            wrong.append((k, base, image))
        if embed.UNDETERMINED in (base, image):
            unanswered.append((k, base, image))
    assert wrong == []
    # every draw and image is answered today, so no disagreement hides
    # behind an Undetermined verdict (a wrong witness whose sample roots
    # fail would)
    assert unanswered == []
    # the relation is tested on certified verdicts of both kinds
    assert verdicts.count(POSITIVE) >= 100 and verdicts.count(NEGATIVE) >= 50


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP items 11 and 18: the off-diagonal sign slack is absolute, so the image's witness "
    "entry of about -1.7e-10 passes as nonnegative",
)
def test_diagonal_similarity_keeps_criterion_4_negative():
    # SCALED_TRIANGLE is criterion 4's certified negative: its logarithm has
    # -0.0166 at (0, 2), which this similarity shrinks below entry_tol
    assert embed.check_strong_inf_divisible(SCALED_TRIANGLE).verdict == NEGATIVE
    image = diagonal_image(SCALED_TRIANGLE, np.array([1.0, 1.0, 1e-8]))
    assert not opposite(NEGATIVE, embed.check_strong_inf_divisible(image).verdict)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the absolute determinant gate certifies draws 20 and 158 negative "
    "(determinant_not_positive at det 2.9e-10 and 1.9e-10)",
)
def test_no_divisible_draw_is_certified_negative():
    # the even draws are exp(-Q) for a Z-matrix Q, divisible by construction;
    # the relations above preserve det, so they cannot show this
    negatives = [
        k
        for k, B in enumerate(draws(np.random.default_rng(41)))
        if k % 2 == 0 and embed.check_strong_inf_divisible(B).verdict == NEGATIVE
    ]
    assert negatives == []


def test_exponential_of_a_scaled_generator_is_never_certified_negative():
    rng = np.random.default_rng(43)
    generators = [
        (random_intensity if k % 2 == 0 else random_sparse_intensity)(rng, int(rng.integers(2, 7)))
        for k in range(DRAWS)
    ]
    for t in (0.1, 1.0, 4.0):
        reports = [embed.check_embeddable(numkit.expm(t * R)) for R in generators]
        verdicts = [r.verdict for r in reports]
        assert embed.NOT_EMBEDDABLE not in verdicts, t
        # exp(4R) of a fast chain has a tiny determinant, which the absolute
        # gate of ROADMAP item 1 leaves Undetermined (135 of 300 at t = 4)
        for r in reports:
            if r.verdict == embed.UNDETERMINED:
                assert [c["reason"] for c in r.failed_conditions] == ["determinant_near_singular"], t
        assert verdicts.count(embed.EMBEDDABLE) >= 150, t
