"""Synthetic MNIST-style digit images.

The paper splits MNIST into per-client partitions varying in size, label
distribution and noise (Sec. V-A, setups (a)–(e)).  MNIST itself is not
available offline, so this generator creates small greyscale images from ten
structured per-class templates (simple stroke patterns on an ``image_size`` ×
``image_size`` grid) perturbed with Gaussian pixel noise and small shifts.

What matters for the valuation experiments is that

* a model trained on more samples reaches a higher test accuracy,
* label noise and feature noise degrade a client's usefulness, and
* class-skewed partitions create genuinely different client values.

The template construction below yields tasks with those properties while a
tiny MLP/CNN can reach high accuracy in well under a second.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import Dataset
from repro.utils.rng import RandomState, SeedLike
from repro.utils.validation import check_positive

#: Seed of the fixed stream the class templates are drawn from.  This value is
#: content-identity-bearing: the templates define the task itself (every
#: ``seed=`` argument only varies sampling around them), so changing it
#: changes every utility, every fingerprint and every store entry derived from
#: MNIST-like tasks.  Never reuse it for another template family.
TEMPLATE_SEED = 12345


def _digit_templates(image_size: int, n_classes: int, rng: np.random.Generator) -> np.ndarray:
    """Build one stroke-pattern template per class.

    Templates combine horizontal bars, vertical bars and diagonals in a
    class-specific layout, then add a small fixed random texture so every class
    is linearly distinguishable but not trivially so.
    """
    templates = np.zeros((n_classes, image_size, image_size))
    for cls in range(n_classes):
        canvas = np.zeros((image_size, image_size))
        # Horizontal bar whose row depends on the class.
        row = (cls * 2 + 1) % image_size
        canvas[row, :] = 1.0
        # Vertical bar whose column depends on the class.
        col = (cls * 3 + 2) % image_size
        canvas[:, col] = 1.0
        # Diagonal for odd classes, anti-diagonal for even classes.
        if cls % 2 == 1:
            np.fill_diagonal(canvas, 1.0)
        else:
            np.fill_diagonal(np.fliplr(canvas), 1.0)
        # Class-specific fixed texture (low amplitude).
        texture = rng.normal(0.0, 0.15, size=(image_size, image_size))
        templates[cls] = np.clip(canvas + texture, 0.0, 1.5)
    return templates


def make_mnist_like(
    n_samples: int,
    image_size: int = 8,
    n_classes: int = 10,
    pixel_noise: float = 0.25,
    max_shift: int = 1,
    seed: SeedLike = None,
    name: str = "mnist-like",
) -> Dataset:
    """Generate an MNIST-style synthetic image classification dataset.

    Parameters
    ----------
    n_samples:
        Number of images.
    image_size:
        Side length of the square images (default 8 for speed).
    n_classes:
        Number of digit classes (default 10, as in MNIST).
    pixel_noise:
        Standard deviation of additive Gaussian pixel noise.
    max_shift:
        Maximum absolute shift (in pixels) applied independently per axis,
        emulating writing-position variation.
    """
    check_positive(n_samples, "n_samples")
    check_positive(image_size, "image_size")
    check_positive(n_classes, "n_classes")
    rng = RandomState(seed)
    # Templates are derived from a fixed stream so that different calls with
    # different seeds still describe the *same* underlying task.
    template_rng = np.random.default_rng(TEMPLATE_SEED)
    templates = _digit_templates(image_size, n_classes, template_rng)

    targets = rng.integers(0, n_classes, size=n_samples)
    # Per image the stream yields the row shift, the column shift, then the
    # pixel noise; the noise lands in ``images`` and the shifted templates are
    # gathered afterwards in one fancy-index.
    shifts = np.zeros((n_samples, 2), dtype=np.intp)
    images = np.empty((n_samples, image_size, image_size))
    for idx in range(n_samples):
        if max_shift > 0:
            shifts[idx, 0] = rng.integers(-max_shift, max_shift + 1)
            shifts[idx, 1] = rng.integers(-max_shift, max_shift + 1)
        images[idx] = rng.normal(0.0, pixel_noise, size=(image_size, image_size))
    # np.roll by (r, c) puts pixel ((i - r) mod size, (j - c) mod size) at (i, j).
    grid = np.arange(image_size)
    rows = (grid[None, :] - shifts[:, :1]) % image_size
    cols = (grid[None, :] - shifts[:, 1:]) % image_size
    shifted = templates[targets[:, None, None], rows[:, :, None], cols[:, None, :]]
    np.add(shifted, images, out=images)  # template + noise, as one image at a time
    return Dataset(images, targets, num_classes=n_classes, name=name)
