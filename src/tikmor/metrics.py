"""Image-shaped reconstruction metrics.

The structural similarity index here is the single-window global form:
means, population variances and covariance over the whole image, with
the usual stabilizers C1 = 0.01^2 and C2 = 0.03^2. Identical images
score 1 and the value always lies in [-1, 1]; larger means more similar.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .linop import _real_array

SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2


def ssim(x, y) -> float:
    """Global structural similarity of two real images, arrays of the same shape;
    complex or non-numeric entries raise ``UnsupportedFormatError``, an empty image
    ``DimensionError`` and a NaN or inf entry ``ValueError``, each naming the image."""
    a, b = (np.asarray(_real_array(v, f"image {n}"), dtype=float) for n, v in zip("xy", (x, y)))
    for name, v in zip("xy", (a, b)):
        if v.size == 0:
            raise DimensionError(f"image {name} is empty")
        if not np.isfinite(v).all():
            raise ValueError(f"image {name} has entries that are not finite")
    if a.shape != b.shape:
        raise DimensionError(f"image shapes differ: {a.shape} vs {b.shape}")
    mu_x = float(a.mean())
    mu_y = float(b.mean())
    var_x = float(((a - mu_x) ** 2).mean())  # population (1/N) convention
    var_y = float(((b - mu_y) ** 2).mean())
    cov = float(((a - mu_x) * (b - mu_y)).mean())
    num = (2 * mu_x * mu_y + SSIM_C1) * (2 * cov + SSIM_C2)
    den = (mu_x**2 + mu_y**2 + SSIM_C1) * (var_x + var_y + SSIM_C2)
    return num / den
