"""Image-shaped reconstruction metrics.

The structural similarity index here is the single-window global form:
means, population variances and covariance over the whole image, with
the usual stabilizers C1 = 0.01^2 and C2 = 0.03^2. Identical images
score 1 and the value always lies in [-1, 1]; larger means more similar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2


@dataclass(frozen=True)
class ImageView:
    """Row-major view of a flat vector as a width x height image."""

    data: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=float).ravel())
        if self.width * self.height != self.data.size:
            raise DimensionError(
                f"width*height = {self.width * self.height} != data length {self.data.size}"
            )


def ssim(x: ImageView, y: ImageView) -> float:
    """Global structural similarity of two equally sized images."""
    if (x.width, x.height) != (y.width, y.height):
        raise DimensionError(
            f"image sizes differ: {x.width}x{x.height} vs {y.width}x{y.height}"
        )
    a, b = x.data, y.data
    mu_x = float(a.mean())
    mu_y = float(b.mean())
    var_x = float(((a - mu_x) ** 2).mean())  # population (1/N) convention
    var_y = float(((b - mu_y) ** 2).mean())
    cov = float(((a - mu_x) * (b - mu_y)).mean())
    num = (2 * mu_x * mu_y + SSIM_C1) * (2 * cov + SSIM_C2)
    den = (mu_x**2 + mu_y**2 + SSIM_C1) * (var_x + var_y + SSIM_C2)
    return num / den
