"""Invertible coordinate changes that concentrate the bias on one axis.

Three constructions are provided:

* ``pair_transform_2d`` -- the non-orthonormal 2-D change of variables
  ``x1 = b1 m2 - b2 m1``, ``x2 = b1 m1 + b2 m2``.  It maps the bias to
  ``(0, b1^2 + b2^2)`` and rescales quadratic costs by ``b1^2 + b2^2``
  (the ``scale`` field), so costs decouple coordinate-wise.
* ``helmert_transform`` -- the orthonormal Helmert matrix; it sends an
  equal-bias vector ``(c, ..., c)`` to ``(0, ..., 0, sqrt(n) c)``.
* ``bias_aligning_transform`` -- an orthonormal matrix whose last row is
  ``b / ||b||``, so any bias becomes ``(0, ..., 0, ||b||)``.

Orthonormal transforms preserve squared distances exactly, which is what
lets the n-dimensional game split into independent scalar games.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .geometry import _product, _whole, as_point

__all__ = [
    "LinearTransform",
    "permutation_transform",
    "pair_transform_2d",
    "helmert_transform",
    "bias_aligning_transform",
]


@dataclass(frozen=True, eq=False)
class LinearTransform:
    """An invertible matrix pair with the bias image and the cost scale.

    ``scale`` is the factor by which squared-error costs in original
    coordinates must be multiplied to equal the transformed-coordinate cost
    (1 for orthonormal transforms).
    """

    forward: np.ndarray
    inverse: np.ndarray
    transformed_bias: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        fwd = np.asarray(self.forward, dtype=float)
        inv = np.asarray(self.inverse, dtype=float)
        n = fwd.shape[0]
        if fwd.shape != (n, n) or inv.shape != (n, n):
            raise DimensionMismatchError("forward and inverse must be square and equal-sized")
        if not np.allclose(fwd @ inv, np.eye(n), atol=1e-12):
            raise ValueError("inverse does not invert forward to 1e-12")
        tb = as_point(self.transformed_bias, dim=n)
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")
        object.__setattr__(self, "forward", fwd)
        object.__setattr__(self, "inverse", inv)
        object.__setattr__(self, "transformed_bias", tb)
        object.__setattr__(self, "scale", float(self.scale))

    @property
    def dim(self) -> int:
        return self.forward.shape[0]

    @property
    def is_orthonormal(self) -> bool:
        return bool(np.allclose(self.forward.T, self.inverse, atol=1e-12))

    def apply(self, p, direction: str = "forward"):
        """Apply the transform to a point or an (N, n) batch of points.

        A batch comes back as the transposed view of a coordinate-major
        (n, N) array, so ``out.T[r]`` holds coordinate r contiguously, and a
        batch given that way is read row by row.
        """
        if direction == "forward":
            mat = self.forward
        elif direction == "inverse":
            mat = self.inverse
        else:
            raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
        arr = np.asarray(p, dtype=float)
        if arr.ndim == 1:
            if arr.shape[0] != self.dim:
                raise DimensionMismatchError(
                    f"point has length {arr.shape[0]}, transform is {self.dim}-dimensional"
                )
            return mat @ arr
        if arr.ndim == 2:
            if arr.shape[1] != self.dim:
                raise DimensionMismatchError(
                    f"points have dimension {arr.shape[1]}, transform is {self.dim}-dimensional"
                )
            return _apply_batch(mat, arr)
        raise DimensionMismatchError(f"expected a vector or a 2-D batch, got shape {arr.shape}")


def permutation_transform(order, bias=None) -> LinearTransform:
    """Coordinate permutation sending original axis ``order[k]`` to axis ``k``."""
    order = [_whole(j, f"order[{k}]") for k, j in enumerate(order)]
    n = len(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of 0..n-1")
    fwd = np.eye(n)[order]
    tb = np.zeros(n) if bias is None else fwd @ as_point(bias, dim=n)
    return LinearTransform(forward=fwd, inverse=fwd.T, transformed_bias=tb, scale=1.0)


def pair_transform_2d(b) -> LinearTransform:
    """The 2-D pair transform ``[[-b2, b1], [b1, b2]]`` for a nonzero bias.

    Maps the bias to ``(0, b1^2 + b2^2)``; ``scale`` equals ``b1^2 + b2^2``.
    Kept non-orthonormal exactly in this printed form so that the cost
    decoupling identities hold verbatim.
    """
    b = as_point(b, dim=2)
    b_tilde = float(b @ b)
    if b_tilde == 0.0:
        raise ValueError("pair transform requires a nonzero bias vector")
    fwd = np.array([[-b[1], b[0]], [b[0], b[1]]])
    return LinearTransform(
        forward=fwd,
        inverse=fwd / b_tilde,
        transformed_bias=fwd @ b,
        scale=b_tilde,
    )


def helmert_transform(n: int, bias: float = 0.0) -> LinearTransform:
    """Orthonormal Helmert matrix of size ``n`` (``n >= 2``).

    Row ``k`` (1-based, ``k < n``) is ``(1, ..., 1, -k, 0, ..., 0)`` with
    ``k`` ones, normalized by ``sqrt(k (k+1))``; the last row is the
    normalized all-ones vector.  ``bias`` is the common per-coordinate bias
    ``c`` of an equal-bias vector, whose image is ``(0, ..., 0, sqrt(n) c)``.
    """
    n = _whole(n, "n", 2)
    fwd = np.zeros((n, n))
    for k in range(1, n):
        fwd[k - 1, :k] = 1.0 / np.sqrt(k * (k + 1))
        fwd[k - 1, k] = -k / np.sqrt(k * (k + 1))
    fwd[n - 1, :] = 1.0 / np.sqrt(n)
    tb = np.zeros(n)
    tb[n - 1] = np.sqrt(n) * float(bias)
    return LinearTransform(forward=fwd, inverse=fwd.T, transformed_bias=tb, scale=1.0)


def bias_aligning_transform(b) -> LinearTransform:
    """Orthonormal matrix whose last row is ``b / ||b||``.

    For n = 2 the rows are built in closed form; n >= 3 uses a Householder
    reflection exchanging the last standard basis vector with ``b / ||b||``.
    """
    b = as_point(b)
    n = b.shape[0]
    if n < 2:
        raise ValueError("bias alignment needs n >= 2")
    # b over the power of two at max |b_i|: the scaling is exact, and keeps the
    # norm's squares from overflowing or underflowing
    exp = math.frexp(float(np.max(np.abs(b))))[1]
    scaled = np.ldexp(b, -exp)
    norm = float(np.linalg.norm(scaled))
    if norm == 0.0:
        raise ValueError("bias alignment requires a nonzero bias vector")
    if exp + math.frexp(norm)[1] > np.finfo(float).maxexp:
        raise ValueError(f"the bias norm {norm!r} * 2**{exp} is not representable as a float")
    b_hat = scaled / norm

    if n == 2:
        fwd = np.array([[b_hat[1], -b_hat[0]], b_hat])
    else:
        fwd = _householder_to_last_axis(b_hat)

    tb = np.append(np.zeros(n - 1), (fwd @ b)[-1])  # fwd @ b rounds the revealed zeros off
    return LinearTransform(forward=fwd, inverse=fwd.T, transformed_bias=tb, scale=1.0)


def _householder_to_last_axis(b_hat: np.ndarray) -> np.ndarray:
    """Symmetric orthonormal reflection H with H e_n = b_hat (so row n is b_hat)."""
    n = b_hat.shape[0]
    v = b_hat.copy()
    v[-1] -= 1.0
    vsq = float(v @ v)
    if vsq < 1e-24:
        return np.eye(n)
    return np.eye(n) - 2.0 * np.outer(v, v) / vsq


def _apply_batch(mat: np.ndarray, arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``mat`` applied to every row of the (N, n) batch ``arr``, as the
    transposed view of the (n, N) product ``mat @ arr.T`` (written into
    ``out`` when given); each row rounds as it does in any batch."""
    return _product(mat, arr.T, out=out).T
