#!/usr/bin/env python3
"""Per-pixel feature stacks: raw intensity, local patches, GLCM texture.

Shows how a single-band image becomes a per-pixel feature vector of
dimension 1 (intensity), patch**2 (flattened neighborhood), or
levels*(levels+1)/2 (co-occurrence of unordered level pairs), and why the GLCM step is insensitive to any
monotone rescaling of the intensities.
"""

import numpy as np

from acdkit import Raster, glcm_features, identity_features, patch_features, quantize

rng = np.random.default_rng(7)

img = Raster(np.arange(1, 10, dtype=np.float32).reshape(3, 3))
print("image:")
print(img.data, "\n")

# dim-1 stack: the pixel's own value
ident = identity_features(img)
print("identity features, dim =", ident.dim)

# 3x3 patches, mirror padded: the border rows reflect inward
patches = patch_features(img, patch=3)
print("patch features, dim =", patches.dim)
print("center pixel patch:", patches.data[1, 1])
print("corner pixel patch (mirrored):", patches.data[0, 0], "\n")

# Quantization is equal-probability over the whole raster: each of the L
# levels receives the same number of pixels (up to ties).
noisy = Raster(rng.normal(size=(64, 64)).astype(np.float32))
q = quantize(noisy, levels=8)
print("level histogram:", np.bincount(q.data.ravel(), minlength=8))

# Rank-based binning means any monotone intensity transform (calibration
# change, gamma curve, ...) leaves the levels untouched.
q_rescaled = quantize(Raster(np.exp(noisy.data / 2)), levels=8)
print("levels invariant under exp(x/2):", np.array_equal(q.data, q_rescaled.data), "\n")

# A GLCM feature is the normalized co-occurrence histogram of unordered
# level pairs {i <= j} in the patch around each pixel: a probability
# vector of length L*(L+1)/2, cells in np.triu_indices(L) order.
texture = glcm_features(q, patch=11)
vec = texture.data[32, 32]
i, j = np.triu_indices(8)
print("GLCM feature dim:", texture.dim)
print("entries sum to:", vec.sum())
print("mass near the diagonal (j-i<=1):", vec[j - i <= 1].sum())

# A checkerboard puts all co-occurrence mass off the diagonal.
cb = Raster((np.indices((9, 9)).sum(axis=0) % 2).astype(np.float32))
cb_tex = glcm_features(quantize(cb, 2), patch=3, offsets=((0, 1),))
print("checkerboard GLCM at center:", cb_tex.data[4, 4])
