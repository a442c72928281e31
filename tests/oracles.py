"""Independent brute-force reference implementations for the test suite.

Everything here is written as plainly as possible (scalar loops, BFS) and
stays independent of the library's vectorized code paths.
"""

from collections import deque

import numpy as np


def naive_trilinear(data, spacing, target):
    """Triple-loop trilinear resampler with voxel-center alignment and
    border clamping."""
    nx, ny, nz = data.shape
    out_shape = tuple(
        max(1, int(np.floor(n * s / t + 0.5)))
        for n, s, t in zip(data.shape, spacing, target)
    )
    out = np.zeros(out_shape, dtype=np.float64)
    for i in range(out_shape[0]):
        u = min(max((i + 0.5) * (target[0] / spacing[0]) - 0.5, 0.0), nx - 1.0)
        x0 = min(int(np.floor(u)), nx - 2) if nx > 1 else 0
        fx = u - x0 if nx > 1 else 0.0
        for j in range(out_shape[1]):
            v = min(max((j + 0.5) * (target[1] / spacing[1]) - 0.5, 0.0), ny - 1.0)
            y0 = min(int(np.floor(v)), ny - 2) if ny > 1 else 0
            fy = v - y0 if ny > 1 else 0.0
            for k in range(out_shape[2]):
                w = min(max((k + 0.5) * (target[2] / spacing[2]) - 0.5, 0.0), nz - 1.0)
                z0 = min(int(np.floor(w)), nz - 2) if nz > 1 else 0
                fz = w - z0 if nz > 1 else 0.0
                x1 = min(x0 + 1, nx - 1)
                y1 = min(y0 + 1, ny - 1)
                z1 = min(z0 + 1, nz - 1)
                acc = 0.0
                for dx, wx in ((x0, 1 - fx), (x1, fx)):
                    for dy, wy in ((y0, 1 - fy), (y1, fy)):
                        for dz, wz in ((z0, 1 - fz), (z1, fz)):
                            acc += wx * wy * wz * data[dx, dy, dz]
                out[i, j, k] = acc
    return out


def naive_nearest(data, spacing, target):
    """Triple-loop nearest resampler; midpoint ties go to the lower index."""
    out_shape = tuple(
        max(1, int(np.floor(n * s / t + 0.5)))
        for n, s, t in zip(data.shape, spacing, target)
    )
    out = np.zeros(out_shape, dtype=data.dtype)
    for i in range(out_shape[0]):
        for j in range(out_shape[1]):
            for k in range(out_shape[2]):
                idx = []
                for axis, o in enumerate((i, j, k)):
                    u = (o + 0.5) * (target[axis] / spacing[axis]) - 0.5
                    u = min(max(u, 0.0), data.shape[axis] - 1.0)
                    # round half down
                    best = int(np.ceil(u - 0.5))
                    idx.append(min(max(best, 0), data.shape[axis] - 1))
                out[i, j, k] = data[idx[0], idx[1], idx[2]]
    return out


def naive_mip_coronal(data):
    nx, ny, nz = data.shape
    out = np.full((nx, nz), -np.inf)
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                if data[x, y, z] > out[x, z]:
                    out[x, z] = data[x, y, z]
    return out


def naive_conv2d(x, w, b, stride, pad):
    """Six nested loops of cross-correlation with zero padding."""
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((n, f, h_out, w_out), dtype=np.float64)
    for ni in range(n):
        for fi in range(f):
            for i in range(h_out):
                for j in range(w_out):
                    acc = b[fi]
                    for ci in range(c):
                        for ki in range(k):
                            for kj in range(k):
                                ii = i * stride + ki - pad
                                jj = j * stride + kj - pad
                                if 0 <= ii < h and 0 <= jj < wd:
                                    acc += w[fi, ci, ki, kj] * x[ni, ci, ii, jj]
                    out[ni, fi, i, j] = acc
    return out


def naive_conv2d_input_grad(g, w, x_shape, stride, pad):
    """Gradient of :func:`naive_conv2d` w.r.t. its input, one tap at a time."""
    n, c, h, wd = x_shape
    f, _, k, _ = w.shape
    gx = np.zeros(x_shape, dtype=np.float64)
    for ni in range(n):
        for fi in range(f):
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    for ci in range(c):
                        for ki in range(k):
                            for kj in range(k):
                                ii = i * stride + ki - pad
                                jj = j * stride + kj - pad
                                if 0 <= ii < h and 0 <= jj < wd:
                                    gx[ni, ci, ii, jj] += w[fi, ci, ki, kj] * g[ni, fi, i, j]
    return gx


def scalar_adamw(w, g, steps, lr, beta1, beta2, eps, weight_decay):
    """Single-scalar AdamW trajectory, written from the update equations."""
    m = 0.0
    v = 0.0
    for t in range(1, steps + 1):
        w = w - lr * weight_decay * w
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        w = w - lr * mhat / (np.sqrt(vhat) + eps)
    return w


def bfs_components(mask, connectivity):
    """Flood-fill labeling; labels numbered by first encounter in the
    x-fastest scan (z slowest, y middle, x fastest)."""
    offsets = []
    max_nonzero = {6: 1, 18: 2, 26: 3}[connectivity]
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if (dx, dy, dz) == (0, 0, 0):
                    continue
                if abs(dx) + abs(dy) + abs(dz) <= max_nonzero:
                    offsets.append((dx, dy, dz))
    nx, ny, nz = mask.shape
    labels = np.zeros(mask.shape, dtype=np.int32)
    current = 0
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if not mask[x, y, z] or labels[x, y, z]:
                    continue
                current += 1
                queue = deque([(x, y, z)])
                labels[x, y, z] = current
                while queue:
                    cx, cy, cz = queue.popleft()
                    for dx, dy, dz in offsets:
                        px, py, pz = cx + dx, cy + dy, cz + dz
                        if 0 <= px < nx and 0 <= py < ny and 0 <= pz < nz:
                            if mask[px, py, pz] and not labels[px, py, pz]:
                                labels[px, py, pz] = current
                                queue.append((px, py, pz))
    return labels, current


def naive_case_metrics(pred, gt, spacing, connectivity):
    """Dice / FPV / FNV straight from the definitions via BFS labeling."""
    p = int(pred.sum())
    g = int(gt.sum())
    inter = int((pred & gt).sum())
    if p == 0 and g == 0:
        dice = None
    else:
        dice = 2.0 * inter / (p + g)

    voxvol = spacing[0] * spacing[1] * spacing[2]
    pred_labels, n_pred = bfs_components(pred, connectivity)
    gt_labels, n_gt = bfs_components(gt, connectivity)

    fpv = 0
    for comp in range(1, n_pred + 1):
        comp_mask = pred_labels == comp
        if not (comp_mask & gt).any():
            fpv += int(comp_mask.sum())
    fnv = 0
    for comp in range(1, n_gt + 1):
        comp_mask = gt_labels == comp
        if not (comp_mask & pred).any():
            fnv += int(comp_mask.sum())
    return {
        "dice": dice,
        "fpv_voxels": fpv,
        "fpv_ml": fpv * voxvol / 1000.0,
        "fnv_voxels": fnv,
        "fnv_ml": fnv * voxvol / 1000.0,
        "n_pred": n_pred,
        "n_gt": n_gt,
    }


def stacked_ensemble_mean(predict, n_folds, flip_axes):
    """TTA x fold ensemble by stacking: per fold, ``np.mean`` over the
    stacked un-flipped outputs in ``flip_axes`` order; then ``np.mean``
    over the stacked fold means. ``predict(fold, axes)`` returns the
    prediction for the input flipped along ``axes``."""
    fold_means = []
    for fold in range(n_folds):
        outputs = [np.flip(predict(fold, axes), axes) for axes in flip_axes]
        fold_means.append(np.mean(np.stack(outputs), axis=0))
    return np.mean(np.stack(fold_means), axis=0)
