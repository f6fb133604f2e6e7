"""A digital Butterworth high-pass as second-order sections (SOS), and its
zero-phase run, without importing the ``scipy.signal`` package.

``butter_highpass`` and ``sosfilt_zi`` are ports of the steps of scipy 1.17's
``butter(order, cutoff, btype="highpass", fs=fs, output="sos")`` and
``sosfilt_zi`` that a digital high-pass reaches: ``buttap``, ``lp2hp_zpk``,
``bilinear_zpk``, ``zpk2sos`` with ``pairing="nearest"`` (``_cplxreal`` and
the convolution-loop ``poly`` included) and ``lfilter_zi``. They do the same
floating-point operations in the same order, so they give scipy 1.17's bits.
``sosfiltfilt_even`` is ``sosfiltfilt(sos, x, padtype="even",
padlen=padlen)``: the same glue around scipy's compiled ``_sosfilt`` kernel,
which ``sosfilt_kernel`` loads from its file. That never runs
``scipy/signal/__init__.py``, an import of about 0.85 s that raises a fresh
interpreter's peak RSS from 28 to 103 MB.

The code is derived from SciPy (https://scipy.org), under this license:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from collections.abc import Callable
from functools import cache

import numpy as np


def _cplxreal(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The complex values of ``z`` with positive imaginary part, one per
    conjugate pair, and its real values, each sorted as scipy sorts them."""
    tol = 100 * np.finfo(float).eps
    z = z[np.lexsort((abs(z.imag), z.real))]
    real_indices = abs(z.imag) <= tol * abs(z)
    zr = z[real_indices].real
    if len(zr) == len(z):
        return np.array([]), zr
    z = z[~real_indices]
    zp, zn = z[z.imag > 0], z[z.imag < 0]
    # runs of (nearly) the same real part, each sorted by its imaginary parts
    same_real = np.diff(zp.real) <= tol * abs(zp[:-1])
    diffs = np.diff(np.concatenate(([0], same_real, [0])))
    for start, stop in zip(np.nonzero(diffs > 0)[0], np.nonzero(diffs < 0)[0] + 1):
        for chunk in (zp[start:stop], zn[start:stop]):
            chunk[...] = chunk[np.lexsort([abs(chunk.imag)])]
    return (zp + zn.conj()) / 2, zr


def _poly(roots: np.ndarray) -> np.ndarray:
    """The monic polynomial with these two roots, as scipy's ``poly`` builds
    it; real, since the roots are real or a conjugate pair."""
    a = np.ones(1, dtype=roots.dtype)
    for root in roots:
        a = np.convolve(a, np.stack((np.ones_like(roots[0]), -root)))
    return a.real


def butter_highpass(order: int, cutoff_hz: float, fs: float) -> np.ndarray:
    """scipy 1.17's ``butter(order, cutoff_hz, btype="highpass", fs=fs,
    output="sos")``, bit for bit, for 0 < cutoff_hz < fs / 2."""
    # iirfilter: the cutoff relative to Nyquist, pre-warped for fs = 2
    wn = np.asarray(cutoff_hz, dtype=np.float64) / (float(fs) / 2)
    warped = 2 * 2.0 * np.tan(np.pi * wn / 2.0)
    # buttap: the analog prototype's poles; the middle one is exactly real
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    p = -np.exp(1j * np.pi * m / (2 * order))
    # lp2hp_zpk, then bilinear_zpk at fs2 = 4, each gain formed as scipy forms
    # it: the prototype has no zeros (an empty product), so the high-pass has
    # `order` zeros at s = 0, which map to z = 1 exactly
    k = 1.0 * np.real(np.prod(-np.zeros(0)) / np.prod(-p))
    p = float(warped) / p
    fs2 = 2.0 * 2.0
    k = np.asarray(k * np.real(np.prod(fs2 - np.zeros(order)) / np.prod(fs2 - p)))
    p = (fs2 + p) / (fs2 - p)
    # zpk2sos, pairing "nearest": an odd order gets a pole and a zero at 0
    n_sections = (order + 1) // 2
    z = np.concatenate((np.zeros(order % 2), np.ones(order)))  # _cplxreal's order
    p = np.concatenate(_cplxreal(np.concatenate((p, np.zeros(order % 2)))))

    def worst(poles: np.ndarray) -> int:  # the pole closest to the unit circle
        return np.argmin(np.abs(1 - np.abs(poles)))

    def take_nearest_zero(to: complex) -> float:
        nonlocal z
        i = np.argsort(np.abs(z - to))[0]
        zero, z = z[i], np.delete(z, i)
        return zero

    sos = np.zeros((n_sections, 6))
    # the worst pole last; every zero is real and the real poles come in
    # pairs, so zpk2sos's two special cases never arise
    for si in range(n_sections - 1, -1, -1):
        i = worst(p)
        p1, p = p[i], np.delete(p, i)
        if np.isreal(p1):
            reals = np.flatnonzero(np.isreal(p))
            i = reals[worst(p[reals])]
            p2, p = p[i], np.delete(p, i)
        else:
            p2 = p1.conj()
        zeros = np.asarray([take_nearest_zero(p1), take_nearest_zero(p1)])
        sos[si, :3] = _poly(zeros)
        sos[si, 3:] = _poly(np.asarray([p1, p2]))
    sos[0][:3] *= k.real
    return sos


def sosfilt_zi(sos: np.ndarray) -> np.ndarray:
    """scipy 1.17's ``sosfilt_zi(sos)`` for sections whose a0 is 1: each
    section's step-response steady state, scaled by the gain of the sections
    before it. A section with a pole at z = 1 raises LinAlgError."""
    zi = np.empty((len(sos), 2))
    scale = 1.0
    for section, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        # lfilter_zi: solve zi = A zi + B, A the transposed companion matrix of a
        companion_t = np.array([[-a[1] / (1.0 * a[0]), 1.0], [-a[2] / (1.0 * a[0]), 0.0]])
        zi[section] = scale * np.linalg.solve(np.eye(2) - companion_t, b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    return zi


@cache
def sosfilt_kernel() -> Callable[[np.ndarray, np.ndarray, np.ndarray], None]:
    """scipy's compiled ``_sosfilt(sos, x, zi)``, which filters each row of a
    C-ordered [rows, samples] ``x`` in place from its [rows, sections, 2]
    state. It is loaded from its file, the way the import system would, but
    without running ``scipy/signal/__init__.py``; it registers itself as
    ``scipy.signal._sosfilt``, so a later ``import scipy.signal`` uses the
    same module."""
    module = sys.modules.get("scipy.signal._sosfilt")
    if module is None:
        scipy_spec = importlib.util.find_spec("scipy")  # finds, but does not run, scipy
        dirs = [os.path.join(d, "signal") for d in scipy_spec.submodule_search_locations or ()]
        spec = importlib.machinery.PathFinder.find_spec("scipy.signal._sosfilt", dirs)
        if spec is None:
            raise ModuleNotFoundError(f"scipy's compiled scipy.signal._sosfilt is not in {dirs}",
                                      name="scipy.signal._sosfilt")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module._sosfilt


def sosfiltfilt_even(sos: np.ndarray, x: np.ndarray, padlen: int) -> np.ndarray:
    """scipy 1.17's ``sosfiltfilt(sos, x, padtype="even", padlen=padlen)``
    along the last axis, bit for bit, for sections whose a0 is 1 and an
    ``x`` longer than ``padlen``."""
    sos = np.ascontiguousarray(sos, dtype=np.float64)
    zi = sosfilt_zi(sos)
    # even extension: x mirrored about its first and last samples
    ext = np.concatenate((x[..., padlen:0:-1], x, x[..., -2:-(padlen + 2):-1]), axis=-1)
    y = np.ascontiguousarray(ext.reshape(-1, ext.shape[-1]))  # a new array, filtered in place
    kernel = sosfilt_kernel()
    kernel(sos, y, np.ascontiguousarray(zi * y[:, :1, None]))  # from the state of a step at x[0]
    y = np.array(y[:, ::-1], order="C")  # then backward, from the last output
    kernel(sos, y, np.ascontiguousarray(zi * y[:, :1, None]))
    return y[:, ::-1].reshape(ext.shape)[..., padlen:-padlen]
