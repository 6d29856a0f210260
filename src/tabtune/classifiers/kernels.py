"""The float kernels whose last bits depend on the host CPU, in one place.

numpy picks the code of ``exp``, ``log`` and ``log2`` and the tie order of
its default ``argsort`` by the SIMD level it detects, and OpenBLAS its
product kernels by the core it detects, so each can move a report's last
bits. Classifiers take them from here alone (``tests/test_source.py``
checks), so changing one edits this module alone. Each is the numpy call
the recorded digests were made with. Sums, ``var``, ``sqrt`` and stable
``argsort`` kept their bits at every level measured, so are called directly.
"""

from __future__ import annotations

import numpy as np

exp, log, log2 = np.exp, np.log, np.log2
matmul = np.matmul  # the ``@`` operator: every product of a feature matrix


def node_order(X):
    """Each column's row order by value: numpy's default ``argsort`` along
    axis 0, whose order of tied values depends on the SIMD level."""
    return np.argsort(X, axis=0)


def sigmoid(z):
    """Logistic function: 1/(1+exp(-z)) for z >= 0, else exp(z)/(1+exp(z)).

    ``exp`` sees only ``minimum(z, -z)``, so it never overflows; that is
    -|z|, except that a NaN keeps its sign, as the second branch's ``exp(z)``
    would see it. One division serves both branches, with their operands.
    """
    z = np.asarray(z, dtype=float)
    e = exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)
