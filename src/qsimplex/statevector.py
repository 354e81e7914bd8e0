"""Statevector primitives: prepared unitaries and the sparse preparation tree.

The simulator keeps registers as dense complex vectors of length ``2^q``.
A ``PreparedUnitary`` bundles the full matrix (so controlled and inverse
forms are available), a declared gate cost used for accounting, and a flag
recording that ``U|0..0>`` has real amplitudes up to global phase, which
the sign-estimation gadgets require.
"""

from __future__ import annotations

import math

import numpy as np

from .lp import ZeroVector

NORM_TOL = 1e-10


def num_qubits_for(dim: int) -> int:
    """Smallest q with 2^q >= dim."""
    return max(1, math.ceil(math.log2(max(dim, 2))))


def pad_to_register(v: np.ndarray) -> np.ndarray:
    """Zero-pad a vector to the next power-of-two length."""
    v = np.asarray(v, dtype=float)
    size = 2 ** num_qubits_for(v.size)
    if v.size == size:
        return v.copy()
    out = np.zeros(size)
    out[: v.size] = v
    return out


class PreparedUnitary:
    """A concrete unitary with declared gate cost for accounting.

    ``matrix`` acts on ``q`` qubits; ``state`` is ``U|0..0>``.  The inverse
    and controlled forms are derived from the matrix, so composition in the
    gadgets stays exactly unitary.
    """

    def __init__(self, matrix: np.ndarray, gate_cost: int,
                 real_amplitude: bool = False, check: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        dim = matrix.shape[0]
        if matrix.shape != (dim, dim) or dim & (dim - 1):
            raise ValueError("matrix must be square with power-of-two dimension")
        if check and not np.allclose(matrix.conj().T @ matrix, np.eye(dim), atol=NORM_TOL):
            raise ValueError("matrix is not unitary")
        self.matrix = matrix
        self.gate_cost = int(gate_cost)
        self.real_amplitude = bool(real_amplitude)

    @property
    def num_qubits(self) -> int:
        return int(math.log2(self.matrix.shape[0]))

    @property
    def state(self) -> np.ndarray:
        return self.matrix[:, 0].copy()

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(vec, dtype=complex)

    def inverse(self) -> "PreparedUnitary":
        return PreparedUnitary(self.matrix.conj().T, self.gate_cost,
                               self.real_amplitude, check=False)

    def controlled(self) -> "PreparedUnitary":
        """Block unitary |0><0| x I + |1><1| x U (control = new top qubit).

        A controlled unitary is charged the same gate cost as the plain one.
        """
        dim = self.matrix.shape[0]
        big = np.eye(2 * dim, dtype=complex)
        big[dim:, dim:] = self.matrix
        return PreparedUnitary(big, self.gate_cost, False, check=False)


def _tree_gate_count(padded: np.ndarray) -> int:
    """Gates for the binary-tree state preparation of a (signed) real vector.

    One unit per inner node needing a controlled rotation (both children
    carry weight), one per node where only the right child carries weight
    (controlled X), plus one sign flip per negative leaf.
    """
    size = padded.size
    weights = padded ** 2
    level = weights
    count = int(np.count_nonzero(padded < 0))
    while level.size > 1:
        left, right = level[0::2], level[1::2]
        both = np.count_nonzero((left > 0) & (right > 0))
        right_only = np.count_nonzero((left == 0) & (right > 0))
        count += int(both + right_only)
        level = left + right
    return count


def prepare_sparse_state(v, num_qubits: int | None = None) -> PreparedUnitary:
    """State-preparation unitary for a real vector via the rotation tree.

    ``U|0..0>`` equals ``v / |v|`` exactly (padded with zeros up to the
    register size).  The declared gate cost follows the binary-tree
    construction, which is ``O(d log m)`` for a d-sparse length-m vector.
    The returned matrix is a real Householder completion: only the first
    column is fixed by the construction, and nothing downstream depends on
    the remaining columns.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    if not np.any(v):
        raise ZeroVector("cannot prepare the zero vector")
    if num_qubits is not None and 2 ** num_qubits < v.size:
        raise ValueError("register too small for the vector")
    padded = pad_to_register(v)
    if num_qubits is not None and padded.size < 2 ** num_qubits:
        grown = np.zeros(2 ** num_qubits)
        grown[: padded.size] = padded
        padded = grown
    target = padded / np.linalg.norm(padded)
    gate_cost = _tree_gate_count(padded)

    dim = target.size
    w = np.zeros(dim)
    w[0] = 1.0
    w -= target
    nw2 = float(w @ w)
    if nw2 < 1e-28:
        matrix = np.eye(dim)
    else:
        matrix = np.eye(dim) - (2.0 / nw2) * np.outer(w, w)
    return PreparedUnitary(matrix, gate_cost, real_amplitude=True, check=False)
