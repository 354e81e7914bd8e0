"""State vectors, prepared unitaries, and the sparse preparation tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsimplex.lp import ZeroVector
from qsimplex.statevector import prepare_sparse_state

TREE_COST_CONSTANT = 4  # frozen: gate_cost <= C d log2(m) for the tree prep


def test_from_vector_pads_and_normalizes():
    state = prepare_sparse_state([3.0, 0.0, 4.0]).state
    assert state.size == 4
    assert np.abs(state) ** 2 == pytest.approx([0.36, 0.0, 0.64, 0.0])


def test_prepare_single_nonzero_is_basis_state():
    v = np.zeros(8)
    v[3] = 1.0
    prep = prepare_sparse_state(v)
    assert np.allclose(prep.state, v)
    assert prep.gate_cost <= TREE_COST_CONSTANT * 1 * 3


def test_prepare_uniform_state():
    prep = prepare_sparse_state(np.full(4, 0.5))
    assert np.allclose(prep.state, 0.5)


def test_prepare_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        prepare_sparse_state(np.zeros(4))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_prepare_sparse_exact_and_cheap(seed):
    rng = np.random.default_rng(seed)
    m = 16
    d = int(rng.integers(1, 5))
    v = np.zeros(m)
    support = rng.choice(m, size=d, replace=False)
    v[support] = rng.uniform(-2.0, 2.0, size=d)
    if not np.any(v):
        return
    prep = prepare_sparse_state(v)
    assert np.allclose(prep.state, v / np.linalg.norm(v), atol=1e-12)
    nnz = int(np.count_nonzero(v))
    assert prep.gate_cost <= TREE_COST_CONSTANT * nnz * 4  # log2(16) = 4
    assert prep.real_amplitude


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_prepared_unitary_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(8)
    prep = prepare_sparse_state(v)
    for _ in range(20):
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi /= np.linalg.norm(psi)
        assert np.linalg.norm(prep.apply(psi)) == pytest.approx(1.0, abs=1e-10)


def test_unitarity_on_basis_states():
    rng = np.random.default_rng(5)
    prep = prepare_sparse_state(rng.standard_normal(8))
    U = prep.matrix
    assert np.allclose(U.conj().T @ U, np.eye(8), atol=1e-10)


def test_inverse_and_controlled_forms():
    prep = prepare_sparse_state(np.array([0.6, 0.8]))
    inv = prep.inverse()
    assert np.allclose(inv.matrix @ prep.matrix, np.eye(2), atol=1e-12)
    ctrl = prep.controlled()
    assert ctrl.num_qubits == prep.num_qubits + 1
    # control = 0 leaves the target register alone
    assert np.allclose(ctrl.matrix[:2, :2], np.eye(2))
    assert np.allclose(ctrl.matrix[2:, 2:], prep.matrix)
    assert ctrl.gate_cost == prep.gate_cost


def test_gate_cost_counts_tree_nodes():
    # dense length-4 vector: 3 inner nodes with both children live, all
    # entries positive: cost 3
    prep = prepare_sparse_state(np.array([1.0, 1.0, 1.0, 1.0]))
    assert prep.gate_cost == 3
    # e_3 on 4 leaves: the root sees only its right subtree and the next
    # level only the right leaf: two controlled-X, no rotations
    prep = prepare_sparse_state(np.array([0.0, 0.0, 0.0, 1.0]))
    assert prep.gate_cost == 2
    # a negative leaf adds one sign flip
    prep = prepare_sparse_state(np.array([1.0, -1.0, 0.0, 0.0]))
    assert prep.gate_cost == 2

