"""Dense product-basis reference for cross-checking the Fock oracle.

The oracle streams the real ladder weights of the evolved joint state into
occupation distributions by matching basis labels.  This module builds the
same state from the phased ket ensemble of ``su11_reference.joint_kets`` as
a full matrix on the row-major ``(n_s, n_e)`` product basis (``n_e``
fastest), reduces it with a label-blind ``einsum`` partial trace and takes
entropies from the eigenvalues of the reduced matrices, so the two routes
can be compared at points whose dense dimension stays small.  Every function
returns plain ndarrays or floats.
"""

import numpy as np

from ampbound.fock_oracle import von_neumann_entropy


def ket_to_dense(ket, dim_s: int, dim_e: int) -> np.ndarray:
    """Dense vector of a ``su11_reference.LadderKet`` on the product basis."""
    v = np.zeros(dim_s * dim_e, dtype=complex)
    for i, amp in enumerate(ket.amplitudes):
        ns = ket.first + i
        ne = ns + ket.charge
        if ns >= dim_s or ne >= dim_e:
            raise ValueError(f"amplitude at ({ns}, {ne}) outside a {dim_s}x{dim_e} basis")
        v[ns * dim_e + ne] = amp
    return v


def ket_dims(kets: np.ndarray) -> tuple:
    """``(dim_s, dim_e)`` spanned by the ladder kets: rung ``l`` of row ``m``
    is ``(n_s, n_e) = (l, m + l)``."""
    rows, rungs = kets.shape
    return rungs, rows + rungs - 1


def joint_to_dense(pbar: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """``sum_m pbar_m |psi_m><psi_m|`` as one matrix over the flat product index."""
    rows, rungs = kets.shape
    dim_s, dim_e = ket_dims(kets)
    vecs = np.zeros((rows, dim_s * dim_e), dtype=complex)
    for m in range(rows):
        vecs[m, np.arange(rungs) * dim_e + m + np.arange(rungs)] = kets[m]
    return (vecs.T * pbar) @ vecs.conj()


def partial_trace(rho: np.ndarray, dims: tuple, keep: str) -> np.ndarray:
    """Label-blind partial trace of a dense joint on a ``dims`` product basis."""
    if keep not in ("system", "environment"):
        raise ValueError(f"keep must be 'system' or 'environment', got {keep!r}")
    dim_s, dim_e = dims
    if rho.shape != (dim_s * dim_e, dim_s * dim_e):
        raise ValueError("dims do not span the matrix")
    four = rho.reshape(dim_s, dim_e, dim_s, dim_e)
    if keep == "system":
        return np.einsum("aeue->au", four)
    return np.einsum("sesf->ef", four)


def dense_reductions(pbar: np.ndarray, kets: np.ndarray) -> tuple:
    """``(joint, rho_s, rho_e)`` of the dense route for a ket ensemble."""
    dense = joint_to_dense(pbar, kets)
    return (dense, partial_trace(dense, ket_dims(kets), "system"),
            partial_trace(dense, ket_dims(kets), "environment"))


def max_offdiagonal(rho: np.ndarray) -> float:
    """Largest off-diagonal modulus, the diagonality figure of merit."""
    off = rho - np.diag(np.diag(rho))
    return float(np.max(np.abs(off))) if len(rho) > 1 else 0.0


def purity(rho: np.ndarray) -> float:
    """``Tr[rho^2]`` of a Hermitian matrix, as the squared Frobenius norm."""
    return float(np.sum(np.abs(rho) ** 2))


def eigvalsh_entropy(rho: np.ndarray) -> float:
    """``-sum lambda ln lambda`` over the eigenvalues of a Hermitian matrix."""
    return von_neumann_entropy(np.linalg.eigvalsh(rho))
