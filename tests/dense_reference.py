"""Dense product-basis reference for cross-checking the Fock oracle.

The oracle keeps its joint state as a :class:`~ampbound.fock_oracle.KetEnsemble`
and reduces it by matching basis labels.  This module rebuilds the same state
as a full matrix on the row-major ``(n_s, n_e)`` product basis (``n_e``
fastest) and reduces it with a label-blind ``einsum`` partial trace, so the
two routes can be compared at points whose dense dimension stays small.
"""

import numpy as np

from ampbound.fock_oracle import DensityMatrix


def ket_to_dense(ket, dim_s: int, dim_e: int) -> np.ndarray:
    """Dense vector of a :class:`~ampbound.su11.LadderKet` on the product basis."""
    v = np.zeros(dim_s * dim_e, dtype=complex)
    for i, amp in enumerate(ket.amplitudes):
        ns = ket.first + i
        ne = ns + ket.charge
        if ns >= dim_s or ne >= dim_e:
            raise ValueError(f"amplitude at ({ns}, {ne}) outside a {dim_s}x{dim_e} basis")
        v[ns * dim_e + ne] = amp
    return v


def joint_to_dense(joint) -> DensityMatrix:
    """``sum_m pbar_m |psi_m><psi_m|`` as one matrix over the flat product index."""
    rows, rungs = joint.kets.shape
    dim_e = joint.dim_e
    dim = joint.dim_s * dim_e
    vecs = np.zeros((rows, dim), dtype=complex)
    for m in range(rows):
        vecs[m, np.arange(rungs) * dim_e + m + np.arange(rungs)] = joint.kets[m]
    rho = (vecs.T * joint.pbar) @ vecs.conj()
    return DensityMatrix(dim, rho, tuple(range(dim)))


def partial_trace(rho: DensityMatrix, dims: tuple, keep: str) -> DensityMatrix:
    """Label-blind partial trace of a dense joint on a ``dims`` product basis."""
    if keep not in ("system", "environment"):
        raise ValueError(f"keep must be 'system' or 'environment', got {keep!r}")
    dim_s, dim_e = dims
    if dim_s * dim_e != rho.dim:
        raise ValueError("dims do not span the matrix")
    four = rho.entries.reshape(dim_s, dim_e, dim_s, dim_e)
    if keep == "system":
        red = np.einsum("aeue->au", four)
        return DensityMatrix(dim_s, red, tuple(range(dim_s)))
    red = np.einsum("sesf->ef", four)
    return DensityMatrix(dim_e, red, tuple(range(dim_e)))


def dense_reductions(joint) -> tuple:
    """``(joint, rho_s, rho_e)`` of the dense route for a ket ensemble."""
    dense = joint_to_dense(joint)
    dims = (joint.dim_s, joint.dim_e)
    return (dense, partial_trace(dense, dims, "system"),
            partial_trace(dense, dims, "environment"))
