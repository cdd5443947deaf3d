#pragma once

#include "linalg/dense.hpp"

/// Hermitian eigensolver used for band-structure computation and for the
/// numerical mode-space reduction of the GNR Hamiltonian.
namespace gnrfet::linalg {

struct EigResult {
  /// Eigenvalues in ascending order.
  std::vector<double> values;
  /// Eigenvectors as columns of a unitary matrix, ordered like `values`.
  CMatrix vectors;
};

/// Full eigendecomposition of a Hermitian matrix via the cyclic complex
/// Jacobi method. The input is symmetrized internally; throws if the
/// anti-Hermitian part is large (> 1e-8 relative), which indicates misuse.
EigResult eigh(const CMatrix& a);

}  // namespace gnrfet::linalg
