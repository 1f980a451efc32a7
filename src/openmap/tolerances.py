"""Every numeric threshold in openmap; absolute unless a comment names its scale."""

# max |U^dag U - 1| of an input unitary (superop.check_unitary).
UNITARY_TOL = 1e-10
# superop.is_trace_preserving, is_hermiticity_preserving, is_unital; the
# Hermitian offset of superop.mean_affine and input of states.means_from_matrix;
# the offset trace analysis.invert accepts.
MAP_TOL = 1e-10
# Scaled by the largest value: a singular value or |eigenvalue| at most RANK_TOL
# times the largest is zero (analysis._relative_rank, analysis Kraus factors).
RANK_TOL = 1e-10
# Smallest eigenvalue of a matrix that should be positive semidefinite:
# states.DensityMatrix, the CP flags of analysis, a domain witness.
PSD_TOL = -1e-10
# Rounding allowance for identities exact on O(1) matrices: DensityMatrix
# Hermiticity and trace, JointState <F_00> = 1, transfer_matrix realness and
# orthogonality, a parameter in mapgen.detect_parameters, a nonzero twoqubit
# determinant, a twoqubit Pauli moment or Bloch-vector norm at most 1, the means
# a domain witness reproduces. Scaled by Tr Z in domain's certificate re-check.
ROUNDING_TOL = 1e-12
# domain.compatible. Scaled by Tr Z: a certificate Z proves an eigenvalue below
# -CERT_TOL in every completion. An undecided search is compatible=True when
# its last smallest eigenvalue is >= -RESIDUAL_TOL. CERT_TOL >= RESIDUAL_TOL
# keeps a certificate from coexisting with a witness or compatible=True.
CERT_TOL = 1e-8
RESIDUAL_TOL = 1e-8
# Deviation allowed by the two-qubit closed-form oracles (twoqubit's default
# tolerance; the CLI demos' default when neither --tol nor OPENMAP_TOL is set).
ORACLE_TOL = 1e-10
