"""Every numerical cutoff of the toolkit, each named once with what it
bounds; distinct decisions keep distinct names where their values
match.  A check's bound is the tolerance of its row of `checks.CHECKS`
and nothing else."""

# probabilities, totals and completeness
PROB_TOL = 1e-9  # a probability within this of [0, 1] is clamped into it, a total at or below it is zero; the physical cone, equal probabilities, coexistence, and the tolerance of core.equivalence and norms.coexistence
UNIT_TRACE = 1e-9  # |Tr - 1| of a State, joint states (States of quantum(d^2)) included
COMPLETENESS_TOL = 1e-9  # largest entry of sum - I over the effects of an Observable, and so over the branch effects of an Experiment; each is checked when it is built
RESOLVED_EIG = 1e-9  # an effect eigenvalue this close to 0 or 1 counts as 0 or 1 (infodim.is_resolved)

# theory files (cli.validate_spec)
OVERRIDE_HERMITIAN = 1e-9  # largest entry of phi - phi^dag in an accepted override
OVERRIDE_PSD = 1e-9  # most negative eigenvalue of an accepted override
OVERRIDE_TRACE = 1e-6  # |Tr phi - 1| of an accepted override, which is then renormalized

# ranks, solves and certified residuals
RANK_RCOND = 1e-10  # singular values at or below this times the largest do not count toward a rank
RANK_CERT = 1e-11  # a Gram matrix that stays positive definite shifted down by this times its trace certifies full rank (basis.matrix_rank)
PINV_RCOND = 1e-12  # singular values of the form F (those of the realigned state R) at or below this times the largest are cut from the transpose solve (faithful.Calibration)
TRANSPOSE_RESID = 1e-10  # transpose residual |(I - R R^+) A~ R|_F, relative to max(|A~ R|_F, 1), above which the state is not faithful
WITNESS_RESID = 1e-9  # preparation-witness residual |F^T e - t| (faithful.prepare_witness) above which there is no witness
EXPAND_RESID = 1e-9  # residual above which an effect does not expand over an observable (infodim.ic_expand)
DISCRIMINATION_RESID = 1e-9  # largest entry of pairing - identity of a perfectly discriminating witness

# positivity, symmetry and the faithful state
CP_TOL = 1e-10  # a Choi matrix with no eigenvalue below -CP_TOL is completely positive; read by channels.is_psd alone, for trans_norm and prepare_witness
SYMMETRY_TOL = 1e-12  # largest entry of S phi S - phi of a symmetric joint state
ZERO_CUTOFF = 1e-12  # a bilinear-form eigenvalue of this magnitude or less has no sign
GRAM_FLOOR = 1e-12  # smallest eigenvalue of the GNS Gram matrix of a strictly positive scalar product

# check tolerances (checks.CHECKS)
DEFAULT_TOL = 1e-9  # the bound of a check row that names no tighter one
EXACT_TOL = 1e-12  # identities exact on a faithful state: faithful.abs_gram, faithful.involution, gns.transpose_axioms, gns.homomorphism, gns.adjoint_rep
ACTION_TOL = 1e-10  # a transpose against its defining local action or its closed form: gns.transpose_residual, gns.kraus_transpose
