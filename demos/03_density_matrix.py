"""Density-matrix correlations: the general family behind V and P.

A symmetric positive operator rho defines the averaging. It is held as
its spectral factors, rho = Psi diag(lambda) Psi^T in the f-eigenbasis, so
a rank-r rho costs O(r n^2). Two special choices recover the simpler
estimators exactly:

  rho = |1><1|   (one vector, the amplitudes)  ->  value-correlation
  rho = identity (no vectors, lambda = 1)      ->  probability-correlation

The squared variant ((rho S)_ij)^2 factorizes into a product of the two
marginal quadrature weights exactly when rho has rank 1 ("pure state");
the distance from factorization measures how mixed rho is.
"""
import sys

import numpy as np

from lebquad import (
    analyze,
    datagen,
    density_from_pure_unit,
    density_from_spectral,
    density_identity,
    density_matrix_correlation,
    pure_squared_correlation,
    pureness_estimate,
)


def check(label, holds):
    """Print an identity check; a failed one fails the script."""
    print(label, holds)
    if not holds:
        sys.exit(f"identity failed: {label}")


samples = datagen.generate(datagen.load_scenario("smooth"))
result = analyze(samples, n=4)
S = result.projection()

rho_unit = density_from_pure_unit(result.quad_f)
rho_ident = density_identity(4)

D_unit = density_matrix_correlation(S, rho_unit)
D_ident = density_matrix_correlation(S, rho_ident)
V = result.correlation("value", S=S)
P = result.correlation("probability", S=S)

check("density correlation with rho = |1><1| equals V:",
      np.array_equal(D_unit.W, V.W))
check("density correlation with rho = identity equals P:",
      np.allclose(D_ident.W, P.W, atol=1e-12))
print("spur of |1><1| rho:", rho_unit.spur, "= total measure", samples.w.sum())

# squared correlation: pure states factorize, mixed states do not
W = pure_squared_correlation(S, rho_unit).W
check("\nsquared correlation with pure rho factorizes:",
      np.allclose(W, np.outer(result.quad_f.weights, result.quad_g.weights)))
print("pureness residual, pure rho  :", pureness_estimate(S, rho_unit))
print("pureness residual, mixed rho :", pureness_estimate(S, rho_ident))

# a custom rho from its spectral decomposition (in the f-eigenbasis)
rng = np.random.default_rng(0)
q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
rho = density_from_spectral([2.0, 1.0, 0.5, 0.1], q)
D = density_matrix_correlation(S, rho)
print("\ncustom spectral rho: total", round(D.total, 10),
      "= spur", round(rho.spur, 10))
