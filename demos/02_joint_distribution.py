"""Joint distribution of two processes from eigenvector projections.

Both processes share the same argument and measure, so their eigenbases
span the same space; the overlap matrix S between them carries the whole
joint structure. Two estimators come out of S directly:

  value-correlation      V_ij = a_i S_ij b_j   (normalized to the measure)
  probability-correlation P_ij = S_ij^2        (doubly stochastic, total n)
"""
import sys

import numpy as np

from lebquad import analyze, datagen


def check(label, holds):
    """Print an identity check; a failed one fails the script."""
    print(label, holds)
    if not holds:
        sys.exit(f"identity failed: {label}")


samples = datagen.generate(datagen.load_scenario("smooth"))
result = analyze(samples, n=5)

V = result.correlation("value")
P = result.correlation("probability")

print("f levels:", np.round(result.quad_f.nodes, 3))
print("g levels:", np.round(result.quad_g.nodes, 3))

print("\nvalue-correlation (measure of f~f_i and g~g_j):")
print(np.round(V.W, 1))
print("total:", V.total, "expected:", V.normalization)
check("row sums equal f-weights:",
      np.allclose(V.W.sum(axis=1), result.quad_f.weights))
print("negative entries present:", V.has_negative_entries,
      "(the estimator is exact 'on average', not pointwise positive)")

print("\nprobability-correlation:")
print(np.round(P.W, 4))
print("total:", P.total, "expected:", P.normalization)
check("every row and column sums to 1:",
      np.allclose(P.W.sum(axis=0), 1) and np.allclose(P.W.sum(axis=1), 1))

# sanity check: when g is just f again, V is diagonal and P is the identity
import lebquad

same = lebquad.SampleSet(x=samples.x, w=samples.w, f=samples.f, g=samples.f)
r2 = analyze(same, n=5)
print("\nwith g = f: P =")
print(np.round(r2.correlation("probability").W, 6))
