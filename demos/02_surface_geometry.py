"""Radial graphs and their extrinsic geometry.

Builds perturbed star-shaped surfaces over the sphere grid, computes
principal curvatures and convexity classes, and shows the 4th-order grid
convergence of the curvature fields.
"""

import numpy as np

from warpflow import (
    QuantityReport,
    geometry,
    make_seed_surface,
    make_space_form,
    sphere_grid,
    surface_integral,
)

eu = make_space_form(0)

print("convexity classes of legendre surfaces u = 1 + eps P_2(cos theta):")
g = sphere_grid(64, 128)
for eps in (0.0, 0.2, 0.45):
    graph = make_seed_surface(eu, g, "legendre", r0=1.0, eps=eps, l=2)
    rep = QuantityReport(eu, graph)
    flags = rep.class_flags
    print(f"  eps={eps:4.2f}: min kappa={rep.min_kappa:+.4f}  min H={2 * rep.min_E(1):+.4f}"
          f"  convex={flags['convex']}  mean convex={flags['mean_convex']}")

print("\ngrid convergence of a curvature integral (int E_2 dmu, Gauss-Bonnet says 4 pi):")
for M in (32, 64, 128):
    g = sphere_grid(M, 2 * M)
    graph = make_seed_surface(eu, g, "bandlimited", seed=7, r0=1, amp=0.05, lmax=4)
    f = geometry(eu, graph)
    val = surface_integral(f, f.E[2])
    print(f"  {M:4d}x{2*M:<4d}  int E_2 = {val:.12f}   error {abs(val - 4*np.pi):.2e}")

print("\nhyperbolic geodesic sphere r=1: kappa should be coth(1) everywhere")
hy = make_space_form(-1)
g = sphere_grid(32, 64)
graph = make_seed_surface(hy, g, "round", r0=1.0)
f = geometry(hy, graph)
print(f"  max |kappa - coth 1| = {np.abs(f.kappa - np.cosh(1)/np.sinh(1)).max():.2e}")
print(f"  support function u_s = {f.support[0, 0]:.6f} (sinh 1 = {np.sinh(1):.6f})")
