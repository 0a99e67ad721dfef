"""Gallery of the sharp three-term inequalities as signed deficits.

Every deficit is lhs - rhs with the theorems predicting >= 0; round
surfaces sit at zero.  The sweep over the perturbation amplitude shows the
deficits growing away from the equality case.
"""

from warpflow import (
    QuantityReport,
    curve_kwww_deficit,
    circle_grid,
    deficit_boundary_momentum,
    deficit_hyperbolic_ref,
    deficit_phi_quermass_euclidean,
    deficit_sphere_ref,
    deficit_weinstock_iso,
    kwong_miao_deficit,
    make_seed_surface,
    make_space_form,
    sphere_grid,
)

eu, hy, sp = make_space_form(0), make_space_form(-1), make_space_form(1)
g = sphere_grid(64, 128)

print("deficits over the legendre family u = 1 + eps P_2 (euclidean):")
print("   eps   momentum(k=1)  weinstock     Phi-quermass(k=1)  kwong-miao(k=1)")
for eps in (0.0, 0.05, 0.1, 0.2, 0.3):
    rep = QuantityReport(eu, make_seed_surface(eu, g, "legendre", r0=1, eps=eps, l=2))
    vals = (
        deficit_boundary_momentum(rep, 1.0).deficit,
        deficit_weinstock_iso(rep).deficit,
        deficit_phi_quermass_euclidean(rep, 1).deficit,
        kwong_miao_deficit(rep, 1).deficit,
    )
    print("  {:4.2f}   {:+.6f}      {:+.6f}     {:+.6f}          {:+.6f}".format(eps, *vals))

print("\nhyperbolic and sphere reference-function bounds:")
graph = make_seed_surface(hy, g, "legendre", r0=1, eps=0.1, l=2)
rep = deficit_hyperbolic_ref(QuantityReport(hy, graph), k=1, ell=0)
print(f"  hyperbolic k=1 ell=0: deficit {rep.deficit:+.6f} "
      f"(static convex: {rep.flags['static_convex']})")
graph = make_seed_surface(sp, g, "bandlimited", seed=7, r0=0.7, amp=0.03, lmax=4)
rep = deficit_sphere_ref(QuantityReport(sp, graph), ell=1)
print(f"  sphere    k=2 ell=1: deficit {rep.deficit:+.6f} "
      f"(convex: {rep.flags['convex']})")

print("\nconvex-curve bound (n = 1):")
c = circle_grid(512)
for eps in (0.0, 0.1, 0.2):
    import numpy as np
    from warpflow import RadialGraph
    u = 1 + eps * np.cos(2 * c.theta)
    rep = curve_kwww_deficit(QuantityReport(eu, RadialGraph(grid=c, u=u,
                                                            space_kind="euclidean")))
    print(f"  u = 1 + {eps} cos(2t): deficit {rep.deficit:+.6f}")
