"""Optimal displacement coefficients: analytic formulas vs direct search.

The displacement weights on the users' modes control how much of the shared
classical noise cancels at their beam splitters.  The analytic optima are
re-derived here by a direct search on the actual steering monotone (a coarse
scan, then stacked grid refinement), under the constraint that the relayed
ancillas stay separable.
"""

from cvsteer import (
    numeric_optimize_coefficient,
    optimal_fb,
    optimal_fb_general_loss,
    optimal_fd,
    separable_boundary_vsep,
)
from cvsteer.cli import cmd_table_a1
from cvsteer.protocol import ProtocolParams, V_A_DEFAULT, V_S_DEFAULT

print("analytic optimal coefficients:")
print(cmd_table_a1())

print("independent grid-refinement search on the pipeline steerability:")
print(f"{'eta':>5} {'f_b search':>11} {'analytic':>9} {'f_d search':>11} {'analytic':>9}")
for eta in (1.0, 0.8, 0.6, 0.4, 0.2):
    fb = optimal_fb(0.5, eta, eta, V_A_DEFAULT, V_S_DEFAULT)
    fd = optimal_fd(eta, V_A_DEFAULT, V_S_DEFAULT)
    p2 = ProtocolParams(users="two", eta_sb=eta, eta_ab=eta, f_b=fb)
    p3 = ProtocolParams(users="three", eta_sb=eta, eta_sd=eta, eta_ab=eta, eta_bd=eta,
                        f_b=fb, f_d=fd)
    rb = numeric_optimize_coefficient("steer_A_to_B", p2, "f_b")
    rd = numeric_optimize_coefficient("steer_A_to_BD", p3, "f_d")
    print(f"{eta:>5.1f} {rb.f_star:>11.4f} {fb:>9.4f} {rd.f_star:>11.4f} {fd:>9.4f}")

print("\nseparability constraint: the noise variance must exceed the boundary")
p = ProtocolParams(f_b=optimal_fb(0.5, 1, 1, V_A_DEFAULT, V_S_DEFAULT))
print(f"  boundary at the optimum: {separable_boundary_vsep(p):.4f} "
      f"(the scenarios run at v_dis = {p.v_dis})")

print("\nwith loss on the server-to-Alice link the optimum shifts down:")
for eta_sa in (1.0, 0.95, 0.9, 0.85):
    fb = optimal_fb_general_loss(eta_sa, eta_sa, eta_sa, V_A_DEFAULT, V_S_DEFAULT)
    print(f"  eta_sa={eta_sa:.2f}: f_b = {fb:.4f}")
