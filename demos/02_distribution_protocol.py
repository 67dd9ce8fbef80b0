"""Walk the separable-ancilla distribution protocol stage by stage.

The server never prepares entanglement: it ships four fully separable
displaced modes.  Entanglement appears only after the users' local beam
splitters, while the relayed ancillas C1 and C2 stay separable from
everything else at every step -- that is the whole point of the scheme.
"""

import numpy as np

from cvsteer import (
    Partition,
    analytic_cov_final_two_user,
    analytic_cov_three_user,
    build_network_state,
    optimal_fb,
    optimal_fd,
    ppt_min,
    separable_boundary_vsep,
    steerability,
)
from cvsteer.protocol import ProtocolParams, V_A_DEFAULT, V_S_DEFAULT

np.set_printoptions(precision=3, suppress=True)

tol = 1e-12  # the two routes differ by rounding alone; the digits of the gap are noise


def agreement(gap: float) -> str:
    verdict = "agrees with" if gap <= tol else "departs from"
    return f"closed form {verdict} the pipeline to within {tol:.0e}"


eta = 1.0
params = ProtocolParams(
    users="three",
    f_b=optimal_fb(0.5, eta, eta, V_A_DEFAULT, V_S_DEFAULT),
    f_d=optimal_fd(eta, V_A_DEFAULT, V_S_DEFAULT),
)
print(f"displacement coefficients: f_b={params.f_b:.3f}  f_d={params.f_d:.3f}")
print(f"displacement variance {params.v_dis} vs separable boundary "
      f"{separable_boundary_vsep(params):.3f}")

# -- step 0: server outputs are fully separable -------------------------------
server = build_network_state(params, "server")
print("\nserver outputs", server.labels)
for mode in server.labels:
    print(f"  PPT {mode}|rest = {ppt_min(server, [mode]):.4f}  (>= 1: separable)")

# -- step 1: Alice splits, the ancilla heads to Bob ---------------------------
pre_bob = build_network_state(params, "pre_bob")
print("\nbefore Bob's beam splitter", pre_bob.labels)
print(f"  PPT C1|A,B0 = {ppt_min(pre_bob, ['C1']):.4f}   (ancilla separable)")
print(f"  PPT B0|A,C1 = {ppt_min(pre_bob, ['B0']):.4f}   (Bob's mode separable)")
print(f"  PPT A|B0,C1 = {ppt_min(pre_bob, ['A']):.4f}   (< 1: Alice already entangled"
      " with the pair)")

# -- step 2: Bob splits -> two-user entanglement ------------------------------
two_user = build_network_state(params, "final_two_user")
print("\ntwo-user output", two_user.labels)
print(f"  PPT A|B = {ppt_min(two_user, ['A']):.4f}")
print(f"  G A->B  = {steerability(two_user, Partition((0,), (1,))):.4f}")
print(f"  G B->A  = {steerability(two_user, Partition((1,), (0,))):.4f}  (one-way)")
gap = np.abs(two_user.cov - analytic_cov_final_two_user(params)).max()
print(f"  {agreement(gap)}")

# -- step 3: the spare port goes to David -> three-user entanglement ----------
pre_david = build_network_state(params, "pre_david")
print("\nsecond ancilla in flight", pre_david.labels)
print(f"  PPT C2|A,B,D0 = {ppt_min(pre_david, ['C2']):.4f}  (still separable)")

three_user = build_network_state(params, "final_three_user")
print("\nthree-user output", three_user.labels)
for mode in three_user.labels:
    print(f"  PPT {mode}|rest = {ppt_min(three_user, [mode]):.4f}")
print(f"  G A->BD = {steerability(three_user, Partition((0,), (1, 2))):.4f}")
print(f"  G A->B  = {steerability(three_user, Partition((0,), (1,))):.4f}")
print(f"  G A->D  = {steerability(three_user, Partition((0,), (2,))):.4f}")
print(f"  G B->D  = {steerability(three_user, Partition((1,), (2,))):.4f}"
      "  (monogamy forbids it)")
gap = np.abs(three_user.cov - analytic_cov_three_user(params)).max()
print(f"  {agreement(gap)}")
