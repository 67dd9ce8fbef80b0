"""Shot-level Monte Carlo twin: sampled joint quadrature records vs analytic matrices.

Every element of the protocol is Gaussian and linear, so per-shot sampling
through the same linear maps must reproduce the analytic covariance at the
1/sqrt(n) rate.  This also mirrors how the states would be verified on the
bench: record quadratures, estimate the covariance, then certify.
"""

import numpy as np

from cvsteer import (
    GaussianState,
    Partition,
    build_network_state,
    compare_covariance,
    estimate_covariance,
    optimal_fb,
    optimal_fd,
    ppt_min,
    simulate_shots,
    steerability,
)
from cvsteer.protocol import ProtocolParams, V_A_DEFAULT, V_S_DEFAULT

np.set_printoptions(precision=4, suppress=True)

eta = 0.8
params = ProtocolParams(
    users="three",
    eta_sb=eta, eta_sd=eta, eta_ab=eta, eta_bd=eta,
    f_b=optimal_fb(0.5, eta, eta, V_A_DEFAULT, V_S_DEFAULT),
    f_d=optimal_fd(eta, V_A_DEFAULT, V_S_DEFAULT),
)

for n_shots in (10_000, 100_000, 1_000_000):
    batch = simulate_shots(params, "final_three_user", n_shots, seed=2024)
    estimated = estimate_covariance(batch)
    analytic = build_network_state(params, "final_three_user")
    report = compare_covariance(estimated, analytic.cov, n_shots)
    low, high = report.detection_floor  # the deviation a flag needs, element by element
    print(f"{n_shots:>9} shots: max |dev| = {report.max_abs_deviation:.5f}, "
          f"max z = {float(report.z_scores.max()):.2f}, "
          f"flagged = {len(report.flagged)}, floor = {low:.5f} to {high:.5f}")

# certify on the *estimated* matrix, as one would with measured data
est_state = GaussianState(batch.labels, estimated)
analytic = build_network_state(params, "final_three_user")
print("\ncertification on the estimate vs the analytic state:")
for mode in batch.labels:
    print(f"  PPT {mode}|rest: {ppt_min(est_state, [mode]):.4f} "
          f"vs {ppt_min(analytic, [mode]):.4f}")
for name, part in (("A->BD", Partition((0,), (1, 2))),
                   ("BD->A", Partition((1, 2), (0,)))):
    print(f"  G {name}: {steerability(est_state, part):.4f} "
          f"vs {steerability(analytic, part):.4f}")

print("\nsame seed, same records:",
      np.array_equal(
          simulate_shots(params, "final_three_user", 1000, seed=7).quads,
          simulate_shots(params, "final_three_user", 1000, seed=7).quads))
