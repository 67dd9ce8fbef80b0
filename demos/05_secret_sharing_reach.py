"""Secret sharing: collective steering toward the dealer, key rate, reach.

With stronger squeezing (-10 dB) and hand-tuned displacement weights, the
network distributes the opposite steering direction: Bob and David together
steer Alice while neither can alone.  That asymmetry is exactly the
resource one-sided device-independent secret sharing needs: the players
must collaborate to decode the dealer's secret.
"""

import numpy as np

from cvsteer import SCENARIO_TABLE, fiber_distance, key_rate, scan

etas = np.round(np.arange(0.70, 1.0001, 0.025), 4)
result = scan(SCENARIO_TABLE["qss"], etas)

print("collective vs individual steering toward the dealer")
print(f"{'eta':>6} {'G_BD->A':>9} {'G_B->A':>7} {'G_D->A':>7} "
      f"{'PPT_C1':>7} {'PPT_C2':>7} {'key rate':>9}")
for row in result.rows:
    print(f"{row['eta']:>6.3f} {row['G_BD_to_A']:>9.4f} {row['G_B_to_A']:>7.1f} "
          f"{row['G_D_to_A']:>7.1f} {row['ppt_C1_vs_AB0']:>7.4f} "
          f"{row['ppt_C2_vs_ABD0']:>7.4f} {row['key_rate']:>9.4f}")

print("\nboth ancilla PPT values stay above 1: the distribution itself")
print("still only ever transmits separable states.")

# thresholds by bisection on the steering and on the key rate
def threshold(predicate, lo=0.5, hi=1.0):
    for _ in range(40):
        mid = (lo + hi) / 2
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi


g_of = lambda eta: scan(SCENARIO_TABLE["qss"], [eta]).rows[0]["G_BD_to_A"]
thr_steer = threshold(lambda e: g_of(e) > 0)
thr_key = threshold(lambda e: key_rate(g_of(e)) > 0)
print(f"\nsteering threshold:  eta > {thr_steer:.3f}"
      f"  -> fiber reach {fiber_distance(round(thr_steer, 2)):.2f} km @ 0.2 dB/km")
print(f"key-rate threshold:  eta > {thr_key:.3f}"
      f"  -> fiber reach {fiber_distance(round(thr_key, 2)):.2f} km @ 0.2 dB/km")

# appendix_e's reference column: the same collective steering with Alice's link lossy too
g_lossy_dealer = lambda eta: scan(SCENARIO_TABLE["appendix_e"], [eta]).rows[0]["G_BD_to_A_qss"]
thr_e = threshold(lambda e: g_lossy_dealer(e) > 0)
print(f"with the dealer's own channel lossy as well: eta > {thr_e:.3f}"
      f"  -> {fiber_distance(round(thr_e, 2)):.2f} km")
