"""Lower-bound the KL contraction coefficient by search and compare it with
the exact total-variation coefficient that dominates it.

For the binary randomized response at one bit the KL coefficient is known
to be (1/3)**2 = 1/9 while the total-variation coefficient is 1/3: KL
contracts strictly faster. The search certifies a lower bound from the best
pair of inputs, with the witnessing distributions; for a given budget it
always gives the same result.

Run: python demos/03_contraction_search.py
"""
import numpy as np

from privmech import (
    CHI_SQUARED,
    KL,
    TOTAL_VARIATION,
    dobrushin_coefficient,
    estimate_eta_f,
    random_channel,
    randomized_response,
)

w = randomized_response(2, 1.0)
print("channel: binary randomized response at 1 bit, rows", w.rows.tolist())
print(f"exact eta_tv (Dobrushin): {dobrushin_coefficient(w):.12f}")
for spec, label in [(TOTAL_VARIATION, "tv "), (KL, "kl "), (CHI_SQUARED, "chi2")]:
    est = estimate_eta_f(w, spec, budget=10_000, seed=2024)
    pair = np.flatnonzero(est.witness_p0.probs + est.witness_p1.probs).tolist()
    print(
        f"eta_{label} lower bound: {est.value:.12f}"
        f"   (evaluations {est.evaluations}, input pair {pair})"
    )
print("reference: 1/9 =", 1 / 9)
print()
print("witness pair for the kl bound (both sit near the uniform center,")
print("where the local curvature ratio attains the supremum):")
est = estimate_eta_f(w, KL, budget=10_000, seed=2024)
print("    p0 =", est.witness_p0.probs.tolist())
print("    p1 =", est.witness_p1.probs.tolist())
print()

print("=== the tv bound dominates every f-divergence coefficient ===")
for seed in range(5):
    chan = random_channel(3, 4, 1.0, seed)
    tv = dobrushin_coefficient(chan)
    kl = estimate_eta_f(chan, KL, budget=4000, seed=seed).value
    chi = estimate_eta_f(chan, CHI_SQUARED, budget=4000, seed=seed).value
    print(f"seed {seed}: eta_tv {tv:.6f}   kl bound {kl:.6f}   chi2 bound {chi:.6f}")
print()
print("The kl and chi2 values are certified lower bounds, not suprema; they")
print("always sit below the exact tv coefficient, as the theory demands.")
