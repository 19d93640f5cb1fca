"""Reveal-and-quantize: the workhorse equilibrium family.

An orthonormal change of variables concentrates the whole bias on the last
coordinate.  The encoder reveals the first n-1 transformed coordinates (here
approximated by a fine grid) and plays a scalar biased quantizer on the
last.  The certificate checks the separation condition over realized action
pairs, centroid residuals, and the encoder's best deviation, and estimates
both players' costs; the encoder always pays exactly ||b||^2 more.
"""

from cheaptalk import (
    construct_reveal_plus_quantize,
    expected_distortions,
    iid_gaussian,
    iid_uniform,
    verify_equilibrium,
)

model = iid_gaussian(2)
b = [1.0, 1.0]
print("i.i.d. gaussian n=2, bias (1,1): transformed bias magnitude sqrt(2)")
for k_last in (1, 2, 3):
    policy = construct_reveal_plus_quantize(model, b, k_last)
    cert = verify_equilibrium(policy, model, b, samples=300_000, seed=0)
    print(
        f"  K_last={k_last} ({policy.kind}): passed={cert.passed}, "
        f"min slack={cert.min_pairwise_geo_slack:.2e}, "
        f"Je={cert.je.value:.4f}, Jd={cert.jd.value:.4f}, gap={cert.je.value - cert.jd.value:.4f}"
    )

print("\nin 2-D the same construction covers symmetric sources with equal bias")
print("and any i.i.d. family with b1 = -b2 (single last-coordinate action):")
for model, b in [(iid_uniform(2), [1.0, 1.0]), (iid_uniform(2), [1.0, -1.0])]:
    policy = construct_reveal_plus_quantize(model, b, 1)
    cert = verify_equilibrium(policy, model, b, samples=300_000, seed=0)
    je, jd = expected_distortions(policy, model, b, samples=300_000, seed=0)
    print(
        f"  uniform b={b}: passed={cert.passed}, per-dim Jd={jd.value:.5f} "
        f"(revealing one of two coordinates keeps half the variance: 1/24={1/24:.5f})"
    )
