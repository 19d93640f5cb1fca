"""When can the encoder reveal a whole direction truthfully?

With a 2-D i.i.d. source, revealing the bias-orthogonal combination
x1 = b1 m2 - b2 m1 is an equilibrium candidate.  Whether it survives
depends only on the bias pattern and the family:

* one bias component zero      -> always (the problem decouples)
* b1 = -b2                     -> always, any distribution
* b1 = b2                      -> iff the marginal density is symmetric
* otherwise                    -> iff the source is gaussian

The verifier checks the one condition the paper gives: the conditional
mean of the bias-aligned coordinate is flat in the revealed one.  On a flat
curve truthful reporting follows, since misreporting the revealed value by
d costs the encoder d^2 and changes nothing else.
"""

import numpy as np

from cheaptalk import (
    classify_linear_existence,
    iid_exponential,
    iid_gaussian,
    iid_uniform,
    verify_linear_equilibrium,
)

fixtures = [
    (iid_gaussian(2), [1.0, 2.0]),
    (iid_exponential(2), [1.0, 1.0]),
    (iid_uniform(2), [1.0, -1.0]),
    (iid_exponential(2), [0.0, 3.0]),
    (iid_exponential(2), [1.0, 2.0]),
]

print(f"{'family':18s} {'bias':12s} {'verdict':14s} {'case':20s} confidence")
for model, b in fixtures:
    v = classify_linear_existence(model, b)
    print(f"{model.family:18s} {str(b):12s} {v.exists:14s} {v.theorem_case:20s} {v.confidence}")

print("\nnumerical confirmation at 300k samples:")
for model, b in fixtures[:4]:
    rep = verify_linear_equilibrium(model, b, samples=300_000, seed=1)
    print(
        f"  {model.family:18s} b={b}: constancy max|z|={rep.constancy_max_z:7.2f} "
        f"-> {'equilibrium' if rep.passed else 'broken'}"
    )

print("\nthe equal-bias exponential case fails for a reason you can see:")
model, b = iid_exponential(2), [1.0, 1.0]
rep = verify_linear_equilibrium(model, b, samples=300_000, seed=1)
print("  E[m1 + m2 | m2 - m1 = t] - 2 should be flat; it is |t| - 1 instead:")
for t, est in list(zip(rep.grid, rep.curve))[::2]:
    print(f"    t={t:+.2f}: measured {float(np.asarray(est.value)):+.3f}, "
          f"memorylessness oracle {abs(t) - 1.0:+.3f}")
