"""Tour of the 2D tracking model: dynamics, sensors, likelihoods.

The hidden state is [v_x, v_y, d_x, d_y] -- velocities and position
offsets relative to a stationary observer. Two sensors watch the
target: a bearing sensor (arctan(d_x/d_y) plus Gaussian noise, wrapped
to (-pi, pi]) and a range sensor (sqrt(d_x^2 + d_y^2) plus Gaussian
noise, clipped to [0, r_max]).

Run:  python demos/01_tracking_model.py
"""

import numpy as np

from modalfuse import tracking_model_2d
from modalfuse.ssm import null_loglik

model = tracking_model_2d()
angle, rng_mod = model.modalities
rng = np.random.default_rng(0)

x = np.array([1.0, 1.0, 200.0, 200.0])
print("state [v_x, v_y, d_x, d_y]:", x)
print(f"true bearing : {angle.mean(x):.4f} rad")
print(f"true range   : {rng_mod.mean(x):.4f}")

print("\nNoisy observations drawn from the sensors:")
for _ in range(3):
    bearing, distance = angle.reading(x, rng.standard_normal()), rng_mod.reading(x, rng.standard_normal())
    print(f"  bearing {float(bearing):+.4f}   range {float(distance):8.3f}")

print("\nLog-likelihood of a bearing reading under three hypothetical states:")
y = 0.80
for dx, dy in ((200.0, 200.0), (150.0, 250.0), (250.0, 150.0)):
    xx = np.array([0.0, 0.0, dx, dy])
    print(f"  d=({dx:6.1f},{dy:6.1f})  loglik {float(angle.loglik(y, xx)):10.3f}")

print("\nNull log-likelihoods (what a 'useless' sensor contributes):")
print(f"  bearing: {null_loglik(angle):.4f}  = -log(2 pi), uniform over [-pi, pi]")
print(f"  range  : {null_loglik(rng_mod):.4f}  = -log(r_max = {rng_mod.r_max:.0f}), uniform over [0, r_max]")

print("\nOne transition step (velocities integrate into positions):")
for _ in range(3):
    x = model.transition.sample(x, rng)
    print(f"  {np.array2string(x, precision=2, floatmode='fixed')}")
