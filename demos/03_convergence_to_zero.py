"""The convergence-to-zero failure mode of the analog solver on 3-regular
3-XORSAT: all spins collapse toward 0 while the clause weights grow.

Runs the default weight-growth law (exponential growth) and two modified
laws (linear growth), then fits the trailing half of each weight history.
"""

import numpy as np

from ctsat import ANALOG, IntegratorConfig, run
from ctsat.dynamics import AnalogOptions
from ctsat.instances import gen_xorsat_3r


def r_squared(x, y):
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    return 1.0 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2)


inst = gen_xorsat_3r(20, seed=3)
n = inst.problem.num_vars

# detection on: the run stops once all |s_i| stay below 0.01 for 5 units
record = run(inst.problem, ANALOG, seed=1, config=IntegratorConfig(t_ev=150.0))
print(f"default weight law: {record.outcome} (t_detect={record.t_detect})")
print(f"  final max|s_i| = {np.abs(record.states[-1, :n]).max():.2e}, "
      f"max weight = {record.states[-1, n:].max():.2f}")

# detection off: watch the growth long after the collapse
config = IntegratorConfig(t_ev=120.0, eps_zero=0.0)
for mode in ("aK2", "K", "K2"):
    rec = run(inst.problem, ANALOG, seed=1, config=config,
              solver_options=AnalogOptions(aux_mode=mode))
    tail = rec.times >= 60.0
    t, a = rec.times[tail], rec.states[tail][:, n:]
    r2_exp = np.mean([r_squared(t, np.log(a[:, j])) for j in range(a.shape[1])])
    r2_lin = np.mean([r_squared(t, a[:, j]) for j in range(a.shape[1])])
    kind = "exponential" if r2_exp > r2_lin else "linear"
    print(f"aux mode {mode:>3}: growth looks {kind} "
          f"(R^2 log fit {r2_exp:.4f}, linear fit {r2_lin:.4f})")
