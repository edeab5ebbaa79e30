"""Fixed reference work for measuring this machine's current speed.

It does what a CLI call does, without curvesurvey: starts an interpreter,
imports numpy, draws random numbers, factors and multiplies small dense
matrices, streams a load-curve-sized array through memory and runs a
pure-Python loop.  The benchmark times it as a subprocess between CLI
calls.  It never changes, so its time moves only with the machine.
"""

import numpy as np

rng = np.random.default_rng(12345)
x = rng.standard_normal((5000, 48))
cov = np.cov(rng.standard_normal((200, 48)), rowvar=False)
for _ in range(4):
    np.linalg.eigh(cov)
    factor = np.linalg.cholesky(cov)
    np.sort(np.abs(x @ factor.T).max(axis=1))
u = rng.standard_normal((2000, 336))
u.T @ u
curves = np.full((20000, 336), 1.5)
curves *= 2.0
curves.sum(axis=0)
total = 0
for i in range(100_000):
    total += i % 7
