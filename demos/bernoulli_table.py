"""Walk through the Bernoulli number generator.

Run:  python demos/bernoulli_table.py
"""

import os
import tempfile

from powersums import BernoulliCache, bernoulli, bernoulli_range, recurrence_residual

cache = BernoulliCache()

# The first few values.  B_1 is -1/2 in this convention, and every odd
# index after that is exactly zero.
print("The table up to B_24:")
for n, value in enumerate(bernoulli_range(24, cache)):
    marker = "   <- odd, exact zero" if n > 1 and n % 2 and value == 0 else ""
    print(f"  B_{n:<2} = {value}{marker}")

# The sequence is defined so that these binomial-weighted sums all vanish;
# recurrence_residual exposes the sum itself.
print("\nDefining identity, spot-checked:")
for n in (1, 10, 50):
    print(f"  sum of C({n + 1},i) * B_i for i <= {n}  ->  {recurrence_residual(n, cache)}")

# Values grow fast: numerators explode while denominators stay small.
b60 = bernoulli(60, cache)
print(f"\nB_60 has a {len(str(abs(b60.numerator)))}-digit numerator "
      f"and denominator {b60.denominator}.")

# Everything computed so far can be persisted and reloaded; the loader
# re-verifies the identity on the top entries to catch corrupt files.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "bernoulli.cache")
    cache.save(path)
    print('\nSaved the table to a temporary file ("<index> <num>/<den>" per line).')
    print(f"Reloaded: {len(BernoulliCache.load(path))} entries verified.")
