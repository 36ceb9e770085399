"""Every floating-point threshold walkdist applies, defined once.

No function takes a tolerance argument and no flag or config key sets one:
each verdict below is made with one fixed value, so two runs on the same
input always judge alike.  Step counts (how far a series runs, how many points
a fit keeps) live beside the code that uses them.  A comment gives what the
constant decides and, where the use site matters, the comparison it is used
with.
"""

# -- masses and lazinesses ---------------------------------------------------------
MASS_TOL = 1e-9  # |total| <= this: a signed distribution sums to 0, a probability one to 1
PARAM_TOL = 1e-12  # a laziness this close to 0 or 1 is snapped; knife-edge tests (beta = 1/2)

# -- exact transport -------------------------------------------------------------
DUST = 1e-13  # flow solver and plan decomposition: a supply or arc flow <= this is float dust
ZERO_MASS = 1e-15  # settling algorithm: a vertex mass <= this is settled (not DUST: moves differ)
STRICT_TOL = 1e-12  # settling inequalities: a sign product within this of 0 is a violation
LIPSCHITZ_TOL = 1e-12  # dual check: an edge step up to 1 + this still counts as 1-Lipschitz

# -- verdicts on W_k ---------------------------------------------------------------
W_TOL = 1e-9  # two W agree: limits, W_k = W_1, W_k = 1, table vs flow; expansion ties and zeros
# eigenvalue moduli: one >= 1 - this does not decay; in the parity expansion two squared
# moduli this close are one base, and one this close to 0 is the zero base
UNIT_MODULUS_TOL = 1e-9

# -- decay rates -------------------------------------------------------------------
RATE_FLOOR = 1e-13  # fit_rate: an error <= this is float noise, not a point to fit
RATE_WINDOW_HIGH = 1e-2  # rate window: errors above this still carry faster modes
RATE_WINDOW_LOW = 1e-10  # rate window: errors below this carry the step iteration's noise
