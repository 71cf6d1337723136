"""High-precision oracle for the mixture weight of an envelope decomposition.

The envelope h* is the normal density N(mean, sd^2), and the density ratio is
R(x) = exp(log_slope x + log_offset).  The weight q* is the root of

    integral over the real line of (R - 1) / ((1 - q) + q R) h*(x) dx = 0.

``mixture_weight`` solves it with mpmath at ``DPS`` digits.  ``mp.quad``
integrates over mean +- 40 sd, beyond which h* is below 1e-347, with
breakpoints at the envelope mean, at log R = 0 and where the posterior
log-odds log R + logit q vanish.  ``mp.findroot`` (Anderson-Bjoerck) searches
t = logit q inside a bracket around a seed, which must enclose a sign change,
until a step is below 1e-22; q* then holds far more digits than a float.
Both q* and 1 - q* are formed from t, so each keeps its relative precision
however near 0 it lies.  mpmath is a test dependency only.
"""

from functools import cache

from mpmath import mp

DPS = 30
SEED_HALFWIDTH = 0.01  # logit q* must lie this close to the seed


def mixture_weight(
    mean: float, sd: float, log_slope: float, log_offset: float, seed_logit: float
) -> tuple[float, float]:
    """q* and 1 - q* of the envelope N(mean, sd^2) against R, rounded to floats.

    logit q* must lie within ``SEED_HALFWIDTH`` of ``seed_logit``.
    """
    with mp.workdps(DPS):
        m, s, a, b = (mp.mpf(v) for v in (mean, sd, log_slope, log_offset))
        ends = (m - 40 * s, m + 40 * s)

        @cache
        def likelihood(t):
            q, p = 1 / (1 + mp.exp(-t)), 1 / (1 + mp.exp(t))

            def integrand(x):
                log_r = a * x + b
                return mp.expm1(log_r) / (p + q * mp.exp(log_r)) * mp.npdf(x, m, s)

            points = sorted(x for x in {m, -b / a, (-t - b) / a} if ends[0] < x < ends[1])
            return mp.quad(integrand, [ends[0], *points, ends[1]])

        lo, hi = mp.mpf(seed_logit) - SEED_HALFWIDTH, mp.mpf(seed_logit) + SEED_HALFWIDTH
        if not likelihood(lo) > 0 > likelihood(hi):
            raise ValueError(f"logit q* does not lie within {SEED_HALFWIDTH} of {seed_logit}")
        t = mp.findroot(likelihood, (lo, hi), solver="anderson", tol=1e-22, verify=False)
        return float(1 / (1 + mp.exp(-t))), float(1 / (1 + mp.exp(t)))
