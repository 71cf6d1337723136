"""High-precision oracle for the mixture weight of an envelope decomposition,
and for the population EM estimate on the test conditionals it makes.

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
however near 0 it lies.  ``em_root`` solves the same equation in the same way
with the test measure q h0 + (1 - q) h1 of the square-root decomposition in
place of h*.  mpmath is a test dependency only.
"""

from functools import cache

from mpmath import mp

DPS = 30
SEED_HALFWIDTH = 0.01  # logit of the root must lie this close to the seed


def _likelihood_root(density, mean, sd, log_slope, log_offset, breakpoints, seed_logit):
    """t = logit q of the root of the integral of (R - 1) / ((1 - q) + q R)
    against ``density``, inside ``SEED_HALFWIDTH`` of ``seed_logit``.  All
    arguments but the callable ``density`` are mpf; ``breakpoints`` are added
    to the mean, log R = 0 and the posterior log-odds zero as quad points."""
    m, s, a, b = mean, sd, log_slope, log_offset
    ends = (m - 40 * s, m + 40 * s)

    @cache
    def likelihood(t):
        q, p = 1 / (1 + mp.exp(-t)), 1 / (1 + mp.exp(t))

        def integrand(x):
            log_r = a * x + b
            return mp.expm1(log_r) / (p + q * mp.exp(log_r)) * density(x)

        points = sorted(x for x in {m, -b / a, (-t - b) / a, *breakpoints} if ends[0] < x < ends[1])
        return mp.quad(integrand, [ends[0], *points, ends[1]])

    lo, hi = mp.mpf(seed_logit) - SEED_HALFWIDTH, mp.mpf(seed_logit) + SEED_HALFWIDTH
    if not likelihood(lo) > 0 > likelihood(hi):
        raise ValueError(f"the logit of the root does not lie within {SEED_HALFWIDTH} of {seed_logit}")
    return mp.findroot(likelihood, (lo, hi), solver="anderson", tol=1e-22, verify=False)


def mixture_weight(
    mean: float, sd: float, log_slope: float, log_offset: float, seed_logit: float
) -> tuple[float, float]:
    """q* and 1 - q* of the envelope N(mean, sd^2) against R, rounded to floats.

    logit q* must lie within ``SEED_HALFWIDTH`` of ``seed_logit``.
    """
    with mp.workdps(DPS):
        m, s, a, b = (mp.mpf(v) for v in (mean, sd, log_slope, log_offset))
        t = _likelihood_root(lambda x: mp.npdf(x, m, s), m, s, a, b, (), seed_logit)
        return float(1 / (1 + mp.exp(-t))), float(1 / (1 + mp.exp(t)))


def em_root(
    mean: float, sd: float, log_slope: float, log_offset: float, q_star: float, prevalence: float, seed_logit: float
) -> float:
    """Population EM on the square-root decomposition, rounded to a float.

    The test conditionals split N(mean, sd^2) with weight ``q_star`` against
    sqrt(R): h1 = h* / (q* sqrt(R) + 1 - q*) and h0 = sqrt(R) h1.  The estimate
    is the root of the likelihood equation in the training ratio R against
    ``prevalence`` h0 + (1 - ``prevalence``) h1; its logit must lie within
    ``SEED_HALFWIDTH`` of ``seed_logit``.
    """
    with mp.workdps(DPS):
        m, s, a, b, w, q = (mp.mpf(v) for v in (mean, sd, log_slope, log_offset, q_star, prevalence))

        def density(x):
            root_r = mp.exp((a * x + b) / 2)
            return (q * root_r + 1 - q) / (w * root_r + 1 - w) * mp.npdf(x, m, s)

        # where the decomposition's posterior log-odds log sqrt(R) + logit q* vanish
        turn = (-2 * mp.log(w / (1 - w)) - b) / a
        t = _likelihood_root(density, m, s, a, b, (turn,), seed_logit)
        return float(1 / (1 + mp.exp(-t)))
