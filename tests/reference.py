"""The one test-side copy of each engine rule and of the classifier, written
from README's rules with nothing taken from the package.

Cells are plain: a float (fcm), a (lo, hi) pair (fgcm) or a (kernel,
greyness) pair (fggcm). Every row is summed left to right from +0.0, one
`+=` per term; the logistic has two branches; an interval term is the min
and the max of its four endpoint products, each activated low end the
smaller of the node's two activated ends and each high end the larger; the
greyness is the activated kernel times the |kernel product|-weighted
average of max(weight greyness, state greyness). A row whose mass sum is
below 2**-969, 0 included, is summed again with each product scaled by
2**600, and if that sum is still below, by 2**1200. `run` takes every
requested step, with no early stop, no blocks and no cycle copy.
`classify` builds every gap of a lag, each with its own `distance`, and
then scans the tail backwards.

It imports only `math` and reads `math.exp` at each call, as the engines
do, so a patched `exp` reaches both and the comparisons hold bit for bit on
any libm.
"""

import math

# A greyness mass sum below this is made of products that lost bits to the
# subnormal range, or underflowed to 0.
TINY_MASS = 2.0 ** -969


def logistic(x, lam):
    """1 / (1 + exp(-lam * x)), in the branch that exponentiates no large
    positive argument."""
    z = lam * x
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def dot_lr(weights, values):
    """The row sum: left to right from +0.0, one `+=` per term."""
    s = 0.0
    for w, v in zip(weights, values):
        s += w * v
    return s


def interval_dot(w_row, x):
    """The interval row sum over (lo, hi) pairs, as (lo, hi): each term's
    ends are the min and the max of its four endpoint products."""
    lo = hi = 0.0
    for (wl, wh), (xl, xh) in zip(w_row, x):
        p = (wl * xl, wl * xh, wh * xl, wh * xh)
        lo += min(p)
        hi += max(p)
    return lo, hi


def shares(k_row, x_k):
    """Each |k_j * x_j| and their sum. A sum below TINY_MASS is taken again
    with each factor scaled by 2**300, and if it is still below, by 2**600:
    exact for factors below 2**424 in magnitude, as every factor the tests
    draw is, so each product is rounded once."""
    ones = [1.0] * len(k_row)
    for scale in 0, 300, 600:
        products = [abs(math.ldexp(k, scale) * math.ldexp(x, scale)) for k, x in zip(k_row, x_k)]
        total = dot_lr(products, ones)
        if total >= TINY_MASS:
            break
    return products, total


def grey_masses(row, x):
    """A row's mass and weighted mass over (kernel, greyness) pairs."""
    products, mass = shares([wk for wk, _ in row], [xk for xk, _ in x])
    return mass, dot_lr([max(wg, xg) for (_, wg), (_, xg) in zip(row, x)], products)


def crisp_step(w, a, lam):
    return tuple(logistic(dot_lr(row, a), lam) for row in w)


def interval_step(w, x, lam):
    out = []
    for row in w:
        lo, hi = (logistic(s, lam) for s in interval_dot(row, x))
        out.append((min(lo, hi), max(lo, hi)))
    return tuple(out)


def grey_step(w, x, lam):
    out = []
    for row in w:
        k = logistic(dot_lr([wk for wk, _ in row], [xk for xk, _ in x]), lam)
        mass, weighted = grey_masses(row, x)
        out.append((k, k * (weighted / mass) if mass > 0.0 else 0.0))
    return tuple(out)


STEP = {"fcm": crisp_step, "fgcm": interval_step, "fggcm": grey_step}


def run(family, w, x, lam, steps):
    """Every state over steps, the initial one x first."""
    states = [x]
    for _ in range(steps):
        x = STEP[family](w, x, lam)
        states.append(x)
    return states


def distance(a, b):
    """The Euclidean distance of two states: each cell's squared field
    differences summed, then that added to the running sum, left to right
    from +0.0."""
    s = 0.0
    for x, y in zip(a, b):
        d = [u - v for u, v in zip(x, y)] if isinstance(x, tuple) else [x - y]
        cell = d[0] * d[0]
        for e in d[1:]:
            cell += e * e
        s += cell
    return math.sqrt(s)


def classify(states, epsilon, max_period):
    """(verdict, t_alpha, period, final state) of a run, every gap of a lag
    built before its tail is scanned backwards; None for fewer than
    max_period + 2 states."""
    if len(states) < max_period + 2:
        return None
    for lag in range(1, max_period + 1):
        gaps = [distance(states[t], states[t + lag]) for t in range(len(states) - lag)]
        if gaps[-1] <= epsilon:
            t_alpha = 0
            for t in range(len(gaps) - 1, -1, -1):
                if gaps[t] > epsilon:
                    t_alpha = t + 1
                    break
            if lag == 1:
                return ("FixedPoint", t_alpha, None, states[-1])
            return ("LimitCycle", t_alpha, lag, None)
    return ("Chaotic", None, None, None)
