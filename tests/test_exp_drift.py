"""The verdict table under another `exp`.

`_core.sigmoids` reads `math.exp` at call time, so patching it runs the
engines on another libm's logistic. The trajectory-bit pins in
tests/golden.py hold for one `exp` (glibc's) only; the verdicts and `t_alpha`
in `EXPECTED_CLASS` and every number `reproduce_tables.py` prints must
hold under a correctly rounded `exp` and under one that is 1 ulp off on
a quarter of its arguments, and `golden.exp_fingerprint` must tell each
of them from the libm's.
"""

import contextlib
import decimal
import io
import math
import runpy
import struct
import sys
from pathlib import Path

import pytest

import greycog as gc
from conftest import EXPECTED_CLASS
import golden

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_tables.py"
LIBM_EXP = math.exp


def correctly_rounded_exp(x):
    """exp(x) to 60 digits, rounded once more to the nearest float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return float(decimal.Decimal(x).exp())


def drifting_exp(x):
    """The libm's exp(x), one ulp up on an eighth of the arguments and one
    ulp towards zero on another eighth, chosen by a hash of x's bits, so
    that the drift is the same at every call, as a real libm's is."""
    y = LIBM_EXP(x)
    bucket = (struct.unpack("<Q", struct.pack("<d", x))[0] * 0x9E3779B97F4A7C15
              >> 32) & 7
    if bucket == 0:
        return math.nextafter(y, math.inf)
    if bucket == 1:
        return math.nextafter(y, 0.0)
    return y


EXPS = {"correctly rounded": correctly_rounded_exp, "1-ulp drift": drifting_exp}


def runs():
    """Every `EXPECTED_CLASS` run at T = 100, by (variant, lambda)."""
    return {(variant, lam): gc.simulate(gc.build(variant, lam), 100)
            for variant in EXPECTED_CLASS for lam in EXPECTED_CLASS[variant]}


def test_the_drifting_exp_moves_a_quarter_of_its_results_by_one_ulp():
    xs = [-40.0 * k / 4000 for k in range(1, 4001)]
    moved = [x for x in xs if drifting_exp(x) != LIBM_EXP(x)]
    assert 0.2 < len(moved) / len(xs) < 0.3
    assert all(abs(drifting_exp(x) - LIBM_EXP(x)) == math.ulp(LIBM_EXP(x)) for x in moved)


def test_the_exp_fingerprint_is_pinned():
    golden.check({"libm/exp": golden.exp_fingerprint()})
    # A pin that moves under the pinned exp is the code's doing, and says so.
    with pytest.raises(AssertionError, match="matches the pinned one, so the code moved them"):
        golden.check({"reproduce_tables/stdout": None})


@pytest.mark.parametrize("name", sorted(EXPS))
def test_the_exp_fingerprint_moves_under_another_exp(monkeypatch, name):
    monkeypatch.setattr(math, "exp", EXPS[name])
    with pytest.raises(AssertionError, match="is not the pinned .*, so the libm may have"):
        golden.check({"libm/exp": golden.exp_fingerprint()})


@pytest.mark.parametrize("name", sorted(EXPS))
def test_the_verdict_table_holds_under_another_exp(monkeypatch, name):
    libm = {key: traj.states for key, traj in runs().items()}
    calls = []

    def exp(x):
        calls.append(x)
        return EXPS[name](x)

    monkeypatch.setattr(math, "exp", exp)
    patched = runs()
    assert calls, "the engines did not call the patched exp"
    # The patch reaches the trajectories: some run's bits move.
    assert any(patched[key].states != states for key, states in libm.items())
    for (variant, lam), traj in patched.items():
        cls = gc.classify(traj)
        assert (cls.verdict, cls.t_alpha, cls.period) == EXPECTED_CLASS[variant][lam], \
            (variant, lam)

    monkeypatch.setattr(sys, "argv", [str(SCRIPT)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(SCRIPT), run_name="__main__")
    golden.check({"reproduce_tables/stdout": golden.md5(out.getvalue().encode())},
                 out.getvalue())
