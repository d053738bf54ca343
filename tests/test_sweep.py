"""Every numeric flag of design, run, bench and curve over the float range and the table's ends.

The cases come from objectives.PARAMS and the parser, so a new row of the table
is swept without an edit here.  Each runs in process through cli.main at
n = 3, m = 8 and q = d = 10, and either exits 0, with every audit passing, or
exits 2 with an error line that names the flag it gave; argparse's own refusal
of a malformed literal counts.  A value past a cap is refused before anything
is allocated.  A size inside its range but above its default is not run: at
the cap one run takes seconds to minutes, and that is measured, not tested.
"""

import contextlib
import io
import math
import os
import re
import tracemalloc

import pytest

from psdalloc.cli import build_parser, main
from psdalloc.objectives import FLOAT_MAX, PARAMS, number, whole

SMALL = ["--q", "10", "--d", "10"]
BASE = {
    "design": ["design", "--gamma", "2", "--umax", "10", "--variant", "seq", "--rho2", "1",
               *SMALL, "--out", os.devnull],
    "run": ["run", "--n", "3", "--m", "8", "--out", os.devnull],
    "bench": ["bench", "--n", "3", "--m", "8", *SMALL],
    "curve": ["curve", "--gamma", "2", "--umax", "10", "--variant", "seq", "--rho2", "1",
              *SMALL, "--out", os.devnull],
}
# the float range's ends and its specials, as literals; an int flag refuses the non-integers
EXTREMES = ["5e-324", "1.7e308", "0", "-1", "nan", "inf"]
DECADES = [1e-300, 1e-10, 0.5, 1.0, 2.0, 10.0, 1e10, 1e300]


def values(p):
    """About 20 literals for one PARAMS entry: EXTREMES, each end of its range plus or minus
    one step, and decades; the whole numbers above the default up to the cap are left out.
    A range that ends at the float range's end also takes its half plus or minus one step,
    where a doubling overflows."""
    lo, hi = p.span
    if p.cast is whole:
        ints = [lo - 1, lo, lo + 1, p.default, hi + 1] + [10 ** k for k in (1, 3, 6, 19, 308)]
        more = [str(v) for v in sorted(set(ints)) if hi == math.inf or not p.default < v <= hi]
    else:
        ends = (lo, hi) + ((hi / 2,) if hi == FLOAT_MAX else ())
        steps = [math.nextafter(end, way) for end in ends for way in (-math.inf, math.inf)]
        more = [repr(v) for v in sorted({*ends, *steps, *DECADES})]
    return EXTREMES + [v for v in more if float(v) not in map(float, EXTREMES)]


def cases():
    flags = {p.flag: key for key, p in PARAMS.items() if p.cast in (number, whole)}
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    for command, base in BASE.items():
        for action in sub.choices[command]._actions:
            for flag in set(action.option_strings) & set(flags):
                for value in values(PARAMS[flags[flag]]):
                    yield pytest.param(command, flag, value,
                                       id="%s%s=%s" % (command, flag, value[:24]))


def past_cap(key, value):
    """Whether value is a whole number above the finite cap of PARAMS[key]."""
    p = PARAMS[key]
    return p.cast is whole and p.span[1] < math.inf and re.fullmatch(r"\d+", value) \
        and int(value) > p.span[1]


@pytest.mark.parametrize("command,flag,value", list(cases()))
def test_every_numeric_flag_runs_or_names_itself(command, flag, value):
    argv = list(BASE[command])
    if flag in argv:                    # the sweep's value replaces the base one
        del argv[argv.index(flag):argv.index(flag) + 2]
    argv += [flag, value]
    key = next(k for k, p in PARAMS.items() if p.flag == flag)
    err = io.StringIO()
    capped = past_cap(key, value)
    if capped:
        tracemalloc.start()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse refused the literal
                code = exc.code
    finally:
        if capped:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    err = err.getvalue()
    assert "Traceback" not in err
    if code == 0:
        assert command not in ("run", "bench") or re.search(
            r"audit = True|(\d+) runs, \1 audits passed", err), err
    else:
        last = err.strip().splitlines()[-1]
        assert code == 2 and re.search(r"(^|\W)%s(\W|$)" % re.escape(flag), last), err
        assert err.startswith("usage: ") or err.count("\n") == 1, err      # argparse's, or one line
    if capped:
        assert code == 2 and peak < 1 << 20, (code, peak)
