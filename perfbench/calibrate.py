"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a shared host whose speed swings by a quarter
within seconds: the same pure-Python loop takes 11 ms in one 5-second
window and 18 ms in the next, in CPU time as well as wall time.  Every
timing the benchmark reports is therefore taken next to a run of the
fixed task below, which uses no `lflp` code, and rescaled to the speed
at which that task takes `REF_S`:

    normalized = wall seconds * REF_S / calibration seconds

A change to `lflp` moves the op time and not the calibration, so it
shows in full; a slow stretch of the host moves both and cancels.  The
raw wall times are printed beside the normalized ones.
"""

from __future__ import annotations

from time import perf_counter

# Median time of one `sample()` on a 2-vCPU x86-64 host with Python 3.11.
# The normalized figures are seconds on a host of that speed.
REF_S = 0.0032
REPS = 12


def _tree(depth: int, i: int):
    if depth == 0:
        return ("var", i % 11) if i % 3 else ("const", f"c{i % 5}")
    return ("app", _tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1))


def _subst(t, env: dict, memo: dict):
    """Rebuild a term with variables replaced: the kind of work a
    unifier and a translator do, in plain Python."""
    key = id(t)
    if key in memo:
        return memo[key]
    if t[0] == "var":
        out = env.get(t[1], t)
    elif t[0] == "const":
        out = t
    else:
        out = ("app", _subst(t[1], env, memo), _subst(t[2], env, memo))
    memo[key] = out
    return out


def _show(t) -> str:
    if t[0] == "app":
        return f"({_show(t[1])} {_show(t[2])})"
    return str(t[1])


def sample() -> float:
    """Seconds taken by one run of the fixed task."""
    t0 = perf_counter()
    t = _tree(8, 1)
    env = {k: ("const", f"k{k}") for k in range(0, 11, 2)}
    sizes = {len(_show(_subst(t, env, {}))) for _ in range(REPS)}
    seconds = perf_counter() - t0
    if len(sizes) != 1:
        raise AssertionError("calibration task is not deterministic")
    return seconds
