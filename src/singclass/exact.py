"""Placeholder: this module defines nothing.

It held the truncated power series over the rationals, which no engine
module uses (``rho`` is an integer recursion on log S(z)).  The benchmark's
tracer still imports every module it names as a layer, ``exact`` among them,
so the file stays, empty, until the benchmark revision deletes it together
with ``exact`` in its layer list.
"""
