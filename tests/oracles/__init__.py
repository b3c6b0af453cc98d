"""Reference implementations kept as test oracles.

Code that production no longer runs, preserved here so that property
tests can pin the faster replacements to it bit for bit.
"""
